"""Exact Hilbert functions of the differential form modules of fat point
schemes in projective space, with closed-form cross-checks and bounds."""

from .kaehler import (
    ExteriorForm,
    OmegaHF,
    WedgeBasis,
    koszul_check,
    omega_hf,
    submodule_slice,
    top_form_hf,
    wedge_with_differential,
)
from .polyring import HomogPoly, format_poly, parse_poly
from .schemes import (
    CoordinateAssumptionError,
    FatPointScheme,
    HFTable,
    ProjPoint,
    StabilizationError,
    generator_degrees,
    hf_table,
    hilbert_function,
    ideal_slice,
    minimal_generators,
    regularity_index,
)

__all__ = [
    "CoordinateAssumptionError",
    "ExteriorForm",
    "FatPointScheme",
    "HFTable",
    "HomogPoly",
    "OmegaHF",
    "ProjPoint",
    "StabilizationError",
    "WedgeBasis",
    "format_poly",
    "generator_degrees",
    "hf_table",
    "hilbert_function",
    "ideal_slice",
    "koszul_check",
    "minimal_generators",
    "omega_hf",
    "parse_poly",
    "regularity_index",
    "submodule_slice",
    "top_form_hf",
    "wedge_with_differential",
]
