"""The per-scheme caches are bounded: a session that computes the tables of
many schemes keeps the results of the last `SCHEMES_KEPT` of them, and a
table computed again after eviction is the same table."""

import gc
import sys
import weakref
from itertools import count

from kahlerdiff import formulas, kaehler, schemes
from kahlerdiff.formulas import ri_bounds
from kahlerdiff.kaehler import omega_hf, submodule_slice
from kahlerdiff.schemes import SCHEMES_KEPT, FatPointScheme, ProjPoint, hf_table, minimal_generators
from kahlerdiff.verify import run_suite

_fresh = count(1000)

# keyed by (n, degree), which a session does not grow without bound
NOT_PER_SCHEME = {"degree_slice"}


def fresh_scheme() -> FatPointScheme:
    """Three points of P^2 that no other test uses, one of them double."""
    k = next(_fresh)
    pts = [ProjPoint((1, k, 1)), ProjPoint((1, -1, k)), ProjPoint((1, 2, -k))]
    return FatPointScheme(2, pts, [2, 1, 1])


def every_table(s: FatPointScheme) -> None:
    """Fill every per-scheme cache for `s`."""
    for m in range(1, s.n + 2):
        omega_hf(s, m)
        ri_bounds(s, m)
    for m in range(1, s.n + 1):
        omega_hf(s, m, relative=True)
    hf_table(s)
    minimal_generators(s)
    submodule_slice(s, s.n + 1, s.n + 3)


def per_scheme_caches() -> dict:
    """Every cached name of the package, by name, except `degree_slice`."""
    found = {}
    for name, mod in sorted(sys.modules.items()):
        if name.startswith("kahlerdiff"):
            for attr, value in vars(mod).items():
                if hasattr(value, "cache_info") and attr not in NOT_PER_SCHEME:
                    found[attr] = value
    return found


def test_the_per_scheme_caches_are_the_expected_ones():
    assert set(per_scheme_caches()) == {
        "jet_system", "hf_table", "_slice_data", "minimal_generators",
        "_generator_jets", "_polynomial_partial_jets", "omega_hf", "is_general_position",
    }


def test_every_cache_stays_within_its_bound():
    for _ in range(SCHEMES_KEPT + 3):
        every_table(fresh_scheme())
    for name, cached in per_scheme_caches().items():
        info = cached.cache_info()
        assert info.maxsize is not None and info.maxsize % SCHEMES_KEPT == 0, name
        assert info.currsize <= info.maxsize, name
    for cached in (schemes.jet_system, hf_table, minimal_generators, kaehler._generator_jets,
                   kaehler._polynomial_partial_jets, formulas.is_general_position):
        assert cached.cache_info().currsize == SCHEMES_KEPT


def test_an_evicted_sweep_is_freed():
    first = fresh_scheme()
    every_table(first)
    sweep = weakref.ref(kaehler._generator_jets(first))
    for _ in range(SCHEMES_KEPT + 3):
        every_table(fresh_scheme())
    gc.collect()
    assert sweep() is None


def test_a_table_recomputed_after_eviction_is_the_same():
    """Enough schemes to evict every table of the first one, so that its
    Omega^2 table is swept again from nothing."""
    first = fresh_scheme()
    before = omega_hf(first, 2)
    tables = omega_hf.cache_info().maxsize
    for _ in range(tables // (2 * first.n + 1) + 1):
        every_table(fresh_scheme())
    misses = omega_hf.cache_info().misses
    after = omega_hf(first, 2)
    assert omega_hf.cache_info().misses == misses + 1
    assert after is not before
    assert after.table.values == before.table.values
    assert (after.ri, after.hp, after.cert_degree) == (before.ri, before.hp, before.cert_degree)


def test_three_spellings_compute_one_table():
    s = fresh_scheme()
    misses = omega_hf.cache_info().misses
    table = omega_hf(s, 1)
    assert omega_hf(s, 1, False) is table
    assert omega_hf(s, 1, relative=False) is table
    assert omega_hf.cache_info().misses == misses + 1
    assert omega_hf(s, 1, relative=True) is not table


def test_verify_sweeps_each_scheme_once(monkeypatch):
    """verify-paper's core and conic suites come back to a scheme within
    the bound: each scheme's ideal-jet sweep runs once."""
    for cached in per_scheme_caches().values():
        cached.cache_clear()
    swept = []
    init = kaehler._GeneratorJets.__init__

    def record(self, scheme):
        swept.append(scheme)
        init(self, scheme)

    monkeypatch.setattr(kaehler._GeneratorJets, "__init__", record)
    misses = kaehler._generator_jets.cache_info().misses
    assert all(r.passed for r in run_suite("core") + run_suite("conic"))
    assert len(swept) == len(set(swept)) > SCHEMES_KEPT
    assert kaehler._generator_jets.cache_info().misses == misses + len(set(swept))
