from itertools import combinations

import pytest

from hppcheck.catalog import (catalog, catalog_index, entry,
                              literature_definition, pin_permutation,
                              resolve_name, uniform)
from hppcheck.certificate import shipped_store
from hppcheck.matroid import Matroid


def is_basis(M, subset):
    return tuple(sorted(subset)) in M.bases()


def test_all_entries_pass_basis_exchange():
    for ent in catalog().values():
        M = ent.matroid
        # re-validate from scratch
        Matroid(M.m, M.rank, M.bases(), validate=True)


def test_entry_shapes():
    shapes = {name: (e.matroid.m, e.matroid.rank, e.matroid.num_bases())
              for name, e in catalog().items()}
    assert shapes["U_2_4"] == (4, 2, 6)
    assert shapes["F7m4"] == (7, 3, 32)
    assert shapes["F7m5"] == (7, 3, 33)
    assert shapes["W3p"] == (7, 3, 29)
    assert shapes["W3pe"] == (7, 3, 32)
    assert shapes["P7p"] == (7, 3, 31)
    assert shapes["P7pp"] == (7, 3, 32)
    assert shapes["nP"] == (9, 3, 76)
    assert shapes["nP_d1"] == (9, 3, 51)
    assert shapes["nP_d9"] == (8, 3, 50)
    assert shapes["V8"] == (8, 4, 65)


def test_derived_deletion_entries_match_np():
    nP = entry("nP").matroid
    assert entry("nP_d1").matroid == nP.remove_as_loop(1)
    assert entry("nP_d9").matroid == nP.delete(9)
    assert entry("nP_d1").matroid.loops() == (1,)
    assert entry("nP_d9").matroid.loops() == ()


def test_known_hpp_flags():
    ents = catalog()
    assert ents["F7m5"].known_hpp and ents["P7pp"].known_hpp
    assert not any(ents[n].known_hpp for n in
                   ("F7m4", "W3p", "W3pe", "P7p", "nP", "nP_d1", "nP_d9", "V8"))


def test_certificate_pairs_cover_store():
    store = shipped_store()
    pairs = {name: ent.cert_pair for name, ent in catalog().items()
             if ent.cert_pair}
    assert pairs == {"F7m4": (1, 2), "W3p": (1, 2), "W3pe": (1, 2),
                     "P7p": (1, 2), "nP_d1": (2, 4), "nP_d9": (1, 2),
                     "V8": (1, 2)}
    for name, pair in pairs.items():
        assert store.lookup(name, pair) is not None


def test_provenance_notes_present():
    for ent in catalog().values():
        assert ent.provenance


def test_pins_take_literature_to_catalog_labels():
    for name in ("F7m4", "F7m5", "W3p", "W3pe", "P7p", "P7pp", "nP", "V8"):
        lit = literature_definition(name)
        pinned = lit.relabeled(pin_permutation(name))
        got = entry(name).matroid
        assert pinned.basis_masks() == got.basis_masks()


def test_whirl_relationships():
    whirl = Matroid.from_nonbases(6, 3, [(1, 2, 4), (2, 3, 5), (1, 3, 6)])
    w3p = literature_definition("W3p")
    w3pe = literature_definition("W3pe")
    assert w3p.delete(7).is_isomorphic(whirl) is not None
    assert w3pe.delete(7).is_isomorphic(whirl) is not None


def test_p7pp_is_relaxation_of_p7p():
    p7p = entry("P7p").matroid
    nonbases = [t for t in combinations(range(1, 8), 3)
                if not is_basis(p7p, t) and t != (1, 2, 3)]
    relaxed = Matroid.from_nonbases(7, 3, nonbases)
    assert relaxed.is_isomorphic(entry("P7pp").matroid) is not None


def test_index_holds_each_core_once():
    # no dual rows: no core has rank above its corank, so the checker
    # never checks a catalog core through its dual
    index = catalog_index()
    for name, ent in catalog().items():
        core, _ = ent.matroid.strip_absent()
        assert core.rank <= core.corank(), name
        assert [value for value, _ in index.lookup(core)] == [name]


def test_resolve_name():
    assert resolve_name("V8").num_bases() == 65
    assert resolve_name("U_3_6") == uniform(3, 6)
    with pytest.raises(KeyError):
        resolve_name("U_9")
    for name in ("U_0_3", "U_4_3"):      # not 0 < r <= m
        with pytest.raises(KeyError):
            resolve_name(name)
    with pytest.raises(KeyError):
        resolve_name("F8")


def test_np_lines_are_the_eight_dependent_triples():
    nP = entry("nP").matroid
    nonbases = [t for t in combinations(range(1, 10), 3) if not is_basis(nP, t)]
    assert len(nonbases) == 8
    # the relaxed conclusion line {7,8,9} must be a basis
    assert is_basis(nP, (7, 8, 9))
