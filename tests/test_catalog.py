import random
from collections import Counter
from itertools import combinations

import pytest

from hppcheck.catalog import (CATALOG_NAMES, CERT_PAIRS, catalog,
                              catalog_index, entry, find_labeling,
                              literature_definition, pin_permutation,
                              resolve_name, uniform)
from hppcheck.certificate import shipped_store
from hppcheck.matroid import Matroid
from hppcheck.polynomial import Polynomial
from hppcheck.rayleigh import rayleigh_diff_multiaffine


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


# -- the labeling search against an independent reference -----------------------

def _permute(terms, perm):
    """Term dict with variable i renamed perm[i-1]."""
    out = {}
    for exps, c in terms.items():
        new = [0] * len(exps)
        for i, a in enumerate(exps):
            new[perm[i] - 1] = a
        out[tuple(new)] = c
    return out


def _signature(p, v):
    entries = []
    i = v - 1
    for exps, coeff in p.terms.items():
        if exps[i]:
            entries.append((exps[i], coeff, sum(exps), tuple(sorted(exps))))
    return tuple(sorted(entries))


def reference_find_labeling(M, pair, target_delta):
    """The earlier search: prune pairs by term count, degree, coefficients
    and the value at ones, then backtrack over signature classes and
    compare each candidate on the difference side."""
    e0, f0 = pair
    if target_delta.m != M.m:
        return None
    Z = M.basis_polynomial()
    m = M.m
    tgt_nterms = target_delta.num_terms()
    tgt_deg = target_delta.total_degree()
    tgt_coeffs = sorted(target_delta.terms.values())
    tgt_eval = target_delta.eval_rational([1] * m)
    others_t = [v for v in range(1, m + 1) if v not in (e0, f0)]
    sig_t = {v: _signature(target_delta, v) for v in others_t}
    candidates = []
    for a, b in combinations(range(1, m + 1), 2):
        delta = rayleigh_diff_multiaffine(Z, a, b)
        if delta.num_terms() != tgt_nterms or delta.total_degree() != tgt_deg:
            continue
        if sorted(delta.terms.values()) != tgt_coeffs:
            continue
        if delta.eval_rational([1] * m) != tgt_eval:
            continue
        others_s = [v for v in range(1, m + 1) if v not in (a, b)]
        sig_s = {v: _signature(delta, v) for v in others_s}
        pools = {}
        for v in others_t:
            pools.setdefault(sig_t[v], []).append(v)
        if Counter(sig_s.values()) != Counter(sig_t.values()):
            continue
        source = sorted(others_s)

        def assign(idx, mapping, used):
            if idx == len(source):
                for pa, pb in ((e0, f0), (f0, e0)):
                    perm = [0] * m
                    perm[a - 1] = pa
                    perm[b - 1] = pb
                    for src, dst in mapping.items():
                        perm[src - 1] = dst
                    if _permute(delta.terms, perm) == target_delta.terms:
                        candidates.append(tuple(perm))
                return
            v = source[idx]
            for w in pools[sig_s[v]]:
                if w not in used:
                    mapping[v] = w
                    used.add(w)
                    assign(idx + 1, mapping, used)
                    used.discard(w)
                    del mapping[v]

        assign(0, {}, set())
    return min(candidates, default=None)


def _cert_target(name):
    M = entry(name).matroid
    return rayleigh_diff_multiaffine(M.basis_polynomial(), *CERT_PAIRS[name])


def _labeling_cases():
    # the seven certificate targets against their literature constructions
    for name in CERT_PAIRS:
        yield literature_definition(name), CERT_PAIRS[name], _cert_target(name)
    # three seeded relabelings of every entry, each at a seeded pair of
    # elements that are not loops, in either order
    rng = random.Random(2104)
    for name in CATALOG_NAMES:
        M = entry(name).matroid
        live = [e for e in range(1, M.m + 1) if e not in M.loops()]
        for _ in range(3):
            pair = tuple(rng.sample(live, 2))
            target = rayleigh_diff_multiaffine(M.basis_polynomial(), *pair)
            perm = list(range(1, M.m + 1))
            rng.shuffle(perm)
            yield M.relabeled(perm), pair, target
    # targets of a neighbouring matroid that is not isomorphic
    for target_name, name in (("W3p", "W3pe"), ("F7m4", "F7m5"),
                              ("P7p", "P7pp")):
        yield entry(name).matroid, (1, 2), _cert_target(target_name)


def test_find_labeling_matches_reference():
    results = []
    for M, pair, target in _labeling_cases():
        perm = find_labeling(M, pair, target)
        assert perm == reference_find_labeling(M, pair, target)
        if perm is not None:
            Z = M.relabeled(perm).basis_polynomial()
            assert rayleigh_diff_multiaffine(Z, *pair) == target
        results.append(perm)
    assert len(results) == 7 + 3 * len(CATALOG_NAMES) + 3
    assert results[-3:] == [None] * 3
    assert None not in results[:-3]


def _zero_target_cases():
    # small matroids with loops, a coloop or neither, scrambled, at every
    # pair; a zero target is met by any relabeling taking a pair of zero
    # difference (one holding a loop or a coloop) onto the pair
    rng = random.Random(2405)
    bases = [uniform(2, 4), entry("F7m4").matroid,
             Matroid(5, 2, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
             Matroid(5, 3, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]),
             Matroid(6, 2, [(1, 3), (1, 4), (3, 4), (1, 6), (3, 6), (4, 6)]),
             Matroid(4, 2, [(1, 2), (1, 3)])]
    for M in bases:
        perm = list(range(1, M.m + 1))
        rng.shuffle(perm)
        M = M.relabeled(perm)
        target = Polynomial(M.m, {})
        for pair in combinations(range(1, M.m + 1), 2):
            yield M, pair[::rng.choice((1, -1))], target


def test_find_labeling_zero_target_matches_reference():
    results = []
    for M, pair, target in _zero_target_cases():
        perm = find_labeling(M, pair, target)
        assert perm == reference_find_labeling(M, pair, target)
        if perm is not None:
            Z = M.relabeled(perm).basis_polynomial()
            assert rayleigh_diff_multiaffine(Z, *pair).is_zero()
        results.append(perm)
    # U_2_4 and F7m4 have no pair of zero difference; every other matroid
    # has one, so every pair can be sent a zero difference
    assert results[:6 + 21] == [None] * 27
    assert None not in results[27:]


def test_find_labeling_zero_target_builds_few_relabelings(monkeypatch):
    # element 1 of nP_d1 is a loop, so its (1, 2) difference is zero
    M = entry("nP_d1").matroid
    target = rayleigh_diff_multiaffine(M.basis_polynomial(), 1, 2)
    assert target.is_zero()
    calls = [0]
    relabeled = Matroid.relabeled

    def counted(self, perm):
        calls[0] += 1
        return relabeled(self, perm)

    monkeypatch.setattr(Matroid, "relabeled", counted)
    assert find_labeling(M, (1, 2), target) == tuple(range(1, 10))
    # two per pair of zero difference: the eight pairs holding element 1
    assert calls[0] == 16


def test_find_labeling_rejects_a_repeated_pair():
    M = uniform(2, 4)
    target = rayleigh_diff_multiaffine(M.basis_polynomial(), 1, 2)
    with pytest.raises(ValueError):
        find_labeling(M, (3, 3), target)
