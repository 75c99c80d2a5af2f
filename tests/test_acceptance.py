"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line.  Tolerances are zero (exact rational equality) unless a
runtime budget is stated.
"""

import time
from fractions import Fraction
from itertools import permutations

import numpy as np

from hppcheck.catalog import (CATALOG_NAMES, catalog, entry, find_labeling,
                              literature_definition, pin_permutation,
                              resolve_name, uniform)
from hppcheck.certificate import CertificateStore, shipped_store, verify
from hppcheck.checker import (PROVED, REFUTED, CheckOptions,
                              StrongRayleighChecker, replay_report)
from hppcheck.polynomial import Polynomial
from hppcheck.rayleigh import (discriminant_symmetric_form, quad_decompose,
                               rayleigh_diff, rayleigh_diff_multiaffine)
from hppcheck.sos_search import search_certificate

from conftest import compress_out

SEVEN = ("F7m4", "W3p", "W3pe", "P7p", "nP_d1", "nP_d9", "V8")


def _cert_target(name):
    ent = entry(name)
    Z = ent.matroid.basis_polynomial()
    return rayleigh_diff_multiaffine(Z, *ent.cert_pair)


def _report(line):
    print(f"\nACCEPTANCE {line}")


def test_criterion_1_seven_golden_identities():
    t0 = time.monotonic()
    store = shipped_store()
    assert len(store) == 7
    for (name, pair), cert in sorted(store.by_key.items()):
        target = rayleigh_diff_multiaffine(
            entry(name).matroid.basis_polynomial(), *pair)
        verdict = verify(cert, target)
        assert verdict.passed, f"{name} {pair}: {verdict.describe()}"
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"golden identities took {elapsed:.1f}s (budget 10s)"
    _report(f"1: PASS - seven certificates verify bit-exactly ({elapsed:.2f}s)")


def test_criterion_2_labeling_oracle():
    t0 = time.monotonic()
    pairs = {"F7m4": (1, 2), "W3p": (1, 2), "W3pe": (1, 2), "P7p": (1, 2),
             "nP_d1": (2, 4), "nP_d9": (1, 2), "V8": (1, 2)}
    for name in SEVEN:
        target = _cert_target(name)
        lit = literature_definition(name)
        perm = find_labeling(lit, pairs[name], target)
        assert perm is not None, f"no labeling found for {name}"
        relabeled = lit.relabeled(perm)
        got = rayleigh_diff_multiaffine(
            relabeled.basis_polynomial(), *pairs[name])
        assert got == target
    # committed pins still reproduce the catalog entries exactly
    for name in ("F7m4", "F7m5", "W3p", "W3pe", "P7p", "P7pp", "nP", "V8"):
        pinned = literature_definition(name).relabeled(pin_permutation(name))
        assert pinned.basis_masks() == entry(name).matroid.basis_masks()
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"labeling oracle took {elapsed:.1f}s (budget 300s)"
    _report(f"2: PASS - labeling search pins all seven targets ({elapsed:.1f}s)")


def test_criterion_3_discriminant_symmetry(proposition_corpus):
    assert len(proposition_corpus) >= 200
    for Z, e, f, g in proposition_corpus:
        base = quad_decompose(Z, e, f, g).discriminant()
        for a, b, c in permutations((e, f, g)):
            assert quad_decompose(Z, a, b, c).discriminant() == base
        assert discriminant_symmetric_form(Z, e, f, g) == base
    _report(f"3: PASS - discriminant symmetric under all index permutations "
            f"and equal to the expanded form on {len(proposition_corpus)} "
            f"random polynomials")


def _unwrap(report):
    r = report
    while r.justification.get("kind") in ("isomorphic", "reduction"):
        r = r.justification["inner"]
    return r


def test_criterion_4_recursive_driver():
    store = shipped_store()
    checker = StrongRayleighChecker(store, CheckOptions(search=False))
    for name in SEVEN:
        M = resolve_name(name)
        report = checker.check(M, name=name)
        assert report.verdict == PROVED, name
        assert replay_report(report, M, store), name

    # a PROVED node lists its certified pair's four minors; every
    # one-element minor, checked directly, matches the case analyses
    v8 = checker.check(resolve_name("V8"), name="V8")
    assert sorted((c["op"], c["element"]) for c in v8.children) == \
        [("contract", 1), ("contract", 2), ("delete", 1), ("delete", 2)]

    def child_targets(M, op):
        out = set()
        for e in range(1, M.m + 1):
            minor = M.contract(e) if op == "contract" else M.delete(e)
            j = _unwrap(checker.check(minor)).justification
            out.add(j.get("catalog") or j.get("fact"))
        return out

    V8 = resolve_name("V8")
    assert child_targets(V8, "contract") == {"F7m4", "F7m5"}
    # a deletion of V8 has rank 4 on seven elements, so it is checked
    # through its dual, which is F7m4 or F7m5
    dual_targets = set()
    for e in range(1, V8.m + 1):
        node = _unwrap(checker.check(V8.delete(e)))
        assert node.justification["kind"] == "dual"
        dual_targets.add(_unwrap(node.justification["inner"])
                         .justification["catalog"])
    assert dual_targets == {"F7m4", "F7m5"}

    np_d1, _ = resolve_name("nP_d1").strip_absent()
    assert child_targets(np_d1, "delete") == \
        {"F7m4", "W3pe", "F7m5", "P7p", "P7pp"}
    assert child_targets(np_d1, "contract") == {"rank_or_corank_at_most_2"}

    np_d9 = resolve_name("nP_d9")
    assert child_targets(np_d9, "delete") == {"F7m4", "P7p"}
    assert child_targets(np_d9, "contract") == {"rank_or_corank_at_most_2"}
    _report("4: PASS - all seven PROVED without search; reports replay and "
            "match the case analyses")


def test_criterion_5_non_pappus_refuted():
    store = shipped_store()
    checker = StrongRayleighChecker(store, CheckOptions(refute=True, seed=0))
    M = resolve_name("nP")
    report = checker.check(M, name="nP")
    assert report.verdict == REFUTED
    just = report.justification
    assert just["kind"] == "counterexample"
    pair = tuple(just["pair"])
    point = [Fraction(x) for x in just["point"]]
    value = Fraction(just["value"])
    assert value < 0
    delta = rayleigh_diff_multiaffine(M.basis_polynomial(), *pair)
    assert delta.eval_rational(point) == value
    assert replay_report(report, M, store)
    _report(f"5: PASS - nP refuted with exact rational witness at pair {pair}")


def test_criterion_6_sos_search_smoke():
    # U_2_4 with an empty store and search enabled, inside 5 seconds
    t0 = time.monotonic()
    checker = StrongRayleighChecker(CertificateStore(),
                                    CheckOptions(search=True, seed=0))
    just = checker.check_pair_nonnegativity(uniform(2, 4), (1, 2))
    elapsed_u24 = time.monotonic() - t0
    assert just is not None and just["kind"] == "sos_search"
    assert elapsed_u24 < 5.0, f"U_2_4 search took {elapsed_u24:.1f}s (budget 5s)"

    # one seven-element catalog matroid inside 10 minutes
    t0 = time.monotonic()
    target = _cert_target("F7m4")
    cert = search_certificate(target)
    elapsed_7 = time.monotonic() - t0
    assert cert is not None, "no certificate found for F7m4"
    assert verify(cert, target).passed
    assert elapsed_7 < 600.0, f"F7m4 search took {elapsed_7:.1f}s (budget 600s)"
    _report(f"6: PASS - searched certificates verified for U_2_4 "
            f"({elapsed_u24:.1f}s) and F7m4 ({elapsed_7:.1f}s)")


def test_criterion_7_quadratic_decomposition(proposition_corpus):
    for Z, e, f, g in proposition_corpus:
        dec = quad_decompose(Z, e, f, g)
        assert dec.A == rayleigh_diff(Z.contract(g), e, f)
        assert dec.C == rayleigh_diff(Z.delete(g), e, f)
        yg = Polynomial.variable(Z.m, g)
        assert dec.A * yg * yg + dec.B * yg + dec.C == rayleigh_diff(Z, e, f)

    # sampled discriminants of proved-HPP catalog matroids are nonpositive.
    # all parts are homogeneous, so signs at rational points agree with
    # signs at the integer numerator vectors used here.
    hpp_names = [n for n in CATALOG_NAMES if n != "nP"]
    rng = np.random.default_rng(990)
    for name in hpp_names:
        M = entry(name).matroid
        elements = [e for e in range(1, M.m + 1) if e not in M.loops()]
        e, f, g = elements[:3]
        dec = quad_decompose(M.basis_polynomial(), e, f, g)
        pts = rng.integers(-9, 10, size=(10_000, M.m))
        vals_b = _int_eval(dec.B, pts)
        vals_a = _int_eval(dec.A, pts)
        vals_c = _int_eval(dec.C, pts)
        disc = vals_b * vals_b - 4 * vals_a * vals_c
        assert (disc <= 0).all(), f"{name}: positive discriminant sample"
    _report(f"7: PASS - decomposition identities exact on "
            f"{len(proposition_corpus)} random polynomials; discriminants "
            f"nonpositive at 10^4 points for {len(hpp_names)} matroids")


def _int_eval(p: Polynomial, pts: np.ndarray) -> np.ndarray:
    """Exact integer evaluation (object dtype when int64 could overflow)."""
    bound = sum(abs(int(c)) for c in p.terms.values()) * 9 ** max(
        p.total_degree(), 1)
    dtype = np.int64 if bound < 2 ** 62 else object
    out = np.zeros(pts.shape[0], dtype=dtype)
    work = pts.astype(dtype)
    for exps, coeff in p.terms.items():
        assert coeff.denominator == 1
        term = np.full(pts.shape[0], int(coeff), dtype=dtype)
        for j, e in enumerate(exps):
            if e:
                term = term * work[:, j] ** int(e)
        out = out + term
    return out


def test_criterion_8_minor_commutation():
    for name in CATALOG_NAMES:
        M = entry(name).matroid
        Z = M.basis_polynomial()
        loops = set(M.loops())
        coloops = set(M.coloops())
        for e in range(1, M.m + 1):
            if e not in coloops:
                assert (M.delete(e).basis_polynomial()
                        == compress_out(Z.delete(e), e)), (name, "delete", e)
            if e not in loops:
                assert (M.contract(e).basis_polynomial()
                        == compress_out(Z.contract(e), e)), (name, "contract", e)
    _report("8: PASS - basis polynomials commute with deletion/contraction "
            "on every catalog element")
