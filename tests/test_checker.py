import json
from fractions import Fraction

import pytest

from hppcheck.catalog import catalog, entry, resolve_name, uniform
from hppcheck.certificate import CertificateStore, shipped_store
from hppcheck.checker import (INCONCLUSIVE, PROVED, REFUTED, CheckOptions,
                              StrongRayleighChecker, replay_report)
from hppcheck.matroid import Matroid
from hppcheck.rayleigh import rayleigh_diff_multiaffine

SEVEN = ("F7m4", "W3p", "W3pe", "P7p", "nP_d1", "nP_d9", "V8")


@pytest.fixture(scope="module")
def store():
    return shipped_store()


@pytest.fixture(scope="module")
def shared_checker(store):
    return StrongRayleighChecker(store, CheckOptions())


def walk(report):
    yield report
    inner = report.justification.get("inner")
    if inner is not None:
        yield from walk(inner)
    for child in report.children:
        yield from walk(child["report"])


def resolved_kind(report):
    """Justification kind after unwrapping isomorphism/reduction nodes."""
    r = report
    while r.justification.get("kind") in ("isomorphic", "reduction"):
        r = r.justification["inner"]
    return r


class TestBaseFacts:
    def test_u24_small_ground(self, shared_checker):
        rep = shared_checker.check(uniform(2, 4), name="U_2_4")
        assert rep.verdict == PROVED
        assert rep.justification["kind"] == "base_fact"
        assert rep.justification["fact"] == "ground_at_most_6"

    def test_rank_two_on_seven_elements(self, shared_checker):
        rep = shared_checker.check(uniform(2, 7))
        assert rep.verdict == PROVED
        assert rep.justification["fact"] == "rank_or_corank_at_most_2"

    @pytest.mark.parametrize("M", [uniform(1, 1), uniform(3, 3),
                                   Matroid(2, 0, [()]), Matroid(4, 2, [(1, 3)])],
                             ids=["U_1_1", "U_3_3", "two_loops", "loops_and_coloops"])
    def test_single_basis(self, M, store):
        # only loops and coloops: the basis polynomial is a monomial
        rep = StrongRayleighChecker(store, CheckOptions()).check(M)
        assert rep.verdict == PROVED
        assert rep.justification["fact"] == "single_basis"
        assert replay_report(rep, M, store)

    def test_known_hpp_via_isomorphism(self, shared_checker):
        M = entry("F7m5").matroid.relabeled((3, 1, 2, 7, 6, 5, 4))
        rep = shared_checker.check(M)
        assert rep.verdict == PROVED
        r = resolved_kind(rep)
        assert r.justification["kind"] == "known_hpp"
        assert r.justification["catalog"] == "F7m5"


class TestSevenMatroids:
    @pytest.mark.parametrize("name", SEVEN)
    def test_proved_and_replayable(self, name, store, shared_checker):
        M = resolve_name(name)
        rep = shared_checker.check(M, name=name)
        assert rep.verdict == PROVED
        assert replay_report(rep, M, store)

    @pytest.mark.parametrize("name", SEVEN)
    def test_dual_verdicts_match(self, name, shared_checker, store):
        M = resolve_name(name)
        dual_rep = shared_checker.check(M.dual())
        assert dual_rep.verdict == shared_checker.check(M, name=name).verdict
        assert replay_report(dual_rep, M.dual(), store)


class TestCaseAnalyses:
    def test_v8_children(self, shared_checker):
        rep = shared_checker.check(resolve_name("V8"), name="V8")
        contract_kinds = set()
        delete_kinds = set()
        for child in rep.children:
            r = resolved_kind(child["report"])
            j = r.justification
            if child["op"] == "contract":
                if j["kind"] == "certificate":
                    contract_kinds.add(j["catalog"])
                elif j["kind"] == "known_hpp":
                    contract_kinds.add(j["catalog"])
            else:
                if j["kind"] == "dual_of":
                    delete_kinds.add(j["catalog"])
                elif j["kind"] == "known_hpp" and j.get("dual"):
                    delete_kinds.add(j["catalog"])
        assert contract_kinds == {"F7m4", "F7m5"}
        assert delete_kinds == {"F7m4", "F7m5"}

    def test_np_d1_children(self, shared_checker):
        rep = shared_checker.check(resolve_name("nP_d1"), name="nP_d1")
        # the loop on element 1 reduces first, with the interpretation note
        assert rep.justification["kind"] == "reduction"
        assert rep.justification["loops"] == [1]
        assert any("absent" in n for n in rep.notes)
        inner = rep.justification["inner"]
        deletion_targets = set()
        for child in inner.children:
            r = resolved_kind(child["report"])
            j = r.justification
            if child["op"] == "contract":
                assert j["fact"] == "rank_or_corank_at_most_2"
            else:
                deletion_targets.add(j.get("catalog"))
        assert deletion_targets == {"F7m4", "W3pe", "F7m5", "P7p", "P7pp"}

    def test_np_d9_children(self, shared_checker):
        rep = shared_checker.check(resolve_name("nP_d9"), name="nP_d9")
        deletion_targets = set()
        for child in rep.children:
            r = resolved_kind(child["report"])
            j = r.justification
            if child["op"] == "contract":
                assert j["fact"] == "rank_or_corank_at_most_2"
            else:
                deletion_targets.add(j.get("catalog"))
        assert deletion_targets == {"F7m4", "P7p"}

    def test_v8_minors_match_catalog_entries(self, shared_checker):
        # every contraction of V8 is F7m4 or F7m5, every deletion the dual
        # of one, as the checker's single catalog match per minor records
        rep = shared_checker.check(resolve_name("V8"), name="V8")
        for child in rep.children:
            j = resolved_kind(child["report"]).justification
            dual = j["kind"] == "dual_of" or j.get("dual", False)
            name = j["catalog"] + ("*" if dual else "")
            if child["op"] == "contract":
                assert name in ("F7m4", "F7m5")
            else:
                assert name in ("F7m4*", "F7m5*")


class TestVerdictPaths:
    def test_empty_store_no_search_inconclusive(self):
        checker = StrongRayleighChecker(CertificateStore(), CheckOptions())
        rep = checker.check(resolve_name("F7m4"), name="F7m4")
        assert rep.verdict == INCONCLUSIVE
        assert rep.justification["kind"] == "none"
        # children still proved (all six-element minors)
        assert all(c["report"].verdict == PROVED for c in rep.children)

    def test_np_inconclusive_without_refute(self, shared_checker, store):
        M = resolve_name("nP")
        rep = shared_checker.check(M, name="nP")
        assert rep.verdict == INCONCLUSIVE
        assert all(c["report"].verdict == PROVED for c in rep.children)
        assert replay_report(rep, M, store)

    def test_np_refuted(self, store):
        checker = StrongRayleighChecker(store, CheckOptions(refute=True))
        M = resolve_name("nP")
        rep = checker.check(M, name="nP")
        assert rep.verdict == REFUTED
        just = rep.justification
        assert just["kind"] == "counterexample"
        point = [Fraction(x) for x in just["point"]]
        value = Fraction(just["value"])
        assert value < 0
        delta = rayleigh_diff_multiaffine(M.basis_polynomial(),
                                          *just["pair"])
        assert delta.eval_rational(point) == value
        assert replay_report(rep, M, store)

    def test_pair_nonnegativity_with_certificate(self, shared_checker):
        just = shared_checker.check_pair_nonnegativity(
            resolve_name("F7m4"), (1, 2))
        assert just is not None and just["kind"] == "certificate"

    def test_pair_nonnegativity_no_evidence(self):
        checker = StrongRayleighChecker(CertificateStore(), CheckOptions())
        assert checker.check_pair_nonnegativity(uniform(2, 4), (1, 2)) is None

    def test_pair_nonnegativity_via_search(self):
        checker = StrongRayleighChecker(
            CertificateStore(), CheckOptions(search=True))
        just = checker.check_pair_nonnegativity(uniform(2, 4), (1, 2))
        assert just is not None and just["kind"] == "sos_search"


class TestMemoization:
    def test_equal_minors_share_reports(self, store):
        checker = StrongRayleighChecker(store, CheckOptions())
        V8 = resolve_name("V8")
        rep = checker.check(V8, name="V8")
        # contractions 1 and 2 are isomorphic with equal canonical keys;
        # their reports resolve to the same underlying tree
        by_el = {(c["op"], c["element"]): c["report"] for c in rep.children}
        r1 = by_el[("contract", 1)]
        r2 = by_el[("contract", 2)]
        u1 = r1.justification.get("inner") if \
            r1.justification.get("kind") == "isomorphic" else r1
        u2 = r2.justification.get("inner") if \
            r2.justification.get("kind") == "isomorphic" else r2
        assert u1 is u2

    def test_relabeled_np_reuses_the_tree(self, store):
        checker = StrongRayleighChecker(store, CheckOptions())
        nP = resolve_name("nP")
        relabeled = nP.relabeled((2, 3, 1, 5, 6, 4, 8, 9, 7))
        assert relabeled != nP
        first = checker.check(nP, name="nP")
        second = checker.check(relabeled)
        assert second.justification["kind"] == "isomorphic"
        assert second.justification["inner"] is first
        assert replay_report(second, relabeled, store)

    def test_shared_key_without_isomorphism_is_not_a_hit(self, store):
        # a triangle of lines plus a pendant line, against a 4-cycle of lines
        A = Matroid.from_nonbases(8, 3, [(1, 6, 8), (2, 3, 8), (2, 5, 7),
                                         (3, 4, 6)])
        B = Matroid.from_nonbases(8, 3, [(1, 6, 7), (2, 3, 4), (2, 5, 6),
                                         (4, 7, 8)])
        assert A.canonical_key() == B.canonical_key()
        assert A.is_isomorphic(B) is None
        checker = StrongRayleighChecker(store, CheckOptions())
        rep_a = checker.check(A, name="A")
        rep_b = checker.check(B, name="B")
        assert rep_b.justification["kind"] != "isomorphic"
        assert replay_report(rep_a, A, store)
        assert replay_report(rep_b, B, store)

    def test_relabeled_v8_proved_by_certificate(self, store):
        # the cycle guard matches isomorphism classes: the dual_of route
        # back to V8's own core is cut, so the certificate proves it
        M = resolve_name("V8").relabeled((8, 7, 6, 5, 4, 3, 2, 1))
        assert M != resolve_name("V8")
        rep = StrongRayleighChecker(store, CheckOptions()).check(M)
        assert rep.verdict == PROVED
        assert rep.justification["kind"] == "certificate"
        assert replay_report(rep, M, store)

    def test_deterministic_reports(self, store):
        a = StrongRayleighChecker(store, CheckOptions()).check(
            resolve_name("nP_d9"), name="nP_d9")
        b = StrongRayleighChecker(store, CheckOptions()).check(
            resolve_name("nP_d9"), name="nP_d9")
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())


class TestReportOutput:
    def test_json_serializable(self, shared_checker):
        rep = shared_checker.check(resolve_name("W3p"), name="W3p")
        payload = json.dumps(rep.to_dict(), indent=2)
        parsed = json.loads(payload)
        assert parsed["verdict"] == PROVED

    def test_render_text(self, shared_checker):
        rep = shared_checker.check(resolve_name("P7p"), name="P7p")
        text = rep.render()
        assert "PROVED" in text and "certificate" in text

    def test_replay_rejects_tampering(self, store, shared_checker):
        rep = shared_checker.check(resolve_name("W3pe"), name="W3pe")
        assert not replay_report(rep, resolve_name("P7p"), store)

