import dataclasses
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hppcheck import checker as checker_mod
from hppcheck import sampler, sos_search
from hppcheck.catalog import catalog, entry, resolve_name, uniform
from hppcheck.certificate import (CertificateStore, SosCertificate,
                                  shipped_store, verify)
from hppcheck.checker import (INCONCLUSIVE, PROVED, REFUTED, CheckOptions,
                              CheckReport, StrongRayleighChecker,
                              replay_report)
from hppcheck.matroid import Matroid
from hppcheck.polynomial import format_polynomial, parse_polynomial
from hppcheck.rayleigh import rayleigh_diff_multiaffine

from conftest import FANO_LINES

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


def one_element_minors(checker, M):
    """Every one-element minor of M, each checked directly.  A PROVED node
    lists only the four minors of its pair, so case analyses over all 2m
    minors read them here."""
    return [{"op": op, "element": e,
             "report": checker.check(M.contract(e) if op == "contract"
                                     else M.delete(e))}
            for e in range(1, M.m + 1) for op in ("contract", "delete")]


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


def refutation_leaf(report, M):
    """Follow a REFUTED chain to its counterexample node; that node and
    the matroid it speaks of."""
    while True:
        just = report.justification
        kind = just["kind"]
        assert report.verdict == REFUTED, kind
        if kind == "counterexample":
            return report, M
        if kind == "minor_refuted":
            op, e = just["op"], just["element"]
            report = next(c["report"] for c in report.children
                          if (c["op"], c["element"]) == (op, e))
            M = M.contract(e) if op == "contract" else M.delete(e)
            continue
        if kind == "dual":
            M = M.dual()
        elif kind == "isomorphic":
            M = M.relabeled(tuple(just["perm"]))
        else:
            raise AssertionError(f"REFUTED {kind} node")
        report = just["inner"]


class TestDuality:
    @pytest.mark.parametrize("name", SEVEN)
    def test_dual_is_checked_through_the_dual(self, name, store):
        M = resolve_name(name).dual()
        rep = StrongRayleighChecker(store, CheckOptions()).check(M)
        assert rep.verdict == PROVED and replay_report(rep, M, store)
        if name == "nP_d1":
            # nP_d1's loop is a coloop of its dual, reduced first
            assert rep.justification["kind"] == "reduction"
            assert rep.justification["coloops"] == [1]
            M, rep = M.contract(1), rep.justification["inner"]
        if name == "V8":
            # rank equals corank: the rule does not fire, and the
            # certificate proves V8's dual through isomorphism
            assert M.rank == M.corank()
            assert resolved_kind(rep).justification["kind"] == "certificate"
            return
        assert M.rank > M.corank()
        assert rep.justification["kind"] == "dual"
        inner = rep.justification["inner"]
        assert inner.verdict == PROVED
        assert replay_report(inner, M.dual(), store)

    @pytest.mark.parametrize("name", ["nP", "F7"])
    def test_refuted_through_the_dual(self, name, store):
        M = (Matroid.from_nonbases(7, 3, FANO_LINES) if name == "F7"
             else resolve_name(name)).dual()
        rep = StrongRayleighChecker(store, CheckOptions(refute=True)).check(M)
        assert rep.verdict == REFUTED
        assert rep.justification["kind"] == "dual"
        assert replay_report(rep, M, store)
        leaf, N = refutation_leaf(rep, M)
        just = leaf.justification
        point = [Fraction(x) for x in just["point"]]
        value = Fraction(just["value"])
        delta = rayleigh_diff_multiaffine(N.basis_polynomial(), *just["pair"])
        assert value < 0 and delta.eval_rational(point) == value


class TestCaseAnalyses:
    def test_v8_children(self, shared_checker):
        V8 = resolve_name("V8")
        rep = shared_checker.check(V8, name="V8")
        # Theorem 3: the certified pair's four minors, nothing else
        assert rep.justification["kind"] == "certificate"
        assert ({(c["op"], c["element"]) for c in rep.children}
                == {(op, e) for op in ("contract", "delete") for e in (1, 2)})
        assert len(rep.children) == 4
        contract_kinds = set()
        delete_kinds = set()
        for child in one_element_minors(shared_checker, V8):
            j = resolved_kind(child["report"]).justification
            if child["op"] == "contract":
                assert j["kind"] in ("certificate", "known_hpp")
                contract_kinds.add(j["catalog"])
            else:
                # rank 4 on seven elements: checked through the dual
                assert j["kind"] == "dual"
                inner = resolved_kind(j["inner"]).justification
                assert inner["kind"] in ("certificate", "known_hpp")
                delete_kinds.add(inner["catalog"])
        assert contract_kinds == {"F7m4", "F7m5"}
        assert delete_kinds == {"F7m4", "F7m5"}

    def test_np_d1_children(self, shared_checker):
        rep = shared_checker.check(resolve_name("nP_d1"), name="nP_d1")
        # the loop on element 1 reduces first, with the interpretation note
        assert rep.justification["kind"] == "reduction"
        assert rep.justification["loops"] == [1]
        assert any("absent" in n for n in rep.notes)
        reduced, _ = resolve_name("nP_d1").strip_absent()
        deletion_targets = set()
        for child in one_element_minors(shared_checker, reduced):
            r = resolved_kind(child["report"])
            j = r.justification
            if child["op"] == "contract":
                assert j["fact"] == "rank_or_corank_at_most_2"
            else:
                deletion_targets.add(j.get("catalog"))
        assert deletion_targets == {"F7m4", "W3pe", "F7m5", "P7p", "P7pp"}

    def test_np_d9_children(self, shared_checker):
        deletion_targets = set()
        for child in one_element_minors(shared_checker, resolve_name("nP_d9")):
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
        for child in one_element_minors(shared_checker, resolve_name("V8")):
            j = resolved_kind(child["report"]).justification
            suffix = ""
            if j["kind"] == "dual":
                j = resolved_kind(j["inner"]).justification
                suffix = "*"
            name = j["catalog"] + suffix
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


class TestFloatLayersStayPatchable:
    """The checker imports `sos_search` and `sampler` inside the methods that
    use them and calls through the module, so a patched function is seen."""

    @staticmethod
    def _counted(monkeypatch, module, name):
        calls = [0]
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_search_calls_patched_search_certificate(self, monkeypatch):
        calls = self._counted(monkeypatch, sos_search, "search_certificate")
        report = StrongRayleighChecker(
            CertificateStore(), CheckOptions(search=True)).check(
                resolve_name("F7m4"))
        assert report.verdict == PROVED
        assert calls[0] >= 1

    def test_refute_calls_patched_falsify(self, monkeypatch):
        calls = self._counted(monkeypatch, sampler, "falsify")
        report = StrongRayleighChecker(
            CertificateStore(), CheckOptions(refute=True)).check(
                Matroid.from_nonbases(7, 3, FANO_LINES))
        assert report.verdict == REFUTED
        assert calls[0] >= 1


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
        # V8's rank equals its corank, so the duality rule does not apply;
        # the certificate proves V8 under any labels
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



# -- replay soundness -----------------------------------------------------------


def reference_replay(report, M, store):
    """The unmemoized replay: re-checks every appearance of a shared node.

    Kept as the reference that the memoized `replay_report` must agree
    with on every tampered tree.  Its relabelings, minors and certificate
    checks are pure, so they are cached (`_pure`) to keep the many
    tampered replays fast; every node is still re-checked at every
    appearance.
    """
    if (report.m, report.rank, report.num_bases) != (M.m, M.rank, M.num_bases()):
        return False
    just = report.justification
    kind = just.get("kind")

    if kind == "isomorphic":
        inner = just.get("inner")
        if not isinstance(inner, CheckReport) or inner.verdict != report.verdict:
            return False
        try:
            rep_matroid = _pure(M.relabeled, tuple(just["perm"]))
        except ValueError:
            return False
        return reference_replay(inner, rep_matroid, store)

    if kind == "reduction":
        reduced = M
        if M.loops():
            reduced, _ = reduced.strip_absent()
        for c in sorted(reduced.coloops(), reverse=True):
            reduced = reduced.contract(c)
        inner = just.get("inner")
        if not isinstance(inner, CheckReport) or inner.verdict != report.verdict:
            return False
        return reference_replay(inner, reduced, store)

    if kind == "base_fact":
        if just["fact"] == "ground_at_most_6":
            return report.verdict == PROVED and M.m <= 6
        if just["fact"] == "rank_or_corank_at_most_2":
            return report.verdict == PROVED and (M.rank <= 2 or M.corank() <= 2)
        if just["fact"] == "single_basis":
            return report.verdict == PROVED and M.num_bases() == 1
        return False

    if kind == "known_hpp":
        ent = _reference_entry(just["catalog"])
        if report.verdict != PROVED or ent is None or not ent.known_hpp:
            return False
        core, _ = ent.matroid.strip_absent()
        return _reference_perm_maps(M, tuple(just["perm"]), core)

    if kind == "dual":
        inner = just.get("inner")
        if not isinstance(inner, CheckReport) or inner.verdict != report.verdict:
            return False
        return reference_replay(inner, _pure(M.dual), store)

    if kind == "certificate":
        ename = just["catalog"]
        ent = _reference_entry(ename)
        if ent is None:
            return False
        core, strip_map = ent.matroid.strip_absent()
        perm = tuple(just["perm"])
        cert = store.lookup(ename, tuple(just["pair"]))
        if (report.verdict != PROVED or cert is None
                or not _reference_perm_maps(M, perm, core)):
            return False
        inv = {p: i + 1 for i, p in enumerate(perm)}
        try:
            pair = tuple(inv[strip_map[x]] for x in just["pair"])
        except KeyError:
            return False
        return (_reference_children(report, M, store, pair)
                and _pure(_verifies_entry_pair, cert, ename, tuple(just["pair"])))

    if kind == "sos_search":
        pair = tuple(just["pair"])
        if (report.verdict != PROVED
                or not _reference_children(report, M, store, pair)):
            return False
        target = rayleigh_diff_multiaffine(M.basis_polynomial(), *pair)
        terms = tuple((Fraction(w), parse_polynomial(text, M.m))
                      for w, text in just["certificate"]["terms"])
        return bool(verify(SosCertificate(terms=terms), target))

    if kind in ("none", "counterexample", "minor_refuted"):
        if not _reference_children(report, M, store):
            return False
        if kind == "counterexample":
            pair = tuple(just["pair"])
            point = [Fraction(s) for s in just["point"]]
            value = Fraction(just["value"])
            delta = rayleigh_diff_multiaffine(M.basis_polynomial(), *pair)
            return (report.verdict == REFUTED and value < 0
                    and delta.eval_rational(point) == value)
        if kind == "minor_refuted":
            named = (just["op"], just["element"])
            return report.verdict == REFUTED and any(
                (c["op"], c["element"]) == named
                and c["report"].verdict == REFUTED for c in report.children)
        return report.verdict == INCONCLUSIVE

    return False


def _reference_entry(ename):
    """The catalog entry a node cites, or None for an unknown name."""
    try:
        return entry(ename)
    except KeyError:
        return None


def _reference_perm_maps(M, perm, target):
    if len(perm) != M.m or target.m != M.m:
        return False
    try:
        return _pure(M.relabeled, perm) == target
    except ValueError:
        return False


def _verifies_entry_pair(cert, ename, pair):
    target = rayleigh_diff_multiaffine(entry(ename).matroid.basis_polynomial(),
                                       *pair)
    return bool(verify(cert, target))


_PURE_CACHE = {}


def _pure(fn, *args):
    """fn(*args), computed once per (fn, args)."""
    key = (getattr(fn, "__self__", None), fn.__name__, args)
    if key not in _PURE_CACHE:
        _PURE_CACHE[key] = fn(*args)
    return _PURE_CACHE[key]


def _reference_children(report, M, store, pair=None):
    if pair is not None:
        four = sorted((op, e) for e in pair for op in ("contract", "delete"))
        if (len(set(pair)) != 2
                or sorted((c["op"], c["element"]) for c in report.children) != four
                or any(c["report"].verdict != PROVED for c in report.children)):
            return False
    for child in report.children:
        op, e = child["op"], child["element"]
        if op not in ("contract", "delete") or not 1 <= e <= M.m:
            return False
        minor = _pure(M.contract if op == "contract" else M.delete, e)
        if not reference_replay(child["report"], minor, store):
            return False
    return True


def distinct_nodes(report):
    """Every node object of a tree once, in first-visit order."""
    seen, order, stack = set(), [], [report]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        order.append(node)
        inner = node.justification.get("inner")
        if inner is not None:
            stack.append(inner)
        stack.extend(child["report"] for child in reversed(node.children))
    return order


_OTHER_VERDICT = {PROVED: INCONCLUSIVE, INCONCLUSIVE: PROVED, REFUTED: PROVED}


def tamperings(report):
    """Tamper with one node at a time, in place, and yield a description
    of each tampering; the node is restored before the next one."""
    for i, node in enumerate(distinct_nodes(report)):
        just = node.justification
        kind = just.get("kind")
        verdict = node.verdict
        node.verdict = _OTHER_VERDICT[verdict]
        yield ("verdict", i, kind)
        node.verdict = verdict
        if "perm" in just:
            perm = just["perm"]
            just["perm"] = [perm[1], perm[0]] + perm[2:]
            yield ("perm", i, kind)
            just["perm"] = perm
        if kind == "certificate":
            pair = just["pair"]
            for other in ([pair[0], pair[1] + 1], [pair[0] + 1, pair[1]]):
                just["pair"] = other
                yield ("pair", i, kind)
            just["pair"] = pair
        children = node.children
        if children:
            node.children = []
            yield ("drop children", i, kind)
            # a copy of the first child with the other verdict, seen by
            # this node alone
            first = children[0]
            flipped = dataclasses.replace(
                first["report"], verdict=_OTHER_VERDICT[first["report"].verdict])
            node.children = [{**first, "report": flipped}] + children[1:]
            yield ("child verdict", i, kind)
            node.children = children


TAMPER_TREES = [("nP", False), ("nP", True), ("V8", False), ("nP_d9", False)]


class TestReplaySoundness:
    @pytest.mark.parametrize("name,refute", TAMPER_TREES,
                             ids=[f"{n}{'-refute' if r else ''}"
                                  for n, r in TAMPER_TREES])
    def test_tampered_trees_agree_with_reference(self, name, refute, store):
        M = resolve_name(name)
        rep = StrongRayleighChecker(
            store, CheckOptions(refute=refute)).check(M, name=name)
        assert replay_report(rep, M, store)
        assert reference_replay(rep, M, store)
        rejected = {"verdict": 0, "perm": 0, "pair": 0, "drop children": 0,
                    "child verdict": 0}
        for what, index, kind in tamperings(rep):
            memoized = replay_report(rep, M, store)
            assert memoized == reference_replay(rep, M, store), (what, index, kind)
            rejected[what] += not memoized
            # every node is reached, and every kind fixes its verdict
            if what in ("verdict", "child verdict"):
                assert not memoized, (what, index, kind)
            # pair evidence needs its four minors, minor_refuted its minor
            if what == "drop children" and kind in ("certificate", "sos_search",
                                                    "minor_refuted"):
                assert not memoized, (index, kind)
        assert rejected["perm"] > 0
        # the tree is whole again
        assert replay_report(rep, M, store)

    def test_shared_node_is_checked_per_matroid(self, store):
        V8 = resolve_name("V8")
        rep = StrongRayleighChecker(store, CheckOptions()).check(V8, name="V8")
        kids = {(c["op"], c["element"]): c for c in rep.children}
        assert V8.contract(1) != V8.contract(2)
        node = kids[("contract", 2)]["report"]
        assert node.justification["kind"] == "isomorphic"
        # the node claimed for V8/2 placed under V8/1 as well: its perm
        # maps V8/2, not V8/1, onto the shared tree
        children = [dict(c) for c in rep.children]
        for c in children:
            if (c["op"], c["element"]) == ("contract", 1):
                c["report"] = node
        forged = dataclasses.replace(rep, children=children)
        assert not replay_report(forged, V8, store)
        assert not reference_replay(forged, V8, store)

    def test_shared_node_valid_for_both_matroids(self):
        # with no certificate F7m4 is INCONCLUSIVE, and its node lists all
        # fourteen minors; two different contractions with the same shape:
        # one base-fact node holds for both
        empty = CertificateStore()
        F7m4 = resolve_name("F7m4")
        rep = StrongRayleighChecker(empty, CheckOptions()).check(F7m4, name="F7m4")
        assert rep.verdict == INCONCLUSIVE and len(rep.children) == 14
        contractions = {c["element"]: c for c in rep.children
                        if c["op"] == "contract"}
        e, f = next((e, f) for e in contractions for f in contractions
                    if e < f and F7m4.contract(e) != F7m4.contract(f)
                    and F7m4.contract(e).num_bases()
                    == F7m4.contract(f).num_bases())
        node = contractions[e]["report"]
        children = [dict(c) for c in rep.children]
        for c in children:
            if (c["op"], c["element"]) == ("contract", f):
                c["report"] = node
        forged = dataclasses.replace(rep, children=children)
        assert replay_report(forged, F7m4, empty)
        assert reference_replay(forged, F7m4, empty)

    def test_self_containing_report_is_rejected(self, store):
        M = resolve_name("F7m4")
        identity = list(range(1, M.m + 1))
        loop = CheckReport(PROVED, "loop", M.m, M.rank, M.num_bases(), {})
        loop.justification = {"kind": "isomorphic", "perm": identity,
                              "inner": loop}
        assert replay_report(loop, M, store) is False
        # a two-node cycle
        a = CheckReport(PROVED, "a", M.m, M.rank, M.num_bases(), {})
        b = CheckReport(PROVED, "b", M.m, M.rank, M.num_bases(),
                        {"kind": "isomorphic", "perm": identity, "inner": a})
        a.justification = {"kind": "isomorphic", "perm": identity, "inner": b}
        assert replay_report(a, M, store) is False
        with pytest.raises(RecursionError):
            reference_replay(a, M, store)

    def test_each_certificate_node_verified_once(self, store, monkeypatch):
        M = resolve_name("nP")
        rep = StrongRayleighChecker(store, CheckOptions()).check(M, name="nP")
        cert_nodes = [n for n in distinct_nodes(rep)
                      if n.justification.get("kind") in ("certificate",
                                                         "sos_search")]
        calls = []

        def counting_verify(cert, target):
            calls.append(cert)
            return verify(cert, target)

        monkeypatch.setattr(checker_mod, "verify", counting_verify)
        assert replay_report(rep, M, store)
        # the unmemoized replay verified a certificate 63 times here
        assert cert_nodes and len(calls) <= len(cert_nodes)

    # -- forged verdicts ------------------------------------------------------

    def test_proved_tree_relabelled_minor_refuted(self, store):
        M = resolve_name("F7m4")
        rep = StrongRayleighChecker(store, CheckOptions()).check(M, name="F7m4")
        assert rep.verdict == PROVED
        named = {(c["op"], c["element"]) for c in rep.children}
        # the named minor listed but PROVED, and the named minor not listed
        for op, e in (("delete", 1), ("delete", 5)):
            assert ((op, e) in named) == (e == 1)
            forged = dataclasses.replace(
                rep, verdict=REFUTED,
                justification={"kind": "minor_refuted", "op": op, "element": e})
            assert not replay_report(forged, M, store)
            assert not reference_replay(forged, M, store)

    def test_certificate_node_with_inconclusive_child(self, store):
        M = resolve_name("F7m4")
        rep = StrongRayleighChecker(store, CheckOptions()).check(M, name="F7m4")
        assert rep.justification["kind"] == "certificate"
        first = rep.children[0]
        e = first["element"]
        minor = M.contract(e) if first["op"] == "contract" else M.delete(e)
        stub = CheckReport(INCONCLUSIVE, "stub", minor.m, minor.rank,
                           minor.num_bases(), {"kind": "none", "reason": "stub"})
        # the stub alone replays: only the PROVED parent may not rest on it
        assert replay_report(stub, minor, store)
        forged = dataclasses.replace(
            rep, children=[{**first, "report": stub}] + rep.children[1:])
        assert not replay_report(forged, M, store)
        assert not reference_replay(forged, M, store)

    def test_certificate_pair_is_recomputed_not_read(self, store):
        # V8's certificate is for (1, 2); a node that claims m_pair (3, 4)
        # and lists the four (honest, PROVED) minors of (3, 4) is rejected
        checker = StrongRayleighChecker(store, CheckOptions())
        V8 = resolve_name("V8")
        rep = checker.check(V8, name="V8")
        assert rep.justification["m_pair"] == [1, 2]
        others = [{"op": op, "element": e,
                   "report": checker.check(V8.contract(e) if op == "contract"
                                           else V8.delete(e))}
                  for e in (3, 4) for op in ("contract", "delete")]
        assert all(c["report"].verdict == PROVED for c in others)
        forged = dataclasses.replace(
            rep, children=others,
            justification={**rep.justification, "m_pair": [3, 4]})
        assert not replay_report(forged, V8, store)
        assert not reference_replay(forged, V8, store)

    def test_dual_node_with_another_verdict(self, store):
        M = resolve_name("F7m4").dual()
        rep = StrongRayleighChecker(store, CheckOptions()).check(M)
        assert rep.justification["kind"] == "dual" and rep.verdict == PROVED
        for verdict in (REFUTED, INCONCLUSIVE):
            forged = dataclasses.replace(rep, verdict=verdict)
            assert not replay_report(forged, M, store)
            assert not reference_replay(forged, M, store)

    @pytest.mark.parametrize("name", ["F7m4", "V8"])
    def test_dual_node_whose_inner_report_is_for_m(self, name, store):
        # the inner report holds for M itself, not for M*; V8* has V8's
        # shape, so only its labels tell them apart
        M = resolve_name(name)
        assert M.dual() != M
        rep = StrongRayleighChecker(store, CheckOptions()).check(M, name=name)
        assert rep.verdict == PROVED and replay_report(rep, M, store)
        forged = CheckReport(PROVED, "forged", M.m, M.rank, M.num_bases(),
                             {"kind": "dual", "inner": rep,
                              "provenance": checker_mod._PROV_DUAL})
        assert not replay_report(forged, M, store)
        assert not reference_replay(forged, M, store)

    def test_flipped_known_hpp_node(self, store):
        M = resolve_name("F7m5")
        rep = StrongRayleighChecker(store, CheckOptions()).check(M, name="F7m5")
        assert rep.justification["kind"] == "known_hpp"
        assert replay_report(rep, M, store)
        for verdict in (REFUTED, INCONCLUSIVE):
            forged = dataclasses.replace(rep, verdict=verdict)
            assert not replay_report(forged, M, store)
            assert not reference_replay(forged, M, store)

    @pytest.mark.parametrize("forgery", ["unknown_entry", "short_perm",
                                         "long_perm"])
    @pytest.mark.parametrize("name,kind", [("F7m5", "known_hpp"),
                                           ("F7m4", "certificate")])
    def test_forged_cited_entry(self, name, kind, forgery, store):
        # an unknown entry once made both replays raise KeyError
        M = resolve_name(name)
        rep = StrongRayleighChecker(store, CheckOptions()).check(M, name=name)
        assert rep.justification["kind"] == kind
        assert replay_report(rep, M, store)
        just = dict(rep.justification)
        if forgery == "unknown_entry":
            just["catalog"] = "nosuch"
        elif forgery == "short_perm":
            just["perm"] = just["perm"][:-1]
        else:
            just["perm"] = just["perm"] + [M.m + 1]
        forged = dataclasses.replace(rep, justification=just)
        assert replay_report(forged, M, store) is False
        assert reference_replay(forged, M, store) is False

    # each forgery once made replay raise, in order: KeyError, TypeError,
    # KeyError, KeyError, ValueError, GroundSetMismatchError, TypeError
    # and AttributeError
    @pytest.mark.parametrize("name,forge", [
        ("F7m5", lambda just, children: just.pop("perm")),
        ("F7m5", lambda just, children: just.update(catalog=["F7m5"])),
        ("U_2_4", lambda just, children: just.pop("fact")),
        ("F7m4", lambda just, children: just.pop("pair")),
        ("F7", lambda just, children: just.update(point=["x"] * 7)),
        ("F7", lambda just, children: just.update(point=just["point"][:3])),
        ("F7m4", lambda just, children: children[0].update(element="1")),
        ("F7m4", lambda just, children: children[0].update(
            report=children[0]["report"].to_dict())),
    ], ids=["known_hpp_without_perm", "catalog_list", "base_fact_without_fact",
            "certificate_without_pair", "point_not_a_number",
            "point_of_length_3", "element_a_string", "report_a_dict"])
    def test_malformed_node_replays_false(self, name, forge, store):
        M = (Matroid.from_nonbases(7, 3, FANO_LINES) if name == "F7"
             else resolve_name(name))
        rep = StrongRayleighChecker(store, CheckOptions(refute=True)).check(M)
        assert replay_report(rep, M, store)
        just, children = dict(rep.justification), [dict(c) for c in rep.children]
        forge(just, children)
        forged = dataclasses.replace(rep, justification=just, children=children)
        assert replay_report(forged, M, store) is False

    def test_childless_sos_search_node(self, store):
        # F7 + U_1_2: Delta_89 = Z_F7^2, so one square certifies the pair,
        # yet M/8 is F7 with a loop, which lacks the half-plane property
        F7 = Matroid.from_nonbases(7, 3, FANO_LINES)
        M = Matroid(9, 4, [b + (x,) for b in F7.bases() for x in (8, 9)])
        Z = parse_polynomial(format_polynomial(F7.basis_polynomial()), 9)
        target = rayleigh_diff_multiaffine(M.basis_polynomial(), 8, 9)
        assert verify(SosCertificate(terms=((Fraction(1), Z),)), target)
        forged = CheckReport(PROVED, "forged", M.m, M.rank, M.num_bases(),
                             {"kind": "sos_search", "pair": [8, 9],
                              "certificate": {"terms": [["1", format_polynomial(Z)]]}})
        assert not replay_report(forged, M, store)
        assert not reference_replay(forged, M, store)
        honest = StrongRayleighChecker(store, CheckOptions(refute=True)).check(M)
        assert honest.verdict == REFUTED
        assert replay_report(honest, M, store)


# -- the all-minor rule as reference ------------------------------------------


class AllMinorChecker(StrongRayleighChecker):
    """The recursion before Theorem 3's pair rule: all 2m one-element
    minors are checked, and M is PROVED only when every one is PROVED and
    some pair has evidence.  Kept as the reference the pair rule must
    never contradict; its reports list all 2m minors, so they are not
    replayed."""

    def _recursion(self, M, disp, certified):
        children = []
        for e in range(1, M.m + 1):
            for op, minor in (("contract", M.contract(e)), ("delete", M.delete(e))):
                rep = self.check(minor)
                children.append({"op": op, "element": e, "report": rep})
        refuted = next((c for c in children if c["report"].verdict == REFUTED),
                       None)
        if refuted is not None:
            just = (self._lift_counterexample(M, refuted)
                    or {"kind": "minor_refuted", "op": refuted["op"],
                        "element": refuted["element"]})
            return checker_mod._report(M, disp, REFUTED, just, children)
        if all(c["report"].verdict == PROVED for c in children):
            for pair in combinations(range(1, M.m + 1), 2):
                evidence = self._pair_evidence(M, pair, certified)
                if evidence is not None:
                    return checker_mod._report(M, disp, PROVED, evidence, children)
        if self.options.refute:
            counter = self._falsify(M)
            if counter is not None:
                return checker_mod._report(M, disp, REFUTED, counter, children)
        return checker_mod._report(M, disp, INCONCLUSIVE,
                                   {"kind": "none", "reason": "reference"},
                                   children)


HPP_NINE = SEVEN + ("F7m5", "P7pp")
CROSS_CHECK = ([(name, PROVED, PROVED) for name in HPP_NINE]
               + [("nP", INCONCLUSIVE, REFUTED), ("F7", INCONCLUSIVE, REFUTED)])


def _variants(name):
    """The matroid as given, dualised and randomly relabelled."""
    M = (Matroid.from_nonbases(7, 3, FANO_LINES) if name == "F7"
         else resolve_name(name))
    perm = list(range(1, M.m + 1))
    random.Random(name).shuffle(perm)
    return [("given", M), ("dual", M.dual()), ("relabelled", M.relabeled(perm))]


class TestPairRuleAgainstAllMinors:
    @pytest.mark.parametrize("refute", [False, True], ids=["plain", "refute"])
    @pytest.mark.parametrize("name,plain,refuting", CROSS_CHECK,
                             ids=[c[0] for c in CROSS_CHECK])
    def test_verdicts_agree(self, name, plain, refuting, refute, store):
        options = CheckOptions(refute=refute)
        for how, M in _variants(name):
            new = StrongRayleighChecker(store, options).check(M)
            old = AllMinorChecker(store, options).check(M)
            assert {new.verdict, old.verdict} != {PROVED, REFUTED}, how
            if old.verdict == PROVED:
                assert new.verdict == PROVED, how
            assert new.verdict == (refuting if refute else plain), how
            assert replay_report(new, M, store), how
            for node in walk(new):
                if node.justification["kind"] in ("certificate", "sos_search"):
                    assert len(node.children) == 4, how


# the cases of the benchmark's `check` workload: (name, refute)
CHECK_CASES = ([(name, False) for name in HPP_NINE]
               + [("nP", False), ("nP", True), ("F7", True), ("U_3_3", False)])


@pytest.mark.parametrize("name,refute", CHECK_CASES,
                         ids=[f"{n}{'-refute' if r else ''}"
                              for n, r in CHECK_CASES])
def test_each_store_pair_verified_once(name, refute, store, monkeypatch):
    # each class meets the catalog once, so a checker verifies a store
    # (entry, pair) at most once without caching the outcome
    calls = Counter()
    verifies = checker_mod._entry_certificate_verifies

    def counting(store_, ename, epair):
        calls[ename, tuple(sorted(epair))] += 1
        return verifies(store_, ename, epair)

    monkeypatch.setattr(checker_mod, "_entry_certificate_verifies", counting)
    for how, M in _variants(name):
        calls.clear()
        StrongRayleighChecker(store, CheckOptions(refute=refute)).check(M)
        assert all(n == 1 for n in calls.values()), (how, calls)
        if name in SEVEN:
            # the matroid's own entry is among those verified
            assert any(ename == name for ename, _ in calls), how


@st.composite
def linear_spaces(draw):
    """A rank-3 linear space on seven points: lines of three or four
    points, any two meeting in at most one point."""
    lines = []
    for line in draw(st.lists(st.frozensets(st.integers(1, 7), min_size=3,
                                            max_size=4), max_size=7)):
        if all(len(line & other) <= 1 for other in lines):
            lines.append(line)
    return Matroid.from_nonbases(
        7, 3, [t for line in lines for t in combinations(sorted(line), 3)])


@settings(max_examples=30)
@given(M=linear_spaces(), perm=st.permutations(range(1, 8)))
def test_linear_space_verdict_invariant(M, perm, store):
    verdicts = set()
    for variant in (M, M.relabeled(perm), M.dual()):
        rep = StrongRayleighChecker(store, CheckOptions()).check(variant)
        assert replay_report(rep, variant, store)
        verdicts.add(rep.verdict)
    assert len(verdicts) == 1
    # the dual has rank 4 on seven elements
    assert rep.justification["kind"] == "dual"
