"""Recursive strong-Rayleigh verification for matroid basis polynomials.

The recursion is Theorem 3 of Wagner and Wei, "A criterion for the
half-plane property": fix distinct elements e, f of E; a multiaffine
polynomial Z in y_E with real coefficients is stable iff d_e Z, Z|_{y_e=0},
d_f Z and Z|_{y_f=0} are stable and (d_e Z)(d_f Z) - Z (d_e d_f Z) >= 0 on
R^E.  For a basis polynomial those four belong to M/e, M\\e, M/f and M\\f,
so one pair settles M: its four minors and exact evidence for its difference.
The checker runs that recursion with:

  * base facts imported from the literature (at most six elements; rank or
    corank at most two; specific catalog matroids known to have the
    half-plane property), all flagged with provenance;
  * exact certificate verification (via the certificate store) or exact
    re-verified SOS search for the pair condition;
  * isomorphism resolution against the catalog, through one catalog index;
  * one duality rule: a matroid whose rank exceeds its corank is checked
    through its dual.  The class is closed under minors and duality, so a
    refuted minor refutes M, and so does a refuted dual;
  * a falsifier producing exact rational counterexamples in refute mode.

PROVED / REFUTED / INCONCLUSIVE are first-class verdicts; sampling never
proves, and the float SOS stage never reaches a verdict without exact
rational re-verification.  Reports are machine-checkable trees; see
`replay_report`.  The float layers, `sos_search` and `sampler`, are
imported by the two methods that use them, so a check without `search`
or `refute` never loads numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Any

from hppcheck.catalog import CatalogEntry, catalog_index, entry
from hppcheck.certificate import (CertificateStore, SosCertificate,
                                 format_fraction, verify)
from hppcheck.matroid import IsoTable, Matroid
from hppcheck.polynomial import format_polynomial, parse_polynomial
from hppcheck.rayleigh import rayleigh_diff_multiaffine

PROVED = "PROVED"
REFUTED = "REFUTED"
INCONCLUSIVE = "INCONCLUSIVE"

# the ground-set, rank/corank and duality facts are from Choe, Oxley, Sokal
# and Wagner, "Homogeneous multivariate polynomials with the half-plane
# property" (2004)
_PROV_SMALL = "imported fact: every matroid with at most six elements has the HPP"
_PROV_RANK = "imported fact: every matroid with rank or corank at most two has the HPP"
_PROV_KNOWN = "imported fact: this catalog matroid is known to have the HPP"
_PROV_DUAL = "imported fact: the HPP class is closed under duality"
_PROV_MONOMIAL = ("a matroid with a single basis has a monomial basis "
                  "polynomial, which is strongly Rayleigh")
_LOOP_NOTE = ("variables absent from the polynomial (loops) are treated as "
              "allowed: their Rayleigh differences vanish identically")


@dataclass
class CheckOptions:
    search: bool = False
    refute: bool = False
    seed: int = 0           # seeds the refute-mode sampler; the search has none


@dataclass
class CheckReport:
    verdict: str
    matroid_name: str
    m: int
    rank: int
    num_bases: int
    justification: dict[str, Any]
    children: list[dict[str, Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        just = dict(self.justification)
        if "inner" in just and isinstance(just["inner"], CheckReport):
            just["inner"] = just["inner"].to_dict()
        kids = []
        for child in self.children:
            c = dict(child)
            if isinstance(c.get("report"), CheckReport):
                c["report"] = c["report"].to_dict()
            kids.append(c)
        return {"verdict": self.verdict, "matroid": self.matroid_name,
                "m": self.m, "rank": self.rank, "bases": self.num_bases,
                "justification": just, "children": kids, "notes": self.notes}

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        kind = self.justification.get("kind", "?")
        lines = [f"{pad}{self.verdict} {self.matroid_name} "
                 f"(m={self.m}, rank={self.rank}, bases={self.num_bases}) "
                 f"via {kind}"]
        detail = _describe_justification(self.justification)
        if detail:
            lines.append(f"{pad}  {detail}")
        for note in self.notes:
            lines.append(f"{pad}  note: {note}")
        inner = self.justification.get("inner")
        if isinstance(inner, CheckReport):
            lines.append(inner.render(indent + 1))
        for child in self.children:
            lines.append(f"{pad}  {child['op']} {child['element']}:")
            lines.append(child["report"].render(indent + 2))
        return "\n".join(lines)


def _describe_justification(just: dict[str, Any]) -> str:
    kind = just.get("kind")
    if kind == "base_fact":
        return just.get("provenance", "")
    if kind == "known_hpp":
        return (f"isomorphic to catalog {just['catalog']}; "
                f"{just.get('provenance', '')}")
    if kind == "certificate":
        return (f"pair {tuple(just['pair'])} via certificate for "
                f"{just['catalog']}")
    if kind == "sos_search":
        return f"pair {tuple(just['pair'])} via searched certificate"
    if kind == "dual":
        return ("rank exceeds corank, checked through the dual; "
                f"{just['provenance']}")
    if kind == "counterexample":
        return (f"pair {tuple(just['pair'])} negative at "
                f"{just['point']} (value {just['value']})")
    if kind == "reduction":
        return (f"loops {just.get('loops')} / coloops {just.get('coloops')} "
                f"removed")
    if kind == "minor_refuted":
        return f"{just['op']} {just['element']} is already refuted"
    if kind == "isomorphic":
        return "isomorphic to an already-checked minor"
    return ""


def _report(M: Matroid, name: str, verdict: str, justification: dict[str, Any],
            children: list[dict[str, Any]] | None = None,
            notes: list[str] | None = None) -> CheckReport:
    return CheckReport(verdict=verdict, matroid_name=name, m=M.m, rank=M.rank,
                       num_bases=M.num_bases(), justification=justification,
                       children=children or [], notes=notes or [])


def _counterexample(pair: tuple[int, ...], point: list[Fraction],
                    value: Fraction) -> dict[str, Any]:
    return {"kind": "counterexample", "pair": list(pair),
            "point": [format_fraction(x) for x in point],
            "value": format_fraction(value)}


class StrongRayleighChecker:
    """Runs the recursion, memoized over isomorphism classes of minors.

    The memo and the catalog index are `IsoTable`s: isomorphic minors of
    any size share one report tree, and a class meets the index built here
    once, in one match (the index holds each entry's core once) that gives
    its `known_hpp` fact or its verified store pairs.  Every step leads to
    a smaller matroid, or from a matroid to its dual of smaller rank, so no
    check leads back to a class still being checked.
    """

    def __init__(self, store: CertificateStore, options: CheckOptions | None = None):
        self.store = store
        self.options = options or CheckOptions()
        # value (M, report) per checked isomorphism class
        self._memo = IsoTable()
        self._index = catalog_index()

    # -- public API -----------------------------------------------------

    def check(self, M: Matroid, name: str | None = None) -> CheckReport:
        for (rep_matroid, report), perm in self._memo.lookup(M):
            if rep_matroid == M:
                return report
            # same isomorphism class, different labels: reuse the stored
            # tree under the witnessing permutation (recorded for replay)
            return _report(M, self._display_name(M, name), report.verdict,
                           {"kind": "isomorphic", "perm": list(perm),
                            "inner": report})
        report = self._check_core(M, name)
        self._memo.add(M, (M, report))
        return report

    def check_pair_nonnegativity(self, M: Matroid,
                                 pair: tuple[int, int]) -> dict | None:
        """Evidence that the Rayleigh difference of `pair` is globally
        nonnegative: a verified certificate of the store entry matching M,
        or, with `search`, a searched one.

        Sampling can never establish nonnegativity, so absence of evidence
        returns None.
        """
        match = next(self._index.lookup(M), None)
        return self._pair_evidence(M, pair, self._certified_pairs(match))

    # -- internals --------------------------------------------------------

    def _pair_evidence(self, M: Matroid, pair: tuple[int, int],
                       certified: dict[tuple[int, int], dict]) -> dict | None:
        """`pair`'s entry in `certified`, else a searched certificate."""
        e, f = sorted(pair)
        just = certified.get((e, f))
        if just is not None or not self.options.search:
            return just
        from hppcheck import sos_search as sos_mod
        target = rayleigh_diff_multiaffine(M.basis_polynomial(), e, f)
        cert = sos_mod.search_certificate(target)
        if cert is None or not verify(cert, target):
            return None
        return {"kind": "sos_search", "pair": [e, f],
                "certificate": {
                    "terms": [[format_fraction(w), format_polynomial(q)]
                              for w, q in cert.terms]}}

    def _display_name(self, M: Matroid, name: str | None) -> str:
        if name:
            return name
        if M.name:
            return M.name
        return f"minor(m={M.m},r={M.rank},b={M.num_bases()})"

    def _check_core(self, M: Matroid, name: str | None) -> CheckReport:
        disp = self._display_name(M, name)
        if M.num_bases() == 1:
            # checked before the loop/coloop reduction, which would leave
            # an empty ground set
            return _report(M, disp, PROVED,
                           {"kind": "base_fact", "fact": "single_basis",
                            "provenance": _PROV_MONOMIAL})

        loops = M.loops()
        coloops = M.coloops()
        if loops or coloops:
            inner = self.check(_reduce(M))
            notes = []
            if loops:
                notes.append(_LOOP_NOTE)
            if coloops:
                notes.append("coloop factors y_e*(rest) do not affect "
                             "strong-Rayleighness")
            return _report(M, disp, inner.verdict,
                           {"kind": "reduction", "loops": list(loops),
                            "coloops": list(coloops), "inner": inner},
                           notes=notes)

        if M.m <= 6:
            return _report(M, disp, PROVED,
                           {"kind": "base_fact", "fact": "ground_at_most_6",
                            "provenance": _PROV_SMALL})
        if M.rank <= 2 or M.corank() <= 2:
            return _report(M, disp, PROVED,
                           {"kind": "base_fact",
                            "fact": "rank_or_corank_at_most_2",
                            "provenance": _PROV_RANK})

        if M.rank > M.corank():
            # M* has rank below its corank, so this never fires twice
            inner = self.check(M.dual(), name=f"{disp}*")
            return _report(M, disp, inner.verdict,
                           {"kind": "dual", "inner": inner,
                            "provenance": _PROV_DUAL})

        # (entry name, perm) of the one catalog row matching M, if any
        match = next(self._index.lookup(M), None)
        if match is not None and entry(match[0]).known_hpp:
            ename, perm = match
            return _report(M, disp, PROVED,
                           {"kind": "known_hpp", "catalog": ename,
                            "perm": list(perm), "provenance": _PROV_KNOWN})

        return self._recursion(M, disp, self._certified_pairs(match))

    def _recursion(self, M: Matroid, disp: str,
                   certified: dict[tuple[int, int], dict]) -> CheckReport:
        """Theorem 3, one pair at a time: the `certified` store pairs
        first, then every other pair in lexicographic order.  The four
        minors of each pair are checked (once per call); a refuted one
        refutes M, and four PROVED minors with evidence for the pair prove
        it."""
        pairs = list(certified) + [p for p in combinations(range(1, M.m + 1), 2)
                                   if p not in certified]
        minors: dict[tuple[str, int], dict[str, Any]] = {}
        for pair in pairs:
            four = []
            for e in pair:
                for op in ("contract", "delete"):
                    child = minors.get((op, e))
                    if child is None:
                        rep = self.check(M.contract(e) if op == "contract"
                                         else M.delete(e))
                        child = {"op": op, "element": e, "report": rep}
                        minors[(op, e)] = child
                        if rep.verdict == REFUTED:
                            just = (self._lift_counterexample(M, child)
                                    or {"kind": "minor_refuted", "op": op,
                                        "element": e})
                            return _report(M, disp, REFUTED, just,
                                           list(minors.values()))
                    four.append(child)
            if all(c["report"].verdict == PROVED for c in four):
                evidence = self._pair_evidence(M, pair, certified)
                if evidence is not None:
                    return _report(M, disp, PROVED, evidence, four)

        counter = self._falsify(M) if self.options.refute else None
        if counter is not None:
            return _report(M, disp, REFUTED, counter, list(minors.values()))
        return _report(M, disp, INCONCLUSIVE,
                       {"kind": "none",
                        "reason": "no pair with certified nonnegativity was found"},
                       list(minors.values()))

    # -- pair nonnegativity -------------------------------------------------

    def _certified_pairs(self, match: tuple | None) -> dict[tuple, dict]:
        """M's pairs (in M's labels, store order) with a verified store
        certificate, each mapped to its justification; `match` is M's
        (entry name, perm) catalog match, or None."""
        if match is None:
            return {}
        ename, perm = match
        ent = entry(ename)
        out = {}
        for epair in self.store.pairs_for(ename):
            if not _entry_certificate_verifies(self.store, ename, epair):
                continue
            m_pair = _entry_pair_in_m(ent, perm, epair)
            just = {"kind": "certificate", "catalog": ename,
                    "pair": list(epair), "m_pair": list(m_pair),
                    "perm": list(perm)}
            if ent.matroid.loops():
                just["note"] = _LOOP_NOTE
            out[m_pair] = just
        return out

    # -- refutation ----------------------------------------------------------

    def _falsify(self, M: Matroid) -> dict | None:
        from hppcheck import sampler as sampler_mod
        config = sampler_mod.SampleConfig(mode=sampler_mod.STRONG_RAYLEIGH,
                                          seed=self.options.seed)
        counter = sampler_mod.falsify(M.basis_polynomial(), config)
        if counter is None:
            return None
        return _counterexample(counter.pair, counter.point, counter.value)

    def _lift_counterexample(self, M: Matroid, child: dict) -> dict | None:
        """Turn a refuted minor's counterexample into one for M itself.

        The minor's point, with y_e = 0 inserted, is a point of M's
        difference for a deletion; for a contraction y_e grows until the
        leading quadratic term dominates.
        """
        just = child["report"].justification
        if just.get("kind") != "counterexample":
            return None
        e = child["element"]
        # minor labels -> M labels (order-preserving compression around e)
        pair_m = tuple(sorted(x if x < e else x + 1 for x in just["pair"]))
        delta = rayleigh_diff_multiaffine(M.basis_polynomial(), *pair_m)
        point_minor = [Fraction(s) for s in just["point"]]
        ys = [0] if child["op"] == "delete" else [2 ** k for k in range(128)]
        for y in ys:
            point = point_minor[:e - 1] + [Fraction(y)] + point_minor[e - 1:]
            value = delta.eval_rational(point)
            if value < 0:
                return _counterexample(pair_m, point, value)
        return None


# -- replay ------------------------------------------------------------------


def replay_report(report: CheckReport, M: Matroid,
                  store: CertificateStore) -> bool:
    """Re-verify every justification in a report tree against the matroid.

    Returns True iff the tree is internally consistent: minors recompute,
    base facts hold, permutations map bases onto bases, certificates
    re-verify exactly, and counterexamples re-evaluate negative.  Each
    verdict must follow from its evidence: a PROVED node with pair
    evidence lists exactly the four minors of its pair, all PROVED; a
    `known_hpp` node is PROVED; a `minor_refuted` node lists its named
    minor, REFUTED; a `dual` node has its inner report's verdict, and that
    report replays against M*.  A REFUTED `dual` node rests on the closure
    of the half-plane property under duality, as `minor_refuted` rests on
    its closure under minors; its chain still ends in an exact negative
    point, of M*'s difference.  A node whose fields are missing, of the
    wrong type or out of range replays as False.

    The checker shares one subtree among all minors of an isomorphism
    class, so a node can appear many times in a tree.  Each node is
    re-checked once per matroid it is claimed for (matroids compared by
    labelled equality, not isomorphism), and a tree that contains itself
    replays as False.
    """
    return _replay(report, M, store, {})


# what reading a node raises when a field it needs is missing, of the
# wrong type or out of range: such a node is not evidence, so it replays
# False.  GroundSetMismatchError and Matroid.relabeled's error for a
# non-permutation are ValueErrors.
_MALFORMED = (AttributeError, KeyError, TypeError, ValueError,
              ZeroDivisionError)


def _replay(report: CheckReport, M: Matroid, store: CertificateStore,
            memo: dict) -> bool:
    key = (id(report), M)
    if key in memo:
        return memo[key][1]
    # the entry holds the node, so its id is not reused during the call;
    # it reads False until the node is checked, so a cycle back here fails
    memo[key] = (report, False)
    try:
        result = _replay_node(report, M, store, memo)
    except _MALFORMED:
        result = False
    memo[key] = (report, result)
    return result


def _replay_node(report: CheckReport, M: Matroid, store: CertificateStore,
                 memo: dict) -> bool:
    if (report.m, report.rank, report.num_bases) != (M.m, M.rank, M.num_bases()):
        return False
    just = report.justification
    kind = just.get("kind")

    if kind in ("isomorphic", "reduction", "dual"):
        # the inner report carries this node's verdict for another matroid
        inner = just.get("inner")
        if not isinstance(inner, CheckReport) or inner.verdict != report.verdict:
            return False
        if kind == "dual":
            target = M.dual()
        elif kind == "reduction":
            target = _reduce(M)
        else:
            target = M.relabeled(tuple(just["perm"]))
        return _replay(inner, target, store, memo)

    if kind == "base_fact":
        if just["fact"] == "ground_at_most_6":
            return report.verdict == PROVED and M.m <= 6
        if just["fact"] == "rank_or_corank_at_most_2":
            return report.verdict == PROVED and (M.rank <= 2 or M.corank() <= 2)
        if just["fact"] == "single_basis":
            return report.verdict == PROVED and M.num_bases() == 1
        return False

    if kind == "known_hpp":
        ent = _cited_entry(just, M)
        return report.verdict == PROVED and ent is not None and ent.known_hpp

    if kind in ("certificate", "sos_search"):
        pair = tuple(just["pair"])
        if kind == "certificate":
            # M's pair, recomputed from the entry pair (never from m_pair)
            ent = _cited_entry(just, M)
            if ent is None:
                return False
            pair = _entry_pair_in_m(ent, just["perm"], pair)
        if (report.verdict != PROVED
                or not _replay_children(report, M, store, memo, pair)):
            return False
        if kind == "certificate":
            return _entry_certificate_verifies(store, just["catalog"], just["pair"])
        cert = SosCertificate(terms=tuple(
            (Fraction(w), parse_polynomial(text, M.m))
            for w, text in just["certificate"]["terms"]))
        return bool(verify(cert, rayleigh_diff_multiaffine(M.basis_polynomial(),
                                                           *pair)))

    if kind in ("none", "counterexample", "minor_refuted"):
        if not _replay_children(report, M, store, memo):
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
        # kind == "none"
        return report.verdict == INCONCLUSIVE

    return False


def _reduce(M: Matroid) -> Matroid:
    """M without its loops and coloops."""
    reduced = M
    if M.loops():
        reduced, _ = reduced.strip_absent()
    for c in sorted(reduced.coloops(), reverse=True):
        reduced = reduced.contract(c)
    return reduced


def _cited_entry(just: dict[str, Any], M: Matroid) -> CatalogEntry | None:
    """The catalog entry a `known_hpp` or `certificate` node cites, when
    the node's `perm` maps M onto the entry's core.  An unknown entry
    raises KeyError, and a `perm` that does not permute M's ground set
    raises ValueError."""
    ent = entry(just["catalog"])
    return ent if M.relabeled(tuple(just["perm"])) == ent.core else None


def _entry_certificate_verifies(store: CertificateStore, ename: str,
                                epair: list[int] | tuple[int, ...]) -> bool:
    cert = store.lookup(ename, tuple(epair))
    return cert is not None and bool(verify(cert, rayleigh_diff_multiaffine(
        entry(ename).matroid.basis_polynomial(), *epair)))


def _entry_pair_in_m(ent: CatalogEntry, perm: list[int] | tuple[int, ...],
                     epair: list[int] | tuple[int, ...]) -> tuple[int, ...]:
    """A catalog entry's pair in the labels of a matroid M that `perm`
    maps onto the entry's core: entry -> core by the strip map, core -> M
    by the inverse of `perm`."""
    inv = {p: i + 1 for i, p in enumerate(perm)}
    return tuple(sorted(inv[ent.strip_map[x]] for x in epair))


def _replay_children(report: CheckReport, M: Matroid, store: CertificateStore,
                     memo: dict, pair: tuple[int, ...] | None = None) -> bool:
    """Every listed child replays against its minor of M.  With the pair
    of a PROVED node, the children are exactly Theorem 3's four minors
    {contract, delete} x {e, f}, each PROVED."""
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
        minor = M.contract(e) if op == "contract" else M.delete(e)
        if not _replay(child["report"], minor, store, memo):
            return False
    return True
