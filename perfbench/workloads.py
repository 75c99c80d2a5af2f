"""The benchmark's four workloads.

Each workload is a list of operations.  An operation's `run` is the timed
call into hppcheck's public functions, the same ones the CLI subcommands
call; its `check` (untimed) tests the output with the independent oracle
and with facts from the literature, never against a stored copy of an
earlier output.  `prepare` (untimed) resets state that a fresh CLI
process would not have.

The program's own seeds (refutation, search, sampler) stay at the CLI
default 0, so the work of `check`, `search` and `sample` is the same for
every benchmark seed.  The benchmark seed picks the oracle's evaluation
points and the random inputs of `exact`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Any, Callable

import oracle

# The seven matroids of Wagner & Wei with shipped certificates, and the two
# whose half-plane property the catalog imports (Choe, Oxley, Sokal, Wagner).
CERTIFIED = ("F7m4", "W3p", "W3pe", "P7p", "nP_d1", "nP_d9", "V8")
HPP = CERTIFIED + ("F7m5", "P7pp")

# The Fano plane: seven points, seven three-point lines.  It lacks the
# half-plane property (Brändén 2007).
FANO_LINES = ((1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7),
              (3, 4, 7), (3, 5, 6))

SEARCH_TARGETS = ("F7m4", "W3p", "nP_d9")

# sampler inputs: nP, F7 and their duals (the half-plane property is closed
# under duality, Choe, Oxley, Sokal, Wagner 2004), where the first pair
# scanned gives a counterexample, and U_2_3, which has the property.  A full
# scan of U_2_3's three pairs takes about 0.6 s each at the CLI defaults,
# mostly coordinate descent; U_2_4 takes about 5 s and a seven-element
# matroid about 56 s.  A round takes about 3.5 s, so a run has seven to
# nine rounds for its per-operation medians.  The descent reacts most to
# the machine's swings in speed; the duals weigh the vectorised scan and
# the exact snapping against it.
SAMPLE_REFUTED = ("nP", "F7", "nP*", "F7*")
SAMPLE_HPP = ("U_2_3",)

# exact: triples per catalog matroid and random multiaffine polynomials,
# each (ground set size, number of terms); sized so that a run has at
# least three rounds, whose per-operation median drops a slow burst
CATALOG_TRIPLES = 1
CORPUS_SHAPES = ((5, 12), (6, 18), (6, 24), (7, 30))

POINTS = 2          # oracle evaluation points per checked polynomial


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    prepare: Callable[[], None] = lambda: None
    report: Callable[[Any], Any] = lambda out: None   # the CheckReport in out


class Library:
    """The hppcheck modules, imported once by the runner."""

    def __init__(self, modules: dict[str, Any]):
        self.mod = modules
        self.store = None

    def setup(self) -> None:
        """Build the catalog and load the shipped store (the set-up)."""
        self.mod["catalog"].catalog()
        cert = self.mod["certificate"]
        self.store = cert.load_store(cert.shipped_store_dir())

    def matroid(self, name: str):
        if name.endswith("*"):
            dual = self.matroid(name[:-1]).dual()
            dual.name = name
            return dual
        if name == "F7":
            return self.mod["matroid"].Matroid.from_nonbases(7, 3, FANO_LINES,
                                                             name="F7")
        return self.mod["catalog"].resolve_name(name)

    def fresh(self, M):
        """A copy with no cached keys or degree tables, as a new process
        would build it."""
        return self.mod["matroid"].Matroid(M.m, M.rank, M.bases(),
                                           name=M.name, validate=False)

    def cert_text(self, cert) -> str:
        return self.mod["certificate"].certificate_to_text(cert)


def _terms(poly) -> dict:
    return dict(poly.terms)


# -- check ----------------------------------------------------------------------


def _counterexample_problem(report, bases) -> str | None:
    """Follow a REFUTED report down to its exact counterexample and test it
    on the matroid the node speaks of."""
    just = report.justification
    kind = just.get("kind")
    if kind == "counterexample":
        return oracle.check_counterexample(
            bases, tuple(just["pair"]), [Fraction(x) for x in just["point"]],
            Fraction(just["value"]))
    if kind == "isomorphic":
        return _counterexample_problem(just["inner"],
                                       oracle.relabeled_bases(bases, just["perm"]))
    if kind == "reduction":
        return _counterexample_problem(just["inner"],
                                       oracle.reduced_bases(bases))
    if kind == "minor_refuted":
        for child in report.children:
            if (child["op"], child["element"]) == (just["op"], just["element"]):
                return _counterexample_problem(
                    child["report"],
                    oracle.minor_bases(bases, child["op"], child["element"]))
    return f"REFUTED node of kind {kind!r} carries no counterexample"


def _certificates_cited(report):
    """(catalog entry, pair) of every store certificate a report tree cites."""
    just = report.justification
    if just.get("kind") == "certificate":
        yield just["catalog"], tuple(just["pair"])
    inner = just.get("inner")
    if inner is not None:
        yield from _certificates_cited(inner)
    for child in report.children:
        yield from _certificates_cited(child["report"])


def report_nodes(report) -> int:
    """CheckReport nodes in a tree, shared subtrees counted where they appear."""
    count = 1
    inner = report.justification.get("inner")
    if inner is not None:
        count += report_nodes(inner)
    for child in report.children:
        count += report_nodes(child["report"])
    return count


def check_workload(lib: Library, rng: random.Random) -> list[Op]:
    checker = lib.mod["checker"]
    catalog = lib.mod["catalog"]
    plan = [(name, False, checker.PROVED) for name in HPP]
    plan += [("nP", False, checker.INCONCLUSIVE),
             ("nP", True, checker.REFUTED),
             ("F7", True, checker.REFUTED),
             # a matroid made only of coloops has a monomial basis
             # polynomial, which is strongly Rayleigh
             ("U_3_3", False, checker.PROVED)]
    store_problem = _store_oracle(lib, rng)
    ops = []
    for name, refute, expected in plan:
        base = lib.matroid(name)
        state: dict[str, Any] = {}

        def prepare(base=base, state=state):
            # each check starts from a cold catalog, as a new check-hpp
            # process does; the rebuild is set-up, not timed
            catalog._cache.clear()
            catalog.catalog()
            state["M"] = lib.fresh(base)

        def run(name=name, refute=refute, state=state):
            M = state["M"]
            report = checker.StrongRayleighChecker(
                lib.store, checker.CheckOptions(refute=refute)).check(M, name=name)
            return report, checker.replay_report(report, M, lib.store)

        def check(out, base=base, expected=expected):
            report, replayed = out
            if not replayed:
                return "replay_report rejects the report"
            if report.verdict != expected:
                return f"verdict {report.verdict}, expected {expected}"
            if expected == checker.REFUTED:
                return _counterexample_problem(report, base.bases())
            for ename, pair in sorted(set(_certificates_cited(report))):
                problem = store_problem(ename, pair)
                if problem:
                    return f"certificate {ename} {pair}: {problem}"
            return None

        label = f"{name} --refute" if refute else name
        ops.append(Op(label, run, check, prepare, report=lambda out: out[0]))
    return ops


# -- search ---------------------------------------------------------------------


def search_workload(lib: Library, rng: random.Random) -> list[Op]:
    sos = lib.mod["sos_search"]
    catalog = lib.mod["catalog"]
    rayleigh = lib.mod["rayleigh"]
    ops = []
    for name in SEARCH_TARGETS:
        ent = catalog.entry(name)
        target = rayleigh.rayleigh_diff_multiaffine(ent.matroid.basis_polynomial(),
                                                    *ent.cert_pair)
        bases = ent.matroid.bases()
        points = oracle.random_points(rng, ent.matroid.m, POINTS)

        def run(target=target):
            return sos.search_certificate(target)

        def check(cert, bases=bases, pair=ent.cert_pair, points=points):
            if cert is None:
                return "no certificate found"
            return oracle.check_certificate(lib.cert_text(cert), bases, pair, points)

        ops.append(Op(name, run, check))
    return ops


# -- exact ----------------------------------------------------------------------


def _random_multiaffine(rng: random.Random, m: int, size: int) -> dict:
    """`size` distinct multiaffine monomials, integer coefficients in
    [-9, 9] without 0; every variable occurs."""
    while True:
        masks = rng.sample(range(1, 2 ** m), size)
        used = 0
        for mask in masks:
            used |= mask
        if used == 2 ** m - 1:
            break
    return {tuple((mask >> i) & 1 for i in range(m)):
            Fraction(rng.choice([-1, 1]) * rng.randint(1, 9)) for mask in masks}


def _disc_check(terms: dict, e: int, f: int, g: int, outputs, points) -> str | None:
    """outputs: (A, B, C, discriminant, symmetric form) as term dicts."""
    A, B, C, disc, sym = outputs
    for point in points:
        a, b, c = oracle.quadratic_parts(terms, e, f, g, point)
        want = b * b - 4 * a * c
        got = [oracle.evaluate(p, point) for p in (A, B, C, disc, sym)]
        if got != [a, b, c, want, want]:
            return (f"triple {(e, f, g)}: (A, B, C, disc, sym) = {got}, "
                    f"oracle {[a, b, c, want, want]} at {point}")
    return None


def exact_workload(lib: Library, rng: random.Random) -> list[Op]:
    catalog = lib.mod["catalog"]
    rayleigh = lib.mod["rayleigh"]
    polynomial = lib.mod["polynomial"]
    certificate = lib.mod["certificate"]
    ops = []

    # every pair's Rayleigh difference in both forms, per catalog matroid
    for name in catalog.CATALOG_NAMES:
        M = catalog.entry(name).matroid
        Z = M.basis_polynomial()
        bases = M.bases()
        points = oracle.random_points(rng, M.m, POINTS)

        def run(Z=Z, m=M.m):
            return [(e, f, rayleigh.rayleigh_diff(Z, e, f),
                     rayleigh.rayleigh_diff_multiaffine(Z, e, f))
                    for e, f in combinations(range(1, m + 1), 2)]

        def check(out, bases=bases, points=points):
            for e, f, general, minor in out:
                for form, poly in (("general", general), ("minor", minor)):
                    problem = oracle.check_values(
                        f"pair {(e, f)} {form} form", _terms(poly),
                        lambda x, e=e, f=f: oracle.rayleigh_of_bases(bases, e, f, x),
                        points)
                    if problem:
                        return problem
            return None

        ops.append(Op(f"rdiff {name}", run, check))

    # quadratic decomposition and both discriminant forms: seeded triples of
    # the catalog matroids, and a seeded random multiaffine corpus checked
    # under every ordering of its triple (acceptance criterion 3)
    cases = []
    for name in catalog.CATALOG_NAMES:
        M = catalog.entry(name).matroid
        live = [e for e in range(1, M.m + 1) if e not in M.loops()]
        Z = M.basis_polynomial()
        for _ in range(CATALOG_TRIPLES):
            triple = tuple(rng.sample(live, 3))
            cases.append((f"disc {name} {triple}", Z, _terms(Z), [triple]))
    for i, (m, size) in enumerate(CORPUS_SHAPES):
        terms = _random_multiaffine(rng, m, size)
        triple = tuple(rng.sample(range(1, m + 1), 3))
        cases.append((f"disc corpus {i}", polynomial.Polynomial(m, terms), terms,
                      list(permutations(triple))))
    for label, Z, terms, triples in cases:
        points = oracle.random_points(rng, Z.m, POINTS)

        def run(Z=Z, triples=triples):
            out = []
            for e, f, g in triples:
                dec = rayleigh.quad_decompose(Z, e, f, g)
                out.append(((e, f, g), dec, rayleigh.discriminant(Z, e, f, g),
                            rayleigh.discriminant_symmetric_form(Z, e, f, g)))
            return out

        def check(out, terms=terms, points=points):
            for (e, f, g), dec, disc, sym in out:
                problem = _disc_check(
                    terms, e, f, g,
                    [_terms(p) for p in (dec.A, dec.B, dec.C, disc, sym)],
                    points)
                if problem:
                    return problem
            return None

        ops.append(Op(label, run, check))

    # exact verification of the shipped certificates
    store_problem = _store_oracle(lib, rng)
    for name in CERTIFIED:
        ent = catalog.entry(name)
        cert = lib.store.lookup(name, ent.cert_pair)
        target = rayleigh.rayleigh_diff_multiaffine(ent.matroid.basis_polynomial(),
                                                    *ent.cert_pair)

        def run(cert=cert, target=target):
            return certificate.verify(cert, target)

        def check(verdict, name=name, pair=ent.cert_pair):
            if not verdict.passed:
                return f"verify fails: {verdict.describe()}"
            return store_problem(name, pair)

        ops.append(Op(f"verify {name}", run, check))
    return ops


def _store_oracle(lib: Library, rng: random.Random) -> Callable[[str, tuple], str | None]:
    """The oracle's check of a shipped certificate against its catalog
    matroid, made once per certificate and remembered."""
    catalog = lib.mod["catalog"]
    points = {name: oracle.random_points(rng, catalog.entry(name).matroid.m, POINTS)
              for name in CERTIFIED}
    memo: dict[tuple, str | None] = {}

    def problem(name: str, pair: tuple) -> str | None:
        if (name, pair) not in memo:
            cert = lib.store.lookup(name, pair)
            memo[name, pair] = ("not in the store" if cert is None else
                                oracle.check_certificate(
                                    lib.cert_text(cert),
                                    catalog.entry(name).matroid.bases(), pair,
                                    points[name]))
        return memo[name, pair]
    return problem


# -- sample ---------------------------------------------------------------------


def sample_workload(lib: Library, rng: random.Random) -> list[Op]:
    sampler = lib.mod["sampler"]
    matroids = [lib.matroid(name) for name in SAMPLE_REFUTED + SAMPLE_HPP]
    # the CLI's defaults: 100,000 trials per pair, descent on, seed 0
    config = sampler.SampleConfig(mode=sampler.STRONG_RAYLEIGH)
    ops = []
    for M in matroids:
        Z = M.basis_polynomial()
        bases = M.bases()
        refutable = M.name in SAMPLE_REFUTED

        def run(Z=Z):
            return sampler.falsify(Z, config)

        def check(counter, bases=bases, refutable=refutable):
            if not refutable:
                if counter is not None:
                    return (f"counterexample {counter} reported for a matroid "
                            f"with the half-plane property")
                return None
            if counter is None:
                return "no counterexample found"
            return oracle.check_counterexample(bases, counter.pair,
                                               list(counter.point), counter.value)

        ops.append(Op(M.name, run, check))
    return ops


# -- oracle self-test -------------------------------------------------------------


def self_test(lib: Library, rng: random.Random) -> list[str]:
    ent = lib.mod["catalog"].entry("F7m4")
    cert = lib.store.lookup("F7m4", ent.cert_pair)
    return oracle.self_test(lib.cert_text(cert), ent.matroid.bases(), ent.cert_pair,
                            oracle.random_points(rng, ent.matroid.m, POINTS))


WORKLOADS = {
    "check": check_workload,
    "search": search_workload,
    "exact": exact_workload,
    "sample": sample_workload,
}
