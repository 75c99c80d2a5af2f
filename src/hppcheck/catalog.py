"""The built-in matroid catalog.

Each named entry carries a literature-style construction (a natural
labeling of the structure) plus a pinning permutation taking it to the
labeling used by the shipped certificates.  The pins were found by
`find_labeling` against the certificate targets and are re-derived by
the test suite; entries without a certificate keep their construction
labeling.

Uniform matroids are available under names like ``U_2_4`` and are built
on demand, up to MAX_VALIDATED_BASES bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product
from math import comb

from hppcheck.matroid import MAX_VALIDATED_BASES, IsoTable, Matroid
from hppcheck.polynomial import Polynomial
from hppcheck.rayleigh import rayleigh_diff_multiaffine


def uniform(rank: int, m: int, name: str | None = None) -> Matroid:
    """The uniform matroid: every rank-subset of {1..m} is a basis."""
    if not 0 < rank <= m:
        raise ValueError(f"uniform matroid needs 0 < rank <= m, got {rank}, {m}")
    # refused before a subset is listed; C(m, rank) >= m unless rank == m,
    # so a huge m is refused without computing the binomial
    if m > MAX_VALIDATED_BASES or comb(m, rank) > MAX_VALIDATED_BASES:
        raise ValueError(f"more than the {MAX_VALIDATED_BASES} bases or "
                         "elements that are allowed")
    return Matroid(m, rank, combinations(range(1, m + 1), rank),
                   name=name or f"U_{rank}_{m}", validate=False)


def _line_closure(lines: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Dependent triples of a rank-3 matroid given by its long lines."""
    non = set()
    for line in lines:
        for t in combinations(sorted(line), 3):
            non.add(t)
    return sorted(non)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    matroid: Matroid
    provenance: str
    known_hpp: bool                  # nonnegativity imported as an external fact
    cert_pair: tuple[int, int] | None
    core: Matroid                    # the loop-free core the index holds
    strip_map: dict[int, int]        # entry labels -> core labels


# literature-style constructions: name -> (m, rank, nonbases, provenance)
_LITERATURE: dict[str, tuple[int, int, list[tuple[int, ...]], str]] = {
    "F7m4": (7, 3, _line_closure([(1, 2, 3), (1, 4, 5), (1, 6, 7)]),
             "Fano plane with the four lines avoiding point 1 relaxed; the "
             "pencil of three lines through 1 remains.  Labeling pinned by "
             "the shipped certificate."),
    "F7m5": (7, 3, _line_closure([(1, 2, 3), (1, 4, 5)]),
             "Fano plane with five lines relaxed; two lines through point 1 "
             "remain.  Also arises as a contraction of V8.  No certificate; "
             "its half-plane property is an imported fact."),
    "W3p": (7, 3, _line_closure([(1, 2, 4, 7), (2, 3, 5), (1, 3, 6)]),
            "Rank-3 whirl with one line extended by a fourth point "
            "(deleting the extra point gives the whirl back).  Labeling "
            "pinned by the shipped certificate."),
    "W3pe": (7, 3, _line_closure([(1, 2, 4), (2, 3, 5), (1, 3, 6)]),
             "Rank-3 whirl plus a point in general position.  Labeling "
             "pinned by the shipped certificate."),
    "P7p": (7, 3, _line_closure([(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 7)]),
            "Four three-point lines on seven points (two concurrences on "
            "each of two points, one disjoint line pair).  Labeling pinned "
            "by the shipped certificate."),
    "P7pp": (7, 3, _line_closure([(1, 5, 6), (2, 6, 7), (3, 4, 5)]),
             "P7p with one line relaxed: three lines, two meeting in a "
             "point, the third disjoint from one of them.  No certificate; "
             "its half-plane property is an imported fact."),
    "nP": (9, 3, _line_closure([(1, 2, 3), (1, 5, 7), (1, 6, 8), (2, 4, 7),
                                (2, 6, 9), (3, 4, 8), (3, 5, 9), (4, 5, 6)]),
           "Pappus configuration with the conclusion line relaxed "
           "(non-Pappus matroid).  Rows {1,2,3} and {4,5,6}; points 7,8,9 "
           "lie on the relaxed line.  Labeling pinned jointly by the two "
           "deletion certificates."),
    "V8": (8, 4, [(1, 2, 3, 4), (1, 2, 5, 6), (1, 2, 7, 8),
                  (3, 4, 5, 6), (3, 4, 7, 8)],
           "Vamos cube: pairs {1,2},{3,4},{5,6},{7,8}; five of the six "
           "pair-unions are circuit-hyperplanes, {5,6}u{7,8} is not.  "
           "Labeling pinned by the shipped certificate."),
}

# pinning permutations (literature labels -> certificate labels)
_PINS: dict[str, tuple[int, ...]] = {
    "F7m4": (1, 2, 3, 4, 7, 5, 6),
    "F7m5": (1, 2, 3, 4, 5, 6, 7),
    "W3p": (1, 3, 5, 2, 4, 6, 7),
    "W3pe": (1, 3, 5, 2, 4, 6, 7),
    "P7p": (1, 2, 3, 6, 5, 7, 4),
    "P7pp": (1, 2, 3, 4, 5, 6, 7),
    "nP": (1, 2, 3, 4, 5, 6, 7, 8, 9),
    "V8": (1, 3, 2, 4, 5, 6, 7, 8),
}

# pair carrying the shipped certificate, where one exists
CERT_PAIRS: dict[str, tuple[int, int]] = {
    "F7m4": (1, 2),
    "W3p": (1, 2),
    "W3pe": (1, 2),
    "P7p": (1, 2),
    "nP_d1": (2, 4),
    "nP_d9": (1, 2),
    "V8": (1, 2),
}

# entries whose half-plane property is imported as an external fact
KNOWN_HPP = ("F7m5", "P7pp")

CATALOG_NAMES = ("U_2_4", "F7m4", "F7m5", "W3p", "W3pe", "P7p", "P7pp",
                 "nP", "nP_d1", "nP_d9", "V8")


def literature_definition(name: str) -> Matroid:
    """The construction-labeled matroid behind a catalog entry."""
    if name == "nP_d1":
        return literature_definition("nP").remove_as_loop(1)
    if name == "nP_d9":
        return literature_definition("nP").delete(9)
    m, rank, nonbases, _ = _LITERATURE[name]
    return Matroid.from_nonbases(m, rank, nonbases, name=f"{name}_lit")


def pin_permutation(name: str) -> tuple[int, ...]:
    return _PINS[name]


def _signature_classes(p: Polynomial,
                       pair: tuple[int, int]) -> dict[tuple, list[int]]:
    """The variables of p outside `pair`, grouped by a relabeling-invariant
    signature: the sorted (exponent, coefficient, degree, sorted exponents)
    of the terms that hold the variable."""
    classes: dict[tuple, list[int]] = {}
    for v in range(1, p.m + 1):
        if v not in pair:
            sig = tuple(sorted((exps[v - 1], c, sum(exps), tuple(sorted(exps)))
                               for exps, c in p.terms.items() if exps[v - 1]))
            classes.setdefault(sig, []).append(v)
    return classes


def find_labeling(M: Matroid, pair: tuple[int, int],
                  target_delta: Polynomial) -> tuple[int, ...] | None:
    """The least relabeling perm of M (element i maps to perm[i-1]) whose
    Rayleigh difference at `pair` is target_delta exactly, or None.

    Each pair {a, b} of M whose difference has the target's signature class
    sizes outside the pair maps onto `pair` both ways round, and each class
    onto the target's class of the same signature in every order.  A zero
    target takes the other elements in one order only: whether a
    relabeling meets it depends only on the pair it takes onto `pair`.
    """
    e, f = pair
    if e == f:
        raise ValueError("pair must consist of two distinct indices")
    if target_delta.m != M.m:
        return None
    Z = M.basis_polynomial()
    slots = _signature_classes(target_delta, pair)
    sizes = {sig: len(vs) for sig, vs in slots.items()}
    found = []
    for a, b in combinations(range(1, M.m + 1), 2):
        classes = _signature_classes(rayleigh_diff_multiaffine(Z, a, b), (a, b))
        if {sig: len(vs) for sig, vs in classes.items()} != sizes:
            continue
        orders = product(*(permutations(slots[sig]) for sig in classes))
        if target_delta.is_zero():
            # a relabeling's difference at `pair` is zero exactly when the
            # pair it takes there has a zero difference, wherever the other
            # elements go; so they go to the other labels in order
            orders = [tuple(slots[sig] for sig in classes)]
        for images in orders:
            perm = [0] * M.m
            for vs, image in zip(classes.values(), images):
                for v, w in zip(vs, image):
                    perm[v - 1] = w
            for pa, pb in (pair, (f, e)):
                perm[a - 1], perm[b - 1] = pa, pb
                Zp = M.relabeled(perm).basis_polynomial()
                if rayleigh_diff_multiaffine(Zp, e, f) == target_delta:
                    found.append(tuple(perm))
    return min(found, default=None)


_cache: dict[str, CatalogEntry] = {}


def _build(name: str) -> CatalogEntry:
    if name == "U_2_4":
        mat, prov = uniform(2, 4), "Uniform matroid on four elements."
    elif name == "nP_d1":
        mat = entry("nP").matroid.remove_as_loop(1)
        prov = ("nP with element 1 deleted, labels kept (1 becomes a loop) "
                "so the certificate variable names match.")
    elif name == "nP_d9":
        mat, prov = entry("nP").matroid.delete(9), "nP with element 9 deleted."
    else:
        m, rank, nonbases, prov = _LITERATURE[name]
        mat = Matroid.from_nonbases(m, rank, nonbases).relabeled(_PINS[name])
    mat.name = name
    return CatalogEntry(name, mat, prov, name in KNOWN_HPP,
                        CERT_PAIRS.get(name), *mat.strip_absent())


def entry(name: str) -> CatalogEntry:
    if name not in _cache:
        if name not in CATALOG_NAMES:
            raise KeyError(f"unknown catalog matroid {name!r}")
        _cache[name] = _build(name)
    return _cache[name]


def catalog() -> dict[str, CatalogEntry]:
    """All named entries, in declaration order."""
    return {name: entry(name) for name in CATALOG_NAMES}


def catalog_index() -> IsoTable:
    """Every entry's loop-free core, for isomorphism lookups.

    A row's value is the entry name, and rows follow CATALOG_NAMES.  No row
    holds a dual: every core's rank is at most its corank, and the checker
    checks a matroid whose rank exceeds its corank through its dual.
    """
    index = IsoTable()
    for name in CATALOG_NAMES:
        index.add(entry(name).core, name)
    return index


def resolve_name(name: str) -> Matroid:
    """Resolve a catalog name or a ``U_<r>_<m>`` pattern to a matroid."""
    if name in CATALOG_NAMES:
        return entry(name).matroid
    if name.startswith("U_"):
        parts = name.split("_")
        if len(parts) == 3:
            try:
                return uniform(int(parts[1]), int(parts[2]), name=name)
            except ValueError as exc:
                # not integers, not 0 < r <= m, or too large
                raise KeyError(f"bad uniform matroid name {name!r}: {exc}")
    raise KeyError(f"unknown matroid name {name!r}")
