"""The built-in matroid catalog.

Each named entry carries a literature-style construction (a natural
labeling of the structure) plus a pinning permutation taking it to the
labeling used by the shipped certificates.  The pins were found by
`matroid.find_labeling` against the certificate targets and are
re-derived by the test suite; entries without a certificate keep their
construction labeling.

Uniform matroids are available under names like ``U_2_4`` and are built
on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from hppcheck.matroid import IsoTable, Matroid


def uniform(rank: int, m: int, name: str | None = None) -> Matroid:
    """The uniform matroid: every rank-subset of {1..m} is a basis."""
    if not 0 < rank <= m:
        raise ValueError(f"uniform matroid needs 0 < rank <= m, got {rank}, {m}")
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
    known_hpp: bool = False          # nonnegativity imported as an external fact
    cert_pair: tuple[int, int] | None = None


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


_cache: dict[str, CatalogEntry] = {}


def _build(name: str) -> CatalogEntry:
    if name == "U_2_4":
        return CatalogEntry("U_2_4", uniform(2, 4),
                            "Uniform matroid on four elements.", False, None)
    if name == "nP_d1":
        base = entry("nP").matroid
        mat = base.remove_as_loop(1)
        mat.name = "nP_d1"
        return CatalogEntry(
            "nP_d1", mat,
            "nP with element 1 deleted, labels kept (1 becomes a loop) so "
            "the certificate variable names match.",
            False, CERT_PAIRS["nP_d1"])
    if name == "nP_d9":
        base = entry("nP").matroid
        mat = base.delete(9)
        mat.name = "nP_d9"
        return CatalogEntry("nP_d9", mat, "nP with element 9 deleted.",
                            False, CERT_PAIRS["nP_d9"])
    m, rank, nonbases, prov = _LITERATURE[name]
    mat = Matroid.from_nonbases(m, rank, nonbases).relabeled(_PINS[name])
    mat.name = name
    return CatalogEntry(name, mat, prov, name in KNOWN_HPP,
                        CERT_PAIRS.get(name))


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
    """Every entry's loop-free core and the core's dual, for isomorphism
    lookups.

    A row's value is (entry name, dual?, core): the row matches matroids
    isomorphic to the core (dual False) or to its dual (dual True).  Rows
    follow CATALOG_NAMES, the direct row of an entry before its dual row.
    """
    index = IsoTable()
    for name in CATALOG_NAMES:
        core, _ = entry(name).matroid.strip_absent()
        index.add(core, (name, False, core))
        index.add(core.dual(), (name, True, core))
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
            except ValueError:
                # not integers, or not 0 < r <= m
                raise KeyError(f"bad uniform matroid name {name!r}")
    raise KeyError(f"unknown matroid name {name!r}")
