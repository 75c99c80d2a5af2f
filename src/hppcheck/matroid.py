"""Matroids given by an explicit basis family.

A matroid here is a ground set {1..m} together with the set of its bases
(r-subsets).  Basis exchange is validated on construction, for at most
MAX_VALIDATED_BASES bases.  Loops (elements in no basis) are
representable; minors relabel the surviving elements to 1..m-1
preserving order; contracting a loop or deleting a coloop raises rather
than silently adjusting rank.

Also provides isomorphism testing (lexicographically least permutation),
an isomorphism lookup table (`IsoTable`) that buckets matroids on a cheap
invariant (`Matroid.canonical_key`) and confirms each match with
`is_isomorphic`, the basis-generating polynomial, the labeling search that
matches a matroid against a target Rayleigh difference, and a structured
text (JSON) file format.
"""

from __future__ import annotations

import json
from itertools import combinations
from math import comb
from typing import Any, Iterable, Iterator, Sequence

from hppcheck.polynomial import Polynomial, mask_key
from hppcheck.rayleigh import rayleigh_diff_multiaffine

# basis exchange is checked in time quadratic in the bases (about 1 s at
# this many); every catalog matroid has at most 126
MAX_VALIDATED_BASES = 1000


class BasisExchangeError(ValueError):
    """Raised when a claimed basis family violates basis exchange."""

    def __init__(self, message: str, witness: tuple | None = None):
        super().__init__(message)
        self.witness = witness


class DegenerateMinorError(ValueError):
    """Raised when contracting a loop or deleting a coloop."""


class MatroidParseError(ValueError):
    """Raised when matroid file text is malformed."""


def _subset_to_mask(subset: Iterable[int], m: int) -> int:
    mask = 0
    for e in subset:
        e = int(e)
        if not 1 <= e <= m:
            raise ValueError(f"element {e} outside ground set 1..{m}")
        bit = 1 << (e - 1)
        if mask & bit:
            raise ValueError(f"repeated element {e} in subset")
        mask |= bit
    return mask


def _check_validated_size(count: int) -> None:
    if count > MAX_VALIDATED_BASES:
        raise ValueError(f"{count} bases is more than the {MAX_VALIDATED_BASES} "
                         "that basis exchange is checked for")


def _mask_to_subset(mask: int) -> tuple[int, ...]:
    out = []
    e = 1
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return tuple(out)


def _map_bits(masks: Iterable[int], image: Sequence[int]) -> list[int]:
    """Each mask with its bit i replaced by the bits of image[i]; only the
    set bits are walked, as in `Matroid._fill_degree_tables`."""
    out = []
    for mask in masks:
        new = 0
        while mask:
            low = mask & -mask
            new |= image[low.bit_length() - 1]
            mask ^= low
        out.append(new)
    return out


class Matroid:
    """Immutable matroid on ground set {1..m} with explicit bases."""

    __slots__ = ("name", "m", "rank", "_masks", "_mask_set", "_degrees",
                 "_pair_degrees", "_canonical")

    def __init__(self, m: int, rank: int, bases: Iterable[Iterable[int]],
                 name: str | None = None, validate: bool = True):
        if m < 1:
            raise ValueError("ground set must be nonempty")
        masks = {_subset_to_mask(b, m) for b in bases}
        if not masks:
            raise BasisExchangeError("empty basis family")
        if validate:
            _check_validated_size(len(masks))
        self._set_masks(m, rank, masks, name)
        if validate:
            self._validate_exchange()

    @classmethod
    def _trusted(cls, m: int, rank: int, masks: Iterable[int],
                 name: str | None = None) -> Matroid:
        """Wrap distinct, nonempty basis masks over elements 1..m without
        validating basis exchange or the ground set; each mask's rank is
        still checked.  Only the minor, dual and relabeling operations call
        this; input from outside goes through __init__."""
        M = object.__new__(cls)
        M._set_masks(m, rank, masks, name)
        return M

    def _set_masks(self, m: int, rank: int, masks: Iterable[int],
                   name: str | None) -> None:
        masks = sorted(masks)
        for mask in masks:
            if mask.bit_count() != rank:
                raise ValueError(
                    f"basis {_mask_to_subset(mask)} does not have rank {rank}")
        self.name = name
        self.m = m
        self.rank = rank
        self._masks = tuple(masks)
        self._mask_set = frozenset(masks)
        self._degrees: tuple[int, ...] | None = None
        self._pair_degrees: dict[tuple[int, int], int] | None = None
        self._canonical = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_nonbases(cls, m: int, rank: int, nonbases: Iterable[Iterable[int]],
                      name: str | None = None) -> Matroid:
        """All r-subsets of {1..m} except the listed ones."""
        non = {_subset_to_mask(b, m) for b in nonbases}
        for mask in non:
            if mask.bit_count() != rank:
                raise ValueError(
                    f"nonbasis {_mask_to_subset(mask)} does not have rank {rank}")
        if 0 <= rank <= m:
            # before the r-subsets are listed, which alone can take hours
            _check_validated_size(comb(m, rank) - len(non))
        bases = [c for c in combinations(range(1, m + 1), rank)
                 if _subset_to_mask(c, m) not in non]
        return cls(m, rank, bases, name=name)

    def _validate_exchange(self) -> None:
        masks = self._masks
        in_family = self._mask_set
        for b1 in masks:
            for b2 in masks:
                only1 = b1 & ~b2
                if not only1:
                    continue
                only2 = b2 & ~b1
                x_bits = only1
                while x_bits:
                    x = x_bits & -x_bits
                    x_bits ^= x
                    removed = b1 ^ x
                    y_bits = only2
                    ok = False
                    while y_bits:
                        y = y_bits & -y_bits
                        y_bits ^= y
                        if (removed | y) in in_family:
                            ok = True
                            break
                    if not ok:
                        w = (_mask_to_subset(b1), _mask_to_subset(b2),
                             _mask_to_subset(x)[0])
                        raise BasisExchangeError(
                            f"basis exchange fails for B1={w[0]}, B2={w[1]}, "
                            f"x={w[2]}: no y in B2\\B1 with B1-x+y a basis",
                            witness=w)

    # -- basic accessors ----------------------------------------------------

    def bases(self) -> tuple[tuple[int, ...], ...]:
        """Bases as sorted tuples, lexicographically sorted."""
        return tuple(sorted(_mask_to_subset(mask) for mask in self._masks))

    def basis_masks(self) -> tuple[int, ...]:
        return self._masks

    def num_bases(self) -> int:
        return len(self._masks)

    def corank(self) -> int:
        return self.m - self.rank

    def loops(self) -> tuple[int, ...]:
        """Elements contained in no basis."""
        used = 0
        for mask in self._masks:
            used |= mask
        return _mask_to_subset(((1 << self.m) - 1) & ~used)

    def coloops(self) -> tuple[int, ...]:
        """Elements contained in every basis."""
        common = (1 << self.m) - 1
        for mask in self._masks:
            common &= mask
        return _mask_to_subset(common)

    def _fill_degree_tables(self) -> None:
        """Both degree tables in one pass.  Bit i of the bitset S_e is set
        when basis i contains e, so e lies in S_e.bit_count() bases and
        the pair {e, f} in (S_e & S_f).bit_count()."""
        sets = [0] * self.m
        for i, mask in enumerate(self._masks):
            bit = 1 << i
            while mask:
                low = mask & -mask
                sets[low.bit_length() - 1] |= bit
                mask ^= low
        self._degrees = tuple(s.bit_count() for s in sets)
        self._pair_degrees = {(e + 1, f + 1): (sets[e] & sets[f]).bit_count()
                              for e, f in combinations(range(self.m), 2)}

    def element_degree(self, e: int) -> int:
        """Number of bases containing e."""
        if self._degrees is None:
            self._fill_degree_tables()
        return self._degrees[e - 1]

    def _pair_degree(self, e: int, f: int) -> int:
        if self._pair_degrees is None:
            self._fill_degree_tables()
        key = (e, f) if e < f else (f, e)
        return self._pair_degrees[key]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matroid):
            return NotImplemented
        return (self.m, self.rank, self._masks) == (other.m, other.rank, other._masks)

    def __hash__(self) -> int:
        return hash((self.m, self.rank, self._masks))

    def __repr__(self) -> str:
        label = self.name or "Matroid"
        return f"<{label}: m={self.m} rank={self.rank} bases={len(self._masks)}>"

    # -- minors, dual, relabeling -------------------------------------------

    def delete(self, e: int) -> Matroid:
        """Delete a non-coloop element; survivors are relabeled to 1..m-1."""
        self._check_element(e)
        if e in self.coloops():
            raise DegenerateMinorError(
                f"deleting coloop {e} would drop the rank; not supported")
        bit = 1 << (e - 1)
        kept = [mask for mask in self._masks if not mask & bit]
        low = bit - 1
        return Matroid._trusted(
            self.m - 1, self.rank,
            [(mask & low) | ((mask >> 1) & ~low) for mask in kept])

    def contract(self, e: int) -> Matroid:
        """Contract a non-loop element; survivors are relabeled to 1..m-1."""
        self._check_element(e)
        if e in self.loops():
            raise DegenerateMinorError(
                f"contracting loop {e} is undefined; not supported")
        bit = 1 << (e - 1)
        kept = [mask ^ bit for mask in self._masks if mask & bit]
        low = bit - 1
        return Matroid._trusted(
            self.m - 1, self.rank - 1,
            [(mask & low) | ((mask >> 1) & ~low) for mask in kept])

    def dual(self) -> Matroid:
        full = (1 << self.m) - 1
        return Matroid._trusted(self.m, self.m - self.rank,
                                [full ^ mask for mask in self._masks])

    def relabeled(self, perm: Sequence[int]) -> Matroid:
        """Apply a ground-set permutation: element i maps to perm[i-1]."""
        if sorted(perm) != list(range(1, self.m + 1)):
            raise ValueError("perm is not a permutation of the ground set")
        return Matroid._trusted(self.m, self.rank, _map_bits(
            self._masks, [1 << (p - 1) for p in perm]))

    def remove_as_loop(self, e: int) -> Matroid:
        """Drop every basis containing e, keeping the labeling (e becomes a loop)."""
        self._check_element(e)
        bit = 1 << (e - 1)
        kept = [mask for mask in self._masks if not mask & bit]
        if not kept:
            raise DegenerateMinorError(f"element {e} is a coloop; nothing remains")
        return Matroid._trusted(self.m, self.rank, kept)

    def strip_absent(self) -> tuple[Matroid, dict[int, int]]:
        """Remove loops, compressing labels order-preservingly.

        Returns the loop-free matroid and the old->new label map for the
        surviving elements.
        """
        loops = set(self.loops())
        if not loops:
            return self, {e: e for e in range(1, self.m + 1)}
        survivors = [e for e in range(1, self.m + 1) if e not in loops]
        mapping = {old: new for new, old in enumerate(survivors, start=1)}
        image = [1 << (mapping[e] - 1) if e in mapping else 0
                 for e in range(1, self.m + 1)]
        return Matroid._trusted(len(survivors), self.rank,
                                _map_bits(self._masks, image),
                                name=self.name), mapping

    def _check_element(self, e: int) -> None:
        if not 1 <= e <= self.m:
            raise ValueError(f"element {e} outside ground set 1..{self.m}")

    # -- basis-generating polynomial -----------------------------------------

    def basis_polynomial(self) -> Polynomial:
        # distinct masks give distinct keys, each coefficient 1
        return Polynomial._trusted(
            self.m, dict.fromkeys(map(mask_key, self._masks), 1), 1)

    # -- isomorphism -----------------------------------------------------------

    def canonical_key(self) -> tuple:
        """Isomorphism invariant used as a bucket key.

        The key is (m, rank, number of bases, sorted element degrees,
        sorted pair degrees), where a degree counts the bases containing an
        element or a pair, as popcounts of per-element bitsets over the
        bases (`_fill_degree_tables`).  Isomorphic matroids share it, but it
        is an invariant, not a complete key: matroids that are not
        isomorphic can share it too, so every match on it has to be
        confirmed with `is_isomorphic`.
        """
        if self._canonical is None:
            if self._pair_degrees is None:
                self._fill_degree_tables()
            self._canonical = (self.m, self.rank, len(self._masks),
                               tuple(sorted(self._degrees)),
                               tuple(sorted(self._pair_degrees.values())))
        return self._canonical

    def is_isomorphic(self, other: Matroid) -> tuple[int, ...] | None:
        """Lexicographically least permutation mapping self onto other, or None.

        The returned perm maps element i of self to perm[i-1] of other and
        sends bases onto bases exactly.
        """
        if self.canonical_key() != other.canonical_key():
            return None
        m = self.m
        assignment = [0] * m        # assignment[i] = image of element i+1
        used = [False] * (m + 1)

        def compatible(i: int, b: int) -> bool:
            if self.element_degree(i + 1) != other.element_degree(b):
                return False
            for j in range(i):
                if self._pair_degree(i + 1, j + 1) != \
                        other._pair_degree(b, assignment[j]):
                    return False
            return True

        def backtrack(i: int) -> bool:
            if i == m:
                image = [1 << (b - 1) for b in assignment]
                return set(_map_bits(self._masks, image)) == other._mask_set
            for b in range(1, m + 1):
                if used[b] or not compatible(i, b):
                    continue
                assignment[i] = b
                used[b] = True
                if backtrack(i + 1):
                    return True
                used[b] = False
            return False

        if backtrack(0):
            return tuple(assignment)
        return None


class IsoTable:
    """Values stored under matroids and looked up by isomorphism class.

    Entries are bucketed on `Matroid.canonical_key`, in insertion order;
    `lookup` confirms each entry of a bucket with `is_isomorphic`.
    """

    def __init__(self):
        self._buckets: dict[tuple, list[tuple[Matroid, Any]]] = {}

    def add(self, M: Matroid, value: Any) -> None:
        self._buckets.setdefault(M.canonical_key(), []).append((M, value))

    def lookup(self, M: Matroid) -> Iterator[tuple[Any, tuple[int, ...]]]:
        """(value, perm) of each entry isomorphic to M, in insertion order;
        perm is the least permutation mapping M onto the entry's matroid."""
        for N, value in self._buckets.get(M.canonical_key(), ()):
            perm = M.is_isomorphic(N)
            if perm is not None:
                yield value, perm


# -- labeling search -------------------------------------------------------

def _variable_signature(p: Polynomial, v: int) -> tuple:
    """Relabeling-invariant signature of variable v inside p."""
    entries = []
    i = v - 1
    for exps, coeff in p.terms.items():
        if exps[i]:
            entries.append((exps[i], coeff, sum(exps), tuple(sorted(exps))))
    return tuple(sorted(entries))


def find_labeling(M: Matroid, pair: tuple[int, int],
                  target_delta: Polynomial) -> tuple[int, ...] | None:
    """Search for a relabeling of M whose Rayleigh difference at `pair`
    equals target_delta exactly.

    Returns a ground-set permutation (element i of M maps to perm[i-1]) or
    None.  The search tries unordered element pairs of M as preimages of
    `pair`, prunes with relabeling-invariant statistics, then matches the
    remaining variables by signature classes; every candidate is verified
    by exact polynomial comparison before being returned.
    """
    e0, f0 = pair
    if e0 == f0:
        raise ValueError("pair must consist of two distinct indices")
    if target_delta.m != M.m:
        return None
    Z = M.basis_polynomial()
    m = M.m
    tgt_nterms = target_delta.num_terms()
    tgt_deg = target_delta.total_degree()
    tgt_coeffs = sorted(target_delta.terms.values())
    tgt_eval = target_delta.eval_rational([1] * m)
    others_t = [v for v in range(1, m + 1) if v not in (e0, f0)]
    sig_t = {v: _variable_signature(target_delta, v) for v in others_t}

    candidates: list[tuple[int, ...]] = []
    for a, b in combinations(range(1, m + 1), 2):
        delta = rayleigh_diff_multiaffine(Z, a, b)
        if delta.num_terms() != tgt_nterms or delta.total_degree() != tgt_deg:
            continue
        if sorted(delta.terms.values()) != tgt_coeffs:
            continue
        if delta.eval_rational([1] * m) != tgt_eval:
            continue
        others_s = [v for v in range(1, m + 1) if v not in (a, b)]
        sig_s = {v: _variable_signature(delta, v) for v in others_s}
        # group target slots by signature
        slots: dict[tuple, list[int]] = {}
        for v in others_t:
            slots.setdefault(sig_t[v], []).append(v)
        pools = {sig: sorted(vs) for sig, vs in slots.items()}
        ok_shape = True
        from collections import Counter
        if Counter(sig_s.values()) != Counter(sig_t.values()):
            ok_shape = False
        if not ok_shape:
            continue

        source = sorted(others_s)

        def assign(idx: int, mapping: dict[int, int], used: set[int]) -> None:
            if idx == len(source):
                for pa, pb in ((e0, f0), (f0, e0)):
                    perm = [0] * m
                    perm[a - 1] = pa
                    perm[b - 1] = pb
                    for src, dst in mapping.items():
                        perm[src - 1] = dst
                    if delta.permuted(perm) == target_delta:
                        candidates.append(tuple(perm))
                return
            v = source[idx]
            for w in pools[sig_s[v]]:
                if w in used:
                    continue
                mapping[v] = w
                used.add(w)
                assign(idx + 1, mapping, used)
                used.discard(w)
                del mapping[v]

        assign(0, {}, set())

    if not candidates:
        return None
    best = min(candidates)
    # independent re-verification on the matroid side
    relabeled = M.relabeled(best)
    check = rayleigh_diff_multiaffine(relabeled.basis_polynomial(), e0, f0)
    if check != target_delta:
        raise RuntimeError("internal error: labeling candidate failed re-verification")
    return best


# -- file format -------------------------------------------------------------

def matroid_to_text(M: Matroid) -> str:
    """Canonical JSON serialization.

    Uses whichever of bases/nonbases is shorter (ties go to bases); subsets
    are sorted lexicographically.
    """
    bases = [list(b) for b in M.bases()]
    all_count = comb(M.m, M.rank)
    payload: dict = {}
    if M.name is not None:
        payload["name"] = M.name
    payload.update({"m": M.m, "rank": M.rank})
    if all_count - len(bases) < len(bases):
        basis_set = {tuple(b) for b in bases}
        nonbases = [list(c) for c in combinations(range(1, M.m + 1), M.rank)
                    if c not in basis_set]
        payload["nonbases"] = sorted(nonbases)
    else:
        payload["bases"] = sorted(bases)
    return json.dumps(payload, indent=2) + "\n"


def matroid_from_text(text: str) -> Matroid:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatroidParseError(f"invalid matroid file: {exc}") from exc
    if not isinstance(payload, dict):
        raise MatroidParseError("matroid file must contain a JSON object")
    m, rank, name = payload.get("m"), payload.get("rank"), payload.get("name")
    # JSON true and 2.0 are not integers here (bool is a subclass of int)
    if type(m) is not int or type(rank) is not int:
        raise MatroidParseError("invalid matroid file: 'm' and 'rank' must "
                                "be integers")
    if name is not None and not isinstance(name, str):
        raise MatroidParseError("invalid matroid file: 'name' must be a string")
    key = next((k for k in ("bases", "nonbases") if k in payload), None)
    if key is None:
        raise MatroidParseError("matroid file needs either 'bases' or 'nonbases'")
    subsets = payload[key]
    if not (isinstance(subsets, list)
            and all(isinstance(s, list) and all(type(e) is int for e in s)
                    for s in subsets)):
        raise MatroidParseError(f"invalid matroid file: '{key}' must be a "
                                "list of lists of integers")
    build = Matroid if key == "bases" else Matroid.from_nonbases
    try:
        return build(m, rank, subsets, name=name)
    except ValueError as exc:
        raise MatroidParseError(f"invalid matroid file: {exc}") from exc
