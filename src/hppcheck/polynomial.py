"""Exact sparse multivariate polynomials over the rationals.

Variables are y1..ym over a fixed ground set {1, ..., m}.  A polynomial is
a map from monomials to nonzero rational coefficients, stored as int when
integral and as Fraction otherwise.  All arithmetic is exact; equality is
exact term-wise equality (an int equals, and hashes like, the integral
Fraction of the same value).  Values are immutable after construction and
safe to share across threads.

Inside a polynomial a monomial is a packed int key with one byte per
variable, little-endian: y_i's exponent is byte i - 1, so the key of
y1^a1 * ... * ym^am is int.from_bytes(bytes((a1, ..., am)), "little").
A product's key is the sum of its factors' keys, contraction by y_e
subtracts 1 << 8(e - 1), and deletion keeps the keys whose byte e - 1 is
zero.  No exponent may exceed MAX_EXPONENT (255), so one byte never
carries into the next: input with a larger exponent is rejected, and a
product that could pass the cap raises ValueError before it is formed.
Each polynomial carries a bound on its largest exponent for that check.

Outside the class a monomial is an exponent tuple (a1, ..., am): the
constructor takes a map from tuples to coefficients, and `terms` is the
same kind of map, built from the keys on first read and cached.
`coefficient`, `sorted_terms` and the text format read that view; the
ring operations, minors, shape predicates, `eval_rational` and
`weighted_square_sum` read only the keys.

Every product of two polynomials is formed by one kernel,
`sum_of_products(m, terms)`: it sums c_i * p_i * q_i over packed keys into
one dict and cleans that dict once.  `__mul__`, `square`,
`weighted_square_sum` and each Rayleigh difference and discriminant of
`hppcheck.rayleigh` are single calls of it.

Results that are clean by construction skip the constructor's checks
through `Polynomial._trusted`: those of `sum_of_products`, `__add__`,
`__sub__`, `__neg__`, `scalar_mul`, `contract`, `delete` and `padded` here,
and `Matroid.basis_polynomial`.  Input from outside goes through the
constructor.

Canonical term order is graded lexicographic: higher total degree first,
ties broken by the exponent tuple in descending lexicographic order (y1
weighs heaviest).  This fixes the text serialization.

Text grammar (whitespace insignificant):

    poly  := ['+'|'-'] term (('+'|'-') term)*
    term  := coeff ('*' var)* | var ('*' var)*
    coeff := integer | integer '/' positive-integer
    var   := 'y' index          # 1-based variable index

Powers are written as repeated factors (y3*y3, never y3^2), e.g.

    1/2*y3*y7 + y4*y6 - y5*y7

A variable may repeat at most MAX_EXPONENT times in one term.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import getitem
from typing import Iterable, Iterator, Mapping, Sequence

Exponents = tuple[int, ...]
Coefficient = int | Fraction

MAX_EXPONENT = 255

# "0"/"1" digits of a binary numeral to the bytes 0/1
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


class GroundSetMismatchError(ValueError):
    """Raised when combining polynomials over different ground sets."""


class PolynomialParseError(ValueError):
    """Raised when polynomial text does not match the grammar."""


def mask_key(mask: int) -> int:
    """Packed key of the multiaffine monomial whose variables are the set
    bits of mask: bit i becomes byte i, that is y_{i+1}."""
    # the binary numeral lists bit m-1 first, so read its bytes big-endian
    return int.from_bytes(f"{mask:b}".encode().translate(_BIT_BYTES), "big")


def _graded_lex_key(exps: Exponents) -> tuple:
    return (-sum(exps), tuple(-e for e in exps))


def _clean(terms: dict[int, Coefficient]) -> dict[int, Coefficient]:
    """Drop zero coefficients and store integral ones as int.  A dict of
    ints alone is returned as it is when it holds no zero."""
    vals = terms.values()
    if Fraction not in set(map(type, vals)):
        return terms if 0 not in vals else {k: c for k, c in terms.items() if c}
    return {k: c if type(c) is int else int(c.numerator) if c.denominator == 1 else c
            for k, c in terms.items() if c}


class Polynomial:
    """Immutable sparse polynomial over rational (int or Fraction) coefficients."""

    __slots__ = ("m", "_keys", "_top", "_view", "_hash")

    def __init__(self, m: int, terms: Mapping[Exponents, Coefficient] | None = None):
        if m < 0:
            raise ValueError("ground set size must be nonnegative")
        acc: dict[int, Coefficient] = {}
        top = 0
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != m:
                    raise GroundSetMismatchError(
                        f"exponent tuple {exps} does not match ground set size {m}")
                if min(exps, default=0) < 0:
                    raise ValueError(f"negative exponent in {exps}")
                high = max(exps, default=0)
                if high > MAX_EXPONENT:
                    raise ValueError(f"exponent above {MAX_EXPONENT} in {exps}")
                key = int.from_bytes(bytes(exps), "little")
                c = coeff if type(coeff) is int else Fraction(coeff)
                prev = acc.get(key)
                acc[key] = c if prev is None else prev + c
                if c and high > top:
                    top = high
        self.m = m
        self._keys = _clean(acc)
        self._top = top
        self._view: dict[Exponents, Coefficient] | None = None
        self._hash: int | None = None

    @classmethod
    def _trusted(cls, m: int, keys: dict[int, Coefficient], top: int) -> Polynomial:
        """Wrap packed keys that are already clean, without checking them:
        every key packs m exponents, no coefficient is zero, integral ones
        are int, and no exponent exceeds top <= MAX_EXPONENT.  The dict is
        taken over, not copied, and never changed afterwards.  Only the
        callers that the module docstring lists use this; input from
        outside goes through __init__."""
        p = object.__new__(cls)
        p.m = m
        p._keys = keys
        p._top = top
        p._view = None
        p._hash = None
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, m: int) -> Polynomial:
        return cls(m)

    @classmethod
    def constant(cls, m: int, value: Coefficient) -> Polynomial:
        return cls(m, {(0,) * m: value})

    @classmethod
    def one(cls, m: int) -> Polynomial:
        return cls.constant(m, 1)

    @classmethod
    def variable(cls, m: int, v: int) -> Polynomial:
        if not 1 <= v <= m:
            raise ValueError(f"variable index {v} outside ground set 1..{m}")
        exps = [0] * m
        exps[v - 1] = 1
        return cls(m, {tuple(exps): 1})

    # -- mapping-like access -------------------------------------------

    @property
    def terms(self) -> Mapping[Exponents, Coefficient]:
        """Exponent tuple -> coefficient, in the order of the keys."""
        view = self._view
        if view is None:
            m = self.m
            view = self._view = {tuple(k.to_bytes(m, "little")): c
                                 for k, c in self._keys.items()}
        return view

    def coefficient(self, exps: Iterable[int]) -> Coefficient:
        return self.terms.get(tuple(exps), 0)

    def num_terms(self) -> int:
        return len(self._keys)

    def is_zero(self) -> bool:
        return not self._keys

    def sorted_terms(self) -> list[tuple[Exponents, Coefficient]]:
        """Terms in canonical graded-lex order."""
        return sorted(self.terms.items(), key=lambda kv: _graded_lex_key(kv[0]))

    def __iter__(self) -> Iterator[tuple[Exponents, Coefficient]]:
        return iter(self.sorted_terms())

    # -- ring operations ----------------------------------------------

    def _check_m(self, other: Polynomial) -> None:
        if self.m != other.m:
            raise GroundSetMismatchError(
                f"ground set sizes differ: {self.m} vs {other.m}")

    def __add__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_m(other)
        out = dict(self._keys)
        get = out.get
        for k, c in other._keys.items():
            prev = get(k)
            out[k] = c if prev is None else prev + c
        return Polynomial._trusted(self.m, _clean(out), max(self._top, other._top))

    def __sub__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_m(other)
        out = dict(self._keys)
        get = out.get
        for k, c in other._keys.items():
            prev = get(k)
            out[k] = -c if prev is None else prev - c
        return Polynomial._trusted(self.m, _clean(out), max(self._top, other._top))

    def __neg__(self) -> Polynomial:
        return Polynomial._trusted(self.m, {k: -c for k, c in self._keys.items()},
                                   self._top)

    def scalar_mul(self, value: Coefficient) -> Polynomial:
        v = value if type(value) is int else Fraction(value)
        return Polynomial._trusted(
            self.m, _clean({k: c * v for k, c in self._keys.items()}), self._top)

    def __mul__(self, other: Polynomial | Coefficient) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            return self.scalar_mul(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return sum_of_products(self.m, ((1, self, other),))

    def __rmul__(self, other: Coefficient) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            return self.scalar_mul(other)
        return NotImplemented

    def square(self) -> Polynomial:
        return sum_of_products(self.m, ((1, self, self),))

    def __pow__(self, n: int) -> Polynomial:
        if n < 0:
            raise ValueError("negative power")
        out = Polynomial.one(self.m)
        for _ in range(n):
            out = out * self
        return out

    # -- contraction / deletion ----------------------------------------

    def contract(self, e: int) -> Polynomial:
        """Partial derivative with respect to y_e."""
        if not 1 <= e <= self.m:
            raise ValueError(f"variable index {e} outside ground set 1..{self.m}")
        shift = 8 * (e - 1)
        unit = 1 << shift
        # k -> k - unit is one-to-one on the terms that hold y_e, so nothing
        # accumulates, and an int times a positive exponent is a nonzero
        # int; _clean only turns integral Fractions into int
        keys = self._keys
        out: dict[int, Coefficient] = {}
        for k, c in keys.items():
            a = k >> shift & 0xFF
            if a:
                out[k - unit] = c * a
        if Fraction in set(map(type, keys.values())):
            out = _clean(out)
        return Polynomial._trusted(self.m, out, self._top)

    def delete(self, e: int) -> Polynomial:
        """Substitution y_e := 0."""
        if not 1 <= e <= self.m:
            raise ValueError(f"variable index {e} outside ground set 1..{self.m}")
        byte = 0xFF << 8 * (e - 1)
        return Polynomial._trusted(
            self.m, {k: c for k, c in self._keys.items() if not k & byte}, self._top)

    # -- evaluation -----------------------------------------------------

    def eval_rational(self, point: Sequence[Coefficient]) -> Fraction:
        """Exact value at point, always a Fraction.  With x_i = a_i/b_i and
        E_i the largest exponent of y_i, the sum of L*c * prod(a_i^e_i *
        b_i^(E_i - e_i)) over the terms, where L clears the coefficients'
        denominators, is over the integers; one Fraction divides it by
        L * prod(b_i^E_i)."""
        if len(point) != self.m:
            raise GroundSetMismatchError(
                f"point length {len(point)} does not match ground set size {self.m}")
        vals = [Fraction(x) for x in point]
        keys = self._keys
        m = self.m
        exps = [k.to_bytes(m, "little") for k in keys]
        high = list(map(max, zip(*exps))) if exps else [0] * m
        # powers[i][e] = a_i^e * b_i^(E_i - e) = b_i^E_i * x_i^e
        powers = [[v.numerator ** e * v.denominator ** (top - e)
                   for e in range(top + 1)] for v, top in zip(vals, high)]
        coeffs = keys.values()
        scale = lcm(*(c.denominator for c in coeffs if type(c) is not int))
        if scale > 1:
            coeffs = [c.numerator * (scale // c.denominator) for c in coeffs]
        total = sum(c * prod(map(getitem, powers, ex))
                    for c, ex in zip(coeffs, exps))
        return Fraction(total, scale * prod(v.denominator ** top
                                            for v, top in zip(vals, high)))

    # -- predicates and shape -------------------------------------------

    def is_multiaffine(self) -> bool:
        # a key has an exponent above 1 exactly when it meets some byte's
        # bits 1..7
        high = int.from_bytes(b"\xfe" * self.m, "little")
        return not any(k & high for k in self._keys)

    def total_degree(self) -> int:
        m = self.m
        return max((sum(k.to_bytes(m, "little")) for k in self._keys), default=0)

    def is_homogeneous(self) -> bool:
        m = self.m
        degs = {sum(k.to_bytes(m, "little")) for k in self._keys}
        return len(degs) <= 1

    def support_variables(self) -> set[int]:
        """Indices of variables that actually occur."""
        used = 0
        for k in self._keys:
            used |= k
        return {i + 1 for i, a in enumerate(used.to_bytes(self.m, "little")) if a}

    def padded(self, new_m: int) -> Polynomial:
        """Extend the ground set to new_m >= m; new variables are absent."""
        if new_m < self.m:
            raise GroundSetMismatchError(
                f"cannot shrink ground set from {self.m} to {new_m}")
        if new_m == self.m:
            return self
        # the new bytes are zero, so every key stays as it is
        return Polynomial._trusted(new_m, self._keys, self._top)

    # -- equality and text -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.m == other.m and self._keys == other._keys

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.m, frozenset(self._keys.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._keys)

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.m}, {format_polynomial(self)!r})"


def sum_of_products(m: int, terms: Iterable[tuple[Coefficient, Polynomial, Polynomial]]
                    ) -> Polynomial:
    """sum_i c_i * p_i * q_i on the ground set of size m, for the
    (c_i, p_i, q_i) of terms, summed over packed keys into one dict that is
    cleaned once.  Every p_i and q_i must have ground set size m, else
    GroundSetMismatchError; every term's exponent cap is checked before any
    product is formed.  A term whose p is q is taken as a square, over the
    pairs j <= l of its terms with the pairs j < l doubled."""
    terms = tuple(terms)
    top = 0
    for _, p, q in terms:
        if p.m != m or q.m != m:
            raise GroundSetMismatchError(
                f"ground set sizes differ: {p.m}, {q.m} vs {m}")
        top = max(top, p._top + q._top)
    if top > MAX_EXPONENT:
        raise ValueError(f"product could have an exponent above {MAX_EXPONENT}")
    # with every byte sum at most 255, adding keys adds exponent tuples
    out: dict[int, Coefficient] = {}
    get = out.get
    for c, p, q in terms:
        right = list(q._keys.items())
        square = p is q
        for j, (k1, c1) in enumerate(right if square else p._keys.items()):
            cc = c1 if c == 1 else c * c1
            if type(cc) is not int and cc.denominator == 1:
                cc = cc.numerator
            if square:
                # (sum_j u_j)^2 = sum_j u_j^2 + 2 sum_{j<l} u_j u_l
                k = k1 + k1
                prev = get(k)
                out[k] = cc * c1 if prev is None else prev + cc * c1
                cc += cc
                row = right[j + 1:]
            else:
                row = right
            for k2, c2 in row:
                k = k1 + k2
                prev = get(k)
                out[k] = cc * c2 if prev is None else prev + cc * c2
    return Polynomial._trusted(m, _clean(out), top)


def weighted_square_sum(m: int, terms: Iterable[tuple[Coefficient, Polynomial]]
                        ) -> tuple[Polynomial, int]:
    """(N, D) with N == D * sum_i w_i * q_i^2 on the ground set of size m,
    for the (w_i, q_i) of terms: N = sum_i (w_i * D / L_i^2) * (L_i * q_i)^2
    is summed over the integers by `sum_of_products`, where L_i clears
    q_i's denominators and D is the least common denominator of the
    w_i / L_i^2.  Raises as padded and square do."""
    scaled = []
    for w, q in terms:
        if q.m > m:
            raise GroundSetMismatchError(
                f"cannot shrink ground set from {q.m} to {m}")
        coeffs = q._keys
        L = lcm(*(c.denominator for c in coeffs.values() if type(c) is not int))
        if L > 1:
            q = Polynomial._trusted(q.m, {k: c.numerator * (L // c.denominator)
                                          for k, c in coeffs.items()}, q._top)
        a, b = Fraction(w).as_integer_ratio()
        scaled.append((a, b * L * L, q.padded(m)))   # w / L^2 = a / (b L^2)
    D = lcm(*(b // gcd(a, b) for a, b, _ in scaled))
    return sum_of_products(m, [(a * D // b, q, q) for a, b, q in scaled]), D


# -- text format ------------------------------------------------------------

def format_polynomial(p: Polynomial) -> str:
    """Canonical text form (graded-lex term order, repeated-factor powers)."""
    if p.is_zero():
        return "0"
    pieces: list[str] = []
    for idx, (exps, coeff) in enumerate(p.sorted_terms()):
        neg = coeff < 0
        mag = -coeff if neg else coeff
        factors: list[str] = []
        if mag != 1 or not any(exps):
            factors.append(str(mag))
        for i, e in enumerate(exps):
            factors.extend([f"y{i + 1}"] * e)
        body = "*".join(factors)
        if idx == 0:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append(("- " if neg else "+ ") + body)
    return " ".join(pieces)


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/":
            tokens.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(text[i:j])
            i = j
        elif ch == "y":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise PolynomialParseError(f"bare 'y' without index at position {i}")
            tokens.append(text[i:j])
            i = j
        else:
            raise PolynomialParseError(f"unexpected character {ch!r} at position {i}")
    return tokens


def parse_polynomial(text: str, m: int | None = None) -> Polynomial:
    """Parse the polynomial grammar.  If m is None it is inferred as the
    largest variable index present (0 for constant polynomials)."""
    tokens = _tokenize(text)
    if not tokens:
        raise PolynomialParseError("empty polynomial text")

    terms: list[tuple[Fraction, dict[int, int]]] = []
    pos = 0

    def parse_factor() -> tuple[Fraction | None, int | None]:
        nonlocal pos
        tok = tokens[pos]
        if tok.isdigit():
            pos += 1
            num = int(tok)
            if pos < len(tokens) and tokens[pos] == "/":
                pos += 1
                if pos >= len(tokens) or not tokens[pos].isdigit():
                    raise PolynomialParseError("expected denominator after '/'")
                den = int(tokens[pos])
                pos += 1
                if den == 0:
                    raise PolynomialParseError("zero denominator")
                return Fraction(num, den), None
            return Fraction(num), None
        if tok.startswith("y"):
            pos += 1
            idx = int(tok[1:])
            if idx < 1:
                raise PolynomialParseError(f"variable index must be >= 1, got y{idx}")
            return None, idx
        raise PolynomialParseError(f"unexpected token {tok!r}")

    sign = 1
    if tokens[pos] in "+-":
        sign = -1 if tokens[pos] == "-" else 1
        pos += 1
    while True:
        coeff = Fraction(sign)
        exps: dict[int, int] = {}
        while True:
            c, v = parse_factor()
            if c is not None:
                coeff *= c
            else:
                assert v is not None
                exps[v] = exps.get(v, 0) + 1
                if exps[v] > MAX_EXPONENT:
                    raise PolynomialParseError(
                        f"y{v} repeats more than {MAX_EXPONENT} times in one term")
            if pos < len(tokens) and tokens[pos] == "*":
                pos += 1
                if pos >= len(tokens):
                    raise PolynomialParseError("dangling '*'")
                continue
            break
        terms.append((coeff, exps))
        if pos >= len(tokens):
            break
        tok = tokens[pos]
        if tok not in "+-":
            raise PolynomialParseError(f"expected '+' or '-', got {tok!r}")
        sign = -1 if tok == "-" else 1
        pos += 1
        if pos >= len(tokens):
            raise PolynomialParseError(f"dangling {tok!r}")

    max_idx = max((v for _, exps in terms for v in exps), default=0)
    if m is None:
        m = max_idx
    elif max_idx > m:
        raise PolynomialParseError(
            f"variable y{max_idx} outside declared ground set 1..{m}")
    acc: dict[Exponents, Fraction] = {}
    for coeff, exps in terms:
        key = tuple(exps.get(v, 0) for v in range(1, m + 1))
        acc[key] = acc.get(key, Fraction(0)) + coeff
    return Polynomial(m, acc)
