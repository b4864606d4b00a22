"""Exact arithmetic in the character ring fragment Z[e^{-lambda}].

A Laurent polynomial here is a finite integer combination of characters
e^{lambda} whose exponents lambda are root-lattice vectors; multiplication is
e^{lambda} e^{mu} = e^{lambda + mu}.  Coefficients are Python ints, so there
is no overflow.

Quotients by products prod (1 - e^{-beta}) with beta of positive height are
handled through height-truncated series: grading exponents -mu by the height
of mu makes every denominator factor shift the grade by at least one, so all
coefficients up to the truncation bound are exact.

Inside the expansion (and inside the signed pass of ``kltangent.tangent``) an
exponent -nu with nu >= 0 is one packed int, the digits nu_k of a fixed width
topped by height(nu) (:class:`_Packing`): multiplying by e^{-beta} is one
integer addition, the height bound is one comparison, and no tuple is built.
A :class:`TruncatedSeries` keeps its terms packed, answers ``coefficient`` by
packing the query, and decodes its terms to exponent tuples only when
``items``, ``==``, ``hash``, ``+`` or ``*`` need them.
"""

from __future__ import annotations

import struct
from operator import neg

from .errors import BeyondTruncation, ExponentOutsideCone
from .rootsys import Root, height

WeightVector = tuple[int, ...]

_DIGIT_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}  # struct codes, standard sizes


def _vadd(a: WeightVector, b: WeightVector) -> WeightVector:
    return tuple(x + y for x, y in zip(a, b))


def _vneg(a: WeightVector) -> WeightVector:
    return tuple(-x for x in a)


class LaurentPoly:
    """Immutable sparse Laurent polynomial with root-lattice exponents."""

    __slots__ = ("_terms",)

    def __init__(self, terms=()) -> None:
        data: dict[WeightVector, int] = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for exponent, coeff in items:
            exponent = tuple(exponent)
            coeff = data.get(exponent, 0) + coeff
            if coeff:
                data[exponent] = coeff
            else:
                data.pop(exponent, None)
        self._terms = data

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls, rank: int) -> "LaurentPoly":
        return cls({(0,) * rank: 1})

    @classmethod
    def monomial(cls, exponent: WeightVector, coeff: int = 1) -> "LaurentPoly":
        return cls({tuple(exponent): coeff})

    def items(self) -> list[tuple[WeightVector, int]]:
        return sorted(self._terms.items())

    def coefficient(self, exponent: WeightVector) -> int:
        return self._terms.get(tuple(exponent), 0)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._terms)
        for e, c in other._terms.items():
            c2 = out.get(e, 0) + c
            if c2:
                out[e] = c2
            else:
                out.pop(e, None)
        poly = LaurentPoly.__new__(LaurentPoly)
        poly._terms = out
        return poly

    def __neg__(self) -> "LaurentPoly":
        poly = LaurentPoly.__new__(LaurentPoly)
        poly._terms = {e: -c for e, c in self._terms.items()}
        return poly

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[WeightVector, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = _vadd(e1, e2)
                c = out.get(e, 0) + c1 * c2
                if c:
                    out[e] = c
                else:
                    out.pop(e, None)
        poly = LaurentPoly.__new__(LaurentPoly)
        poly._terms = out
        return poly

    def scale(self, c: int) -> "LaurentPoly":
        if c == 0:
            return LaurentPoly.zero()
        poly = LaurentPoly.__new__(LaurentPoly)
        poly._terms = {e: c * v for e, v in self._terms.items()}
        return poly

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"LaurentPoly({self.items()})"


def one_minus_e(alpha: Root) -> LaurentPoly:
    """The factor 1 - e^{-alpha}."""
    return LaurentPoly({(0,) * len(alpha): 1, _vneg(alpha): -1})


def lambda_minus_one(weights) -> LaurentPoly:
    """prod over the weight list of (1 - e^{-alpha}); 1 for the empty list.

    >>> lambda_minus_one([(1, 0), (0, 1)]).items()
    [((-1, -1), 1), ((-1, 0), -1), ((0, -1), -1), ((0, 0), 1)]
    """
    weights = list(weights)
    rank = len(weights[0]) if weights else 0
    out = LaurentPoly.one(rank)
    for alpha in weights:
        out = out * one_minus_e(alpha)
    return out


def _span_search(vectors):
    """A membership test for the nonnegative-integer span of the given vectors.

    All vectors must have nonnegative coordinates and positive height, which
    bounds the search: a vector of height h can be used at most
    height(target) // h times.  One memo serves every target tested with the
    returned function, so a batch of targets shares its partial searches.
    """
    vecs = [tuple(v) for v in vectors]
    if not all(height(v) >= 1 and min(v) >= 0 for v in vecs):
        raise AssertionError("span vectors must be positive")
    memo: dict[tuple[int, WeightVector], bool] = {}

    def rec(idx: int, remaining: WeightVector) -> bool:
        if not any(remaining):
            return True
        if idx == len(vecs):
            return False
        key = (idx, remaining)
        hit = memo.get(key)
        if hit is not None:
            return hit
        v = vecs[idx]
        bound = min(r // c for r, c in zip(remaining, v) if c)
        ok = False
        cur = remaining
        for _ in range(bound + 1):
            if rec(idx + 1, cur):
                ok = True
                break
            cur = tuple(r - c for r, c in zip(cur, v))
            if min(cur) < 0:
                break
        memo[key] = ok
        return ok

    def contains(target: WeightVector) -> bool:
        target = tuple(target)
        return min(target) >= 0 and rec(0, target)

    return contains


def in_nonneg_integer_span(vectors, target: WeightVector) -> bool:
    """Is target a nonnegative-integer combination of the given (positive) vectors?"""
    return _span_search(vectors)(target)


class _Packing:
    """Exponents -nu of one rank, nu >= 0 with every nu_k <= limit, as single ints.

    P(nu) = sum_k nu_k << k*W + height(nu) << r*W, where r is the rank and the
    digit width W is the least of 8, 16, 32, 64, ... bits that holds limit.
    While every component stays <= limit no digit carries, so
    P(nu + beta) = P(nu) + P(beta) and P is injective.  The height is the top
    digit, so height(nu) <= bound iff P(nu) < cap(bound) for such nu.  A sum
    whose components pass the limit may carry, but only upwards: its packed
    value is still at least height << r*W, so a caller that keeps only values
    below cap(bound) with bound <= limit never keeps a carried one.  Widths of
    8 to 64 bits decode through ``struct``, many values per C call.
    """

    __slots__ = ("rank", "width", "top", "_low", "_digits")

    def __init__(self, rank: int, limit: int) -> None:
        width = 8
        while limit >> width:
            width *= 2
        self.rank, self.width, self.top = rank, width, rank * width
        self._low = (1 << self.top) - 1
        code = _DIGIT_CODES.get(width)
        self._digits = struct.Struct(f"<{rank}{code}").iter_unpack if code else None

    def pack(self, nu) -> int:
        """P(nu) for a vector nu >= 0."""
        p = sum(nu) << self.top
        for k, c in enumerate(nu):
            p += c << k * self.width
        return p

    def cap(self, bound: int) -> int:
        """P of the least vector of height bound + 1; packed values below it have height <= bound."""
        return (bound + 1) << self.top

    def exponents(self, packed) -> list[WeightVector]:
        """The exponents -nu of the packed values P(nu), in order."""
        low = self._low
        if self._digits is None:
            mask, shifts = (1 << self.width) - 1, range(0, self.top, self.width)
            return [tuple(-((p & low) >> k & mask) for k in shifts) for p in packed]
        size = self.top // 8
        data = b"".join([(p & low).to_bytes(size, "little") for p in packed])
        return [tuple(map(neg, nu)) for nu in self._digits(data)]


class TruncatedSeries:
    """Exact series coefficients on exponents -mu with height(mu) <= bound.

    The terms are held packed (:class:`_Packing`): ``coefficient`` packs its
    query, and ``items``, ``==``, ``hash``, ``+`` and ``*`` decode the terms
    once, on first use.
    """

    __slots__ = ("bound", "_packing", "_packed", "_decoded")

    def __init__(self, terms, bound: int) -> None:
        data: dict[WeightVector, int] = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for exponent, coeff in items:
            exponent = tuple(exponent)
            mu = _vneg(exponent)
            if min(mu) < 0:
                raise AssertionError(f"series exponent {exponent} outside -cone")
            if height(mu) > bound or coeff == 0:
                continue
            data[exponent] = data.get(exponent, 0) + coeff
        data = {e: c for e, c in data.items() if c}
        packing = _Packing(len(next(iter(data), ())), max((-min(e) for e in data), default=0))
        self.bound = bound
        self._packing = packing
        self._packed = {packing.pack(_vneg(e)): c for e, c in data.items()}
        self._decoded = data

    @classmethod
    def _from_packed(cls, packing: _Packing, packed: dict[int, int], bound: int) -> "TruncatedSeries":
        """The series of packed terms, all of height <= bound and nonzero."""
        series = cls.__new__(cls)
        series.bound, series._packing, series._packed, series._decoded = bound, packing, packed, None
        return series

    @property
    def _terms(self) -> dict[WeightVector, int]:
        if self._decoded is None:
            packed = self._packed
            self._decoded = dict(zip(self._packing.exponents(packed), packed.values()))
        return self._decoded

    def items(self) -> list[tuple[WeightVector, int]]:
        return sorted(self._terms.items())

    def coefficient(self, exponent: WeightVector) -> int:
        """Exact coefficient of e^{exponent}; BeyondTruncation past the bound."""
        exponent = tuple(exponent)
        mu = _vneg(exponent)
        if min(mu) < 0:
            return 0  # support lies in the negative cone, exactly zero
        if height(mu) > self.bound:
            raise BeyondTruncation(f"height {height(mu)} exceeds the bound {self.bound}")
        packing = self._packing
        if len(mu) != packing.rank:
            return 0
        # Every term's digits fit the width.  A query digit that does not
        # carries, which takes 2^W - 1 off the digit sum per carry while the
        # top digit keeps the full height, so the query matches no term.
        return self._packed.get(packing.pack(mu), 0)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        bound = min(self.bound, other.bound)
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) + c
        return TruncatedSeries(out, bound)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        bound = min(self.bound, other.bound)
        out: dict[WeightVector, int] = {}
        for e1, c1 in self._terms.items():
            h1 = height(_vneg(e1))
            if h1 > bound:
                continue
            for e2, c2 in other._terms.items():
                e = _vadd(e1, e2)
                if h1 + height(_vneg(e2)) > bound:
                    continue
                out[e] = out.get(e, 0) + c1 * c2
        return TruncatedSeries(out, bound)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.bound == other.bound
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.bound, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        return f"TruncatedSeries(bound={self.bound}, terms={self.items()})"


def char_series(numerator: LaurentPoly, denominator_weights, bound: int) -> TruncatedSeries:
    """Expand numerator / prod (1 - e^{-beta}) as a height-truncated series.

    Every denominator weight must have positive height, and every exponent of
    the numerator must lie in the negative of the integer cone spanned by the
    denominator weights (ExponentOutsideCone otherwise); under these
    hypotheses the expansion prod (1 + e^{-beta} + e^{-2 beta} + ...) has
    exact coefficients up to the height bound.
    """
    weights = [tuple(b) for b in denominator_weights]
    if not weights:
        raise ValueError("denominator weight list must be nonempty")
    if any(min(b) < 0 or height(b) < 1 for b in weights):
        raise ValueError("denominator weights must be positive roots")
    in_cone = _span_search(weights)
    for exponent, _ in numerator.items():
        if not in_cone(_vneg(exponent)):
            raise ExponentOutsideCone(f"numerator exponent {exponent} outside the span")
    packing = _Packing(len(weights[0]), max(bound, 0))
    terms = {packing.pack(_vneg(e)): c for e, c in numerator.items() if -sum(e) <= bound}
    return _packed_spread(packing, terms, weights, bound)


def _packed_spread(packing: _Packing, terms: dict[int, int], weights, bound: int) -> TruncatedSeries:
    """terms / prod (1 - e^{-beta}) up to the height bound, on packed exponents.

    The packing's limit must be >= bound, the terms must be nonzero and every
    weight must have positive height; terms at or past the cap are dropped.
    This is :func:`char_series` without its checks, for exponents in the cone
    by construction.
    """
    cap = packing.cap(bound)
    terms = {p: c for p, c in terms.items() if p < cap}
    for beta in weights:
        # Multiplying by sum_k e^{-k beta} spreads each term e^{-mu} along
        # e^{-mu - beta}, e^{-mu - 2 beta}, ... while the height stays <= bound.
        step = packing.pack(beta)
        nxt: dict[int, int] = {}
        get = nxt.get
        for p, c in terms.items():
            while p < cap:
                nxt[p] = get(p, 0) + c
                p += step
        terms = {p: c for p, c in nxt.items() if c}
    return TruncatedSeries._from_packed(packing, terms, bound)
