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
Packed ints never leave the pass and the spread: each decodes its result
once, and a :class:`LaurentPoly` or :class:`TruncatedSeries` holds one dict
keyed by exponent tuples.
"""

from __future__ import annotations

import struct
from operator import neg

from .errors import BeyondTruncation, ExponentOutsideCone, WrongType
from .rootsys import Root, height, negate

WeightVector = tuple[int, ...]

_DIGIT_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}  # struct codes, standard sizes


def _vadd(a: WeightVector, b: WeightVector) -> WeightVector:
    return tuple(x + y for x, y in zip(a, b))


def _same_rank(a: WeightVector, b: WeightVector) -> None:
    """WrongType unless the exponents a and b have the same number of coordinates."""
    if len(a) != len(b):
        raise WrongType(f"rank mismatch: {a} has {len(a)} coordinates, {b} has {len(b)}")


def _check_ranks(x: dict, y: dict) -> None:
    """WrongType unless two nonempty term dicts are keyed by exponents of one rank."""
    if x and y:
        _same_rank(next(iter(x)), next(iter(y)))


class LaurentPoly:
    """Immutable sparse Laurent polynomial with root-lattice exponents.

    Terms of different rank in one polynomial, and the sum and product of two
    nonzero polynomials of different rank, raise WrongType.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()) -> None:
        data: dict[WeightVector, int] = {}
        items = terms.items() if hasattr(terms, "items") else terms
        first = None
        for exponent, coeff in items:
            exponent = tuple(exponent)
            if first is None:
                first = exponent
            _same_rank(first, exponent)
            coeff = data.get(exponent, 0) + coeff
            if coeff:
                data[exponent] = coeff
            else:
                data.pop(exponent, None)
        self._terms = data

    @classmethod
    def _of(cls, terms: dict[WeightVector, int]) -> "LaurentPoly":
        """The polynomial of terms already keyed by distinct exponent tuples, with nonzero coefficients."""
        poly = cls.__new__(cls)
        poly._terms = terms
        return poly

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
        _check_ranks(self._terms, other._terms)
        out = dict(self._terms)
        for e, c in other._terms.items():
            c2 = out.get(e, 0) + c
            if c2:
                out[e] = c2
            else:
                out.pop(e, None)
        return LaurentPoly._of(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._of({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        _check_ranks(self._terms, other._terms)
        out: dict[WeightVector, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = _vadd(e1, e2)
                c = out.get(e, 0) + c1 * c2
                if c:
                    out[e] = c
                else:
                    out.pop(e, None)
        return LaurentPoly._of(out)

    def scale(self, c: int) -> "LaurentPoly":
        if c == 0:
            return LaurentPoly.zero()
        return LaurentPoly._of({e: c * v for e, v in self._terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"LaurentPoly({self.items()})"


def one_minus_e(alpha: Root) -> LaurentPoly:
    """The factor 1 - e^{-alpha}."""
    return LaurentPoly({(0,) * len(alpha): 1, negate(alpha): -1})


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

    All vectors must have nonnegative coordinates and positive height
    (WrongType otherwise), which bounds the search: a vector of height h can
    be used at most height(target) // h times.  One memo serves every target
    tested with the returned function, so a batch of targets shares its
    partial searches.
    """
    vecs = [tuple(v) for v in vectors]
    if not all(height(v) >= 1 and min(v) >= 0 for v in vecs):
        raise WrongType("span vectors must be positive")
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
    """Is target a nonnegative-integer combination of the given (positive) vectors?

    WrongType for an empty target, a vector of another rank than the target,
    or a vector that is not positive.
    """
    target = tuple(target)
    if not target:
        raise WrongType("span target must be nonempty")
    vectors = [tuple(v) for v in vectors]
    for v in vectors:
        _same_rank(v, target)
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

    __slots__ = ("width", "top", "_low", "_digits")

    def __init__(self, rank: int, limit: int) -> None:
        width = 8
        while limit >> width:
            width *= 2
        self.width, self.top = width, rank * width
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

    Like :class:`LaurentPoly`, a series refuses terms of mixed rank, and the
    sum and product of two nonzero series of different rank, with WrongType.
    """

    __slots__ = ("bound", "_terms")

    def __init__(self, terms, bound: int) -> None:
        data: dict[WeightVector, int] = {}
        items = terms.items() if hasattr(terms, "items") else terms
        first = None
        for exponent, coeff in items:
            exponent = tuple(exponent)
            if first is None:
                first = exponent
            _same_rank(first, exponent)
            mu = negate(exponent)
            if min(mu) < 0:
                raise AssertionError(f"series exponent {exponent} outside -cone")
            if height(mu) > bound or coeff == 0:
                continue
            data[exponent] = data.get(exponent, 0) + coeff
        self.bound = bound
        self._terms = {e: c for e, c in data.items() if c}

    @classmethod
    def _of(cls, terms: dict[WeightVector, int], bound: int) -> "TruncatedSeries":
        """The series of terms already keyed by distinct exponents -mu, height(mu) <= bound, nonzero."""
        series = cls.__new__(cls)
        series.bound, series._terms = bound, terms
        return series

    def items(self) -> list[tuple[WeightVector, int]]:
        return sorted(self._terms.items())

    def coefficient(self, exponent: WeightVector) -> int:
        """Exact coefficient of e^{exponent}; BeyondTruncation past the bound, WrongType off the terms' rank."""
        exponent = tuple(exponent)
        if self._terms:
            _same_rank(next(iter(self._terms)), exponent)
        mu = negate(exponent)
        if min(mu) < 0:
            return 0  # support lies in the negative cone, exactly zero
        if height(mu) > self.bound:
            raise BeyondTruncation(f"height {height(mu)} exceeds the bound {self.bound}")
        return self._terms.get(exponent, 0)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        _check_ranks(self._terms, other._terms)
        bound = min(self.bound, other.bound)
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) + c
        return TruncatedSeries(out, bound)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        _check_ranks(self._terms, other._terms)
        bound = min(self.bound, other.bound)
        out: dict[WeightVector, int] = {}
        for e1, c1 in self._terms.items():
            h1 = -height(e1)
            if h1 > bound:
                continue
            for e2, c2 in other._terms.items():
                e = _vadd(e1, e2)
                if h1 - height(e2) > bound:
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

    Every denominator weight must have positive height, the weights and the
    numerator's exponents one rank (WrongType otherwise), and every exponent of
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
    for exponent in (*weights, *numerator._terms):
        _same_rank(weights[0], exponent)
    in_cone = _span_search(weights)
    for exponent, _ in numerator.items():
        if not in_cone(negate(exponent)):
            raise ExponentOutsideCone(f"numerator exponent {exponent} outside the span")
    packing = _Packing(len(weights[0]), max(bound, 0))
    terms = {packing.pack(negate(e)): c for e, c in numerator.items() if -sum(e) <= bound}
    return _packed_spread(packing, terms, weights, bound)


def _packed_spread(packing: _Packing, terms: dict[int, int], weights, bound: int) -> TruncatedSeries:
    """terms / prod (1 - e^{-beta}) up to the height bound, on packed exponents.

    The packing's limit must be >= bound, the terms must be nonzero and the
    weights of positive height; terms at or past the cap are dropped by the
    first weight's walk, so with no weights every term must lie below the
    cap.  This is :func:`char_series` without its checks, for exponents in
    the cone by construction.
    """
    cap = packing.cap(bound)
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
    return TruncatedSeries._of(dict(zip(packing.exponents(terms), terms.values())), bound)
