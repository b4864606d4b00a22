"""Weyl group elements, words, Bruhat order, gamma-sequences and coset minima.

An element x is the point x^{-1}(rho) of the Weyl orbit of rho, in
fundamental-weight coordinates, together with its length (the numbers game
of Casselman, "Machine calculations in Weyl groups", 1994).  rho is regular,
so the point determines x: equality and hashing use the point alone, and every
representation-dependent artifact (choice of word, construction path) is
invisible.  In this form

  * x*s_i is represented by s_i applied to the point, which changes only
    coordinate i and its Dynkin neighbours; the length goes up by one when
    coordinate i is positive and down by one when it is negative, so the
    right descents of x are the negative coordinates;
  * peeling right descents off the point until it is rho spells a reduced
    word of x backwards.  Inverses, left descents, canonical words, products
    and the action on roots are all read off that peel.

The element stores its point once, in the byte-lane form of
``rootsys.pack_point``: one int ``lanes`` whose lane i holds coordinate i
plus 128.  s_i is q - c * ``lane_rows[i]`` with c the coordinate in lane i,
and the right descents are the clear top bits, ``lane_high & ~q``.  Every
reflection, descent test, peel, fold and Bruhat walk of this module runs on
that int (``_lane_reflect``, ``_peel``, ``_lane_fold``, ``_lane_leq``,
``_lane_reaches_identity``), and the tables it reads are the ``dynkin`` of the
root system, which every element references; this module keeps no table of
its own in ``rs._cache`` except the optional group table.  The tuple
``WeylElement.point`` and the matrix of x on the root lattice
(``WeylElement.rows``) are derived views.  Only this module and ``rootsys``
read a coordinate: elsewhere a lane form is an opaque key.  The gamma fold
(``_gammas``) carries the columns x(alpha_j) of a prefix as ints too, in
signed coefficient lanes sum_k c_k 2^{8k} (``_lane_columns_times``), and
reads each gamma from ``RootSystem.root_by_lanes``.

Words are tuples of 1-based simple-reflection indices and both act and
multiply left to right: the word (1, 2) denotes s1*s2, which sends a vector v
to s1(s2(v)).

The gamma-sequence of a reduced word (s_1, ..., s_l) is

    gamma_i = s_1 ... s_{i-1}(alpha_i),

which lists the inversion set I(x^{-1}) = Phi^+ cap x Phi^- without repeats.
(A variant with prefix s_1 ... s_i also circulates in the literature, but it
produces negative vectors -- already gamma_1 = -alpha_1 -- so it cannot
enumerate I(x^{-1}); this module uses the prefix-(i-1) form and checks
positivity and distinctness at runtime.)
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from operator import mul

from .errors import GroupTooLarge, LengthBoundExceeded, LetterOutOfRange, NotReduced, WrongType
from .rootsys import Dynkin, Root, RootSystem, _check_vector, reflect_root_in_place

Word = tuple[int, ...]

_WORD_BOUND = 16  # default guard for all_reduced_words
_GROUP_GUARD = 400_000  # default guard for whole-group enumeration; E8 refused


def _bits(mask: int):
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _coordinates(q: int, rank: int) -> tuple[int, ...]:
    """The point whose lane form is q: each lane less the bias 128."""
    return tuple(b - 128 for b in q.to_bytes(rank, "little"))


def _lane_reflect(q: int, i: int, rows) -> int:
    """s_i (0-based node i) on a lane form: q - c * rows[i], with c the coordinate in lane i."""
    return q - (((q >> (i << 3)) & 0xFF) - 128) * rows[i]


def _lane_lowered(qs, i: int, rows) -> set[int]:
    """{v s_i : v in qs with s_i a right descent of v}, on lane forms (0-based node i)."""
    top = 0x80 << (i << 3)
    return {_lane_reflect(q, i, rows) for q in qs if not q & top}


def _peel(q: int, dyn: Dynkin):
    """Yield the least right descent, 0-based, of the lane form q and strip it, until q is rho.

    The least descent is the lowest bit of ``lane_high & ~q``, the top bit
    of its lane.  Peeling i_1, ..., i_l off the point of x spells
    x = s_{i_l} ... s_{i_1}.
    """
    rows, high = dyn.lane_rows, dyn.lane_high
    descents = high & ~q
    while descents:
        i = ((descents & -descents).bit_length() >> 3) - 1
        yield i
        q = _lane_reflect(q, i, rows)
        descents = high & ~q


def _lane_fold(q: int, length: int, nodes, rows) -> tuple[int, int]:
    """Lane form and length of x * s_{i_1} ... s_{i_k} from those of x (0-based nodes, already checked)."""
    for i in nodes:
        c = ((q >> (i << 3)) & 0xFF) - 128
        length += 1 if c > 0 else -1
        q -= c * rows[i]
    return q, length


def _inverse_lanes(q: int, dyn: Dynkin) -> int:
    """The lane form of x(rho), the point of x^{-1}: the peeled letters of x, folded into rho."""
    return _lane_fold(dyn.rho, 0, _peel(q, dyn), dyn.lane_rows)[0]


def _inverse_weights(inverse: int, dyn: Dynkin) -> tuple[int, ...]:
    """x(rho) scaled by the root norms, from its lane form: (beta, x(rho)) has the sign of sum_k beta_k * weights[k]."""
    return tuple(c * n for c, n in zip(_coordinates(inverse, dyn.rank), dyn.norms))


def _columns_times(columns: list, i: int, root_links) -> list:
    """Columns x(alpha_j) of x*s_i from those of x: column i and its neighbours change."""
    ci = columns[i]
    out = list(columns)
    out[i] = tuple(-c for c in ci)
    for k, a in root_links[i]:
        out[k] = tuple(c - a * d for c, d in zip(columns[k], ci))
    return out


def _identity_columns(n: int) -> list:
    return [tuple(1 if k == j else 0 for k in range(n)) for j in range(n)]


def _lane_columns_times(columns: list[int], i: int, root_links) -> list[int]:
    """:func:`_columns_times` on columns in signed coefficient lanes, sum_k c_k 2^{8k} (``RootSystem.root_by_lanes``).

    The lanes are linear, so column i is negated and each neighbour k loses
    A[k][i] times it with no coordinate read.
    """
    out = list(columns)
    ci = out[i]
    out[i] = -ci
    for k, a in root_links[i]:
        out[k] -= a * ci
    return out


def _identity_lane_columns(n: int) -> list[int]:
    return [1 << (j << 3) for j in range(n)]


class WeylElement:
    """A Weyl group element x: the lane form of x^{-1}(rho) (``rootsys.pack_point``), plus l(x).

    Immutable by convention.  ``lanes`` alone decides equality and hashing;
    the element also references its root system's ``dynkin`` tables (not
    compared) so that it can act on weights and roots.  Every lane lies in
    65..191, so the int also fixes the rank.  ``point`` decodes the lanes
    into the tuple x^{-1}(rho) in fundamental-weight coordinates.
    """

    __slots__ = ("lanes", "length", "dynkin")

    def __init__(self, lanes: int, length: int, dynkin: Dynkin) -> None:
        self.lanes = lanes
        self.length = length
        self.dynkin = dynkin

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.lanes == other.lanes

    def __hash__(self) -> int:
        return hash(self.lanes)

    @property
    def point(self) -> tuple[int, ...]:
        """x^{-1}(rho) in fundamental-weight coordinates, decoded from the lanes."""
        return _coordinates(self.lanes, self.dynkin.rank)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The matrix of x on the root lattice: rows[i][j] is the alpha_i-coefficient of x(alpha_j)."""
        dyn = self.dynkin
        columns = _identity_columns(dyn.rank)
        for i in reversed(list(_peel(self.lanes, dyn))):
            columns = _columns_times(columns, i, dyn.root_links)
        return tuple(zip(*columns))

    def __repr__(self) -> str:
        return f"WeylElement(length={self.length}, point={self.point})"


@dataclass(frozen=True)
class GammaSequence:
    """The ordered inversion roots gamma_1..gamma_l attached to a reduced word."""

    word: Word
    gammas: tuple[Root, ...]


def parse_word(text: str) -> Word:
    """Parse ``"1 2 1"``, ``"s1 s2 s1"`` or ``"1,2,1"`` into a Word.

    >>> parse_word("s1 s2 s1")
    (1, 2, 1)
    >>> parse_word("")
    ()
    """
    tokens = text.replace(",", " ").split()
    letters = []
    for tok in tokens:
        body = tok[1:] if tok[:1] in ("s", "S") else tok
        if not body.isdecimal():  # exactly the digits int() reads; isdigit() also takes "²"
            raise LetterOutOfRange(f"cannot parse word token {tok!r}")
        letters.append(int(body))
    return tuple(letters)


def _check_letter(rs: RootSystem, i: int) -> None:
    if not 1 <= i <= rs.rank:
        raise LetterOutOfRange(f"letter {i} out of range for {rs.cartan_type}")


def _check_element(rs: RootSystem, *elements: WeylElement) -> None:
    """WrongType unless every element given is an element of rs's Weyl group.

    An element built over rs itself passes on an identity test, so the
    inner loops pay no comparison.  Otherwise the Dynkin tables are compared
    by value, so an element from another build of the same type passes.  The
    weight links hold every off-diagonal Cartan entry, so they decide the
    other tables too.
    """
    dyn = rs.dynkin
    for x in elements:
        if x.dynkin is not dyn and x.dynkin.weight_links != dyn.weight_links:
            raise WrongType(f"element of another root system passed to {rs.cartan_type}")


def act_on_root(x: WeylElement, v: Root) -> Root:
    """Image x(v) of a root-lattice vector: the peeled letters of x applied to v in turn.

    WrongType unless len(v) is the rank.
    """
    dyn = x.dynkin
    _check_vector(dyn.rank, v)
    out = list(v)
    for i in _peel(x.lanes, dyn):
        reflect_root_in_place(out, i, dyn.root_links)
    return tuple(out)


def identity_element(rs: RootSystem) -> WeylElement:
    dyn = rs.dynkin
    return WeylElement(dyn.rho, 0, dyn)


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    return right_multiply_simple(rs, identity_element(rs), i)


def has_right_ascent(x: WeylElement, i: int) -> bool:
    """True iff l(x * s_i) > l(x), i.e. coordinate i of x^{-1}(rho) is positive: the top bit of lane i."""
    return bool(x.lanes >> ((i << 3) - 1) & 1)


def right_multiply_simple(rs: RootSystem, x: WeylElement, i: int) -> WeylElement:
    _check_letter(rs, i)
    _check_element(rs, x)
    q, length = _lane_fold(x.lanes, x.length, (i - 1,), x.dynkin.lane_rows)
    return WeylElement(q, length, x.dynkin)


def left_multiply_simple(rs: RootSystem, x: WeylElement, i: int) -> WeylElement:
    """s_i * x = (x^{-1} * s_i)^{-1}."""
    _check_letter(rs, i)
    _check_element(rs, x)
    dyn = x.dynkin
    inv, length = _lane_fold(_inverse_lanes(x.lanes, dyn), x.length, (i - 1,), dyn.lane_rows)
    return WeylElement(_inverse_lanes(inv, dyn), length, dyn)


def multiply(rs: RootSystem, x: WeylElement, y: WeylElement) -> WeylElement:
    """x*y: x times a reduced word of y, read off y's peel; WrongType unless both are elements of rs."""
    _check_element(rs, x, y)
    dyn = x.dynkin
    q, length = _lane_fold(x.lanes, x.length, reversed(list(_peel(y.lanes, dyn))), dyn.lane_rows)
    return WeylElement(q, length, dyn)


def word_to_element(rs: RootSystem, w: Word) -> WeylElement:
    """Left-to-right product of simple reflections; length counted along the way."""
    for letter in w:
        _check_letter(rs, letter)
    dyn = rs.dynkin
    q, length = _lane_fold(dyn.rho, 0, [a - 1 for a in w], dyn.lane_rows)
    return WeylElement(q, length, dyn)


def is_reduced(rs: RootSystem, w: Word) -> bool:
    return word_to_element(rs, w).length == len(w)


def _descents(q: int, dyn: Dynkin) -> frozenset[int]:
    """The right descents, 1-based, of the element with lane form q."""
    return frozenset((b >> 3) + 1 for b in _bits(dyn.lane_high & ~q))


def right_descents(rs: RootSystem, x: WeylElement) -> frozenset[int]:
    _check_element(rs, x)
    return _descents(x.lanes, x.dynkin)


def left_descents(rs: RootSystem, x: WeylElement) -> frozenset[int]:
    """{i : l(s_i x) < l(x)}: the right descents of x^{-1}."""
    _check_element(rs, x)
    return _descents(_inverse_lanes(x.lanes, x.dynkin), x.dynkin)


def inversion_set_of_inverse(rs: RootSystem, x: WeylElement) -> frozenset[Root]:
    """I(x^{-1}) = Phi^+ cap x Phi^-, the positive roots x^{-1} makes negative.

    x^{-1}(beta) < 0 iff (x^{-1}(beta), rho) < 0 iff (beta, x(rho)) < 0, and
    x(rho) is the point of x^{-1}.
    """
    _check_element(rs, x)
    weights = _inverse_weights(_inverse_lanes(x.lanes, x.dynkin), x.dynkin)
    out = [beta for beta in rs.positive_roots if sum(b * c for b, c in zip(beta, weights)) < 0]
    if len(out) != x.length:
        raise AssertionError(f"{len(out)} inversions for an element of length {x.length}")
    return frozenset(out)


def inverse(rs: RootSystem, x: WeylElement) -> WeylElement:
    _check_element(rs, x)
    return WeylElement(_inverse_lanes(x.lanes, x.dynkin), x.length, x.dynkin)


def _lane_leq(a: int, la: int, b: int, lb: int, dyn: Dynkin) -> bool:
    """u <= v by the descent walk, for the lane forms a, b and lengths of u and v.

    With s a right descent of v:  u <= v  iff  us <= vs when s is also a
    descent of u, else u <= vs.  The recursion never branches, so it runs as
    a loop of at most l(v) steps and needs no memo.  The least descent of v
    is the lowest bit of ``lane_high & ~b``, the top bit of its lane, and
    the same bit of a is clear exactly when it is a descent of u.
    """
    rows, high = dyn.lane_rows, dyn.lane_high
    while la < lb:
        if la == 0:
            return True
        descents = high & ~b
        bit = descents & -descents
        shift = bit.bit_length() - 8
        b -= (((b >> shift) & 0xFF) - 128) * rows[shift >> 3]
        lb -= 1
        if not a & bit:
            a -= (((a >> shift) & 0xFF) - 128) * rows[shift >> 3]
            la -= 1
    return la == lb and a == b


def _lane_reaches_identity(q: int, length: int, nodes, left: int, rows) -> bool:
    """Does the element with lane form q and this length fold down to e along the nodes?

    At each node i (0-based, ``left`` of them in all) the element v becomes
    v s_i when s_i is a right descent of v and stays otherwise.  By the lemma
    of ``tangent._position_flags``, v reaches e exactly when v <= the Demazure
    product of the nodes read backwards.  Each step lowers the length by at
    most one, so the fold stops as soon as the length is 0 (True) or exceeds
    the nodes left (False).
    """
    for i in nodes:
        if length == 0 or length > left:
            break
        left -= 1
        c = ((q >> (i << 3)) & 0xFF) - 128
        if c < 0:
            q -= c * rows[i]
            length -= 1
    return length == 0


def bruhat_leq(rs: RootSystem, u: WeylElement, v: WeylElement) -> bool:
    """Decide u <= v in Bruhat order by the descent walk on the lanes of the two elements.

    WrongType unless both are elements of rs's Weyl group: the walk reads
    rs's Dynkin tables.
    """
    _check_element(rs, u, v)
    return _lane_leq(u.lanes, u.length, v.lanes, v.length, rs.dynkin)


def _gammas(rs: RootSystem, w: Word) -> tuple[Root, ...]:
    """gamma_i = s_1...s_{i-1}(alpha_i): column s_i of the prefix, folded along w in signed coefficient lanes.

    Each gamma is the positive root ``rs.root_by_lanes`` holds under its
    column.  A column that is a negative root has a negative int and is no
    key: AssertionError, whatever the optimization level, as on a word that
    is not reduced.
    """
    table, root_links = rs.root_by_lanes, rs.dynkin.root_links
    columns = _identity_lane_columns(rs.rank)
    gammas = []
    for letter in w:
        gamma = table.get(columns[letter - 1])
        if gamma is None:
            raise AssertionError("gamma formula must stay positive")
        gammas.append(gamma)
        columns = _lane_columns_times(columns, letter - 1, root_links)
    return tuple(gammas)


def gamma_sequence(rs: RootSystem, w: Word) -> GammaSequence:
    """gamma_i = s_1...s_{i-1}(alpha_i) for a reduced word; raises NotReduced else.

    In A2 the word (1, 2, 1) yields (alpha1, alpha1+alpha2, alpha2): the
    sequence walks through I(x^{-1}) in the order the word inverts roots.
    """
    x = word_to_element(rs, w)
    if x.length != len(w):
        raise NotReduced(f"word {w} is not reduced over {rs.cartan_type}")
    return _gamma_sequence(rs, x, w)


def _gamma_sequence(rs: RootSystem, x: WeylElement, w: Word, inverse: int | None = None) -> GammaSequence:
    """:func:`gamma_sequence` of a word w of x: l(x) distinct positive roots with (beta, x(rho)) < 0.

    Three checks raise AssertionError, under ``python -O`` too: positivity
    (in :func:`_gammas`), distinctness and the pairing with x(rho).
    ``inverse`` is the lane form of x(rho) (:func:`_inverse_lanes`) when the
    caller has it already; None peels it here.
    """
    gammas = _gammas(rs, w)
    if len(set(gammas)) != len(gammas):
        raise AssertionError("gamma values must be pairwise distinct")
    dyn = x.dynkin
    weights = _inverse_weights(_inverse_lanes(x.lanes, dyn) if inverse is None else inverse, dyn)
    if len(gammas) != x.length or any(sum(map(mul, gamma, weights)) >= 0 for gamma in gammas):
        raise AssertionError("gamma values must list the inversion set I(x^{-1})")
    return GammaSequence(w, gammas)


def canonical_reduced_word(rs: RootSystem, x: WeylElement) -> Word:
    """Lexicographically least reduced word, via greedy smallest left descent.

    The left descents of x are the right descents of x^{-1}, so the word is
    the peel of x^{-1}'s point.
    """
    _check_element(rs, x)
    dyn = x.dynkin
    return tuple(i + 1 for i in _peel(_inverse_lanes(x.lanes, dyn), dyn))


def all_reduced_words(rs: RootSystem, x: WeylElement, max_length: int = _WORD_BOUND) -> list[Word]:
    """Every reduced word of x in lexicographic order, by depth-first descent (guarded by max_length)."""
    _check_element(rs, x)
    if x.length > max_length:
        raise LengthBoundExceeded(f"l(x)={x.length} exceeds the bound {max_length}")
    dyn = x.dynkin
    rows, high = dyn.lane_rows, dyn.lane_high
    memo: dict[int, list[Word]] = {dyn.rho: [()]}

    def rec(q: int) -> list[Word]:
        hit = memo.get(q)
        if hit is not None:
            return hit
        words = [
            head + ((b >> 3) + 1,) for b in _bits(high & ~q) for head in rec(_lane_reflect(q, b >> 3, rows))
        ]
        memo[q] = words
        return words

    return sorted(rec(x.lanes))


def is_min_coset_rep(rs: RootSystem, x: WeylElement, parabolic) -> bool:
    """True iff x(alpha_i) > 0 for every i in the parabolic generator set.

    Equivalently l(x s_i) > l(x) for all i in P, i.e. x is the minimal-length
    element of the coset x W_P.
    """
    _check_element(rs, x)
    for i in parabolic:
        if not 1 <= i <= rs.rank:
            raise LetterOutOfRange(f"parabolic node {i} out of range for {rs.cartan_type}")
        if not has_right_ascent(x, i):
            return False
    return True


def weyl_group_order(rs: RootSystem) -> int:
    n = rs.rank
    f = rs.cartan_type.family
    if f == "A":
        return factorial(n + 1)
    if f in ("B", "C"):
        return (2**n) * factorial(n)
    if f == "D":
        return (2 ** (n - 1)) * factorial(n)
    return {"E": {6: 51_840, 7: 2_903_040, 8: 696_729_600}, "F": {4: 1_152}, "G": {2: 12}}[f][n]


def _guarded_order(rs: RootSystem, guard: int) -> int:
    """|W|, or GroupTooLarge when it exceeds the guard."""
    order = weyl_group_order(rs)
    if order > guard:
        raise GroupTooLarge(f"|W({rs.cartan_type})| = {order} exceeds the guard {guard}")
    return order


def enumerate_weyl_group(rs: RootSystem, guard: int = _GROUP_GUARD) -> list[WeylElement]:
    """All elements by breadth-first right multiplication, shortest first.

    Within one length the elements are sorted by their matrix ``rows``; the
    columns x(alpha_j) travel along the search, so no matrix is rebuilt.
    """
    order = _guarded_order(rs, guard)
    dyn = rs.dynkin
    rows, high, root_links = dyn.lane_rows, dyn.lane_high, dyn.root_links
    e = identity_element(rs)
    seen = {e.lanes}
    layer = [(e, _identity_columns(rs.rank))]
    out = [e]
    while layer:
        nxt = []
        for x, columns in layer:
            for b in _bits(high & x.lanes):  # the ascents, lowest node first
                q = _lane_reflect(x.lanes, b >> 3, rows)
                if q not in seen:
                    seen.add(q)
                    y = WeylElement(q, x.length + 1, dyn)
                    nxt.append((y, _columns_times(columns, b >> 3, root_links)))
        nxt.sort(key=lambda pair: tuple(zip(*pair[1])))
        out.extend(y for y, _ in nxt)
        layer = nxt
    if len(out) != order:
        raise AssertionError(f"enumerated {len(out)} elements of a group of order {order}")
    return out


def longest_element(rs: RootSystem) -> WeylElement:
    """w0, of length |Phi^+|: its point w0^{-1}(rho) = w0(rho) is -rho, each lane 128 + 1 lowered by 2."""
    dyn = rs.dynkin
    return WeylElement(dyn.rho - (dyn.lane_high >> 6), len(rs.positive_roots), dyn)


class GroupTable:
    """Id-indexed right multiplication for a whole (small) Weyl group.

    Used by the exhaustive verification suites: elements become integers and
    ``rmult[i][x]`` (the id of x*s_{i+1}) is the one multiplication table.
    ``dmult[i][x]`` is the Demazure product x*s_{i+1}: the longer of x and
    x*s_{i+1}, which Demazure folds step and along which the Euler-identity
    suite moves the signed count of every subsequence that takes letter
    i + 1.  Bruhat order becomes a bitmask test, built by the lifting
    property.  Left descents need no table: they are the negative
    coordinates of x(rho).  ``index`` maps the lane form of each element to
    its id.  Built lazily, once per root system.
    """

    def __init__(self, rs: RootSystem, guard: int = _GROUP_GUARD) -> None:
        self.rs = rs
        self.elements = enumerate_weyl_group(rs, guard)
        self.index = {x.lanes: i for i, x in enumerate(self.elements)}
        self.length = [x.length for x in self.elements]
        rows, index = rs.dynkin.lane_rows, self.index
        self.rmult = [[index[_lane_reflect(x.lanes, i, rows)] for x in self.elements] for i in range(rs.rank)]
        length = self.length
        self.dmult = [[q if length[q] > length[p] else p for p, q in enumerate(row)] for row in self.rmult]
        self.identity = index[rs.dynkin.rho]
        self._leq: list[int] | None = None
        self._words: list[Word] | None = None

    def leq_masks(self) -> list[int]:
        """leq_masks()[v] has bit u set iff u <= v in Bruhat order.

        For a right descent s of v, [e, v] = [e, vs] | [e, vs]*s (the lifting
        property), and vs comes first because the elements are sorted by length.
        """
        if self._leq is not None:
            return self._leq
        masks = [0] * len(self.elements)
        masks[self.identity] = 1 << self.identity
        for v, x in enumerate(self.elements):
            if x.length == 0:
                continue
            rm = self.rmult[next(_peel(x.lanes, x.dynkin))]
            smaller = masks[rm[v]]
            mask = smaller
            for u in _bits(smaller):
                mask |= 1 << rm[u]
            masks[v] = mask
        self._leq = masks
        return masks

    def leq(self, u: int, v: int) -> bool:
        return bool((self.leq_masks()[v] >> u) & 1)

    def word_of(self, idx: int) -> Word:
        """The canonical reduced word of the element with the given id, from a list built on first use."""
        if self._words is None:
            self._words = [canonical_reduced_word(self.rs, x) for x in self.elements]
        return self._words[idx]

    def demazure_fold(self, letters) -> int:
        cur = self.identity
        for letter in letters:
            cur = self.dmult[letter - 1][cur]
        return cur

    def product_fold(self, letters) -> int:
        cur = self.identity
        for letter in letters:
            cur = self.rmult[letter - 1][cur]
        return cur

    def reduced_words_of(self, idx: int) -> list[Word]:
        """All reduced words of the element with the given id, in lexicographic order."""
        return all_reduced_words(self.rs, self.elements[idx], self.length[idx])


def group_table(rs: RootSystem, guard: int = _GROUP_GUARD) -> GroupTable:
    """The group table of rs, built on first use; the guard applies on every call, cached or not."""
    _guarded_order(rs, guard)
    table = rs._cache.get("group_table")
    if table is None:
        table = GroupTable(rs, guard)
        rs._cache["group_table"] = table
    return table
