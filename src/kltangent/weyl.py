"""Weyl group elements, words, Bruhat order, gamma-sequences and coset minima.

An element x is represented by the point x^{-1}(rho) of the Weyl orbit of rho,
in fundamental-weight coordinates, together with its length (the numbers game
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

The reflections themselves belong to ``rootsys``: every element references
the ``dynkin`` tables of its root system and applies s_i through
``rootsys.reflect_weight`` (to points) and ``rootsys.reflect_root_in_place``
(to roots); this module keeps no table of its own in ``rs._cache`` except the
optional group table.  The matrix of x on the root lattice
(``WeylElement.rows``) is a derived view.  The Bruhat walk and the folds that
only read lengths and descents (``_lane_leq``, ``_lane_fold``,
``_lane_reaches_identity``) run on the byte-lane form of a point
(``rootsys.pack_point``): one int, where s_i is q - c * ``lane_rows[i]`` and
the right descents are the clear top bits, ``lane_high & ~q``.

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

from .errors import GroupTooLarge, LengthBoundExceeded, LetterOutOfRange, NotReduced, WrongType
from .rootsys import Dynkin, Root, RootSystem, _check_vector, pack_point, reflect_root_in_place, reflect_weight

Word = tuple[int, ...]

_WORD_BOUND = 16  # default guard for all_reduced_words
_GROUP_GUARD = 400_000  # default guard for whole-group enumeration; E8 refused


def _first_descent(point: tuple[int, ...]) -> int:
    """The least 0-based i with point[i] < 0, or -1 when the point is dominant."""
    for i, c in enumerate(point):
        if c < 0:
            return i
    return -1


def _bits(mask: int):
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _peel(point: tuple[int, ...], weight_links):
    """Yield the least right descent, 0-based, and strip it, until the point is rho.

    Peeling i_1, ..., i_l off the point of x spells x = s_{i_l} ... s_{i_1}.
    """
    i = _first_descent(point)
    while i >= 0:
        yield i
        point = reflect_weight(point, i, weight_links)
        i = _first_descent(point)


def _inverse_point(point: tuple[int, ...], dyn: Dynkin) -> tuple[int, ...]:
    """The point x(rho) of x^{-1}: the peeled letters of x, folded into rho."""
    links = dyn.weight_links
    out = dyn.rho
    for i in _peel(point, links):
        out = reflect_weight(out, i, links)
    return out


def _fold(point: tuple[int, ...], length: int, indices, weight_links) -> tuple[tuple[int, ...], int]:
    """Point and length of x * s_{i_1} ... s_{i_k} from those of x (0-based, already checked)."""
    for i in indices:
        length += 1 if point[i] > 0 else -1
        point = reflect_weight(point, i, weight_links)
    return point, length


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


class WeylElement:
    """A Weyl group element x: the point x^{-1}(rho) in fundamental-weight coordinates, plus l(x).

    Immutable by convention.  ``point`` alone decides equality and hashing;
    the element also references its root system's ``dynkin`` tables (not
    compared) so that it can act on weights and roots.
    """

    __slots__ = ("point", "length", "dynkin")

    def __init__(self, point: tuple[int, ...], length: int, dynkin: Dynkin) -> None:
        self.point = point
        self.length = length
        self.dynkin = dynkin

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.point == other.point

    def __hash__(self) -> int:
        return hash(self.point)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The matrix of x on the root lattice: rows[i][j] is the alpha_i-coefficient of x(alpha_j)."""
        dyn = self.dynkin
        columns = _identity_columns(dyn.rank)
        for i in reversed(list(_peel(self.point, dyn.weight_links))):
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

    The Dynkin tables are compared by value, so an element from another
    build of the same type passes.  The weight links hold every off-diagonal
    Cartan entry, so they decide the other tables too.
    """
    links = rs.dynkin.weight_links
    for x in elements:
        if x.dynkin.weight_links != links:
            raise WrongType(f"element of another root system passed to {rs.cartan_type}")


def act_on_root(x: WeylElement, v: Root) -> Root:
    """Image x(v) of a root-lattice vector: the peeled letters of x applied to v in turn.

    WrongType unless len(v) is the rank.
    """
    dyn = x.dynkin
    _check_vector(dyn.rank, v)
    out = list(v)
    for i in _peel(x.point, dyn.weight_links):
        reflect_root_in_place(out, i, dyn.root_links)
    return tuple(out)


def identity_element(rs: RootSystem) -> WeylElement:
    dyn = rs.dynkin
    return WeylElement(dyn.rho, 0, dyn)


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    return right_multiply_simple(rs, identity_element(rs), i)


def has_right_ascent(x: WeylElement, i: int) -> bool:
    """True iff l(x * s_i) > l(x), i.e. coordinate i of x^{-1}(rho) is positive."""
    return x.point[i - 1] > 0


def right_multiply_simple(rs: RootSystem, x: WeylElement, i: int) -> WeylElement:
    _check_letter(rs, i)
    c = x.point[i - 1]
    return WeylElement(
        reflect_weight(x.point, i - 1, x.dynkin.weight_links), x.length + (1 if c > 0 else -1), x.dynkin
    )


def left_multiply_simple(rs: RootSystem, x: WeylElement, i: int) -> WeylElement:
    """s_i * x = (x^{-1} * s_i)^{-1}."""
    _check_letter(rs, i)
    dyn = x.dynkin
    inv = _inverse_point(x.point, dyn)
    length = x.length + (1 if inv[i - 1] > 0 else -1)
    return WeylElement(_inverse_point(reflect_weight(inv, i - 1, dyn.weight_links), dyn), length, dyn)


def multiply(rs: RootSystem, x: WeylElement, y: WeylElement) -> WeylElement:
    """x*y: x times a reduced word of y, read off y's peel; WrongType unless both are elements of rs."""
    _check_element(rs, x, y)
    dyn = x.dynkin
    links = dyn.weight_links
    point, length = _fold(x.point, x.length, reversed(list(_peel(y.point, links))), links)
    return WeylElement(point, length, dyn)


def _times_word(x: WeylElement, letters) -> WeylElement:
    """x * s_{a_1} ... s_{a_k}, length counted along the way; letters already checked."""
    dyn = x.dynkin
    point, length = _fold(x.point, x.length, [a - 1 for a in letters], dyn.weight_links)
    return WeylElement(point, length, dyn)


def word_to_element(rs: RootSystem, w: Word) -> WeylElement:
    """Left-to-right product of simple reflections; length counted along the way."""
    for letter in w:
        _check_letter(rs, letter)
    return _times_word(identity_element(rs), w)


def is_reduced(rs: RootSystem, w: Word) -> bool:
    return word_to_element(rs, w).length == len(w)


def right_descents(rs: RootSystem, x: WeylElement) -> frozenset[int]:
    return frozenset(i for i, c in enumerate(x.point, start=1) if c < 0)


def left_descents(rs: RootSystem, x: WeylElement) -> frozenset[int]:
    """{i : l(s_i x) < l(x)}: the right descents of x^{-1}."""
    return frozenset(i for i, c in enumerate(_inverse_point(x.point, x.dynkin), start=1) if c < 0)


def inversion_set_of_inverse(rs: RootSystem, x: WeylElement) -> frozenset[Root]:
    """I(x^{-1}) = Phi^+ cap x Phi^-, the positive roots x^{-1} makes negative.

    x^{-1}(beta) < 0 iff (x^{-1}(beta), rho) < 0 iff (beta, x(rho)) < 0, and
    x(rho) is the point of x^{-1}.
    """
    dyn = x.dynkin
    weights = tuple(c * n for c, n in zip(_inverse_point(x.point, dyn), dyn.norms))
    out = [beta for beta in rs.positive_roots if sum(b * c for b, c in zip(beta, weights)) < 0]
    if len(out) != x.length:
        raise AssertionError(f"{len(out)} inversions for an element of length {x.length}")
    return frozenset(out)


def inverse(rs: RootSystem, x: WeylElement) -> WeylElement:
    return WeylElement(_inverse_point(x.point, x.dynkin), x.length, x.dynkin)


def _lane_leq(a: int, la: int, b: int, lb: int, dyn: Dynkin) -> bool:
    """u <= v by the descent walk, for the lane forms a, b (``rootsys.pack_point``) and lengths of u and v.

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


def _lane_fold(q: int, length: int, nodes, rows) -> tuple[int, int]:
    """Lane form and length of x * s_{i_1} ... s_{i_k} from those of x (0-based nodes, already checked)."""
    for i in nodes:
        c = ((q >> (i << 3)) & 0xFF) - 128
        length += 1 if c > 0 else -1
        q -= c * rows[i]
    return q, length


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
    """Decide u <= v in Bruhat order by the descent walk on the lane forms of the two points.

    WrongType unless both are elements of rs's Weyl group: the walk reads
    the lanes of rs's Dynkin tables.
    """
    _check_element(rs, u, v)
    if u.length == 0 or u.length >= v.length:  # the walk would take no step
        return u.length == 0 or u.point == v.point
    return _lane_leq(pack_point(u.point), u.length, pack_point(v.point), v.length, rs.dynkin)


def _gammas(rs: RootSystem, w: Word) -> tuple[Root, ...]:
    """gamma_i = s_1...s_{i-1}(alpha_i): column s_i of the prefix, folded along w."""
    root_links = rs.dynkin.root_links
    columns = _identity_columns(rs.rank)
    gammas = []
    for letter in w:
        gammas.append(columns[letter - 1])
        columns = _columns_times(columns, letter - 1, root_links)
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


def _gamma_sequence(rs: RootSystem, x: WeylElement, w: Word) -> GammaSequence:
    """:func:`gamma_sequence` of a word w of x: l(x) distinct positive roots with (beta, x(rho)) < 0."""
    gammas = _gammas(rs, w)
    if not all(g in rs.positive_root_set for g in gammas):
        raise AssertionError("gamma formula must stay positive")
    if len(set(gammas)) != len(gammas):
        raise AssertionError("gamma values must be pairwise distinct")
    weights = tuple(c * n for c, n in zip(_inverse_point(x.point, x.dynkin), x.dynkin.norms))
    if len(gammas) != x.length or any(sum(g * c for g, c in zip(gamma, weights)) >= 0 for gamma in gammas):
        raise AssertionError("gamma values must list the inversion set I(x^{-1})")
    return GammaSequence(w, gammas)


def canonical_reduced_word(rs: RootSystem, x: WeylElement) -> Word:
    """Lexicographically least reduced word, via greedy smallest left descent.

    The left descents of x are the right descents of x^{-1}, so the word is
    the peel of x^{-1}'s point.
    """
    dyn = x.dynkin
    return tuple(i + 1 for i in _peel(_inverse_point(x.point, dyn), dyn.weight_links))


def all_reduced_words(rs: RootSystem, x: WeylElement, max_length: int = _WORD_BOUND) -> list[Word]:
    """Every reduced word of x in lexicographic order, by depth-first descent (guarded by max_length)."""
    if x.length > max_length:
        raise LengthBoundExceeded(f"l(x)={x.length} exceeds the bound {max_length}")
    dyn = x.dynkin
    links = dyn.weight_links
    memo: dict[tuple[int, ...], list[Word]] = {dyn.rho: [()]}

    def rec(point: tuple[int, ...]) -> list[Word]:
        hit = memo.get(point)
        if hit is not None:
            return hit
        words = [
            head + (i + 1,)
            for i, c in enumerate(point)
            if c < 0
            for head in rec(reflect_weight(point, i, links))
        ]
        memo[point] = words
        return words

    return sorted(rec(x.point))


def is_min_coset_rep(rs: RootSystem, x: WeylElement, parabolic) -> bool:
    """True iff x(alpha_i) > 0 for every i in the parabolic generator set.

    Equivalently l(x s_i) > l(x) for all i in P, i.e. x is the minimal-length
    element of the coset x W_P.
    """
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
    links, root_links = dyn.weight_links, dyn.root_links
    e = identity_element(rs)
    seen = {e.point}
    layer = [(e, _identity_columns(rs.rank))]
    out = [e]
    while layer:
        nxt = []
        for x, columns in layer:
            for i, c in enumerate(x.point):
                if c > 0:
                    point = reflect_weight(x.point, i, links)
                    if point not in seen:
                        seen.add(point)
                        y = WeylElement(point, x.length + 1, dyn)
                        nxt.append((y, _columns_times(columns, i, root_links)))
        nxt.sort(key=lambda pair: tuple(zip(*pair[1])))
        out.extend(y for y, _ in nxt)
        layer = nxt
    if len(out) != order:
        raise AssertionError(f"enumerated {len(out)} elements of a group of order {order}")
    return out


def longest_element(rs: RootSystem) -> WeylElement:
    """w0, of length |Phi^+|: its point w0^{-1}(rho) = w0(rho) is -rho."""
    dyn = rs.dynkin
    return WeylElement(tuple(-c for c in dyn.rho), len(rs.positive_roots), dyn)


class GroupTable:
    """Id-indexed right multiplication for a whole (small) Weyl group.

    Used by the exhaustive verification suites: elements become integers and
    ``rmult[i][x]`` (the id of x*s_{i+1}) is the one multiplication table.
    ``dmult[i][x]`` is the Demazure product x*s_{i+1}: the longer of x and
    x*s_{i+1}, which Demazure folds step and along which the Euler-identity
    suite moves the signed count of every subsequence that takes letter
    i + 1.  Bruhat order becomes a bitmask test, built by the lifting
    property.  Left descents need no table: they are the negative
    coordinates of x(rho).  Built lazily, once per root system.
    """

    def __init__(self, rs: RootSystem, guard: int = _GROUP_GUARD) -> None:
        self.rs = rs
        self.elements = enumerate_weyl_group(rs, guard)
        self.index = {x.point: i for i, x in enumerate(self.elements)}
        self.length = [x.length for x in self.elements]
        links, index = rs.dynkin.weight_links, self.index
        self.rmult = [[index[reflect_weight(x.point, i, links)] for x in self.elements] for i in range(rs.rank)]
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
            rm = self.rmult[_first_descent(x.point)]
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
