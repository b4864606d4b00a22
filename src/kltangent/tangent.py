"""Tangent-weight verdicts for Kazhdan-Lusztig and Schubert varieties.

Fix a reduced word s = (s_1, ..., s_l) for x and a target w <= x.  The
ambient space of the Kazhdan-Lusztig variety at x has weights gamma_1..l
(the inversion set I(x^{-1})), and the restriction of the Schubert class to
the fixed point is the signed sum over Hecke subwords

    P_{w,s} = sum_{t : delta(s at t) = w} (-1)^{e(t)} prod_{i in t} (1 - e^{-gamma_i}).

For gamma_j integrally indecomposable in I(x^{-1}) the following are
equivalent and drive the In/Out verdicts:

  * gamma_j is a weight of the tangent space at x;
  * 1 - e^{-gamma_j} fails to divide some summand of P_{w,s}, i.e. it is
    not an "explicit factor" of the expression;
  * the Demazure product of s with position j deleted is >= w.

For decomposable gamma_j those conditions can disagree with tangency, so the
verdict is Undetermined and all the evidence is surfaced instead.  In type A
the ordinary product s_1...s^_j...s_l >= w decides every position (the
classical type-A tangent criterion) and can be opted into explicitly.

No position folds its punctured word from scratch.  Write v <| s for vs when
s is a right descent of v and for v otherwise, and u * s for the 0-Hecke
product (the longer of u and us).  The lifting property gives

    w <= u * s   iff   w <| s <= u

(proof in ``_position_flags``).  A prefix u_{j-1} = s_1...s_{j-1} of a
reduced word is its own Demazure product, so
delta(s \\ j) = u_{j-1} * s_{j+1} * ... * s_l, and with r_l = w,
r_{j-1} = r_j <| s_j the criterion delta(s \\ j) >= w reads r_j <= u_{j-1}.
One downward suffix fold of w serves every position: where s_j is an ascent
of r_j the criterion holds with no further work, and elsewhere r_j folds
down the prefix to e or not.  The ordinary product, which is at most the
Demazure product, is folded only where the Demazure criterion holds.  The
folds and walks run on the lane forms that elements carry
(``WeylElement.lanes``), through the lane helpers of ``weyl``; this module
reads no coordinate of a point, and past the signed pass's ascent test, the
top bit of a lane, it uses a lane form only as an opaque key.

The Schubert variety at the same fixed point adds the fixed weight set
-(Phi^+ \\ I(x^{-1})) to whatever the Kazhdan-Lusztig verdicts give, and the
G/P case reduces to G/B once both elements are minimal coset representatives.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import (
    ExponentOutsideCone,
    LetterOutOfRange,
    NotBelow,
    NotMember,
    NotMinimalCosetRep,
    NotReduced,
    WrongType,
)
from .rootsys import Root, RootSystem, height, negate
from .rt_ring import LaurentPoly, TruncatedSeries, WeightVector, _packed_spread, _Packing, in_nonneg_integer_span
from .subword import _check_word, hecke_subwords
from .weyl import (
    GammaSequence,
    WeylElement,
    Word,
    _check_element,
    _gamma_sequence,
    _identity_lane_columns,
    _inverse_lanes,
    _lane_columns_times,
    _lane_fold,
    _lane_leq,
    _lane_lowered,
    _lane_reaches_identity,
    _lane_reflect,
    _peel,
    bruhat_leq,
    canonical_reduced_word,
    gamma_sequence,
    has_right_ascent,
    inversion_set_of_inverse,
    is_min_coset_rep,
    right_multiply_simple,
    word_to_element,
)


class Verdict(enum.Enum):
    IN = "In"
    OUT = "Out"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class Evidence:
    """Raw facts behind a verdict.

    demazure_ok:  delta(s with position j deleted) >= w, the criterion that
                  decides tangency at integrally indecomposable positions.
    ordinary_product_ok:  s_1...s^_j...s_l >= w, the invariant-curve (TE)
                  criterion, which decides everything in type A.
    cone_coefficient:  coefficient of e^{-gamma_j} in the tangent-cone
                  character, populated for decomposable weights on request;
                  it carries no tangent-space meaning there.  It counts the
                  vector partitions k of gamma_j over the gammas with
                  delta(s minus the positions of supp k) >= w.
    """

    indecomposable: bool
    demazure_ok: bool
    ordinary_product_ok: bool
    cone_coefficient: int | None = None


@dataclass(frozen=True)
class WeightStatus:
    position: int
    gamma: Root
    verdict: Verdict
    evidence: Evidence


@dataclass(frozen=True)
class TangentReport:
    """Per-weight verdicts for one Kazhdan-Lusztig / Schubert variety at x."""

    x_word: Word
    w: WeylElement
    gamma: GammaSequence
    statuses: tuple[WeightStatus, ...]
    kl_tangent_weights: frozenset[Root]
    schubert_extra_weights: frozenset[Root]
    complete: bool
    parabolic: frozenset[int] | None = None


def _suffix_floors(rs: RootSystem, w: WeylElement, letters: Word) -> list[WeylElement]:
    """[r_m, r_{m-1}, ..., r_0] for letters a_1..a_m: r_m = w and r_{k-1} = r_k <| a_k.

    The downward fold of w along the letters read backwards.  By the lemma of
    ``_position_flags``, w <= u * a_{k+1} * ... * a_m iff r_k <= u.
    """
    floors = [w]
    for letter in reversed(letters):
        r = floors[-1]
        floors.append(r if has_right_ascent(r, letter) else right_multiply_simple(rs, r, letter))
    return floors


def _position_flags(rs: RootSystem, w: WeylElement, s: Word, positions) -> list[tuple[bool, bool]]:
    """(delta(s \\ j) >= w, s_1...s^_j...s_l >= w) for each j in positions, in order.

    s is a reduced word of some x, its letters already validated, the
    positions ascend, and w <= x = delta(s): every caller checks this, and
    the shortcut below rests on it.  Write v <| t for vt when t is a right
    descent of v and for v otherwise, and u * t for the longer of u and ut.

    Lemma: w <= u * t iff w <| t <= u.  Deodhar's Z-property, a consequence
    of the lifting property (Bjorner-Brenti, Prop. 2.2.7), says: if vt < v
    and w't < w', then w' <= v iff w't <= vt iff w't <= v.  If wt < w, take
    v = u * t (then vt < v) and w' = w: w <= u * t iff wt <= u, read off the
    first equivalence when u * t = ut and off the second when u * t = u.  If
    wt > w, then w <| t = w; when u * t = u there is nothing to prove, and
    when u * t = ut take w' = wt, v = ut: w <= ut iff w <= u by the last
    equivalence.

    The prefix u_{j-1} = s_1...s_{j-1} is reduced, so it is its own
    Demazure product and delta(s \\ j) = u_{j-1} * s_{j+1} * ... * s_l.
    Peeling the suffix off w, r_l = w and r_{j-1} = r_j <| s_j, the lemma
    applied l - j times turns delta(s \\ j) >= w into r_j <= u_{j-1}, and
    applied along u_{j-1} = e * s_1 * ... * s_{j-1} it turns that into:
    r_j folds down s_{j-1}, ..., s_1 to e.  The fold stops as soon as the
    length is 0 or exceeds the letters left (``weyl._lane_reaches_identity``).

    Most positions need no fold.  The same lemma at every letter turns
    w <= delta(s) into r_k <= u_k for every k.  Where s_j is an ascent of r_j,
    r_{j-1} = r_j, so r_j <= u_{j-1} and the flag is True.  These are the
    positions outside the reduced subword for w that the suffix fold picks
    (its descent letters, read from the right); the subword property
    (Bjorner-Brenti, Thm 2.2.2) gives the same answer, as s \\ j keeps that
    reduced subword.

    The ordinary product pi_j = s_1...s^_j...s_l is at most the Demazure
    product, so its flag is False wherever the Demazure flag is.  Elsewhere
    pi_j is folded forward from u_{j-1} along s_{j+1}...s_l.  If it has
    length l - 1, the punctured word is reduced, so pi_j is delta(s \\ j),
    already known to be >= w, and no walk is needed; otherwise one Bruhat
    walk decides.  The suffix is folded once, from the first requested
    position; the prefixes, folds and walks run on lane forms and build no
    element.
    """
    positions = tuple(positions)
    if not positions:
        return []
    l = len(s)
    dyn = rs.dynkin
    rows = dyn.lane_rows
    nodes = [letter - 1 for letter in s]
    backwards = nodes[::-1]  # backwards[l - j + 1 :] is s_{j-1}, ..., s_1
    floors = _suffix_floors(rs, w, s[positions[0] :])  # floors[l - j] is r_j
    prefix, folded = dyn.rho, 0  # the lane form of u_folded
    flags = []
    for j in positions:
        prefix, _ = _lane_fold(prefix, 0, nodes[folded : j - 1], rows)
        folded = j - 1
        r = floors[l - j]
        # at an ascent s_j of r_j, r_j = r_{j-1} <= u_{j-1} since w <= delta(s)
        demazure_ok = has_right_ascent(r, s[j - 1]) or _lane_reaches_identity(
            r.lanes, r.length, backwards[l - j + 1 :], j - 1, rows
        )
        ordinary_ok = False
        if demazure_ok:
            pi, length = _lane_fold(prefix, j - 1, nodes[j:], rows)
            ordinary_ok = length == l - 1 or _lane_leq(w.lanes, w.length, pi, length, dyn)
        flags.append((demazure_ok, ordinary_ok))
    return flags


def _validate_pair(rs: RootSystem, w: WeylElement, s: Word) -> WeylElement:
    _check_element(rs, w)
    x = word_to_element(rs, s)
    if x.length != len(s):
        raise NotReduced(f"word {s} is not reduced over {rs.cartan_type}")
    if not bruhat_leq(rs, w, x):
        raise NotBelow("target w is not below x in Bruhat order")
    return x


def _validate_position(s: Word, j: int) -> None:
    if not 1 <= j <= len(s):
        raise LetterOutOfRange(f"position {j} out of range for a word of length {len(s)}")


def _live_points(rs: RootSystem, s: Word, targets) -> list[set[int]]:
    """[L_1, ..., L_l]: after letter k, the pass to the targets keeps only the states at the points of L_k.

    The walk back from the targets: L_l holds their points, and L_{k-1} adds
    to L_k the point v s_k of every v in L_k with s_k a right descent of v.
    Points are lane forms.  The argument is in :func:`_signed_states`.
    """
    rows = rs.dynkin.lane_rows
    live = [{t.lanes for t in targets}]
    for letter in reversed(s[1:]):
        after = live[-1]
        live.append(after | _lane_lowered(after, letter - 1, rows))
    live.reverse()
    return live


def _signed_step(rs: RootSystem, states: list, letter: int, g: int, cap: int, live: set | None = None) -> list:
    """One letter s_k of the pass of :func:`_signed_states`: the states after s_k from those before it.

    ``states`` lists (lane form, length, packed polynomial) triples, ``g``
    is P(gamma_k) and ``cap`` the packed bound.  ``live``, when given, is L_k
    of :func:`_live_points`: a stay copy, a moved or an absorbed state is
    kept only when its lane form is in it.  None keeps every state.  s_k is
    an ascent of a state when the top bit of lane k is set, and the state
    moves on to ``weyl._lane_reflect`` of its lane form: no element is built
    and nothing is checked, as the callers validate s and the pass starts at
    the identity.

    The input list, its triples and their polynomials are left unchanged,
    so words that share a prefix step on from its states alike.  A stay copy
    keeps its polynomial by reference, at a point where s_k is an ascent.
    Moved and absorbed states land only on points where s_k is a descent,
    and no stay copy sits there, so each of their terms is written straight
    into a polynomial the step builds itself; the step writes to no other.
    """
    i, rows = letter - 1, rs.dynkin.lane_rows
    top = 0x80 << (i << 3)
    nxt: dict[int, tuple] = {}  # lane form -> (lane form, length, polynomial)
    for q, length, poly in states:
        # Nothing moves onto an ascent state: q keeps poly,
        # and poly * (e^{-gamma} - 1) moves on to q s_k.
        ascent = q & top
        if ascent:
            if live is None or q in live:
                nxt[q] = (q, length, poly)
            q = _lane_reflect(q, i, rows)
            length += 1
        if live is not None and q not in live:
            continue
        entry = nxt.get(q)
        if entry is None:
            entry = nxt[q] = (q, length, {})
        acc = entry[2]
        if ascent:
            for e, c in poly.items():
                acc[e] = acc.get(e, 0) - c
        # At a descent, H_u H_{s_k} = H_u: skipping plus taking leaves poly * e^{-gamma}.
        for e, c in poly.items():
            if (p := e + g) < cap:
                acc[p] = acc.get(p, 0) + c
    out = []
    for q, length, poly in nxt.values():
        if not q & top:  # built here: drop the terms that cancelled
            poly = {e: c for e, c in poly.items() if c}
        if poly:
            out.append((q, length, poly))
    return out


def _signed_states(
    rs: RootSystem,
    s: Word,
    gammas: tuple[Root, ...],
    bound: int,
    targets: tuple[WeylElement, ...] | None = None,
) -> tuple[_Packing, dict[int, tuple[int, dict[int, int]]]]:
    """(packing, u -> (l(u), sum over the subsequences t of s with delta(t) = u of prod_{i in t} -(1 - e^{-gamma_i}))).

    Each u is keyed by its lane form (``WeylElement.lanes``).

    The signed-count pass of :func:`kltangent.hecke.demazure_signed_counts`
    with a Laurent polynomial on every state: taking letter k moves u to
    H_u H_{s_k} and multiplies by e^{-gamma_k} - 1, skipping it keeps both.
    Then P_{u,s} = (-1)^{l(u)} state[u].  The pass folds :func:`_signed_step`
    over the letters of s.  Each polynomial maps the packed
    exponents P(nu) of ``_Packing(rank, bound)`` to coefficients, so
    multiplying by e^{-gamma_k} adds P(gamma_k) to every key; terms of
    height past the bound are dropped, which is exact below the bound
    because exponents only go down; a negative bound drops the identity's
    term 1 as well.  With bound = sum_i height(gamma_i) no term is dropped.
    Letters must already be validated.

    ``targets`` None keeps every state.  Given a nonempty tuple of distinct
    targets, the pass keeps after letter k only the states at the points of
    L_k (:func:`_live_points`), the walk back from the targets, and returns
    exactly the targets with a nonzero class after the last letter, where
    L_l holds the targets alone.  Two facts make this right and cheap.

    The step reads only v and v s_k.  After letter k the state at v is the
    state of v before it when s_k is an ascent of v: nothing moves onto an
    ascent, since a state u with ascent s_k moves to u s_k, of which s_k is
    a descent.  When s_k is a descent of v, it is the absorbed state of v
    plus the state that moves on from v s_k, the only other u with
    u * s_k = v.  So the states at L_k read only states at L_{k-1}, and by
    induction from the first letter each kept state is that of the full pass.

    Every live set lies inside [r_k(w), w] for some target w, where r_l = w
    and r_{k-1} = r_k <| s_k (``_suffix_floors``).  L_l holds the targets;
    take v in L_k with r_k <= v <= w.  Then r_{k-1} <= r_k <= v.  If s_k is
    a descent of v, then v s_k < v <= w, and the lemma of
    ``_position_flags`` at u = v s_k, where u * s_k = v, turns r_k <= v into
    r_{k-1} <= v s_k.  The rest of the word takes a state u after letter k
    only to products u * t' with t' a subword of s_{k+1}...s_l, each between
    u and u * s_{k+1} * ... * s_l, so u reaches w only if u <= w and, by the
    same lemma, r_k <= u: the pass keeps no state outside the intervals
    where one can still reach a target, and no Bruhat comparison names them.
    """
    packing = _Packing(rs.rank, max(bound, 0))
    cap = packing.cap(bound)
    lives = _live_points(rs, s, targets) if targets else [None] * len(s)
    states = [(rs.dynkin.rho, 0, {0: 1} if bound >= 0 else {})]
    for letter, gamma, live in zip(s, gammas, lives):
        states = _signed_step(rs, states, letter, packing.pack(gamma), cap, live)
    return packing, {q: (length, poly) for q, length, poly in states}


def _class_fold(rs: RootSystem):
    """(packing, start, step) of the signed K-class pass with no targets, shared by every reduced word of rs.

    A state is (columns, pass states): the columns x(alpha_j) of the prefix
    x in signed coefficient lanes (``weyl._lane_columns_times``), whose
    column s_k is the key of gamma_k in ``rs.root_by_lanes``, and the states
    of :func:`_signed_step`.
    ``step`` leaves its input state unchanged.  One packing with limit
    sum height(Phi^+) serves every word: that bound is at least the sum of
    the gamma heights of any reduced word, so no term is dropped and P is
    injective, and packed states of two words compare as their classes do.
    """
    bound = sum(map(height, rs.positive_roots))
    packing = _Packing(rs.rank, bound)
    cap = packing.cap(bound)
    packed = {lanes: packing.pack(beta) for lanes, beta in rs.root_by_lanes.items()}
    root_links = rs.dynkin.root_links

    def step(state, letter):
        columns, states = state
        i = letter - 1
        return _lane_columns_times(columns, i, root_links), _signed_step(rs, states, letter, packed[columns[i]], cap)

    start = (_identity_lane_columns(rs.rank), [(rs.dynkin.rho, 0, {0: 1})])
    return packing, start, step


def _signed_class(length: int, state: dict[int, int], exponents) -> LaurentPoly:
    """P_{u,s} from the pass's state of u, of this length; ``exponents`` lists the exponent of each key of state."""
    sign = -1 if length % 2 else 1
    return LaurentPoly._of(dict(zip(exponents, [sign * c for c in state.values()])))


def kclass_restriction(rs: RootSystem, w: WeylElement, s: Word) -> LaurentPoly:
    """P_{w,s}: the Schubert class restricted to the fixed point of s.

    Signed sum over all Hecke subwords for w inside s of the products
    prod_{i in t} (1 - e^{-gamma_i}), computed in one pass over s that keeps
    a Laurent polynomial per Hecke state, but after letter k only at the
    points that a walk back from w collects (``_live_points``), all in
    [r_k(w), w] (``_signed_states``).
    Independent of the reduced word chosen for the same x, as an identity of
    Laurent polynomials.  Words longer than 20 letters are refused
    (LengthBoundExceeded).
    """
    gammas = _gamma_sequence(rs, _validate_pair(rs, w, s), s).gammas
    _check_word(rs, s)
    packing, states = _signed_states(rs, s, gammas, sum(map(height, gammas)), (w,))
    _, state = states.get(w.lanes, (0, {}))  # only w is decoded
    return _signed_class(w.length, state, packing.exponents(state)) if state else LaurentPoly.zero()


def kclass_restrictions(rs: RootSystem, s: Word) -> dict[WeylElement, LaurentPoly]:
    """{u: P_{u,s}} for every u <= delta(s) whose class is nonzero, from one pass over s.

    Same values as :func:`kclass_restriction` for each u; the word must be
    reduced and at most 20 letters long.  The states share most of their
    exponents, so the union of their keys is decoded once.
    """
    gammas = gamma_sequence(rs, s).gammas  # raises NotReduced
    _check_word(rs, s)
    packing, states = _signed_states(rs, s, gammas, sum(map(height, gammas)))
    keys = set().union(*(state for _, state in states.values()))
    exponent = dict(zip(keys, packing.exponents(keys)))
    return {
        WeylElement(q, length, rs.dynkin): _signed_class(length, state, map(exponent.__getitem__, state))
        for q, (length, state) in states.items()
    }


def is_explicit_factor(rs: RootSystem, j: int, w: WeylElement, s: Word, method: str = "demazure") -> bool:
    """Does 1 - e^{-gamma_j} appear in every summand of P_{w,s}?

    ``method="demazure"`` evaluates NOT(delta(s \\ j) >= w) by ``_position_flags``:
    the suffix fold, then at most one backward fold and one Bruhat walk;
    ``method="enumerate"`` checks j in t for every Hecke subword t, and exists
    as the slow verification oracle for the fast path.
    """
    _validate_position(s, j)
    _validate_pair(rs, w, s)
    if method == "demazure":
        return not _position_flags(rs, w, s, (j,))[0][0]
    if method == "enumerate":
        return all(j in sub.indices for sub in hecke_subwords(rs, w, s))
    raise ValueError(f"unknown method {method!r}")


def is_integrally_indecomposable(alpha: Root, phi) -> bool:
    """Is alpha NOT a nonnegative-integer combination of the other weights?

    phi is the ambient weight set (positive roots); NotMember if alpha is not
    in it.  Searching is exact: every candidate summand has height >= 1, so
    coefficients are bounded by height(alpha).
    """
    phi = frozenset(tuple(v) for v in phi)
    alpha = tuple(alpha)
    if alpha not in phi:
        raise NotMember(f"{alpha} is not in the ambient weight set")
    others = [v for v in phi if v != alpha]
    if not others:
        return True
    return not in_nonneg_integer_span(others, alpha)


def _indecomposable_inversions(inversions: frozenset[Root]) -> frozenset[Root]:
    """The integrally indecomposable roots of an inversion set I = I(x^{-1}), in O(|I|^2) int additions.

    Same answer as ``is_integrally_indecomposable(gamma, inversions)`` for
    each gamma in I, with no search.  If a root alpha is a sum of k >= 2
    positive roots beta_i, then (alpha, alpha) = sum (alpha, beta_i) > 0, so
    some (alpha, beta_i) > 0 and alpha - beta_i is a positive root, the sum of
    the other beta's.  I holds every positive root in its nonnegative span
    (one Weyl group element sends every root of I, hence every positive root
    of the span, to a negative root), so gamma is decomposable over
    I \\ {gamma} iff gamma - beta lies in I for some beta in I, that is iff
    gamma = beta + beta' for two roots of I, distinct because 2 beta is not a
    root.

    Each root is packed once as the int whose little-endian bytes are its
    coefficients.  No positive-root coefficient exceeds 6 (the highest root
    of E8), so a sum of two packed roots is at most 12 in every byte and
    never carries: P(beta) + P(beta') = P(beta + beta'), and P is injective.
    gamma is decomposable iff P(gamma) is such a sum.
    """
    packed = {gamma: int.from_bytes(bytes(gamma), "little") for gamma in inversions}
    sums = {p + q for p, q in combinations(packed.values(), 2)}
    return frozenset(gamma for gamma, p in packed.items() if p not in sums)


def _cone_series_by_target(
    rs: RootSystem,
    targets: tuple[WeylElement, ...],
    s: Word,
    gammas: tuple[Root, ...],
    bound: int,
) -> dict[WeylElement, TruncatedSeries]:
    """{w: P_{w,s} / prod_i (1 - e^{-gamma_i}) up to the height bound} for distinct targets w, from one pass.

    Each series is spread from the packed state of its target; the pass
    drops every term past the bound, which the series would drop anyway.
    The empty word (x = e) has no gammas: its series is the class 1 itself,
    empty when the bound is negative.
    """
    _check_word(rs, s)
    packing, states = _signed_states(rs, s, gammas, bound, targets)
    out = {}
    for w in targets:
        state = states.get(w.lanes, (0, {}))[1]
        if w.length % 2:
            state = {p: -c for p, c in state.items()}
        out[w] = _packed_spread(packing, state, gammas, bound)
    return out


def _partition_supports(parts: list[tuple[int, int]], mu: int, guard: int) -> dict[int, int]:
    """{support bitmask of k: number of k} over the vector partitions mu = sum_i k_i gamma_i, k_i >= 0.

    ``parts`` lists (bit of gamma_i, P(gamma_i)) in descending height, where
    P(nu) is the int whose little-endian bytes are the coefficients of nu,
    and ``mu`` is P(mu).  No root coefficient exceeds 6, so the remainder is
    kept with the guard bit 0x80 set in every byte: subtracting P(gamma_i)
    never borrows across a byte, and every guard bit survives exactly when
    gamma_i is at most the remainder in every coordinate.  Each partition
    takes its parts in the order listed, so it is met once, and the tallest
    parts go first, which leaves the fewest dead ends.
    """
    parts = [(bit, p) for bit, p in parts if (mu + guard - p) & guard == guard]
    counts: dict[int, int] = {}

    def spend(first: int, rest: int, support: int) -> None:
        if rest == guard:
            counts[support] = counts.get(support, 0) + 1
            return
        for bit, p in parts[first:]:
            first += 1
            rest_i = rest - p
            while rest_i & guard == guard:
                spend(first, rest_i, support | bit)
                rest_i -= p

    spend(0, mu + guard, 0)
    return counts


def _cone_coefficients(
    rs: RootSystem, w: WeylElement, s: Word, gammas: tuple[Root, ...], positions
) -> dict[int, int]:
    """{j: coefficient of e^{-gamma_j} in Char C = P_{w,s} / prod_i (1 - e^{-gamma_i})} for the positions j.

    No polynomial is built.  Graham's formula writes P_{w,s} as the sum over
    the Hecke subwords t of s with delta(t) = w of
    (-1)^{|t| - l(w)} prod_{i in t} (1 - e^{-gamma_i}), so

        Char C = sum_t (-1)^{|t| - l(w)} prod_{i not in t} 1 / (1 - e^{-gamma_i}),

    and expanding each 1 / (1 - e^{-gamma_i}) = sum_{k_i >= 0} e^{-k_i gamma_i}
    makes the coefficient at -mu the sum, over the vector partitions
    mu = sum_i k_i gamma_i, of the signed count of the t that avoid the
    support of k.  Those t are the Hecke subwords for w of the word q = s
    with the support deleted, and by the Euler identity of Knutson-Miller
    (``subword.euler_signed_sum``) their signed count is 1 when
    w <= delta(q) and 0 (an empty sum) otherwise, for any word q, reduced or
    not.  So the coefficient at -mu counts the vector partitions k of mu with
    w <= delta(s minus supp k).

    The partitions are listed by :func:`_partition_supports`, and each
    distinct support is decided once.  By the lemma of ``_position_flags``
    applied at every letter, w <= delta(q) iff folding w down q read
    backwards (r <| s_k at each letter) reaches e.  Each letter lowers the
    length by at most one, so the fold stops as soon as the length is 0
    (True) or exceeds the letters left (False); the Demazure flags of
    :func:`_position_flags` run the same fold (``weyl._lane_reaches_identity``),
    on the lanes of w.  At an indecomposable
    gamma_j the only partition is gamma_j itself, and the coefficient is the
    Demazure flag of position j.  Letters must already be validated.
    """
    rows = rs.dynkin.lane_rows
    guard = int.from_bytes(b"\x80" * rs.rank, "little")
    packed = [int.from_bytes(bytes(gamma), "little") for gamma in gammas]
    parts = [(1 << i, packed[i]) for i in sorted(range(len(s)), key=lambda i: -height(gammas[i]))]
    backwards = [(1 << k, letter - 1) for k, letter in reversed(list(enumerate(s)))]
    decided: dict[int, bool] = {}

    def reaches_identity(support: int) -> bool:
        kept = (i for bit, i in backwards if not support & bit)
        return _lane_reaches_identity(w.lanes, w.length, kept, len(s) - support.bit_count(), rows)

    out = {}
    for j in positions:
        supports = _partition_supports(parts, packed[j - 1], guard)
        for support in supports.keys() - decided.keys():
            decided[support] = reaches_identity(support)
        out[j] = sum(count for support, count in supports.items() if decided[support])
    return out


def tangent_cone_series(rs: RootSystem, w: WeylElement, s: Word, bound: int) -> TruncatedSeries:
    """The tangent-cone character Char C = P_{w,s} / prod_i (1 - e^{-gamma_i}).

    Expanded as a height-truncated series: every coefficient at an exponent
    -mu with height(mu) <= bound is exact (by the height grading), so one
    series answers every position j with height(gamma_j) <= bound.  Words
    longer than 20 letters are refused (LengthBoundExceeded).
    """
    gammas = _gamma_sequence(rs, _validate_pair(rs, w, s), s).gammas
    return _cone_series_by_target(rs, (w,), s, gammas, bound)[w]


def tangent_cone_coefficient(rs: RootSystem, lam: WeightVector, w: WeylElement, s: Word) -> int:
    """Exact coefficient of e^{lam} in the tangent-cone character Char C.

    Read from :func:`tangent_cone_series` with bound height(-lam).  For an
    integrally indecomposable gamma_j, the coefficient at -gamma_j is 1 when
    1 - e^{-gamma_j} is not an explicit factor and 0 when it is; for
    decomposable weights the integer is returned raw, with no tangent-space
    meaning attached.  ExponentOutsideCone unless -lam lies in the
    nonnegative integer span of the gammas.
    """
    gammas = _gamma_sequence(rs, _validate_pair(rs, w, s), s).gammas
    mu = negate(tuple(lam))
    if len(mu) != rs.rank or min(mu) < 0 or not in_nonneg_integer_span(gammas, mu):
        raise ExponentOutsideCone(f"-({lam}) is outside the cone of the ambient weights")
    return _cone_series_by_target(rs, (w,), s, gammas, height(mu))[w].coefficient(tuple(lam))


def _statuses(
    rs: RootSystem,
    w: WeylElement,
    s: Word,
    gammas: tuple[Root, ...],
    positions,
    use_type_a_oracle: bool,
    include_cone: bool,
) -> tuple[WeightStatus, ...]:
    """The status of gamma_j at each of the ascending positions j of s, whose gammas list I(x^{-1}).

    In iff delta(s \\ j) >= w where gamma_j is integrally indecomposable in
    I(x^{-1}); elsewhere Undetermined, or the ordinary-product verdict when
    ``use_type_a_oracle`` is set in type A.  The flags take one downward
    fold of w from the first requested position.  When ``include_cone``
    asks for the cone coefficients of the decomposable positions, they are
    counted by :func:`_cone_coefficients` over the vector partitions of
    each gamma_j, with no K-class pass and no series; a word of more than
    20 letters is still refused (LengthBoundExceeded) there.
    """
    indecomposables = _indecomposable_inversions(frozenset(gammas))
    cones = {}
    if include_cone:
        decomposables = [j for j in positions if gammas[j - 1] not in indecomposables]
        if decomposables:
            _check_word(rs, s)
            cones = _cone_coefficients(rs, w, s, gammas, decomposables)
    type_a = use_type_a_oracle and rs.cartan_type.family == "A"
    statuses = []
    for j, (demazure_ok, ordinary_ok) in zip(positions, _position_flags(rs, w, s, positions)):
        gamma_j = gammas[j - 1]
        indecomposable = gamma_j in indecomposables
        if indecomposable:
            verdict = Verdict.IN if demazure_ok else Verdict.OUT
        elif type_a:
            verdict = Verdict.IN if ordinary_ok else Verdict.OUT
        else:
            verdict = Verdict.UNDETERMINED
        evidence = Evidence(indecomposable, demazure_ok, ordinary_ok, cones.get(j))
        statuses.append(WeightStatus(j, gamma_j, verdict, evidence))
    return tuple(statuses)


def kl_tangent_membership(
    rs: RootSystem,
    j: int,
    w: WeylElement,
    s: Word,
    include_cone_coefficient: bool = True,
) -> WeightStatus:
    """Verdict for gamma_j as a weight of the Kazhdan-Lusztig tangent space.

    In iff delta(s \\ j) >= w when gamma_j is integrally indecomposable in
    I(x^{-1}); Undetermined otherwise, with all evidence populated (including
    the tangent-cone coefficient unless switched off).
    """
    _validate_position(s, j)
    gammas = _gamma_sequence(rs, _validate_pair(rs, w, s), s).gammas
    (status,) = _statuses(rs, w, s, gammas, (j,), False, include_cone_coefficient)
    return status


def te_curve_weights(rs: RootSystem, w: WeylElement, s: Word) -> frozenset[Root]:
    """Weights spanned by torus-invariant curves: ordinary-product criterion.

    {gamma_j : s_1...s^_j...s_l >= w}, with no indecomposability restriction;
    always a subset of the tangent weights.
    """
    gammas = _gamma_sequence(rs, _validate_pair(rs, w, s), s).gammas
    flags = _position_flags(rs, w, s, range(1, len(s) + 1))
    return frozenset(gamma for gamma, (_, ordinary_ok) in zip(gammas, flags) if ordinary_ok)


def type_a_tangent_oracle(rs: RootSystem, j: int, w: WeylElement, s: Word) -> bool:
    """Full tangent membership in type A: ordinary product deleted at j is >= w.

    Valid for every position (no indecomposability hypothesis); WrongType
    outside family A.  Serves as the independent oracle for the Demazure
    criterion at indecomposable positions.
    """
    if rs.cartan_type.family != "A":
        raise WrongType(f"type-A oracle called on {rs.cartan_type}")
    _validate_position(s, j)
    _validate_pair(rs, w, s)
    return _position_flags(rs, w, s, (j,))[0][1]


def kl_tangent_report(
    rs: RootSystem,
    w: WeylElement,
    x: WeylElement,
    use_type_a_oracle: bool = False,
    include_cone_evidence: bool = False,
    parabolic: frozenset[int] | None = None,
) -> TangentReport:
    """Run the per-position verdicts over the canonical reduced word of x.

    The verdicts do not depend on which reduced word is chosen.  The report
    also carries the Schubert-variety surplus -(Phi^+ \\ I(x^{-1})) and is
    complete exactly when no position is Undetermined -- always the case when
    x is cominuscule.  ``use_type_a_oracle`` upgrades Undetermined positions
    through the ordinary-product criterion; it is opt-in because it invokes
    the type-A-only classical characterization.
    """
    _check_element(rs, w, x)
    if not bruhat_leq(rs, w, x):
        raise NotBelow("target w is not below x in Bruhat order")
    if use_type_a_oracle and rs.cartan_type.family != "A":
        raise WrongType(f"type-A oracle requested on {rs.cartan_type}")
    inverse = _inverse_lanes(x.lanes, rs.dynkin)  # x(rho): its peel spells s, its pairings check the gammas
    s = tuple(i + 1 for i in _peel(inverse, rs.dynkin))  # the canonical word, as canonical_reduced_word peels it
    gamma = _gamma_sequence(rs, x, s, inverse)
    statuses = _statuses(rs, w, s, gamma.gammas, range(1, len(s) + 1), use_type_a_oracle, include_cone_evidence)
    kl_weights = frozenset(st.gamma for st in statuses if st.verdict is Verdict.IN)
    inversions = frozenset(gamma.gammas)  # _gamma_sequence checked it equal to I(x^{-1})
    extra = frozenset(negate(beta) for beta in rs.positive_roots if beta not in inversions)
    complete = all(st.verdict is not Verdict.UNDETERMINED for st in statuses)
    return TangentReport(
        x_word=s,
        w=w,
        gamma=gamma,
        statuses=statuses,
        kl_tangent_weights=kl_weights,
        schubert_extra_weights=extra,
        complete=complete,
        parabolic=parabolic,
    )


def gp_tangent_report(
    rs: RootSystem,
    w: WeylElement,
    x: WeylElement,
    parabolic,
    use_type_a_oracle: bool = False,
    include_cone_evidence: bool = False,
) -> TangentReport:
    """Tangent report in G/P: identical verdicts, minimal-coset-rep preconditions.

    Both w and x must be the minimal-length representatives of their cosets
    modulo the parabolic generated by the given nodes; the Kazhdan-Lusztig
    variety in G/P is then isomorphic to the one in G/B, so the verdict
    computation is unchanged and the report is tagged with the parabolic.
    """
    pset = frozenset(parabolic)
    for xx, name in ((x, "x"), (w, "w")):
        if not is_min_coset_rep(rs, xx, pset):
            raise NotMinimalCosetRep(f"{name} is not a minimal coset representative")
    return kl_tangent_report(
        rs,
        w,
        x,
        use_type_a_oracle=use_type_a_oracle,
        include_cone_evidence=include_cone_evidence,
        parabolic=pset,
    )


def cominuscule_witness(rs: RootSystem, x: WeylElement) -> tuple[Fraction, ...] | None:
    """A coweight v with <gamma, v> = -1 for all gamma in I(x^{-1}), or None.

    v is in the basis dual to the simple roots.  Along the canonical word, the
    condition at gamma_i forces v_{s_i} = -1 - sum_{k<i} A[s_i][s_k] once the
    earlier ones hold: x is cominuscule iff repeated letters are forced alike.
    """
    _check_element(rs, x)
    forced: dict[int, int] = {}
    need = [-1] * rs.rank  # -1 - <alpha_r, the coroots of the letters read so far>
    for letter in canonical_reduced_word(rs, x):
        i = letter - 1
        if forced.setdefault(i, need[i]) != need[i]:
            return None
        need = [n - row[i] for n, row in zip(need, rs.cartan_matrix)]
    witness = tuple(Fraction(forced.get(i, 0)) for i in range(rs.rank))
    if not all(sum(c * v for c, v in zip(g, witness)) == -1 for g in inversion_set_of_inverse(rs, x)):
        raise AssertionError(f"witness {witness} is not -1 on every inversion")
    return witness


def is_cominuscule_element(rs: RootSystem, x: WeylElement) -> bool:
    """True iff some coweight evaluates to -1 on every inversion of x^{-1}."""
    return cominuscule_witness(rs, x) is not None


def element_to_permutation(rs: RootSystem, x: WeylElement) -> tuple[int, ...]:
    """One-line notation of x acting on 1..n+1 in type A_n (WrongType else).

    The convention matches the root action: x sends eps_j to eps_{pi(j)}.
    """
    if rs.cartan_type.family != "A":
        raise WrongType(f"permutations only exist in type A, not {rs.cartan_type}")
    _check_element(rs, x)
    p = list(range(1, rs.rank + 2))
    for letter in canonical_reduced_word(rs, x):
        p[letter - 1], p[letter] = p[letter], p[letter - 1]
    return tuple(p)


def type_a_cominuscule_oracle(n: int, perm) -> bool:
    """321-avoidance of a permutation of n+1 letters (1-based one-line form).

    Cominuscule elements of the type A_n Weyl group are exactly the
    permutations with no decreasing subsequence of length three.
    """
    p = tuple(perm)
    if sorted(p) != list(range(1, n + 2)):
        raise WrongType(f"{perm!r} is not a permutation of 1..{n + 1}")
    m = len(p)
    for j in range(m):  # is p[j] the middle entry of a decreasing triple?
        if max(p[:j], default=0) > p[j] and min(p[j + 1 :], default=m + 1) < p[j]:
            return False
    return True
