"""Exhaustive desk-scale verification suites.

Each suite sweeps a stated range of inputs, re-checks one exact identity
through the public operations, and returns a :class:`VerifyOutcome` with the
case count and any failures.  At these group sizes the sweeps are not spot
checks: they cover every element, every reduced word and every Bruhat
interval in range, so a green suite is a finite proof for that range.

Every sweep that folds words letter by letter over the group table visits
them in lexicographic order and steps once per letter past the common
prefix with the previous word (:func:`_prefix_folds`): the K-class pass of
``kclass-well-defined``, the signed counts of ``euler-identity``, the face
sets of an exhaustive ``ball-sphere`` run, and the subword products behind
``hecke-subword-equivalence`` and ``weyl-basics``
(:func:`_subword_products`).  The reduced words of a whole group, the words
of at most l letters and the canonical words are each closed under
prefixes, so such a sweep steps each node of their prefix tree once instead
of every word from e, and records its failures in that word order.  Sampled
``ball-sphere`` draws share few prefixes; each folds its word on its own,
keeping per letter only the elements that a backward walk from its target
names.

:func:`run_battery` schedules the suites for one Cartan type and times each
run; a suite called on its own leaves ``seconds`` at 0.0.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import product
from operator import itemgetter

from .rootsys import RootSystem, build_root_system, cominuscule_nodes, height, negate, root_from_epsilon
from .rt_ring import LaurentPoly
from .subword import _ENUM_LETTERS_BOUND
from .tangent import (
    Verdict,
    _class_fold,
    _cone_series_by_target,
    _position_flags,
    element_to_permutation,
    is_cominuscule_element,
    is_explicit_factor,
    is_integrally_indecomposable,
    kclass_restriction,
    kl_tangent_membership,
    kl_tangent_report,
    type_a_cominuscule_oracle,
    type_a_tangent_oracle,
)
from .weyl import (
    GroupTable,
    _bits,
    bruhat_leq,
    canonical_reduced_word,
    gamma_sequence,
    group_table,
    inverse,
    inversion_set_of_inverse,
    is_min_coset_rep,
    multiply,
    right_descents,
    right_multiply_simple,
    word_to_element,
)

_FAILURE_CAP = 50
_EXHAUSTIVE_ORDER_MAX = 48  # full (x, word, w) sweeps up to this |W|
_CONE_EXHAUSTIVE_ORDER_MAX = 24  # full (x, w) sweeps of the cone mechanism up to this |W|
_SAMPLED_CASES = 1_000  # random cases per sampled suite above those orders
_WORD_LENGTH_MAX = 6  # words swept by the weyl-basics and hecke-subword suites


@dataclass(frozen=True)
class VerifyConfig:
    """Knobs for the battery orchestrator (`kltangent verify <type>`)."""

    random_cases: int = 500
    seed: int = 2_718_281


@dataclass
class VerifyOutcome:
    suite: str
    cases: int = 0
    failures: list = field(default_factory=list)
    seconds: float = 0.0  # the suite's wall time, set by run_battery; 0.0 when a suite is called directly

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, **failure) -> None:
        if len(self.failures) < _FAILURE_CAP:
            self.failures.append(failure)
        elif len(self.failures) == _FAILURE_CAP:
            self.failures.append({"note": "failure list truncated"})


def _random_reduced_word(gt: GroupTable, idx: int, rng: random.Random):
    """A reduced word of x from random left descents, peeled as right descents of x^{-1}."""
    rs = gt.rs
    y = inverse(rs, gt.elements[idx])
    word = []
    while y.length:
        i = rng.choice(sorted(right_descents(rs, y)))
        word.append(i)
        y = right_multiply_simple(rs, y, i)
    return tuple(word)


def _cases(gt: GroupTable, sample: int | None, seed: int, all_words: bool = True):
    """The (x, reduced word for x, targets w <= x) groups a suite checks, as (index, word, indices).

    A suite does the work that depends on the word alone once per group.
    With ``sample`` None: one group per x and reduced word of x (only the
    canonical one when ``all_words`` is false), holding every w <= x.
    Otherwise ``sample`` random draws of one target each, in this order per
    draw: x among the elements of at most ``_ENUM_LETTERS_BOUND`` letters (the
    subword guard), a random reduced word (only when ``all_words``), then w <= x.
    Each x's targets are listed once per call, on its first draw.
    """
    masks = gt.leq_masks()
    if sample is None:
        for idx in range(len(gt.elements)):
            words = gt.reduced_words_of(idx) if all_words else (gt.word_of(idx),)
            below = tuple(_bits(masks[idx]))
            for word in words:
                yield idx, word, below
        return
    rng = random.Random(seed)
    pool = [idx for idx, length in enumerate(gt.length) if length <= _ENUM_LETTERS_BOUND]
    below_of: dict[int, list[int]] = {}  # x id -> the ids w <= x, lowest first
    for _ in range(sample):
        idx = pool[rng.randrange(len(pool))]
        word = _random_reduced_word(gt, idx, rng) if all_words else gt.word_of(idx)
        if idx not in below_of:
            below_of[idx] = list(_bits(masks[idx]))
        yield idx, word, (rng.choice(below_of[idx]),)


def _prefix_folds(groups, start, step):
    """Yield (group, state) for (x id, word, target ids) groups, in lexicographic order of their words.

    state is ``step`` folded over the letters of the word from ``start``.  A
    stack keeps the state after each prefix of the previous word, so only the
    letters past the common prefix are stepped; ``step`` must leave its input
    state unchanged, since later words step on from it too.  Groups with
    equal words keep their order.  Over a prefix-closed set of words, such as
    the reduced words of a whole group, each node of the prefix tree is
    stepped once.
    """
    stack = [start]  # stack[k]: the state after the first k letters of word
    word: tuple[int, ...] = ()
    for group in sorted(groups, key=itemgetter(1)):
        nxt = group[1]
        keep = 0
        for a, b in zip(word, nxt):
            if a != b:
                break
            keep += 1
        del stack[keep + 1 :]
        for letter in nxt[keep:]:
            stack.append(step(stack[-1], letter))
        word = nxt
        yield group, stack[-1]


def _indecomposable_positions(rs: RootSystem, gt: GroupTable):
    """(x id, reduced word of x) -> (the word's gammas, the positions j with gamma_j indecomposable).

    Indecomposable means integrally indecomposable in I(x^{-1}), decided by
    the exact span search once per x.
    """
    memo: dict[int, frozenset] = {}  # x id -> the integrally indecomposable roots of I(x^{-1})

    def positions(idx: int, word) -> tuple[tuple, list[int]]:
        if idx not in memo:
            inversions = inversion_set_of_inverse(rs, gt.elements[idx])
            memo[idx] = frozenset(g for g in inversions if is_integrally_indecomposable(g, inversions))
        gammas = gamma_sequence(rs, word).gammas
        return gammas, [j for j, gamma_j in enumerate(gammas, start=1) if gamma_j in memo[idx]]

    return positions


def _subword_products(gt: GroupTable, words):
    """Yield (word, the bitmask of the w with a reduced word among the subwords of word), in lexicographic order.

    The fold holds the set of (product of t, |t|) over the subwords t: the
    pairs of s.a are those of s (t skips a) and each of them carried through
    ``gt.rmult`` with one more letter (t takes a).  A pair (w, l(w)) is a
    reduced subword for w.  :func:`_prefix_folds` steps each word only past
    the prefix it shares with the previous one, so over a prefix-closed list
    (every word of at most l letters, or the canonical words of a group) each
    word's set is built once, from its prefix's, with no list of its 2^l
    subwords.
    """
    length = gt.length

    def step(pairs: set, letter: int) -> set:
        row = gt.rmult[letter - 1]
        return pairs | {(row[p], n + 1) for p, n in pairs}

    for (_, word, _), pairs in _prefix_folds(((None, word, None) for word in words), {(gt.identity, 0)}, step):
        yield word, sum(1 << p for p, n in pairs if n == length[p])


def _parity_mask(n: int) -> int:
    """ODD_n: the 2^n-bit set of the position masks below 2^n with an odd number of positions.

    Position b + 1 flips the parity of the masks below 2^b: ODD_{b+1} = ODD_b | ~ODD_b << 2^b.
    """
    odd = 0
    for b in range(n):
        odd |= (odd ^ ((1 << (1 << b)) - 1)) << (1 << b)
    return odd


def _complex_step(gt: GroupTable, state, letter: int, live=None):
    """(l + 1, {w: (F, C, R)}) of s.a from (l, {w: (F, C, R)}) of s, by the recurrences of :func:`ball_sphere_suite`.

    F and C are 2^l-bit sets over the position masks r (bit b of r for
    position b + 1): F holds the faces of Delta(s, w), C the r with r + 2^b
    a face for some position b + 1 not in r, so the facets are F & ~C.  R is
    the number of reduced subwords for w.  An element w not below delta(s)
    has F = 0 and is not stored.  ``live``, when given, lists the elements
    to keep (:func:`_word_complexes`); None keeps every w <= delta(s.a),
    which are those with w <| a <= delta(s): the stored elements u with a an
    ascent, and their products ua.  The input state is left unchanged, so
    words that share a prefix step on from its state alike.
    """
    n, complexes = state
    length, row, shift, nxt = gt.length, gt.rmult[letter - 1], 1 << n, {}
    for u, (f, c, r) in complexes.items():
        up = row[u]
        if length[up] < length[u]:
            continue  # only an ascent u is some v <| a: for v = u and for v = ua
        if live is None or u in live:
            nxt[u] = (f | f << shift, c | f | c << shift, r)
        if live is None or up in live:
            f_up, c_up, r_up = complexes.get(up, (0, 0, 0))
            nxt[up] = (f | f_up << shift, c | f_up | c_up << shift, r_up + r)
    return n + 1, nxt


def _word_complexes(gt: GroupTable, word, targets) -> dict[int, tuple[int, int, int]]:
    """{w: (F, C, R)} of Delta(s, w) for the targets w <= delta(s) of the word s, w a group id.

    One :func:`_complex_step` per letter, each keeping only the elements that
    a backward walk from the targets collects (w and w <| a at each letter a).
    The walk is the one that prunes the signed K-class pass, on group ids:
    :func:`kltangent.tangent._signed_states` proves that a step reads only v
    and v <| a, and that the walk stays inside [r_k(w), w].
    """
    length, rmult = gt.length, gt.rmult
    needed = [set(targets)]  # needed[j]: the elements whose (F, C, R) is read after the first l - j letters
    for letter in reversed(word[1:]):
        row, live = rmult[letter - 1], needed[-1]
        needed.append(live | {row[v] for v in live if length[row[v]] < length[v]})
    state = (0, {gt.identity: (1, 0, 1)})
    for letter, live in zip(word, reversed(needed)):
        state = _complex_step(gt, state, letter, live)
    complexes = state[1]
    return {w: complexes[w] for w in targets if w in complexes}


def _counts_step(dmult, counts: dict, letter: int) -> dict:
    """The signed counts {u: sum over the subsequences t with delta(t) = u of (-1)^|t|} after one more letter.

    A subsequence either skips the letter (its count kept) or takes it (its
    count negated and moved to u * s_k, the Demazure row ``dmult[k - 1]``).
    ``counts`` is left unchanged.
    """
    row, nxt = dmult[letter - 1], dict(counts)
    for u, c in counts.items():
        nxt[row[u]] = nxt.get(row[u], 0) - c
    return nxt


def euler_identity_suite(rs: RootSystem, sample: int | None = None, seed: int = 0) -> VerifyOutcome:
    """Signed Hecke-subword sum equals 1 for every (x, reduced word, w <= x).

    With ``sample`` set, checks that many random (x, w, word) triples instead
    of the full sweep.  The signed counts fold over group ids from {e: 1}
    (:func:`_counts_step`), each prefix stepped once (:func:`_prefix_folds`),
    and the counts of a word serve all its targets.  So failures are recorded
    in lexicographic order of the words, in both modes, and the first
    ``_FAILURE_CAP`` of that order are kept.
    """
    out = VerifyOutcome(f"euler-identity[{rs.cartan_type}]")
    gt = group_table(rs)
    folds = _prefix_folds(_cases(gt, sample, seed), {gt.identity: 1}, partial(_counts_step, gt.dmult))
    for (_, word, w_ids), counts in folds:
        for w_id in w_ids:
            out.cases += 1
            value = (-1) ** (gt.length[w_id] % 2) * counts.get(w_id, 0)
            if value != 1:
                out.record(word=word, w=gt.word_of(w_id), expected=1, got=value)
    return out


def ball_sphere_suite(rs: RootSystem, sample: int | None = None, seed: int = 0) -> VerifyOutcome:
    """Delta(s, w) has the reduced Euler characteristic of a ball or a sphere, and it is pure.

    Faces (:func:`_complex_step`).  Let w <| a = wa when a is a right descent
    of w and w otherwise, so w <= u * a iff w <| a <= u (the lemma behind
    :func:`kltangent.tangent._position_flags`).  For l = |s|:

        F(s.a, w) = F(s, w <| a) | F(s, w) << 2^l,   F((), e) = 1
        C(s.a, w) = C(s, w <| a) | F(s, w) | C(s, w) << 2^l,   C((), e) = 0
        R(s.a, w) = R(s, w) + R(s, w <| a) if a is a right descent of w, else R(s, w)

    A mask r of s.a without the new position keeps a in its complement, whose
    product is delta(s \\ r) * a, so r is a face iff r is in F(s, w <| a); the
    mask r + 2^l has the complement of r in s, so it is a face iff r is in
    F(s, w).  A low mask r is covered through a position of s iff r is in
    C(s, w <| a), and through the new one iff r + 2^l is a face, i.e. r is in
    F(s, w); a high mask is covered only through positions of s.  A reduced
    subword for w takes the new letter iff a is a right descent of w and the
    rest is a reduced subword for wa.

    chi~.  Knutson-Miller: Delta(s, w) is a sphere when delta(s) = w and a
    ball otherwise.  A ball is contractible, so its reduced Euler characteristic
    is 0; a sphere of dimension d = m - 1, m = l - l(w) the facet size (below),
    has (-1)^d.  With the empty face of size 0, chi~ = sum over faces r of
    (-1)^{|r| - 1}, +1 per face of odd size and -1 per face of even size, so
    chi~ = |F & ODD_l| - |F & ~ODD_l| (:func:`_parity_mask`).

    Purity.  A face r has |s \\ r| >= l(delta(s \\ r)) >= l(w), so no face has
    more than m positions, and every face of size m is a facet.  The
    complement t of a face of size m has l(w) letters and delta(s at t) >= w,
    so delta(s at t) = w and t is a reduced subword for w; each reduced
    subword gives a face of size m.  So every facet has size m iff
    #facets = R(s, w).

    The full sweep steps each prefix of the reduced words once
    (:func:`_prefix_folds`), keeping every w below the prefix's Demazure
    product.  Sampled draws share few prefixes, so each word folds on its own
    along the backward walk of :func:`_word_complexes`, which keeps a handful
    of elements per letter instead of a whole interval.  A full sweep records
    failures in lexicographic order of the words, a sampled one in draw
    order.  A target that the fold does not hold is recorded as a failure:
    every w <= delta(s) is stored, so only a broken fold or table drops one.
    """
    out = VerifyOutcome(f"ball-sphere[{rs.cartan_type}]")
    gt = group_table(rs)
    if sample is None:
        sweep = _prefix_folds(_cases(gt, None, seed), (0, {gt.identity: (1, 0, 1)}), partial(_complex_step, gt))
        folds = ((group, complexes) for group, (_, complexes) in sweep)
    else:
        folds = ((group, _word_complexes(gt, group[1], group[2])) for group in _cases(gt, sample, seed))
    parity: dict[int, int] = {}  # word length l -> ODD_l
    for (_, word, w_ids), complexes in folds:
        if len(word) not in parity:
            parity[len(word)] = _parity_mask(len(word))
        odd, top = parity[len(word)], gt.demazure_fold(word)
        for w_id in w_ids:
            out.cases += 1
            size = len(word) - gt.length[w_id]
            if w_id not in complexes:
                out.record(word=word, w=gt.word_of(w_id), expected="w <= delta(s)", got="no faces")
                continue
            faces, covered, reduced = complexes[w_id]
            chi = (faces & odd).bit_count() - (faces & ~odd).bit_count()
            expected = (-1) ** ((size - 1) % 2) if w_id == top else 0
            if chi != expected:
                out.record(word=word, w=gt.word_of(w_id), expected=expected, got=chi)
            facets = faces & ~covered
            if facets.bit_count() != reduced:
                bad = sorted(tuple(b + 1 for b in _bits(r)) for r in _bits(facets) if r.bit_count() != size)
                out.record(word=word, w=gt.word_of(w_id), expected=f"facets of size {size}", got=bad)
    return out


def kclass_well_definedness_suite(rs: RootSystem) -> VerifyOutcome:
    """The localized class is the same Laurent polynomial for every reduced word.

    One signed pass serves every word, stepped once per prefix
    (:func:`_class_fold`); a word's packed states give every w <= x, and are
    decoded only to record a failure.
    """
    out = VerifyOutcome(f"kclass-well-defined[{rs.cartan_type}]")
    gt = group_table(rs)
    packing, start, step = _class_fold(rs)
    reference: dict[tuple[int, int], dict[int, int]] = {}  # (x, w) -> packed state from the first word
    for (idx, word, w_ids), (_, states) in _prefix_folds(_cases(gt, None, 0), start, step):
        table = {q: poly for q, _, poly in states}
        for w_id in w_ids:
            out.cases += 1
            w = gt.elements[w_id]
            value = table.get(w.lanes, {})
            expected = reference.setdefault((idx, w_id), value)
            if value != expected:
                expected, value = (sorted(packing.terms(p, (-1) ** w.length).items()) for p in (expected, value))
                out.record(x=gt.word_of(idx), w=gt.word_of(w_id), word=word, expected=expected, got=value)
    return out


def cone_mechanism_suite(rs: RootSystem, sample: int | None = None, seed: int = 0) -> VerifyOutcome:
    """Tangent-cone coefficient at -gamma_j is 0/1 and 0 iff explicit factor.

    Runs over canonical reduced words, all w <= x, and every integrally
    indecomposable position j.  The draws are grouped by (x, word); each
    group takes its gammas, positions and bound once, one signed pass serves
    all its distinct targets, and each target folds its suffix once, from
    the first position, for its Demazure flags (``is_explicit_factor`` is
    the negated flag).  Every draw still counts and checks its own positions.
    """
    out = VerifyOutcome(f"cone-mechanism[{rs.cartan_type}]")
    gt = group_table(rs)
    positions_of = _indecomposable_positions(rs, gt)
    groups: dict[tuple, list[int]] = {}  # (x id, word) -> the target ids of its draws, in draw order
    for idx, word, w_ids in _cases(gt, sample, seed, all_words=False):
        groups.setdefault((idx, word), []).extend(w_ids)
    for (idx, word), w_ids in groups.items():
        gammas, positions = positions_of(idx, word)
        if not positions:
            continue
        bound = max(height(gammas[j - 1]) for j in positions)
        targets = tuple(gt.elements[w_id] for w_id in dict.fromkeys(w_ids))
        series = _cone_series_by_target(rs, targets, word, gammas, bound)
        flags = {w: _position_flags(rs, w, word, positions) for w in targets}
        for w_id in w_ids:
            w = gt.elements[w_id]
            for j, (demazure_ok, _) in zip(positions, flags[w]):
                out.cases += 1
                coeff = series[w].coefficient(negate(gammas[j - 1]))
                explicit = not demazure_ok
                if coeff not in (0, 1) or (coeff == 0) != explicit:
                    out.record(x=word, w=gt.word_of(w_id), j=j, explicit=explicit, got=coeff)
    return out


def type_a_oracle_suite(rs: RootSystem) -> VerifyOutcome:
    """In/Out verdicts match the type-A ordinary-product oracle, every word."""
    out = VerifyOutcome(f"type-a-oracle[{rs.cartan_type}]")
    gt = group_table(rs)
    positions_of = _indecomposable_positions(rs, gt)
    for idx, word, w_ids in _cases(gt, None, 0):
        _, positions = positions_of(idx, word)
        for w_id in w_ids:
            w = gt.elements[w_id]
            for j in positions:
                out.cases += 1
                verdict = kl_tangent_membership(rs, j, w, word, include_cone_coefficient=False).verdict
                oracle = type_a_tangent_oracle(rs, j, w, word)
                if (verdict is Verdict.IN) != oracle or verdict is Verdict.UNDETERMINED:
                    out.record(x=word, w=gt.word_of(w_id), j=j, oracle=oracle, got=verdict.value)
    return out


def simply_laced_product_suite(rs: RootSystem) -> VerifyOutcome:
    """delta(s \\ j) equals the ordinary product s_1..s^_j..s_l at indecomposable j.

    Runs over every reduced word of every element (simply-laced families).
    """
    out = VerifyOutcome(f"simply-laced-products[{rs.cartan_type}]")
    gt = group_table(rs)
    positions_of = _indecomposable_positions(rs, gt)
    for idx, word, _ in _cases(gt, None, 0):
        for j in positions_of(idx, word)[1]:
            out.cases += 1
            punctured = word[: j - 1] + word[j:]
            demazure = gt.demazure_fold(punctured)
            ordinary = gt.product_fold(punctured)
            if demazure != ordinary:
                out.record(x=word, j=j, demazure=gt.word_of(demazure), ordinary=gt.word_of(ordinary))
    return out


def cominuscule_permutation_suite(rs: RootSystem) -> VerifyOutcome:
    """Cominuscule elements of type A are exactly the 321-avoiding permutations."""
    out = VerifyOutcome(f"cominuscule-permutations[{rs.cartan_type}]")
    gt = group_table(rs)
    for x in gt.elements:
        out.cases += 1
        avoiding = type_a_cominuscule_oracle(rs.rank, element_to_permutation(rs, x))
        cominuscule = is_cominuscule_element(rs, x)
        if avoiding != cominuscule:
            out.record(x=canonical_reduced_word(rs, x), avoids_321=avoiding, cominuscule=cominuscule)
    return out


def cominuscule_indecomposable_suite(rs: RootSystem) -> VerifyOutcome:
    """Cominuscule x => every inversion of x^{-1} is integrally indecomposable."""
    out = VerifyOutcome(f"cominuscule-indecomposable[{rs.cartan_type}]")
    gt = group_table(rs)
    for x in gt.elements:
        if not is_cominuscule_element(rs, x):
            continue
        inversions = inversion_set_of_inverse(rs, x)
        for gamma in inversions:
            out.cases += 1
            if not is_integrally_indecomposable(gamma, inversions):
                out.record(x=canonical_reduced_word(rs, x), gamma=gamma)
    return out


def cominuscule_parabolic_suite(rs: RootSystem) -> VerifyOutcome:
    """Minimal coset representatives of cominuscule maximal parabolics are cominuscule."""
    out = VerifyOutcome(f"cominuscule-parabolic[{rs.cartan_type}]")
    gt = group_table(rs)
    for node in sorted(cominuscule_nodes(rs)):
        parabolic = frozenset(range(1, rs.rank + 1)) - {node}
        for x in gt.elements:
            if not is_min_coset_rep(rs, x, parabolic):
                continue
            out.cases += 1
            if not is_cominuscule_element(rs, x):
                out.record(node=node, x=canonical_reduced_word(rs, x))
    return out


def cominuscule_complete_suite(rs: RootSystem) -> VerifyOutcome:
    """Reports at cominuscule x never leave a weight Undetermined."""
    out = VerifyOutcome(f"cominuscule-complete[{rs.cartan_type}]")
    gt = group_table(rs)
    masks = gt.leq_masks()
    for idx, x in enumerate(gt.elements):
        if not is_cominuscule_element(rs, x):
            continue
        for w_id in _bits(masks[idx]):
            out.cases += 1
            report = kl_tangent_report(rs, gt.elements[w_id], x)
            if not report.complete:
                out.record(x=canonical_reduced_word(rs, x), w=gt.word_of(w_id))
    return out


def te_containment_suite(rs: RootSystem) -> VerifyOutcome:
    """Invariant-curve weights embed into the tangent verdicts at cominuscule x.

    For every cominuscule x, position j and w <= x, the ordinary-product test
    passing forces the Demazure test to pass (TE weights get verdict In).
    Checked with the group tables and Bruhat bitmasks, all w at once.
    """
    out = VerifyOutcome(f"te-containment[{rs.cartan_type}]")
    gt = group_table(rs)
    masks = gt.leq_masks()
    for idx, x in enumerate(gt.elements):
        if not is_cominuscule_element(rs, x):
            continue
        word = gt.word_of(idx)
        for j in range(1, len(word) + 1):
            out.cases += 1
            punctured = word[: j - 1] + word[j:]
            te_mask = masks[gt.product_fold(punctured)]
            in_mask = masks[gt.demazure_fold(punctured)]
            bad = te_mask & ~in_mask & masks[idx]
            if bad:
                out.record(x=word, j=j, w=[gt.word_of(w_id) for w_id in _bits(bad)])
    return out


def explicit_factor_random_suite(labels, cases: int, seed: int) -> VerifyOutcome:
    """Fast Demazure criterion vs subword enumeration on random instances."""
    out = VerifyOutcome(f"explicit-factor-fast-slow[{','.join(labels)}]")
    rng = random.Random(seed)
    systems = [build_root_system(label) for label in labels]
    tables = [group_table(rs) for rs in systems]
    for _ in range(cases):
        pick = rng.randrange(len(systems))
        rs, gt = systems[pick], tables[pick]
        raw = tuple(rng.randint(1, rs.rank) for _ in range(rng.randint(1, 8)))
        idx = gt.demazure_fold(raw)
        word = gt.word_of(idx)
        if not word:
            continue
        sub = tuple(letter for letter in word if rng.random() < 0.6)
        w = gt.elements[gt.demazure_fold(sub)]
        j = rng.randint(1, len(word))
        out.cases += 1
        fast = is_explicit_factor(rs, j, w, word, method="demazure")
        slow = is_explicit_factor(rs, j, w, word, method="enumerate")
        if fast != slow:
            out.record(type=str(rs.cartan_type), x=word, w=canonical_reduced_word(rs, w), j=j,
                       fast=fast, slow=slow)
    return out


def decomposable_guard_suite() -> VerifyOutcome:
    """The A2 decomposable position stays Undetermined unless the oracle is requested."""
    out = VerifyOutcome("decomposable-guard[A2]")
    rs = build_root_system("A2")
    w = word_to_element(rs, (1,))
    x = word_to_element(rs, (1, 2, 1))
    out.cases += 1
    plain = kl_tangent_report(rs, w, x)
    if plain.statuses[1].verdict is not Verdict.UNDETERMINED or plain.complete:
        out.record(flag=False, expected="Undetermined", got=plain.statuses[1].verdict.value)
    out.cases += 1
    upgraded = kl_tangent_report(rs, w, x, use_type_a_oracle=True)
    if upgraded.statuses[1].verdict is not Verdict.OUT or not upgraded.complete:
        out.record(flag=True, expected="Out", got=upgraded.statuses[1].verdict.value)
    return out


def fixed_examples_suite() -> VerifyOutcome:
    """Three pinned fixtures: the A2 class, the A2 verdicts, the D4 element."""
    out = VerifyOutcome("fixed-examples")
    a2 = build_root_system("A2")
    s1 = word_to_element(a2, (1,))

    out.cases += 1
    expected_class = LaurentPoly({(0, 0): 1, (-1, -1): -1})
    for word in ((1, 2, 1), (2, 1, 2)):
        got = kclass_restriction(a2, s1, word)
        if got != expected_class:
            out.record(example="a2-class", word=word, expected=expected_class.items(), got=got.items())

    out.cases += 1
    status = kl_tangent_membership(a2, 2, s1, (1, 2, 1))
    oracle = type_a_tangent_oracle(a2, 2, s1, (1, 2, 1))
    if (
        status.verdict is not Verdict.UNDETERMINED
        or not status.evidence.demazure_ok
        or status.evidence.ordinary_product_ok
        or oracle
    ):
        out.record(example="a2-verdicts", got=(status.verdict.value, asdict(status.evidence)))

    out.cases += 1
    d4 = build_root_system("D4")
    x = word_to_element(d4, (2, 1, 3, 4, 2))
    inversions = inversion_set_of_inverse(d4, x)
    expected_inv = {
        root_from_epsilon(d4, eps)
        for eps in [(1, 0, -1, 0), (1, 1, 0, 0), (0, 1, -1, 0), (0, 1, 0, -1), (0, 1, 0, 1)]
    }
    if inversions != expected_inv:
        out.record(example="d4-inversions", expected=sorted(expected_inv), got=sorted(inversions))
    if not all(is_integrally_indecomposable(g, inversions) for g in inversions):
        out.record(example="d4-indecomposable", got=sorted(inversions))
    if is_cominuscule_element(d4, x):
        out.record(example="d4-not-cominuscule", got=True)
    return out


def root_basics_suite(rs: RootSystem) -> VerifyOutcome:
    """Reflection involutivity, root closure, and height-1 count."""
    out = VerifyOutcome(f"root-basics[{rs.cartan_type}]")
    from .rootsys import reflect

    all_roots = set(rs.positive_roots) | {negate(v) for v in rs.positive_roots}
    for alpha in rs.positive_roots:
        for i in range(1, rs.rank + 1):
            out.cases += 1
            image = reflect(rs, i, alpha)
            if image not in all_roots:
                out.record(check="closure", i=i, alpha=alpha, got=image)
            if reflect(rs, i, image) != alpha:
                out.record(check="involution", i=i, alpha=alpha)
    out.cases += 1
    if sum(1 for v in rs.positive_roots if sum(v) == 1) != rs.rank:
        out.record(check="simple-count")
    return out


def weyl_basics_suite(rs: RootSystem) -> VerifyOutcome:
    """Gamma well-definedness, Bruhat vs subword oracle, length complements."""
    out = VerifyOutcome(f"weyl-basics[{rs.cartan_type}]")
    gt = group_table(rs)
    size = len(gt.elements)
    w0 = max(range(size), key=lambda i: gt.length[i])

    for idx, x in enumerate(gt.elements):
        if x.length > _WORD_LENGTH_MAX:
            continue
        inv = inversion_set_of_inverse(rs, x)
        sets = {frozenset(gamma_sequence(rs, word).gammas) for word in gt.reduced_words_of(idx)}
        out.cases += 1
        if sets != {inv}:
            out.record(check="gamma", x=gt.word_of(idx), got=[sorted(s) for s in sets])

    # Bruhat order against the subword oracle, all pairs.
    contains_of = dict(_subword_products(gt, map(gt.word_of, range(size))))
    for v_id in range(size):
        word = gt.word_of(v_id)
        for u_id in range(size):
            out.cases += 1
            oracle = bool(contains_of[word] >> u_id & 1)
            fast = bruhat_leq(rs, gt.elements[u_id], gt.elements[v_id])
            if oracle != fast:
                out.record(check="bruhat", u=gt.word_of(u_id), v=word, oracle=oracle, got=fast)

    for idx, x in enumerate(gt.elements):
        out.cases += 1
        complement = multiply(rs, inverse(rs, x), gt.elements[w0])
        if x.length + complement.length != gt.length[w0]:
            out.record(check="w0-length", x=gt.word_of(idx))
    return out


def hecke_subword_suite(rs: RootSystem) -> VerifyOutcome:
    """Demazure-subword equivalence: delta(q) >= w iff q has a reduced word for w.

    Exhaustive over every word of length <= _WORD_LENGTH_MAX, every target w;
    also checks the associativity surrogate delta(q1 q2) = delta(r q2) with r
    the canonical reduced word of delta(q1), at every cut q = q1 q2.
    delta(q1) is stepped along q by the Demazure rows, so each cut folds
    only r q2.
    """
    out = VerifyOutcome(f"hecke-subword-equivalence[{rs.cartan_type}]")
    gt = group_table(rs)
    masks = gt.leq_masks()
    size = len(gt.elements)

    letters = range(1, rs.rank + 1)
    words = [q for n in range(_WORD_LENGTH_MAX + 1) for q in product(letters, repeat=n)]

    contains_of = dict(_subword_products(gt, words))
    for q in words:
        delta_id = gt.demazure_fold(q)
        contains, above = contains_of[q], masks[delta_id]
        out.cases += size
        for w_id in _bits(contains ^ above):
            out.record(check="equivalence", q=q, w=gt.word_of(w_id),
                       contains=bool(contains >> w_id & 1), demazure_above=bool(above >> w_id & 1))
        prefix = gt.identity  # delta(q[:cut]), stepped along q
        for cut in range(len(q) + 1):
            out.cases += 1
            if gt.demazure_fold(gt.word_of(prefix) + q[cut:]) != delta_id:
                out.record(check="assoc", q=q, cut=cut)
            if cut < len(q):
                prefix = gt.dmult[q[cut] - 1][prefix]
    return out


def _timed(suite, *args) -> VerifyOutcome:
    """Run one suite and set its outcome's ``seconds`` to the wall time of the run."""
    t0 = time.perf_counter()
    out = suite(*args)
    out.seconds = time.perf_counter() - t0
    return out


def run_battery(label: str, config: VerifyConfig = VerifyConfig()) -> list[VerifyOutcome]:
    """All suites applicable to one Cartan type, exhaustive where desk-scale, each timed by :func:`_timed`."""
    rs = build_root_system(label)
    gt = group_table(rs)  # raises GroupTooLarge early
    order = len(gt.elements)
    sample = None if order <= _EXHAUSTIVE_ORDER_MAX else _SAMPLED_CASES
    outcomes = [_timed(root_basics_suite, rs)]
    if order <= 200:
        outcomes.append(_timed(weyl_basics_suite, rs))
    if rs.rank <= 3 and order <= 48:
        outcomes.append(_timed(hecke_subword_suite, rs))
    if order <= 2_000:
        outcomes.append(_timed(euler_identity_suite, rs, sample, config.seed))
        outcomes.append(_timed(ball_sphere_suite, rs, sample, config.seed))
        if order <= 48:
            outcomes.append(_timed(kclass_well_definedness_suite, rs))
        cone_sample = None if order <= _CONE_EXHAUSTIVE_ORDER_MAX else _SAMPLED_CASES
        outcomes.append(_timed(cone_mechanism_suite, rs, cone_sample, config.seed))
        outcomes.append(_timed(cominuscule_indecomposable_suite, rs))
        outcomes.append(_timed(cominuscule_parabolic_suite, rs))
        if order <= 200:
            outcomes.append(_timed(cominuscule_complete_suite, rs))
            outcomes.append(_timed(te_containment_suite, rs))
        if rs.cartan_type.family == "A":
            outcomes.append(_timed(cominuscule_permutation_suite, rs))
            if order <= 24:
                outcomes.append(_timed(type_a_oracle_suite, rs))
        if rs.cartan_type.family in ("A", "D", "E") and order <= 200:
            outcomes.append(_timed(simply_laced_product_suite, rs))
    outcomes.append(_timed(explicit_factor_random_suite, [str(rs.cartan_type)], config.random_cases, config.seed))
    outcomes.append(_timed(decomposable_guard_suite))
    outcomes.append(_timed(fixed_examples_suite))
    return outcomes
