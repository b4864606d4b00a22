"""The one-pass localized classes and cone series against the enumeration oracle.

``kclass_restriction``, ``kclass_restrictions`` and ``tangent_cone_series``
compute P_{w,s} by a single signed pass over the Hecke states of s; the
oracle ``kclasses_by_enumeration`` sums all subwords of s term by term, once
per word, and ``oracle_spread`` expands a class on exponent tuples.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kltangent import (
    LaurentPoly,
    NotBelow,
    NotReduced,
    bruhat_leq,
    build_complex,
    build_root_system,
    demazure_element,
    gamma_sequence,
    group_table,
    height,
    identity_element,
    kclass_restriction,
    kclass_restrictions,
    tangent_cone_series,
    word_to_element,
)
from kltangent import tangent, weyl
from kltangent.tangent import _live_points, _signed_states, _suffix_floors
from kltangent.weyl import has_right_ascent
from oracles import brute_subword_complex, kclasses_by_enumeration, oracle_spread


def _cases(label, all_words=True):
    """(x, reduced word of x, w <= x) over a whole group, one reduced word per x unless all_words."""
    rs = build_root_system(label)
    gt = group_table(rs)
    masks = gt.leq_masks()
    for idx, x in enumerate(gt.elements):
        words = gt.reduced_words_of(idx) if all_words else (gt.word_of(idx),)
        for word in words:
            below = [gt.elements[w_id] for w_id in range(len(gt.elements)) if (masks[idx] >> w_id) & 1]
            yield rs, x, word, below


@pytest.mark.parametrize(
    "label,all_words", [("A3", True), ("B3", True), ("C3", True), ("G2", True), ("D4", False)]
)
def test_kclass_pass_matches_enumeration(label, all_words):
    count = 0
    for rs, x, word, below in _cases(label, all_words):
        table = kclass_restrictions(rs, word)
        assert all(bruhat_leq(rs, u, x) for u in table)
        assert not any(p.is_zero for p in table.values())
        oracle = kclasses_by_enumeration(rs, word)
        assert table == oracle, word
        for w in below:
            count += 1
            value = kclass_restriction(rs, w, word)
            assert value == oracle.get(w, LaurentPoly.zero()), (word, w)
    assert count > 0


def test_pass_keeps_only_states_below_w(monkeypatch):
    """The pass returns exactly its targets, each with the state of the full pass, and takes no Bruhat walk.

    The bound keeps every term and every w <= x has a nonzero class, so each
    target is returned; no other state survives the last letter, where the
    live set is the targets alone.  The pruning reads no suffix fold either.
    """

    def no_walk(*args):
        raise AssertionError("the signed pass walked the Bruhat order or folded a suffix")

    for module, name in ((tangent, "bruhat_leq"), (weyl, "bruhat_leq"), (tangent, "_suffix_floors")):
        monkeypatch.setattr(module, name, no_walk)
    rng = random.Random(3)
    for rs, _, word, below in _cases("B3", all_words=False):
        gammas = gamma_sequence(rs, word).gammas
        bound = sum(map(height, gammas))
        _, full = _signed_states(rs, word, gammas, bound)
        for targets in [(w,) for w in below] + [tuple(below), tuple(rng.sample(below, (len(below) + 1) // 2))]:
            _, states = _signed_states(rs, word, gammas, bound, targets)
            assert states == {t.lanes: full[t.lanes] for t in targets}, (word, targets)


@pytest.mark.parametrize("label", ["A3", "B3", "G2"])
def test_live_points_lie_between_the_floor_and_the_target(label):
    """Each point the walk back from w keeps after letter k lies in [r_k(w), w], at every x, w <= x and k.

    Canonical words over whole groups.  For several targets the walk keeps
    the union of their single-target walks, each point inside the interval
    of some target.
    """
    rng = random.Random(11)
    points = 0
    for rs, _, word, below in _cases(label, all_words=False):
        gt = group_table(rs)
        l = len(word)
        walks = {w: _live_points(rs, word, (w,)) for w in below}
        for w, live in walks.items():
            floors = _suffix_floors(rs, w, word)  # floors[l - k] is r_k
            for k in range(1, l + 1):
                for p in live[k - 1]:
                    points += 1
                    v = gt.elements[gt.index[p]]
                    assert bruhat_leq(rs, floors[l - k], v) and bruhat_leq(rs, v, w), (word, w, k, v)
        targets = tuple(rng.sample(below, rng.randint(1, len(below))))
        live = _live_points(rs, word, targets)
        for k in range(1, l + 1):
            assert live[k - 1] == set().union(*(walks[w][k - 1] for w in targets)), (word, targets, k)
    assert points > 0


@pytest.mark.parametrize("label", ["A3", "B3", "G2"])
def test_multi_target_pass_matches_single_target(label):
    """One pass over several targets returns exactly the targets with a nonzero class, each with its full-pass state.

    Canonical words and every x over whole groups; the targets are all w <= x
    as one tuple and random subsets of them.  The bound truncates, so some
    classes vanish and their targets are missing from every pass alike.
    """
    rng = random.Random(5)
    count = 0
    for rs, _, word, below in _cases(label, all_words=False):
        gammas = gamma_sequence(rs, word).gammas
        bound = max(map(height, gammas), default=0) + 1
        packing, full = _signed_states(rs, word, gammas, bound)
        single = {w: _signed_states(rs, word, gammas, bound, (w,))[1].get(w.lanes) for w in below}
        subsets = [tuple(below)] + [tuple(rng.sample(below, rng.randint(1, len(below)))) for _ in range(3)]
        for targets in subsets:
            multi_packing, states = _signed_states(rs, word, gammas, bound, targets)
            assert multi_packing.width == packing.width
            assert states == {t.lanes: full[t.lanes] for t in targets if t.lanes in full}
            for t in targets:
                count += 1
                assert states.get(t.lanes) == single[t], (word, t)
    assert count > 0


def _random_cases(label, count, seed, sizes):
    """(rs, x, random reduced word with a length in sizes, targets): e, x and Demazure products of random subwords."""
    rs = build_root_system(label)
    rng = random.Random(seed)
    for _ in range(count):
        word, x = (), identity_element(rs)
        size = rng.randint(*sizes)
        while len(word) < size:
            letter = rng.randint(1, rs.rank)
            if has_right_ascent(x, letter):
                word, x = word + (letter,), word_to_element(rs, word + (letter,))
        subwords = [tuple(a for a in word if rng.random() < 0.6) for _ in range(4)]
        yield rs, x, word, [identity_element(rs), x] + [demazure_element(rs, t) for t in subwords]


@pytest.mark.parametrize("label", ["A3", "B3", "G2", "E8"])
def test_tangent_cone_series_matches_enumeration(label):
    """The packed pass and spread give the tuple spread of the enumerated class, as whole series.

    Canonical words and every w <= x over whole groups; in E8, random words of 10-12 letters.
    """
    cases = _random_cases("E8", 12, 8, (10, 12)) if label == "E8" else _cases(label, all_words=False)
    count = 0
    for rs, _, word, below in cases:
        gammas = gamma_sequence(rs, word).gammas
        if not gammas:
            continue
        bound = max(height(g) for g in gammas) + 1
        classes = kclasses_by_enumeration(rs, word, set(below))
        for w in below:
            count += 1
            expected = oracle_spread(classes.get(w, LaurentPoly.zero()), gammas, bound)
            assert tangent_cone_series(rs, w, word, bound) == expected, (word, w)
    assert count > 0


@pytest.mark.parametrize("label,seed", [("E6", 6), ("E7", 7)])
def test_pruned_pass_on_long_words(label, seed):
    """On 12-16 letter words the pruned pass gives each target its full-pass class, and the series its spread.

    The full pass (``kclass_restrictions``) keeps every state; the targets
    are e, x and Demazure products of random subwords, so every class is
    nonzero.  The series runs at the largest gamma height against the tuple
    spread of the full-pass class.
    """
    for rs, _, word, targets in _random_cases(label, 2, seed, (12, 16)):
        full = kclass_restrictions(rs, word)
        gammas = gamma_sequence(rs, word).gammas
        bound = max(map(height, gammas))
        for w in targets:
            assert kclass_restriction(rs, w, word) == full[w], (word, w)
            assert tangent_cone_series(rs, w, word, bound) == oracle_spread(full[w], gammas, bound), (word, w)


def test_pass_steps_lane_forms_and_builds_no_element(monkeypatch):
    """kclass_restriction answers as before with right_multiply_simple refused, and builds one element, x.

    The pass steps the lane forms of its states, so the number of elements
    a call builds does not grow with its Hecke states: the only one is x,
    which ``_validate_pair`` folds from the word.
    """
    cases = list(_random_cases("E8", 3, 21, (14, 18)))
    expected = [[kclass_restriction(rs, w, word) for w in targets] for rs, _, word, targets in cases]

    def refuse(*args):
        raise AssertionError("the signed pass multiplied an element")

    for module in (weyl, tangent):
        monkeypatch.setattr(module, "right_multiply_simple", refuse)
    built = []
    init = weyl.WeylElement.__init__
    monkeypatch.setattr(weyl.WeylElement, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    for (rs, _, word, targets), values in zip(cases, expected):
        for w, value in zip(targets, values):
            built.clear()
            assert kclass_restriction(rs, w, word) == value, (word, w)
            assert len(built) == 1, (word, w)


def test_pass_drops_targets_above_the_word():
    """A target not below delta(s) is live nowhere: the pass returns no state for it."""
    rs = build_root_system("B3")
    word = (1, 2)
    gammas = gamma_sequence(rs, word).gammas
    above = word_to_element(rs, (2, 1))
    _, states = _signed_states(rs, word, gammas, sum(map(height, gammas)), (above,))
    assert states == {}


def test_kclass_validation():
    a2 = build_root_system("A2")
    with pytest.raises(NotReduced):
        kclass_restrictions(a2, (1, 1))
    with pytest.raises(NotBelow):
        tangent_cone_series(a2, word_to_element(a2, (1, 2, 1)), (1, 2), 2)


@st.composite
def _reduced_word_and_target(draw, label):
    """A random reduced word of at most 12 letters, and the Demazure product of a random subword."""
    rs = build_root_system(label)
    letters = draw(st.lists(st.integers(1, rs.rank), min_size=1, max_size=40))
    word, x = [], identity_element(rs)
    for letter in letters:
        nxt = word_to_element(rs, tuple(word) + (letter,))
        if nxt.length > x.length and len(word) < 12:
            word.append(letter)
            x = nxt
    keep = draw(st.lists(st.booleans(), min_size=len(word), max_size=len(word)))
    w = demazure_element(rs, tuple(letter for letter, k in zip(word, keep) if k))
    return rs, tuple(word), w


@pytest.mark.parametrize("label", ["E6", "E7"])
def test_kclass_pass_random_exceptional(label):
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_reduced_word_and_target(label))
    def check(case):
        rs, word, w = case
        value = kclass_restriction(rs, w, word)
        assert value == kclasses_by_enumeration(rs, word, {w}).get(w, LaurentPoly.zero())
        assert kclass_restrictions(rs, word).get(w, LaurentPoly.zero()) == value

    check()


@pytest.mark.parametrize("label", ["A3", "G2"])
def test_build_complex_matches_definition(label):
    for rs, _, word, below in _cases(label):
        for w in below:
            c = build_complex(rs, w, word)
            faces, facets, deltas = brute_subword_complex(rs, w, word)
            assert list(c.faces) == faces and list(c.facets) == facets
            assert c._deltas == deltas


def test_build_complex_matches_definition_b3_sample():
    rs = build_root_system("B3")
    gt = group_table(rs)
    for idx in range(0, len(gt.elements), 7):
        word = gt.word_of(idx)
        for w in (identity_element(rs), gt.elements[idx], demazure_element(rs, word[::2])):
            c = build_complex(rs, w, word)
            faces, facets, deltas = brute_subword_complex(rs, w, word)
            assert list(c.faces) == faces and list(c.facets) == facets
            assert c._deltas == deltas
