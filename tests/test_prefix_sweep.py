"""The prefix-shared sweeps of the verify battery.

``verify._prefix_folds`` steps a fold once per letter past the common prefix
with the previous word.  Four sweeps run on it: the K-class pass of
``kclass-well-defined``, the signed counts of ``euler-identity``, the face
sets of an exhaustive ``ball-sphere`` run (``verify._complex_step``) and the
subword products of ``hecke-subword-equivalence`` and ``weyl-basics``
(``verify._subword_products``).  These tests hold each to the per-word
computation it replaces (``kclass_restrictions``, ``_word_complexes``, the
2^l subword listing of ``oracles.subword_products_by_listing``), count the
steps, check that no step writes to a state another word steps on from, and
that each suite still records a failure when its table or one word's state
is wrong, with the same case count.
"""

import copy
from functools import partial
from itertools import product

import pytest

from kltangent import build_root_system, group_table, kclass_restrictions, verify
from kltangent.tangent import _class_fold, _signed_class
from kltangent.verify import (
    _SAMPLED_CASES,
    VerifyConfig,
    _cases,
    _complex_step,
    _prefix_folds,
    _subword_products,
    _word_complexes,
    ball_sphere_suite,
    euler_identity_suite,
    hecke_subword_suite,
    kclass_well_definedness_suite,
)
from kltangent.weyl import WeylElement
from oracles import subword_products_by_listing


def _all_words(gt):
    return {word for idx in range(len(gt.elements)) for word in gt.reduced_words_of(idx)}


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "G2"])
def test_prefix_sweep_matches_per_word_passes(label):
    """Every reduced word, the empty one too, gets the classes of its own pass."""
    rs = build_root_system(label)
    gt = group_table(rs)
    packing, start, step = _class_fold(rs)
    classes = {
        word: {
            WeylElement(q, length, rs.dynkin): _signed_class(length, poly, packing.exponents(poly))
            for q, length, poly in states
        }
        for (_, word, _), (_, states) in _prefix_folds(_cases(gt, None, 0), start, step)
    }
    assert () in classes
    assert set(classes) == _all_words(gt)
    for word in classes:
        assert classes[word] == kclass_restrictions(rs, word), word


@pytest.mark.parametrize("label", ["A3", "B3"])
def test_prefix_sweep_steps_each_prefix_once(label):
    """Over a prefix-closed word set, the sweep steps once per nonempty word, not once per letter of each word."""
    gt = group_table(build_root_system(label))
    letters = []
    for _ in _prefix_folds(_cases(gt, None, 0), 0, lambda state, letter: letters.append(letter) or state + 1):
        pass
    words = _all_words(gt)
    assert len(letters) == len(words) - 1
    assert len(letters) < sum(map(len, words))


def test_sampled_sweep_keeps_the_draws():
    """The sampled branch visits the same draws, each word's state the fold of its letters."""
    gt = group_table(build_root_system("D4"))
    draws = list(_cases(gt, 200, 7))
    seen = list(_prefix_folds(draws, (), lambda state, letter: state + (letter,)))
    assert sorted(group for group, _ in seen) == sorted(draws)
    assert all(state == group[1] for group, state in seen)


def test_steps_leave_their_input_unchanged():
    """The one-letter steps write to no state they are given; the pass step hands on no pair of it."""
    rs = build_root_system("B3")
    gt = group_table(rs)
    _, start, class_step = _class_fold(rs)

    def checked(step):
        def run(state, letter):
            before = copy.deepcopy(state)
            out = step(state, letter)
            assert state == before, letter
            return out

        return run

    def class_states(state, letter):
        out = checked(class_step)(state, letter)
        assert not {id(t) for t in out[1]} & {id(t) for t in state[1]}
        return out

    for _ in _prefix_folds(_cases(gt, None, 0), start, class_states):
        pass
    for start, step in [
        ({gt.identity: 1}, partial(verify._counts_step, gt.dmult)),
        ((0, {gt.identity: (1, 0, 1)}), partial(_complex_step, gt)),
    ]:
        for _ in _prefix_folds(_cases(gt, None, 0), start, checked(step)):
            pass


@pytest.mark.parametrize("label", ["G2", "B3"])
def test_sweep_states_survive_later_steps(label):
    """A state handed out for one word is still the same when the sweep ends: siblings share it unchanged."""
    rs = build_root_system(label)
    gt = group_table(rs)
    _, start, step = _class_fold(rs)
    handed = [(state, copy.deepcopy(state)) for _, state in _prefix_folds(_cases(gt, None, 0), start, step)]
    assert all(state == snapshot for state, snapshot in handed)


def _corrupt(monkeypatch, target_word, change):
    """Make the sweep hand out a changed copy of one word's state; every other word is left alone."""
    real = verify._prefix_folds

    def folds(groups, start, step):
        for group, state in real(groups, start, step):
            yield group, change(copy.deepcopy(state)) if group[1] == target_word else state

    monkeypatch.setattr(verify, "_prefix_folds", folds)


def test_kclass_sweep_records_a_wrong_class(monkeypatch):
    rs = build_root_system("B3")
    gt = group_table(rs)
    idx = max(range(len(gt.elements)), key=gt.length.__getitem__)
    word = gt.reduced_words_of(idx)[-1]  # not the first word of w0, so the reference stays right

    def change(state):
        columns, states = state
        _, _, poly = states[0]
        poly[0] = poly.get(0, 0) + 1
        return columns, states

    _corrupt(monkeypatch, word, change)
    outcome = kclass_well_definedness_suite(rs)
    assert not outcome.ok
    assert {failure["word"] for failure in outcome.failures} == {word}
    assert outcome.cases == 6539


def test_euler_suite_records_a_wrong_demazure_row(monkeypatch):
    """One wrong entry of a Demazure row, e * s_1 = e, is recorded, and only against words with letter 1."""
    rs = build_root_system("B3")
    gt = group_table(rs)
    rows = [list(row) for row in gt.dmult]
    rows[0][gt.identity] = gt.identity
    monkeypatch.setattr(gt, "dmult", rows)
    outcome = euler_identity_suite(rs)
    words = [failure["word"] for failure in outcome.failures if "word" in failure]  # past the cap, a note
    assert words and all(1 in word for word in words)
    assert outcome.cases == 6539


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "G2"])
def test_prefix_folded_complexes_match_word_complexes(label):
    """Stepped once per prefix with no live set, every reduced word holds the (F, C, R) of its own pruned fold."""
    gt = group_table(build_root_system(label))
    start = (0, {gt.identity: (1, 0, 1)})
    seen = set()
    for (_, word, w_ids), (n, complexes) in _prefix_folds(_cases(gt, None, 0), start, partial(_complex_step, gt)):
        assert n == len(word)
        assert complexes == _word_complexes(gt, word, w_ids), word
        seen.add(word)
    assert seen == _all_words(gt)


def _reduced_mask_by_listing(gt, word):
    """The bitmask of the w with a reduced subword of word, read off the 2^l listing."""
    return sum(1 << p for p, n in subword_products_by_listing(gt, word) if n == gt.length[p])


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_subword_products_match_the_listing_on_every_short_word(label):
    rs = build_root_system(label)
    gt = group_table(rs)
    words = [q for n in range(7) for q in product(range(1, rs.rank + 1), repeat=n)]
    got = dict(_subword_products(gt, words))
    assert list(got) == sorted(words)
    for q in words:
        assert got[q] == _reduced_mask_by_listing(gt, q), q


def test_subword_products_match_the_listing_on_the_canonical_words_of_d4():
    gt = group_table(build_root_system("D4"))
    words = [gt.word_of(idx) for idx in range(len(gt.elements))]
    got = dict(_subword_products(gt, words))
    assert set(got) == set(words)
    for q in words:
        assert got[q] == _reduced_mask_by_listing(gt, q), q


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "A4", "C4", "D4", "B4", "D5", "A5", "F4"])
def test_canonical_words_are_prefix_closed(label):
    """Every prefix of a canonical word is canonical, so weyl-basics builds each word's subword products once."""
    gt = group_table(build_root_system(label))
    words = {gt.word_of(idx) for idx in range(len(gt.elements))}
    assert all(word[:-1] in words for word in words if word)


@pytest.mark.parametrize("label,cases", [("A3", 959), ("B3", 6539)])
@pytest.mark.parametrize("suite,step", [(euler_identity_suite, "_counts_step"), (ball_sphere_suite, "_complex_step")])
def test_euler_and_ball_sphere_step_each_prefix_once(label, cases, suite, step, monkeypatch):
    """The exhaustive sweeps step once per nonempty reduced word, not once per letter of each word."""
    rs = build_root_system(label)
    real, letters = getattr(verify, step), []

    def counted(*args):  # (table, state, letter)
        letters.append(args[2])
        return real(*args)

    monkeypatch.setattr(verify, step, counted)
    outcome = suite(rs)
    assert outcome.ok and outcome.cases == cases
    words = _all_words(group_table(rs))
    assert len(letters) == len(words) - 1
    assert len(letters) < sum(map(len, words))


def test_sampled_ball_sphere_folds_each_draw_along_its_live_sets(monkeypatch):
    """Sampled draws share few prefixes: each word folds on its own, every step keeping only a backward walk's elements."""
    rs = build_root_system("D4")
    gt = group_table(rs)
    lives = []
    real = verify._complex_step

    def recorded(gt, state, letter, live=None):
        lives.append(live)
        return real(gt, state, letter, live)

    monkeypatch.setattr(verify, "_complex_step", recorded)
    seed = VerifyConfig().seed
    outcome = ball_sphere_suite(rs, _SAMPLED_CASES, seed)
    assert outcome.ok and outcome.cases == _SAMPLED_CASES
    assert len(lives) == sum(len(word) for _, word, _ in _cases(gt, _SAMPLED_CASES, seed))
    assert all(live is not None for live in lives)


def test_hecke_subword_suite_records_each_flipped_bruhat_bit(monkeypatch):
    """A flipped bit w of the Bruhat mask of v fails exactly the pairs (q, w) with delta(q) = v, each bit on its own."""
    rs = build_root_system("B3")
    gt = group_table(rs)
    masks = list(gt.leq_masks())
    s1, s2 = gt.rmult[0][gt.identity], gt.rmult[1][gt.identity]
    masks[s1] ^= 1 << gt.identity | 1 << s2  # e <= s1 read as false, s2 <= s1 as true
    monkeypatch.setattr(gt, "_leq", masks)
    outcome = hecke_subword_suite(rs)
    words = [q for n in range(7) for q in product(range(1, rs.rank + 1), repeat=n)]
    ones = [q for q in words if gt.demazure_fold(q) == s1]  # (1,), (1, 1), ..., six letters
    expected = [(q, (), True, False) for q in ones] + [(q, (2,), False, True) for q in ones]
    got = [(f["q"], f["w"], f["contains"], f["demazure_above"]) for f in outcome.failures]
    assert {f["check"] for f in outcome.failures} == {"equivalence"}
    assert sorted(got) == sorted(expected) and len(expected) == 12
    assert outcome.cases == 59572


def test_ball_sphere_sweep_records_a_wrong_multiplication_entry(monkeypatch):
    """One wrong entry of the multiplication table, e * s_1 = e, is recorded, and only against words with letter 1."""
    rs = build_root_system("B3")
    gt = group_table(rs)
    gt.leq_masks()  # built from the true table
    rows = [list(row) for row in gt.rmult]
    rows[0][gt.identity] = gt.identity
    monkeypatch.setattr(gt, "rmult", rows)
    outcome = ball_sphere_suite(rs)
    words = [failure["word"] for failure in outcome.failures if "word" in failure]  # past the cap, a note
    assert words and all(1 in word for word in words)
    assert words == sorted(words)  # the full sweep records in lexicographic word order
    # s_1 itself is never stored, so its targets are recorded as missing, not read as void complexes
    assert {"word": (1,), "w": (1,), "expected": "w <= delta(s)", "got": "no faces"} in outcome.failures
    assert outcome.cases == 6539


def test_ball_sphere_records_every_target_a_fold_drops(monkeypatch):
    """A target missing from a word's faces is a failure, not the void complex (chi~ 0, no facets)."""
    rs = build_root_system("B3")
    gt = group_table(rs)
    monkeypatch.setattr(verify, "_word_complexes", lambda gt, word, targets: {})
    outcome = ball_sphere_suite(rs, 40, 7)
    assert outcome.cases == 40
    assert [(f["word"], f["got"]) for f in outcome.failures] == [
        (word, "no faces") for _, word, _ in _cases(gt, 40, 7)
    ]


def test_exhaustive_euler_and_ball_sphere_on_a4():
    """Above the battery's exhaustive order, both sweeps still run every (x, reduced word, w <= x) of A4."""
    rs = build_root_system("A4")
    for suite in (euler_identity_suite, ball_sphere_suite):
        outcome = suite(rs)
        assert outcome.ok, outcome.failures[:3]
        assert outcome.cases == 256_005
