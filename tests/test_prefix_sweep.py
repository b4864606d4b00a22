"""The prefix-shared sweep of ``kclass-well-defined``.

``verify._prefix_folds`` steps a pass once per letter past the common prefix
with the previous word.  These tests hold it to the per-word passes it
replaces (``kclass_restrictions``), check that no step writes to a state
another word steps on from, and that the suite still records a failure when
one word's class is wrong.  The last test checks that the Euler-identity
suite, which folds each word on its own, records a wrong Demazure row.
"""

import copy

import pytest

from kltangent import build_root_system, group_table, kclass_restrictions, verify
from kltangent.tangent import _class_fold, _signed_class
from kltangent.verify import _cases, _prefix_folds, euler_identity_suite, kclass_well_definedness_suite
from kltangent.weyl import WeylElement


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
    """The one-letter pass step writes to no state it is given and hands on no pair of it."""
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
