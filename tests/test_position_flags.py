"""Every position of a report from one prefix fold and one downward suffix fold.

``tangent._position_flags`` decides delta(s \\ j) >= w as r_j <= u_{j-1} (the
suffix peeled off w against the prefix of s): True with no fold where s_j is
an ascent of r_j, else by folding r_j down the prefix to e.  It folds the
ordinary product only where the Demazure flag holds.  The reference folds
every punctured word from scratch and compares by the tuple descent walk
(``oracles.position_flags_by_folding``), independent of the lane forms.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kltangent import (
    all_reduced_words,
    bruhat_leq,
    build_root_system,
    canonical_reduced_word,
    demazure_element,
    group_table,
    identity_element,
    kl_tangent_membership,
    kl_tangent_report,
    longest_element,
    word_to_element,
)
from kltangent import hecke, tangent, weyl
from kltangent.tangent import _position_flags
from kltangent.weyl import _bits, has_right_ascent, right_multiply_simple
from oracles import bruhat_leq_by_descent, position_flags_by_folding


def _check(rs, w, s):
    positions = range(1, len(s) + 1)
    flags = _position_flags(rs, w, s, positions)
    assert flags == position_flags_by_folding(rs, w, s)
    return flags


def _below(gt, x_id):
    return [gt.elements[w_id] for w_id in _bits(gt.leq_masks()[x_id])]


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "G2"])
def test_flags_match_folding_canonical_word(label):
    rs = build_root_system(label)
    gt = group_table(rs)
    for x_id, x in enumerate(gt.elements):
        s = canonical_reduced_word(rs, x)
        for w in _below(gt, x_id):
            flags = _check(rs, w, s)
            if label in ("A3", "G2"):  # a single position folds forward only
                assert [_position_flags(rs, w, s, (j,))[0] for j in range(1, len(s) + 1)] == flags


@pytest.mark.parametrize("label", ["A3", "B3"])
def test_flags_match_folding_every_reduced_word(label):
    rs = build_root_system(label)
    gt = group_table(rs)
    for x_id, x in enumerate(gt.elements):
        below = _below(gt, x_id)
        for s in all_reduced_words(rs, x):
            for w in below:
                _check(rs, w, s)


def test_flags_match_folding_f4_sample():
    rs = build_root_system("F4")
    gt = group_table(rs)
    rng = random.Random(4)
    for _ in range(5000):
        x_id = rng.randrange(len(gt.elements))
        w = rng.choice(_below(gt, x_id))
        _check(rs, w, canonical_reduced_word(rs, gt.elements[x_id]))


@st.composite
def _long_word_and_target(draw, label):
    """A random reduced word of at most 45 letters, and the Demazure product of a random subword."""
    rs = build_root_system(label)
    word, x = (), identity_element(rs)
    for letter in draw(st.lists(st.integers(1, rs.rank), min_size=45, max_size=160)):
        if len(word) < 45 and has_right_ascent(x, letter):
            word, x = word + (letter,), right_multiply_simple(rs, x, letter)
    keep = draw(st.lists(st.booleans(), min_size=len(word), max_size=len(word)))
    return rs, word, demazure_element(rs, tuple(letter for letter, k in zip(word, keep) if k))


@pytest.mark.parametrize("label", ["E6", "E7", "E8"])
def test_flags_match_folding_random_exceptional(label):
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_long_word_and_target(label))
    def check(case):
        rs, word, w = case
        _check(rs, w, word)

    check()


@pytest.mark.parametrize("label", ["E6", "E7", "E8"])
def test_bruhat_walk_on_lanes_matches_the_tuple_walk(label):
    """``bruhat_leq`` (lane forms) against the descent walk on tuple points, both orders of every pair.

    Two draws give a word's element x and a target w below it each, so the
    pairs mix comparisons that hold by construction with unrelated ones.
    """

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_long_word_and_target(label), _long_word_and_target(label))
    def check(first, second):
        rs = first[0]
        elements = [word_to_element(rs, first[1]), first[2], word_to_element(rs, second[1]), second[2]]
        for u in elements:
            for v in elements:
                assert bruhat_leq(rs, u, v) == bruhat_leq_by_descent(rs, u, v), (u, v)

    check()


def test_report_folds_no_punctured_word(monkeypatch):
    # E7 w0 has 63 positions; the report folds O(1) words, not one or two per position
    rs = build_root_system("E7")
    x = longest_element(rs)
    w = word_to_element(rs, (1, 3, 4, 2, 5))
    calls = []
    for module in (hecke, weyl, tangent):
        for name in ("demazure_element", "word_to_element"):
            real = getattr(module, name, None)
            if real is not None:
                monkeypatch.setattr(module, name, lambda *args, _real=real: calls.append(args) or _real(*args))
    report = kl_tangent_report(rs, w, x)
    assert len(report.statuses) == 63
    assert len(calls) <= 2


def test_report_with_cone_evidence_folds_the_suffix_once(monkeypatch):
    """A report folds w down its word once, past position 1, at every (x, w) of B3; its cone coefficients read no floors.

    A single position asked with its cone coefficient folds once, past that position.
    """
    rs = build_root_system("B3")
    gt = group_table(rs)
    calls = []
    real = tangent._suffix_floors
    monkeypatch.setattr(tangent, "_suffix_floors", lambda rs, w, s: calls.append((w, s)) or real(rs, w, s))
    reports = singles = 0
    for x_id, x in enumerate(gt.elements):
        for w in _below(gt, x_id):
            calls.clear()
            report = kl_tangent_report(rs, w, x, include_cone_evidence=True)
            s = report.x_word
            reports += any(status.evidence.cone_coefficient is not None for status in report.statuses)
            assert calls == ([(w, s[1:])] if s else []), (s, w)
            for j in range(1, len(s) + 1):
                calls.clear()
                status = kl_tangent_membership(rs, j, w, s, include_cone_coefficient=True)
                singles += status.evidence.cone_coefficient is not None
                assert calls == [(w, s[j:])], (s, w, j)
    assert reports > 0 and singles > 0
