"""A report's cone coefficients, read off Demazure flags over vector partitions, against the series.

``tangent._cone_coefficients`` counts the vector partitions k of gamma_j
over the gammas with w <= delta(s minus supp k); ``_cone_series_by_target``
runs the signed K-class pass and spreads its class into a height-truncated
series.  The two must agree at every position, indecomposable ones included,
where the count is the Demazure flag.
"""

import random

import pytest

from kltangent import (
    LengthBoundExceeded,
    build_root_system,
    canonical_reduced_word,
    demazure_element,
    group_table,
    height,
    identity_element,
    kl_tangent_membership,
    kl_tangent_report,
    longest_element,
    word_to_element,
)
from kltangent import tangent
from kltangent.cli import main
from kltangent.rootsys import negate
from kltangent.tangent import _cone_coefficients, _cone_series_by_target, _indecomposable_inversions, _position_flags
from kltangent.weyl import _gamma_sequence, has_right_ascent


def _agree(rs, x, word, targets) -> int:
    """Positions checked: every j of word at every target, the coefficient against the series at the tallest gamma."""
    gammas = _gamma_sequence(rs, x, word).gammas
    positions = range(1, len(word) + 1)
    if not gammas:
        return 0
    bound = max(map(height, gammas))
    series = _cone_series_by_target(rs, tuple(targets), word, gammas, bound)
    for w in targets:
        got = _cone_coefficients(rs, w, word, gammas, positions)
        expected = {j: series[w].coefficient(negate(gammas[j - 1])) for j in positions}
        assert got == expected, (word, w)
    return len(targets) * len(word)


def _whole_group(label, all_words):
    """(rs, x, reduced word of x, every w <= x): the canonical word, or every reduced word."""
    rs = build_root_system(label)
    gt = group_table(rs)
    masks = gt.leq_masks()
    for idx, x in enumerate(gt.elements):
        below = [gt.elements[w_id] for w_id in range(len(gt.elements)) if (masks[idx] >> w_id) & 1]
        for word in gt.reduced_words_of(idx) if all_words else (canonical_reduced_word(rs, x),):
            yield rs, x, word, below


@pytest.mark.parametrize("label,positions", [("A3", 850), ("C3", 5048), ("G2", 292), ("A4", 25062)])
def test_coefficients_match_the_series_over_whole_groups(label, positions):
    assert sum(_agree(*case) for case in _whole_group(label, all_words=False)) == positions


def test_coefficients_match_the_series_on_every_reduced_word_of_b3():
    assert sum(_agree(*case) for case in _whole_group("B3", all_words=True)) == 48974


def _draws(label, count, seed, size):
    """(rs, x, random reduced word of the given size, targets): e, x and Demazure products of random subwords."""
    rs = build_root_system(label)
    rng = random.Random(seed)
    for _ in range(count):
        word, x = (), identity_element(rs)
        while len(word) < size:
            letter = rng.randint(1, rs.rank)
            if has_right_ascent(x, letter):
                word, x = word + (letter,), word_to_element(rs, word + (letter,))
        subwords = [tuple(a for a in word if rng.random() < 0.5) for _ in range(4)]
        yield rs, x, word, list(dict.fromkeys([identity_element(rs), x] + [demazure_element(rs, t) for t in subwords]))


@pytest.mark.parametrize(
    "label,seed,draws,positions",
    [("F4", 41, 25, 2058), ("D5", 52, 25, 2072), ("E6", 63, 20, 1666), ("E7", 74, 12, 1008), ("E8", 85, 12, 1008)],
)
def test_coefficients_match_the_series_on_seeded_draws(label, seed, draws, positions):
    """14-letter words; the targets are e, x and the Demazure products of four random subwords, without repeats."""
    assert sum(_agree(*case) for case in _draws(label, draws, seed, 14)) == positions


def test_indecomposable_coefficient_is_the_demazure_flag():
    """At an indecomposable gamma_j the only vector partition is gamma_j: the count is the flag."""
    for rs, x, word, targets in _draws("E6", 4, 6, 16):
        gammas = _gamma_sequence(rs, x, word).gammas
        indecomposables = _indecomposable_inversions(frozenset(gammas))
        positions = [j for j in range(1, len(word) + 1) if gammas[j - 1] in indecomposables]
        for w in targets:
            flags = [int(demazure_ok) for demazure_ok, _ in _position_flags(rs, w, word, positions)]
            assert list(_cone_coefficients(rs, w, word, gammas, positions).values()) == flags


def test_reports_and_single_positions_run_no_signed_pass(monkeypatch):
    """Reports with cone evidence and single positions with their coefficient read no series, and still answer."""
    cases = [(rs, x, w) for rs, x, _, targets in _draws("F4", 3, 9, 12) for w in targets]
    expected = [kl_tangent_report(rs, w, x, include_cone_evidence=True) for rs, x, w in cases]

    def refuse(*args):
        raise AssertionError("the signed pass or the series spread ran")

    monkeypatch.setattr(tangent, "_signed_states", refuse)
    monkeypatch.setattr(tangent, "_cone_series_by_target", refuse)
    decomposable = 0
    for (rs, x, w), report in zip(cases, expected):
        assert kl_tangent_report(rs, w, x, include_cone_evidence=True) == report
        for status in report.statuses:
            assert (status.evidence.cone_coefficient is None) == status.evidence.indecomposable
            decomposable += not status.evidence.indecomposable
            single = kl_tangent_membership(rs, status.position, w, report.x_word, include_cone_coefficient=True)
            assert single == status
    assert decomposable > 0


def test_cone_evidence_past_twenty_letters_is_refused(capsys):
    """A 21-letter report with cone evidence raises LengthBoundExceeded, as the series pass did; a plain one answers."""
    rs = build_root_system("E6")
    word = canonical_reduced_word(rs, longest_element(rs))[:21]
    x = word_to_element(rs, word)
    w = identity_element(rs)
    report = kl_tangent_report(rs, w, x)
    assert len(report.statuses) == 21 and not all(st.evidence.indecomposable for st in report.statuses)
    with pytest.raises(LengthBoundExceeded):
        kl_tangent_report(rs, w, x, include_cone_evidence=True)
    code = main(["tangent", "E6", "--x", " ".join(map(str, word)), "--w", "", "--cone-evidence", "--json"])
    assert code == 1
    assert '"type": "LengthBoundExceeded"' in capsys.readouterr().out
