"""What the signed pass and the word fold already establish is not proved again.

Every exponent of the signed pass's class is minus a sum of gammas, so the
tangent-cone series expands it with no span search; a cominuscule witness is
read off the fold of the canonical word, with no elimination; and each public
word-taking function folds its word once, for both its checks and its gammas.
The general solvers still run where outside input enters, and the oracles
below check the shortcuts against them.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings

from kltangent import (
    ExponentOutsideCone,
    LaurentPoly,
    build_root_system,
    canonical_reduced_word,
    char_series,
    cominuscule_witness,
    enumerate_weyl_group,
    gamma_sequence,
    height,
    kclass_restriction,
    kclass_restrictions,
    kl_tangent_membership,
    kl_tangent_report,
    longest_element,
    tangent_cone_coefficient,
    tangent_cone_series,
    te_curve_weights,
    word_to_element,
)
from kltangent import rootsys, rt_ring, tangent, weyl
from kltangent.rootsys import negate
from oracles import witness_by_elimination
from test_kclass_pass import _reduced_word_and_target


def _b3_w0_case():
    """B3 at x = w0 and w = s2: six of the nine weights are decomposable."""
    rs = build_root_system("B3")
    x = longest_element(rs)
    return rs, word_to_element(rs, (2,)), x, canonical_reduced_word(rs, x)


def _refuse(*args):
    raise AssertionError("a general solver ran")


def test_cone_series_runs_no_span_search(monkeypatch):
    rs, w, x, s = _b3_w0_case()
    gammas = gamma_sequence(rs, s).gammas
    monkeypatch.setattr(rt_ring, "_span_search", _refuse)
    report = kl_tangent_report(rs, w, x, include_cone_evidence=True)
    series = tangent_cone_series(rs, w, s, 5)
    monkeypatch.undo()
    decomposable = [st for st in report.statuses if not st.evidence.indecomposable]
    assert len(decomposable) == 6
    assert series == char_series(kclass_restriction(rs, w, s), gammas, 5)
    for st in decomposable:
        assert st.evidence.cone_coefficient == series.coefficient(negate(st.gamma))
    # outside input still meets the cone check
    with pytest.raises(ExponentOutsideCone):
        char_series(LaurentPoly.monomial((1, 0, 0)), gammas, 2)
    with pytest.raises(ExponentOutsideCone):
        tangent_cone_coefficient(rs, (-1, 0, 0), w, s[1:])  # the gammas of s[1:] miss a1


def test_span_search_runs_once_for_lambda_only(monkeypatch):
    rs, w, x, s = _b3_w0_case()
    calls = []
    real = rt_ring._span_search

    def counted(vectors):
        calls.append(vectors)
        return real(vectors)

    monkeypatch.setattr(rt_ring, "_span_search", counted)
    kl_tangent_report(rs, w, x, include_cone_evidence=True)
    tangent_cone_series(rs, w, s, 5)
    kclass_restriction(rs, w, s)
    assert calls == []
    assert tangent_cone_coefficient(rs, (-1, -2, -2), w, s) == 11
    assert len(calls) == 1


def test_cominuscule_witness_runs_no_elimination(monkeypatch):
    monkeypatch.setattr(rootsys, "solve_rational", _refuse, raising=False)
    monkeypatch.setattr(tangent, "solve_rational", _refuse, raising=False)
    rs = build_root_system("D4")
    witnesses = [cominuscule_witness(rs, x) for x in enumerate_weyl_group(rs)]
    assert any(v is None for v in witnesses) and any(v is not None for v in witnesses)


FOLDING = {
    "kclass_restriction": lambda rs, w, s: kclass_restriction(rs, w, s),
    "tangent_cone_series": lambda rs, w, s: tangent_cone_series(rs, w, s, 2),
    "tangent_cone_coefficient": lambda rs, w, s: tangent_cone_coefficient(rs, (-1, -1, 0), w, s),
    "kl_tangent_membership": lambda rs, w, s: kl_tangent_membership(rs, 2, w, s),
    "te_curve_weights": lambda rs, w, s: te_curve_weights(rs, w, s),
}


@pytest.mark.parametrize("name", FOLDING)
def test_word_is_folded_once(monkeypatch, name):
    rs, w, _, s = _b3_w0_case()
    folds = []
    real = weyl.word_to_element

    def counted(rs, word):
        if word == s:
            folds.append(word)
        return real(rs, word)

    monkeypatch.setattr(weyl, "word_to_element", counted)
    monkeypatch.setattr(tangent, "word_to_element", counted)
    FOLDING[name](rs, w, s)
    assert len(folds) == 1


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "G2", "F4"])
def test_witness_matches_elimination_whole_group(label):
    rs = build_root_system(label)
    for x in enumerate_weyl_group(rs):
        assert cominuscule_witness(rs, x) == witness_by_elimination(rs, canonical_reduced_word(rs, x))


@pytest.mark.parametrize("label", ["E6", "E7", "E8"])
def test_witness_matches_elimination_random(label):
    rs = build_root_system(label)
    rng = random.Random(label)
    top = len(rs.positive_roots)
    found = set()
    for _ in range(40):
        target = rng.randint(0, top)
        word, x = (), word_to_element(rs, ())
        while len(word) < target:
            letter = rng.randint(1, rs.rank)
            nxt = word_to_element(rs, word + (letter,))
            if nxt.length > x.length:
                word, x = word + (letter,), nxt
        witness = cominuscule_witness(rs, x)
        assert witness == witness_by_elimination(rs, word)
        found.add(witness is None)
    assert found == {True, False}


@pytest.mark.parametrize("label", ["E6", "E7"])
def test_pass_exponents_lie_in_the_gamma_cone(label):
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_reduced_word_and_target(label))
    def check(case):
        rs, word, w = case
        gammas = gamma_sequence(rs, word).gammas
        exponents = {e for value in kclass_restrictions(rs, word).values() for e, _ in value.items()}
        in_cone = rt_ring._span_search(gammas)  # in_nonneg_integer_span, one memo for every exponent
        assert all(in_cone(negate(e)) for e in exponents)
        bound = max((height(g) for g in gammas), default=0)
        if gammas:
            expected = char_series(kclass_restriction(rs, w, word), gammas, bound)
            assert tangent_cone_series(rs, w, word, bound) == expected

    check()
