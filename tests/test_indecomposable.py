"""The pair criterion for indecomposable inversions against the exact span search."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kltangent import (
    build_root_system,
    enumerate_weyl_group,
    identity_element,
    inversion_set_of_inverse,
    is_integrally_indecomposable,
    kl_tangent_report,
    word_to_element,
)
from kltangent.tangent import _indecomposable_inversions


def _by_search(inversions):
    return frozenset(g for g in inversions if is_integrally_indecomposable(g, inversions))


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "G2", "F4"])
def test_pair_criterion_matches_search_over_whole_group(label):
    rs = build_root_system(label)
    for x in enumerate_weyl_group(rs):
        inversions = inversion_set_of_inverse(rs, x)
        assert _indecomposable_inversions(inversions) == _by_search(inversions)


@pytest.mark.parametrize("label", ["A32", "B32", "C32", "D32", "E6", "E7", "E8", "F4", "G2"])
def test_only_simple_roots_are_indecomposable_in_all_positive_roots(label):
    # the widest roots and the largest coefficients (6, in E8) that the byte packing meets
    rs = build_root_system(label)
    simple = frozenset(tuple(int(i == k) for i in range(rs.rank)) for k in range(rs.rank))
    assert _indecomposable_inversions(frozenset(rs.positive_roots)) == simple


_LARGE = {label: build_root_system(label) for label in ("E6", "E7", "E8")}


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(_LARGE)).flatmap(
        lambda label: st.tuples(st.just(label), st.lists(st.integers(1, _LARGE[label].rank), max_size=40))
    )
)
def test_report_flags_match_search_large_types(case):
    label, raw = case
    rs = _LARGE[label]
    x = word_to_element(rs, tuple(raw))
    inversions = inversion_set_of_inverse(rs, x)
    expected = _by_search(inversions)
    assert _indecomposable_inversions(inversions) == expected
    report = kl_tangent_report(rs, identity_element(rs), x)
    assert {status.gamma for status in report.statuses if status.evidence.indecomposable} == expected
