import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kltangent import (
    BeyondTruncation,
    ExponentOutsideCone,
    LaurentPoly,
    TruncatedSeries,
    char_series,
    in_nonneg_integer_span,
    lambda_minus_one,
    one_minus_e,
)
from oracles import char_series_by_orthant, count_lattice_solutions

A1, A2, A12 = (1, 0), (0, 1), (1, 1)


def exponents(rank=2):
    return st.tuples(*(st.integers(-3, 3) for _ in range(rank)))


def polys(rank=2):
    return st.dictionaries(exponents(rank), st.integers(-5, 5), max_size=5).map(LaurentPoly)


def test_expansion_example():
    p = one_minus_e(A1) * one_minus_e(A2)
    assert p == LaurentPoly({(0, 0): 1, (-1, 0): -1, (0, -1): -1, (-1, -1): 1})
    assert (p + p.scale(-1)).is_zero


def test_inclusion_exclusion_example():
    # (1-x) + (1-y) - (1-x)(1-y) collapses to 1 - xy in character form
    total = one_minus_e(A1) + one_minus_e(A2) - one_minus_e(A1) * one_minus_e(A2)
    assert total == LaurentPoly({(0, 0): 1, (-1, -1): -1})


def test_lambda_minus_one():
    assert lambda_minus_one([]) == LaurentPoly({(): 1})
    assert lambda_minus_one([A1]) == one_minus_e(A1)
    product = lambda_minus_one([A1, A12, A2])
    assert product == LaurentPoly(
        {(0, 0): 1, (-1, 0): -1, (0, -1): -1, (-2, -1): 1, (-1, -2): 1, (-2, -2): -1}
    )
    assert product == one_minus_e(A1) * one_minus_e(A12) * one_minus_e(A2)


@given(polys(), polys(), polys())
@settings(max_examples=150, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@given(polys())
@settings(max_examples=100, deadline=None)
def test_additive_inverse_and_units(p):
    assert (p + p.scale(-1)).is_zero
    assert p * LaurentPoly.one(2) == p
    assert (p * LaurentPoly.zero()).is_zero


def test_geometric_series_example():
    s = char_series(LaurentPoly.one(2), [A1], 3)
    assert s.items() == [((-3, 0), 1), ((-2, 0), 1), ((-1, 0), 1), ((0, 0), 1)]
    assert s.coefficient((-2, 0)) == 1
    with pytest.raises(BeyondTruncation):
        s.coefficient((-4, 0))
    assert s.coefficient((1, -1)) == 0  # outside the negative orthant: exactly zero


def test_char_series_cancellation_example():
    numerator = LaurentPoly({(0, 0): 1, (-1, -1): -1})
    series = char_series(numerator, [A1, A12, A2], 2)
    assert series.coefficient((-1, -1)) == 1
    # same series written through its closed form, expanded to the same bound
    closed = (
        char_series(LaurentPoly.one(2), [A1], 4)
        + char_series(LaurentPoly.one(2), [A2], 4)
        + TruncatedSeries({(0, 0): -1}, 4)
    ) * char_series(LaurentPoly.one(2), [A12], 4)
    assert char_series(numerator, [A1, A2, A12], 4) == closed


def test_char_series_cone_guard():
    with pytest.raises(ExponentOutsideCone):
        char_series(LaurentPoly.monomial((0, -1)), [A1], 4)
    with pytest.raises(ValueError):
        char_series(LaurentPoly.one(2), [], 4)


def test_in_nonneg_integer_span():
    assert in_nonneg_integer_span([A1, A2], (2, 3))
    assert not in_nonneg_integer_span([A12], (1, 0))
    assert in_nonneg_integer_span([A1, A12], (3, 2))
    assert not in_nonneg_integer_span([A1, A12], (1, 2))
    assert in_nonneg_integer_span([A1], (0, 0))


@given(
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda v: sum(v) >= 1),
             min_size=1, max_size=4),
    st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda mu: sum(mu) <= 4),
)
@settings(max_examples=150, deadline=None)
def test_series_coefficients_count_lattice_points(weights, mu):
    series = char_series(LaurentPoly.one(2), weights, 4)
    expected = count_lattice_solutions(weights, mu)
    assert series.coefficient((-mu[0], -mu[1])) == expected


@given(st.lists(st.integers(0, 3), min_size=2, max_size=2),
       st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=100, deadline=None)
def test_series_inversion_consistency(mu, c0, c1):
    # p / prod(1 - e^{-beta}) multiplied back by prod(1 - e^{-beta}) returns p
    weights = [A1, A2, A12]
    p = LaurentPoly({(0, 0): c0, (-mu[0], -mu[1]): c1})
    bound = 6
    series = char_series(p, weights, bound)
    back = TruncatedSeries(dict(series.items()), bound) * TruncatedSeries(
        dict(lambda_minus_one(weights).items()), bound
    )
    expected = TruncatedSeries(dict(p.items()), bound)
    assert back == expected


def _series_cases():
    """(numerator, weights, bound) with numerator exponents in the negative cone of the weights.

    Weights may repeat and may be collinear ((1, 0) with (2, 0), say).
    """
    vectors = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)).filter(lambda v: sum(v) >= 1)

    @st.composite
    def build(draw):
        weights = draw(st.lists(vectors, min_size=1, max_size=5))
        if draw(st.booleans()):  # force a repeated and a collinear weight
            weights += [weights[0], tuple(2 * c for c in weights[0])]
        terms = {}
        for _ in range(draw(st.integers(1, 4))):
            ks = draw(st.lists(st.integers(0, 2), min_size=len(weights), max_size=len(weights)))
            exponent = tuple(-sum(k * b[i] for k, b in zip(ks, weights)) for i in range(3))
            terms[exponent] = terms.get(exponent, 0) + draw(st.integers(-3, 3))
        return LaurentPoly(terms), weights, draw(st.integers(0, 7))

    return build()


@given(_series_cases())
@settings(max_examples=150, deadline=None)
def test_char_series_matches_the_orthant_walk(case):
    numerator, weights, bound = case
    assert char_series(numerator, weights, bound) == char_series_by_orthant(numerator, weights, bound)


def test_char_series_repeated_and_collinear_weights():
    weights = [A1, A1, (2, 0), A12]
    numerator = LaurentPoly({(0, 0): 1, (-2, 0): -1})
    assert char_series(numerator, weights, 6) == char_series_by_orthant(numerator, weights, 6)
    # 1 / (1 - e^{-a1})^2: the coefficient of e^{-k a1} is k + 1
    square = char_series(LaurentPoly.one(2), [A1, A1], 5)
    assert [square.coefficient((-k, 0)) for k in range(6)] == [1, 2, 3, 4, 5, 6]
