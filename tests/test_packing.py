"""Edges of the packed exponents behind the signed pass and the series spread.

The pass and the spread keep every exponent -nu as one int with digits of a
fixed width (``rt_ring._Packing``); the classes and series they decode must
behave exactly like ones built from exponent tuples.
"""

import pytest

from kltangent import (
    BeyondTruncation,
    LaurentPoly,
    TruncatedSeries,
    build_root_system,
    char_series,
    gamma_sequence,
    group_table,
    height,
    identity_element,
    kclass_restriction,
    kclass_restrictions,
    tangent_cone_coefficient,
    tangent_cone_series,
    word_to_element,
)
from kltangent.rt_ring import _Packing
from oracles import kclasses_by_enumeration, oracle_spread


def test_packing_round_trip_and_widths():
    for limit, width in ((0, 8), (255, 8), (256, 16), (65_535, 16), (65_536, 32), (2**40, 64), (2**64, 128)):
        packing = _Packing(3, limit)
        assert packing.width == width
        nu = (limit, 0, limit // 3)
        assert packing.exponents([packing.pack(nu), 0]) == [(-limit, 0, -(limit // 3)), (0, 0, 0)]
        assert packing.pack(nu) < packing.cap(sum(nu)) <= packing.pack((0, 0, sum(nu) + 1))


@pytest.mark.parametrize("label,word,bound", [("A1", (1,), 300), ("A2", (2, 1), 256)])
def test_cone_series_past_one_byte(label, word, bound):
    """Bounds of 256 and more need digits of 16 bits; every w <= x, w = e and w = x among them."""
    rs = build_root_system(label)
    gammas = gamma_sequence(rs, word).gammas
    x = word_to_element(rs, word)
    classes = kclasses_by_enumeration(rs, word)
    assert identity_element(rs) in classes and x in classes
    for w, poly in classes.items():
        series = tangent_cone_series(rs, w, word, bound)
        assert _Packing(rs.rank, bound).width == 16
        assert series == oracle_spread(poly, gammas, bound)
    assert tangent_cone_series(rs, x, word, bound).items() == [((0,) * rs.rank, 1)]


def test_char_series_past_one_byte():
    weights = [(1, 0), (1, 1)]
    numerator = LaurentPoly({(0, 0): 1, (-1, 0): -2, (-5, -3): 5, (-300, 0): 7, (-301, 0): 1})
    series = char_series(numerator, weights, 300)
    assert _Packing(2, 300).width == 16
    assert series == oracle_spread(numerator, weights, 300)


def test_empty_word():
    rs = build_root_system("A2")
    e = identity_element(rs)
    assert kclass_restriction(rs, e, ()) == LaurentPoly.one(2)
    assert kclass_restrictions(rs, ()) == {e: LaurentPoly.one(2)}
    for bound in (0, 3):  # the variety is a point: Char C = 1
        assert tangent_cone_series(rs, e, (), bound) == TruncatedSeries({(0, 0): 1}, bound)
    assert tangent_cone_coefficient(rs, (0, 0), e, ()) == 1
    # a negative bound keeps no term, as for a nonempty word
    assert tangent_cone_series(rs, e, (), -1) == tangent_cone_series(rs, e, (1,), -1) == TruncatedSeries({}, -1)


def _same_as_rebuilt(value, rebuilt):
    assert value == rebuilt and rebuilt == value
    assert hash(value) == hash(rebuilt)
    assert value.items() == rebuilt.items()


def test_packed_and_tuple_series_agree():
    """Classes and series from the trusted constructors equal their rebuilds through the validating ones.

    A stored zero coefficient or a key that is not an exponent tuple would
    tell them apart.  Canonical words and every w <= x of A3, B3 and G2, the
    series at the largest gamma height; then sums and products of series.
    """
    for label in ("A3", "B3", "G2"):
        rs = build_root_system(label)
        gt = group_table(rs)
        masks = gt.leq_masks()
        for idx in range(1, len(gt.elements)):  # x = e has no series
            word = gt.word_of(idx)
            for poly in kclass_restrictions(rs, word).values():
                _same_as_rebuilt(poly, LaurentPoly(poly.items()))
            bound = max(map(height, gamma_sequence(rs, word).gammas))
            for w_id in range(len(gt.elements)):
                if (masks[idx] >> w_id) & 1:
                    series = tangent_cone_series(rs, gt.elements[w_id], word, bound)
                    _same_as_rebuilt(series, TruncatedSeries(dict(series.items()), series.bound))
    rs = build_root_system("B3")
    word = (1, 2, 3, 2, 1)
    w = word_to_element(rs, (2, 3))
    packed = tangent_cone_series(rs, w, word, 4)
    plain = TruncatedSeries(dict(packed.items()), 4)
    _same_as_rebuilt(packed, plain)
    other = tangent_cone_series(rs, identity_element(rs), word, 3)
    assert packed + other == plain + TruncatedSeries(dict(other.items()), 3)
    assert packed * other == plain * TruncatedSeries(dict(other.items()), 3)
    assert (packed * other).bound == 3
    assert packed != tangent_cone_series(rs, w, word, 3)


def test_coefficient_edges():
    rs = build_root_system("A2")
    word = (1, 2, 1)
    series = tangent_cone_series(rs, identity_element(rs), word, 3)
    plain = TruncatedSeries(dict(series.items()), 3)
    for s in (series, plain):
        assert s.coefficient((-1, -1)) == plain.coefficient((-1, -1)) != 0
        assert s.coefficient((1, -2)) == 0  # outside the negative cone
        with pytest.raises(BeyondTruncation):
            s.coefficient((-2, -2))  # height 4 past the bound 3
        assert s.coefficient((-256, 255)) == 0  # wide, but outside the cone
    # Height 300 within the bound, with a component wider than one byte.
    narrow = TruncatedSeries({(-44, -1): 3, (-1, 0): 2}, 1000)
    assert narrow.coefficient((-300, 0)) == 0
    assert narrow.coefficient((-44, -1)) == 3 and narrow.coefficient((-1, 0)) == 2
