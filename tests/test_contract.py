"""The error contract of the public word-taking functions of ``tangent`` and of the ring objects.

Every function gets the same bad inputs; the table pins which exception each
one raises, with its message, so the order of the checks (position, letter,
reducedness, Bruhat order, the 20-letter guard, the cone of lambda) is part
of the contract.  Further tables pin the rank, operand and weight checks
of ``rt_ring``, the vector checks of the root helpers and the refusal of an element of another
root system by the element-taking functions of ``weyl`` and ``hecke``.
"""

import pytest

from kltangent import (
    ExponentOutsideCone,
    LaurentPoly,
    LengthBoundExceeded,
    LetterOutOfRange,
    NotBelow,
    NotReduced,
    TruncatedSeries,
    WrongType,
    act_on_root,
    all_reduced_words,
    build_root_system,
    canonical_reduced_word,
    char_series,
    format_root,
    gp_tangent_report,
    hecke_mult,
    identity_element,
    in_nonneg_integer_span,
    inverse,
    inversion_set_of_inverse,
    is_min_coset_rep,
    is_explicit_factor,
    kclass_restriction,
    kclass_restrictions,
    kl_tangent_membership,
    longest_element,
    reflect,
    root_to_epsilon,
    tangent_cone_coefficient,
    tangent_cone_series,
    te_curve_weights,
    type_a_tangent_oracle,
    word_to_element,
)
from kltangent.weyl import left_descents, left_multiply_simple, right_descents, right_multiply_simple


def _alpha1(rs):
    return (1,) + (0,) * (rs.rank - 1)


CALLS = {
    "kclass_restriction": lambda rs, w, s, j: kclass_restriction(rs, w, s),
    "kclass_restrictions": lambda rs, w, s, j: kclass_restrictions(rs, s),
    "tangent_cone_series": lambda rs, w, s, j: tangent_cone_series(rs, w, s, 2),
    "tangent_cone_coefficient": lambda rs, w, s, j: tangent_cone_coefficient(rs, (0,) * rs.rank, w, s),
    "tangent_cone_coefficient(+a1)": lambda rs, w, s, j: tangent_cone_coefficient(rs, _alpha1(rs), w, s),
    "te_curve_weights": lambda rs, w, s, j: te_curve_weights(rs, w, s),
    "kl_tangent_membership": lambda rs, w, s, j: kl_tangent_membership(rs, j, w, s),
    "is_explicit_factor": lambda rs, w, s, j: is_explicit_factor(rs, j, w, s),
    "type_a_tangent_oracle": lambda rs, w, s, j: type_a_tangent_oracle(rs, j, w, s),
}
POSITIONAL = ("kl_tangent_membership", "is_explicit_factor", "type_a_tangent_oracle")
CONE = ("tangent_cone_series", "tangent_cone_coefficient")
GUARDED = ("kclass_restriction", "kclass_restrictions") + CONE

_A6_W0 = canonical_reduced_word(build_root_system("A6"), longest_element(build_root_system("A6")))
_NOT_REDUCED_21 = _A6_W0[:20] + (_A6_W0[19],)
_A7_PREFIX_21 = canonical_reduced_word(build_root_system("A7"), longest_element(build_root_system("A7")))[:21]

LETTER = (LetterOutOfRange, "letter 9 out of range for A2")
NOT_REDUCED = (NotReduced, "word (1, 1) is not reduced over A2")
NOT_BELOW = (NotBelow, "target w is not below x in Bruhat order")
GUARD = (LengthBoundExceeded, "|s| = 21 exceeds the enumeration guard 20")
OUTSIDE_A2 = (ExponentOutsideCone, "-((1, 0)) is outside the cone of the ambient weights")


def _position(j, n):
    return (LetterOutOfRange, f"position {j} out of range for a word of length {n}")


# (id, type, word of w, s, j, outcome of every function unless overridden, overrides);
# an outcome is None for a return or (exception type, message).
CASES = [
    ("letter out of range", "A2", (1,), (1, 9), 1, LETTER, {}),
    ("letter before reducedness", "A2", (1,), (1, 1, 9), 1, LETTER, {}),
    ("not reduced", "A2", (1,), (1, 1), 1, NOT_REDUCED, {}),
    ("not below", "A2", (1, 2, 1), (1, 2), 1, NOT_BELOW, {"kclass_restrictions": None}),
    ("reducedness before order", "A2", (1, 2, 1), (1, 1), 1, NOT_REDUCED, {}),
    (
        "position 0", "A2", (1,), (1, 2, 1), 0, None,
        {**{f: _position(0, 3) for f in POSITIONAL}, "tangent_cone_coefficient(+a1)": OUTSIDE_A2},
    ),
    (
        "position past the end", "A2", (1,), (1, 2, 1), 4, None,
        {**{f: _position(4, 3) for f in POSITIONAL}, "tangent_cone_coefficient(+a1)": OUTSIDE_A2},
    ),
    (
        "position before reducedness", "A2", (1,), (1, 1), 3, NOT_REDUCED,
        {f: _position(3, 2) for f in POSITIONAL},
    ),
    (
        "21-letter reduced word", "A6", (), _A6_W0, 1, None,
        {
            **{f: GUARD for f in GUARDED},
            "tangent_cone_coefficient(+a1)": (
                ExponentOutsideCone, "-((1, 0, 0, 0, 0, 0)) is outside the cone of the ambient weights"
            ),
        },
    ),
    (
        "reducedness before the guard", "A6", (), _NOT_REDUCED_21, 1,
        (NotReduced, f"word {_NOT_REDUCED_21} is not reduced over A6"), {},
    ),
    ("order before the guard", "A7", (7,), _A7_PREFIX_21, 1, NOT_BELOW, {"kclass_restrictions": GUARD}),
    (
        "empty word", "A2", (), (), 1, None,
        {**{f: _position(1, 0) for f in POSITIONAL}, "tangent_cone_coefficient(+a1)": OUTSIDE_A2},
    ),
    (
        "outside type A", "B2", (), (1, 2), 1, None,
        {
            "type_a_tangent_oracle": (WrongType, "type-A oracle called on B2"),
            "tangent_cone_coefficient(+a1)": OUTSIDE_A2,
        },
    ),
    (
        "type before position", "B2", (), (1, 1), 0, (NotReduced, "word (1, 1) is not reduced over B2"),
        {
            "type_a_tangent_oracle": (WrongType, "type-A oracle called on B2"),
            "kl_tangent_membership": _position(0, 2),
            "is_explicit_factor": _position(0, 2),
        },
    ),
]


def _outcome(call):
    try:
        call()
    except Exception as exc:  # the table pins the exact type
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_word_functions_error_contract(case):
    _, label, w_word, s, j, default, overrides = case
    rs = build_root_system(label)
    w = word_to_element(rs, w_word)
    got = {name: _outcome(lambda call=call: call(rs, w, s, j)) for name, call in CALLS.items()}
    assert got == {name: overrides.get(name, default) for name in CALLS}


_A3_W0 = canonical_reduced_word(build_root_system("A3"), longest_element(build_root_system("A3")))

# (id, type, word of w, s, lambda, outcome of tangent_cone_coefficient): lambda must have rank coordinates.
LAMBDA_CASES = [
    (
        "lambda shorter than the rank", "A3", (), _A3_W0, (-1, -1),
        (ExponentOutsideCone, "-((-1, -1)) is outside the cone of the ambient weights"),
    ),
    (
        "lambda longer than the rank", "A3", (), _A3_W0, (-1, -1, 0, 0),
        (ExponentOutsideCone, "-((-1, -1, 0, 0)) is outside the cone of the ambient weights"),
    ),
]


@pytest.mark.parametrize("case", LAMBDA_CASES, ids=[case[0] for case in LAMBDA_CASES])
def test_cone_coefficient_exponent_contract(case):
    _, label, w_word, s, lam, outcome = case
    rs = build_root_system(label)
    w = word_to_element(rs, w_word)
    assert _outcome(lambda: tangent_cone_coefficient(rs, lam, w, s)) == outcome


_A2_SERIES = char_series(LaurentPoly({(-1, -1): 1}), [(1, 0), (0, 1)], 3)

# (id, call, outcome): the ring objects refuse to mix ranks, a polynomial and a series refuse each other
# as operands in either order, a series refuses a term outside the negative cone, and char_series
# refuses an empty or a non-positive weight list; the trusted _of paths are not checked.
RANK_CASES = [
    (
        "char_series numerator shorter than the weights",
        lambda: char_series(LaurentPoly({(-1, -1): 1}), [(1, 0, 0), (0, 1, 0)], 3),
        (WrongType, "rank mismatch: (1, 0, 0) has 3 coordinates, (-1, -1) has 2"),
    ),
    (
        "LaurentPoly sum of ranks 2 and 3",
        lambda: LaurentPoly.one(2) + LaurentPoly.one(3),
        (WrongType, "rank mismatch: (0, 0) has 2 coordinates, (0, 0, 0) has 3"),
    ),
    (
        "LaurentPoly product of ranks 2 and 3",
        lambda: LaurentPoly.one(2) * LaurentPoly.one(3),
        (WrongType, "rank mismatch: (0, 0) has 2 coordinates, (0, 0, 0) has 3"),
    ),
    (
        "LaurentPoly coefficient of a rank-3 query",
        lambda: LaurentPoly.one(2).coefficient((0, 0, 0)),
        (WrongType, "rank mismatch: (0, 0) has 2 coordinates, (0, 0, 0) has 3"),
    ),
    (
        "TruncatedSeries coefficient of a rank-3 query",
        lambda: _A2_SERIES.coefficient((-1, -1, 0)),
        (WrongType, "rank mismatch: (-1, -1) has 2 coordinates, (-1, -1, 0) has 3"),
    ),
    (
        "TruncatedSeries sum of ranks 2 and 3",
        lambda: TruncatedSeries({(-1, -1): 1}, 3) + TruncatedSeries({(-1, -1, 0): 1}, 3),
        (WrongType, "rank mismatch: (-1, -1) has 2 coordinates, (-1, -1, 0) has 3"),
    ),
    (
        "TruncatedSeries product of ranks 2 and 3",
        lambda: TruncatedSeries({(-1, -1): 1}, 3) * TruncatedSeries({(-1, -1, 0): 1}, 3),
        (WrongType, "rank mismatch: (-1, -1) has 2 coordinates, (-1, -1, 0) has 3"),
    ),
    (
        "LaurentPoly terms of ranks 1 and 2",
        lambda: LaurentPoly({(0,): 1, (0, 0): 2}),
        (WrongType, "rank mismatch: (0,) has 1 coordinates, (0, 0) has 2"),
    ),
    (
        "TruncatedSeries terms of ranks 2 and 3",
        lambda: TruncatedSeries({(-1, -1): 1, (-1, -1, 0): 1}, 3),
        (WrongType, "rank mismatch: (-1, -1) has 2 coordinates, (-1, -1, 0) has 3"),
    ),
    (
        "TruncatedSeries term outside the negative cone",
        lambda: TruncatedSeries({(1, 0): 1}, 3),
        (ExponentOutsideCone, "series exponent (1, 0) outside the negative cone"),
    ),
    (
        "TruncatedSeries term outside the negative cone with coefficient 0",
        lambda: TruncatedSeries({(-1, -1): 1, (0, 1): 0}, 3),
        (ExponentOutsideCone, "series exponent (0, 1) outside the negative cone"),
    ),
    (
        "char_series with no denominator weights",
        lambda: char_series(LaurentPoly.one(2), [], 3),
        (WrongType, "denominator weight list must be nonempty"),
    ),
    (
        "char_series with a zero weight",
        lambda: char_series(LaurentPoly.one(2), [(1, 0), (0, 0)], 3),
        (WrongType, "span vectors must be positive"),
    ),
    (
        "char_series with a weight of a negative coordinate",
        lambda: char_series(LaurentPoly.one(2), [(2, -1)], 3),
        (WrongType, "span vectors must be positive"),
    ),
    (
        "LaurentPoly plus a series",
        lambda: LaurentPoly.one(2) + TruncatedSeries({(0, 0): 1}, 3),
        (WrongType, "LaurentPoly and TruncatedSeries do not mix"),
    ),
    (
        "LaurentPoly minus a series",
        lambda: LaurentPoly.one(2) - TruncatedSeries({(0, 0): 1}, 3),
        (WrongType, "LaurentPoly and TruncatedSeries do not mix"),
    ),
    (
        "LaurentPoly times a series",
        lambda: LaurentPoly.one(2) * TruncatedSeries({(0, 0): 1}, 3),
        (WrongType, "LaurentPoly and TruncatedSeries do not mix"),
    ),
    (
        "TruncatedSeries plus a polynomial",
        lambda: TruncatedSeries({(0, 0): 1}, 3) + LaurentPoly.one(2),
        (WrongType, "TruncatedSeries and LaurentPoly do not mix"),
    ),
    (
        "TruncatedSeries minus a polynomial",
        lambda: TruncatedSeries({(0, 0): 1}, 3) - LaurentPoly.one(2),
        (WrongType, "LaurentPoly and TruncatedSeries do not mix"),
    ),
    (
        "TruncatedSeries times a polynomial",
        lambda: TruncatedSeries({(0, 0): 1}, 3) * LaurentPoly.one(2),
        (WrongType, "TruncatedSeries and LaurentPoly do not mix"),
    ),
    ("the zero polynomial has no rank", lambda: LaurentPoly.zero() * LaurentPoly.one(3), None),
    ("the empty series has no rank", lambda: TruncatedSeries({}, 3) * TruncatedSeries({(-1, -1, 0): 1}, 3), None),
]


@pytest.mark.parametrize("case", RANK_CASES, ids=[case[0] for case in RANK_CASES])
def test_ring_rank_contract(case):
    _, call, outcome = case
    assert _outcome(call) == outcome


def test_empty_ring_objects_answer_a_query_of_any_rank():
    assert LaurentPoly.zero().coefficient((0, 0, 0)) == 0
    assert TruncatedSeries({}, 3).coefficient((-1, -1, 0)) == 0


_D4 = build_root_system("D4")

# (id, call, outcome): the vector inputs of the root helpers are checked, with typed errors.
HELPER_CASES = [
    (
        "root_to_epsilon of a vector shorter than the rank",
        lambda: root_to_epsilon(_D4, (1,)),
        (WrongType, "expected a root-lattice vector of length 4"),
    ),
    (
        "root_to_epsilon of a vector longer than the rank",
        lambda: root_to_epsilon(_D4, (1, 0, 0, 0, 0)),
        (WrongType, "expected a root-lattice vector of length 4"),
    ),
    (
        "format_root of a vector longer than the rank",
        lambda: format_root(_D4, (1, 0, 0, 0, 5)),
        (WrongType, "expected a root-lattice vector of length 4"),
    ),
    (
        "format_root of a vector shorter than the rank",
        lambda: format_root(_D4, (1,)),
        (WrongType, "expected a root-lattice vector of length 4"),
    ),
    (
        "act_on_root of a vector longer than the rank",
        lambda: act_on_root(word_to_element(_D4, (1, 2)), (1, 0, 0, 0, 7)),
        (WrongType, "expected a root-lattice vector of length 4"),
    ),
    (
        "act_on_root of a vector shorter than the rank",
        lambda: act_on_root(word_to_element(_D4, (1, 2)), (1,)),
        (WrongType, "expected a root-lattice vector of length 4"),
    ),
    (
        "reflect of a vector longer than the rank",
        lambda: reflect(_D4, 1, (1, 0, 0, 0, 9)),
        (WrongType, "expected a root-lattice vector of length 4"),
    ),
    (
        "reflect of a vector shorter than the rank",
        lambda: reflect(_D4, 1, (1,)),
        (WrongType, "expected a root-lattice vector of length 4"),
    ),
    (
        "reflect by node 9",
        lambda: reflect(_D4, 9, (1, 0, 0, 0)),
        (LetterOutOfRange, "simple index 9 out of range for D4"),
    ),
    (
        "reflect by node 0",
        lambda: reflect(_D4, 0, (1, 0, 0, 0)),
        (LetterOutOfRange, "simple index 0 out of range for D4"),
    ),
    (
        "span of a vector of another rank",
        lambda: in_nonneg_integer_span([(1, 0)], (1,)),
        (WrongType, "rank mismatch: (1, 0) has 2 coordinates, (1,) has 1"),
    ),
    (
        "span of an empty target",
        lambda: in_nonneg_integer_span([(1, 0)], ()),
        (WrongType, "span target must be nonempty"),
    ),
    (
        "span with no vectors and an empty target",
        lambda: in_nonneg_integer_span([], ()),
        (WrongType, "span target must be nonempty"),
    ),
    (
        "span of a non-positive vector",
        lambda: in_nonneg_integer_span([(1, -1)], (1, 0)),
        (WrongType, "span vectors must be positive"),
    ),
    (
        "span of the zero vector",
        lambda: in_nonneg_integer_span([(0, 0)], (1, 0)),
        (WrongType, "span vectors must be positive"),
    ),
]


@pytest.mark.parametrize("case", HELPER_CASES, ids=[case[0] for case in HELPER_CASES])
def test_root_helper_vector_contract(case):
    _, call, outcome = case
    assert _outcome(call) == outcome


# Each element-taking function, called on an element of the host root system's Weyl group.
ELEMENT_CALLS = {
    "inverse": lambda rs, x: inverse(rs, x),
    "right_descents": lambda rs, x: right_descents(rs, x),
    "left_descents": lambda rs, x: left_descents(rs, x),
    "canonical_reduced_word": lambda rs, x: canonical_reduced_word(rs, x),
    "all_reduced_words": lambda rs, x: all_reduced_words(rs, x),
    "right_multiply_simple": lambda rs, x: right_multiply_simple(rs, x, rs.rank),
    "left_multiply_simple": lambda rs, x: left_multiply_simple(rs, x, rs.rank),
    "is_min_coset_rep": lambda rs, x: is_min_coset_rep(rs, x, {1}),
    "inversion_set_of_inverse": lambda rs, x: inversion_set_of_inverse(rs, x),
    "hecke_mult": lambda rs, x: hecke_mult(rs, x, rs.rank),
    "gp_tangent_report": lambda rs, x: gp_tangent_report(rs, identity_element(rs), x, ()),
}
# (host type, foreign type, word of the foreign element): a lane form carries no
# type, so without the check a missing or extra lane would read as a wrong answer
FOREIGN = [("A3", "A2", (1, 2, 1)), ("B2", "A2", (1, 2, 1)), ("A2", "A3", (1, 2, 3, 1))]


@pytest.mark.parametrize("name", sorted(ELEMENT_CALLS))
@pytest.mark.parametrize("host, foreign, word", FOREIGN, ids=[f"{f} in {h}" for h, f, _ in FOREIGN])
def test_element_of_another_root_system_is_refused(name, host, foreign, word):
    rs = build_root_system(host)
    x = word_to_element(build_root_system(foreign), word)
    assert _outcome(lambda: ELEMENT_CALLS[name](rs, x)) == (
        WrongType, f"element of another root system passed to {host}"
    )
    # an element of a second build of the host type passes
    twin = word_to_element(build_root_system(host), (1, 2))
    assert _outcome(lambda: ELEMENT_CALLS[name](rs, twin)) is None
