"""Weyl elements in point form against the matrix definition and the tuple reflections, over whole groups."""

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kltangent import (
    act_on_root,
    bruhat_leq,
    build_root_system,
    canonical_reduced_word,
    enumerate_weyl_group,
    identity_element,
    inverse,
    inversion_set_of_inverse,
    is_reduced,
    multiply,
    word_to_element,
)
from kltangent.rootsys import pack_point
from kltangent.weyl import left_descents, right_descents, right_multiply_simple
from oracles import (
    mat_mul,
    matrix_canonical_word,
    matrix_group,
    matrix_inversions,
    matrix_length,
    matrix_of_word,
    matrix_right_descents,
    reflect_weight,
)


@pytest.fixture(scope="module", params=["A3", "B3", "C3", "D4", "G2", "F4"])
def group(request):
    rs = build_root_system(request.param)
    return rs, enumerate_weyl_group(rs), matrix_group(rs)


def test_enumeration_order_and_equality(group):
    rs, elements, oracle = group
    assert [x.rows for x in elements] == [m for m, _ in oracle]
    assert len(set(elements)) == len(elements)
    for x, (_, word) in zip(elements, oracle):
        y = word_to_element(rs, word)
        assert y == x and hash(y) == hash(x)


def test_length_and_descents(group):
    rs, elements, oracle = group
    for x, (m, word) in zip(elements, oracle):
        assert x.length == matrix_length(rs, m) == len(word)
        assert right_descents(rs, x) == matrix_right_descents(rs, m)
        assert left_descents(rs, x) == matrix_right_descents(rs, matrix_of_word(rs, word[::-1]))


def test_inverse_and_multiply(group):
    rs, elements, oracle = group
    rng = random.Random(5)
    sample = rng.sample(range(len(elements)), 4)
    lengths = {m: len(word) for m, word in oracle}
    for x, (m, word) in zip(elements, oracle):
        inv = inverse(rs, x)
        assert inv.rows == matrix_of_word(rs, word[::-1]) and inv.length == x.length
        for k in sample:
            y, (my, _) = elements[k], oracle[k]
            product = multiply(rs, x, y)
            assert product.rows == mat_mul(m, my)
            assert product.length == lengths[product.rows]


def test_action_inversions_and_canonical_word(group):
    rs, elements, oracle = group
    for x, (m, word) in zip(elements, oracle):
        for j, alpha in enumerate(rs.simple_roots):
            assert act_on_root(x, alpha) == tuple(row[j] for row in m)
        assert inversion_set_of_inverse(rs, x) == matrix_inversions(rs, m)
        assert canonical_reduced_word(rs, x) == matrix_canonical_word(rs, word)


def _tuple_point(rs, word):
    """x^{-1}(rho) for the product x of the word: s_a applied to the tuple point, letter by letter from rho."""
    point = (1,) * rs.rank
    for letter in word:
        point = reflect_weight(point, letter - 1, rs.dynkin.weight_links)
    return point


def test_point_is_the_tuple_fold_of_the_canonical_word(group):
    rs, elements, _ = group
    points = {}
    for x in elements:
        assert x.point == _tuple_point(rs, canonical_reduced_word(rs, x))
        assert x.lanes == pack_point(x.point)
        points[x.point] = x
    # equality and hash agree with equality of the point, across construction paths
    rng = random.Random(3)
    for x in elements:
        y = word_to_element(rs, tuple(rng.randint(1, rs.rank) for _ in range(rng.randint(0, 12))))
        assert points[y.point] == y and hash(points[y.point]) == hash(y)
        assert (x == y) == (x.point == y.point)
    assert len(set(elements)) == len(points) == len(elements)


_LANE_SYSTEMS = {label: build_root_system(label) for label in ("E8", "B32", "C32", "D32")}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(_LANE_SYSTEMS)).flatmap(
        lambda label: st.tuples(st.just(label), st.lists(st.integers(1, _LANE_SYSTEMS[label].rank), max_size=80))
    )
)
def test_lanes_round_trip_the_tuple_point(case):
    """The lane form decodes to the tuple fold of any word, and re-encodes to itself, up to rank 32."""
    label, raw = case
    rs = _LANE_SYSTEMS[label]
    x = word_to_element(rs, tuple(raw))
    point = _tuple_point(rs, raw)
    assert x.point == point and pack_point(point) == x.lanes
    assert repr(x) == f"WeylElement(length={x.length}, point={point})"
    y = word_to_element(rs, canonical_reduced_word(rs, x))
    assert y == x and hash(y) == hash(x) and y.point == point
    z = right_multiply_simple(rs, x, raw[0]) if raw else x
    assert (z == x) == (z.point == point)


_LARGE = {label: build_root_system(label) for label in ("E6", "E7", "E8")}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(_LARGE)).flatmap(
        lambda label: st.tuples(st.just(label), st.lists(st.integers(1, _LARGE[label].rank), max_size=40))
    )
)
def test_canonical_word_round_trip_large_types(case):
    label, raw = case
    rs = _LARGE[label]
    x = word_to_element(rs, tuple(raw))
    assert x.rows == matrix_of_word(rs, raw)
    word = canonical_reduced_word(rs, x)
    assert word_to_element(rs, word) == x
    assert len(word) == x.length and is_reduced(rs, word)
    # Lexicographically least: at every position, no smaller letter is a left
    # descent of the remaining suffix, i.e. prefixing it keeps the word reduced.
    for k, letter in enumerate(word):
        for smaller in range(1, letter):
            assert is_reduced(rs, (smaller,) + word[k:])
    assert bruhat_leq(rs, identity_element(rs), x)
    assert bruhat_leq(rs, x, x)


def _cache_sizes(rs):
    return {key: len(value) if hasattr(value, "__len__") else id(value) for key, value in rs._cache.items()}


def test_long_lived_root_system_caches_stay_bounded():
    rs = build_root_system("E7")
    rng = random.Random(11)
    pool = [
        word_to_element(rs, tuple(rng.randint(1, rs.rank) for _ in range(rng.randint(0, 40))))
        for _ in range(64)
    ]
    bruhat_leq(rs, pool[0], pool[1])
    right_multiply_simple(rs, pool[0], 1)
    before = _cache_sizes(rs)
    for _ in range(10_000):
        u, v = rng.choice(pool), rng.choice(pool)
        bruhat_leq(rs, u, v)
        right_multiply_simple(rs, v, rng.randint(1, rs.rank))
    assert _cache_sizes(rs) == before


def test_element_operations_add_no_cache_entry():
    # the reflection tables live on rs.dynkin, built with the root system
    rs = build_root_system("E6")
    x = word_to_element(rs, (1, 3, 4, 2, 5, 4, 6))
    y = word_to_element(rs, (2, 4, 5))
    word = canonical_reduced_word(rs, multiply(rs, x, inverse(rs, y)))
    bruhat_leq(rs, y, x)
    act_on_root(x, rs.highest_root)
    inversion_set_of_inverse(rs, x)
    left_descents(rs, x)
    right_multiply_simple(rs, x, 1)
    assert is_reduced(rs, word) and rs._cache == {}


_GUARD_SCRIPT = textwrap.dedent(
    """
    import sys
    from kltangent import build_root_system, gamma_sequence, weyl

    if not sys.flags.optimize:
        sys.exit("not running under -O")
    rs = build_root_system("A2")
    real = weyl._gammas
    wrong_roots = {
        "negative": (-1, 0),  # fails positivity
        "repeated": (1, 0),  # repeats gamma_1
        "outside": (0, 1),  # positive and distinct, but not in I(x^{-1})
    }
    for name, wrong in wrong_roots.items():
        weyl._gammas = lambda rs, w, wrong=wrong: real(rs, w)[:-1] + (wrong,)
        try:
            gamma_sequence(rs, (1, 2))
        except AssertionError:
            print(name, "raised")
    """
)


def test_gamma_guards_survive_python_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-O", "-c", _GUARD_SCRIPT],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:3] == ["negative raised", "repeated raised", "outside raised"]
