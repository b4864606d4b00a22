import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kltangent import (
    CartanType,
    InvalidCartanType,
    WrongType,
    act_on_root,
    build_root_system,
    cominuscule_nodes,
    enumerate_weyl_group,
    format_root,
    height,
    reflect,
    root_from_epsilon,
    root_to_epsilon,
    simple_reflection,
)
from kltangent.rootsys import _LANE_REACH, _edges, pack_point
from oracles import mat_act, reflect_weight, root_from_epsilon_by_elimination, simple_reflection_matrix, solve_rational


def test_parse_labels():
    assert CartanType.parse("A3") == CartanType("A", 3)
    assert CartanType.parse("d4") == CartanType("D", 4)
    assert CartanType.parse(" g2 ") == CartanType("G", 2)
    assert str(CartanType.parse("B10")) == "B10"


@pytest.mark.parametrize("bad", ["A0", "B1", "C1", "D3", "E5", "E9", "F3", "G3", "H3", "X2", "A", "3"])
def test_rank_constraints(bad):
    with pytest.raises(InvalidCartanType):
        CartanType.parse(bad)


def test_a2_positive_roots(a2):
    assert set(a2.positive_roots) == {(1, 0), (0, 1), (1, 1)}


@pytest.mark.parametrize(
    "label,count,highest",
    [
        ("A1", 1, (1,)),
        ("A3", 6, (1, 1, 1)),
        ("A4", 10, (1, 1, 1, 1)),
        ("B2", 4, (1, 2)),
        ("C2", 4, (2, 1)),
        ("B3", 9, (1, 2, 2)),
        ("C3", 9, (2, 2, 1)),
        ("D4", 12, (1, 2, 1, 1)),
        ("D5", 20, (1, 2, 2, 1, 1)),
        ("G2", 6, (3, 2)),
        ("F4", 24, (2, 3, 4, 2)),
        ("E6", 36, (1, 2, 2, 3, 2, 1)),
        ("E7", 63, (2, 2, 3, 4, 3, 2, 1)),
        ("E8", 120, (2, 3, 4, 6, 5, 4, 3, 2)),
    ],
)
def test_positive_root_counts_and_highest(label, count, highest):
    rs = build_root_system(label)
    assert len(rs.positive_roots) == count
    assert rs.highest_root == highest
    assert sum(1 for v in rs.positive_roots if height(v) == 1) == rs.rank


def test_root_ordering_is_by_height_then_lex(d4):
    heights = [height(v) for v in d4.positive_roots]
    assert heights == sorted(heights)
    for a, b in zip(d4.positive_roots, d4.positive_roots[1:]):
        assert (height(a), a) < (height(b), b)


def test_reflect_examples(a2):
    assert reflect(a2, 1, (0, 1)) == (1, 1)
    assert reflect(a2, 1, (1, 0)) == (-1, 0)
    assert reflect(a2, 1, (1, 1)) == (0, 1)


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "G2", "F4"])
def test_reflect_involution_and_closure(label):
    rs = build_root_system(label)
    roots = set(rs.positive_roots) | {tuple(-c for c in v) for v in rs.positive_roots}
    for alpha in rs.positive_roots:
        for i in range(1, rs.rank + 1):
            image = reflect(rs, i, alpha)
            assert image in roots
            assert reflect(rs, i, image) == alpha
            # s_i sends alpha to a negative root iff alpha is alpha_i itself
            simple = tuple(1 if k == i - 1 else 0 for k in range(rs.rank))
            assert (min(image) < 0) == (alpha == simple)


@pytest.mark.parametrize(
    "label,nodes",
    [
        ("A3", {1, 2, 3}),
        ("A4", {1, 2, 3, 4}),
        ("B3", {1}),
        ("C3", {3}),
        ("D4", {1, 3, 4}),
        ("D5", {1, 4, 5}),
        ("E6", {1, 6}),
        ("E7", {7}),
        ("E8", set()),
        ("F4", set()),
        ("G2", set()),
    ],
)
def test_cominuscule_nodes(label, nodes):
    assert cominuscule_nodes(build_root_system(label)) == nodes


def test_epsilon_round_trip(d4):
    # the inversion-set fixtures of the D4 demo, given in epsilon form
    pairs = [
        ((1, 0, -1, 0), (1, 1, 0, 0)),
        ((1, 1, 0, 0), (1, 2, 1, 1)),
        ((0, 1, -1, 0), (0, 1, 0, 0)),
        ((0, 1, 0, -1), (0, 1, 1, 0)),
        ((0, 1, 0, 1), (0, 1, 0, 1)),
    ]
    for eps, coeffs in pairs:
        assert root_from_epsilon(d4, eps) == coeffs
        assert root_to_epsilon(d4, coeffs) == eps


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4"])
def test_epsilon_round_trip_all_roots(label):
    rs = build_root_system(label)
    for v in rs.positive_roots:
        assert root_from_epsilon(rs, root_to_epsilon(rs, v)) == v


def test_epsilon_rejects_non_lattice(d4):
    with pytest.raises(WrongType):
        root_from_epsilon(d4, (1, 0, 0, 0))  # eps1 is a weight, not a root
    with pytest.raises(WrongType):
        root_from_epsilon(build_root_system("G2"), (1, 0))


_EPSILON_TYPES = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 8)] + [f"C{n}" for n in range(2, 8)]
    + [f"D{n}" for n in range(4, 9)]
)


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # type and message are compared
        return type(exc), str(exc)


@pytest.mark.parametrize("label", _EPSILON_TYPES)
def test_root_from_epsilon_matches_the_elimination(label):
    # partial sums checked by the forward map against Gauss-Jordan on the epsilon matrix:
    # every positive root, random integer vectors (mostly off the lattice), a vector one too long, ()
    rs = build_root_system(label)
    dim = len(root_to_epsilon(rs, rs.simple_roots[0]))
    rng = random.Random(f"epsilon-{label}")
    inputs = [root_to_epsilon(rs, v) for v in rs.positive_roots]
    inputs += [tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(800)]
    inputs += [(1,) * (dim + 1), ()]
    for eps in inputs:
        expected = _outcome(lambda: root_from_epsilon_by_elimination(rs, eps))
        assert _outcome(lambda: root_from_epsilon(rs, eps)) == expected, eps


def test_format_root(d4):
    assert format_root(d4, (1, 2, 1, 1)) == "a1+2a2+a3+a4"
    assert format_root(d4, (-1, 0, 0, -2)) == "-a1-2a4"
    assert format_root(d4, (0, 0, 0, 0)) == "0"


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=0, max_size=5),
        st.lists(st.integers(-5, 5), min_size=n, max_size=n),
    ))
)
def test_solve_rational_solves_consistent_systems(system):
    rows, known = system
    rhs = [sum(a * c for a, c in zip(row, known)) for row in rows]
    solution = solve_rational(rows, rhs, len(known))
    assert solution is not None and len(solution) == len(known)
    assert all(sum(a * c for a, c in zip(row, solution)) == b for row, b in zip(rows, rhs))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-3, 3), min_size=1, max_size=4),
    st.integers(-5, 5),
    st.integers(1, 5),
)
def test_solve_rational_rejects_contradictory_rows(row, b, shift):
    assert solve_rational([row, row], [b, b + shift], len(row)) is None


_CLOSURE_TYPES = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 7)] + [f"C{n}" for n in range(2, 7)]
    + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("label", _CLOSURE_TYPES)
def test_positive_roots_equal_the_oracle_closure(label):
    # closure of the simple roots under the matrices s_i, built from the Cartan matrix alone
    rs = build_root_system(label)
    matrices = [simple_reflection_matrix(rs, i) for i in range(1, rs.rank + 1)]
    seen = set(rs.simple_roots)
    frontier = list(seen)
    while frontier:
        images = {mat_act(m, v) for v in frontier for m in matrices}
        frontier = [v for v in images if min(v) >= 0 and v not in seen]
        seen.update(frontier)
    assert set(rs.positive_roots) == seen
    assert len(rs.positive_roots) == len(seen)


@pytest.mark.parametrize("label", _CLOSURE_TYPES)
def test_norms_symmetrize_the_cartan_matrix(label):
    # A[i][j] = <alpha_i, alpha_j^vee>, so (alpha_i, alpha_j) = A[i][j] (alpha_j, alpha_j) / 2 is symmetric
    rs = build_root_system(label)
    norms, a = rs.dynkin.norms, rs.cartan_matrix
    assert all(type(q) is int and q > 0 for q in norms)
    assert gcd(*norms) == 1
    n = rs.rank
    assert all(a[i][j] * norms[j] == a[j][i] * norms[i] for i in range(n) for j in range(n))


@pytest.mark.parametrize("label", ["A4", "B4", "C4", "D5", "E6", "F4", "G2"])
def test_reflect_and_act_on_root_match_the_oracle_matrices(label):
    rs = build_root_system(label)
    roots = list(rs.positive_roots) + [tuple(-c for c in v) for v in rs.positive_roots]
    for i in range(1, rs.rank + 1):
        m = simple_reflection_matrix(rs, i)
        s_i = simple_reflection(rs, i)
        for v in roots:
            assert reflect(rs, i, v) == act_on_root(s_i, v) == mat_act(m, v)


def test_rank_ceiling():
    build_root_system("A32")  # the ceiling itself is accepted
    with pytest.raises(InvalidCartanType, match="rank 33 exceeds the ceiling 32"):
        build_root_system("A33")
    with pytest.raises(InvalidCartanType):
        CartanType("D", 100)


def test_dynkin_edges_reject_an_unknown_family():
    # CartanType validates its family, so only a forced one reaches the fall-through of the edge table
    ct = CartanType("A", 2)
    object.__setattr__(ct, "family", "Z")
    with pytest.raises(InvalidCartanType, match="unknown family 'Z'"):
        _edges(ct)


@pytest.mark.parametrize(
    "label, reach", [("A32", 32), ("B32", 63), ("C32", 63), ("D32", 61), ("E8", 29), ("F4", 11), ("G2", 5)]
)
def test_every_point_coordinate_fits_a_byte_lane(label, reach):
    """max over beta in Phi^+ of <rho, beta^vee> = 2 (rho, beta) / (beta, beta) is h - 1 and at most 63.

    A coordinate of x^{-1}(rho) is +-<rho, beta^vee> for some beta, so every
    point of every rank up to the ceiling packs into byte lanes.  With
    (alpha_k, alpha_k) = norms[k], (rho, beta) = sum_k beta_k norms[k] / 2 and
    (beta, beta) = sum_k beta_k <beta, alpha_k^vee> norms[k] / 2.
    """
    rs = build_root_system(label)
    norms, links = rs.dynkin.norms, rs.dynkin.root_links
    pairings = []
    for beta in rs.positive_roots:
        rho_beta = sum(b * q for b, q in zip(beta, norms))
        coroot = [2 * beta[k] + sum(beta[m] * a for m, a in links[k]) for k in range(rs.rank)]
        beta_beta = sum(b * c * q for b, c, q in zip(beta, coroot, norms))
        value, rest = divmod(2 * rho_beta, beta_beta)
        assert rest == 0, beta
        pairings.append(value)
    assert max(pairings) == reach <= _LANE_REACH == 63


def test_packing_refuses_a_coordinate_outside_the_lanes():
    # an explicit raise, not an assert statement (test_guards checks the package has none),
    # so the refusal holds under python -O too
    assert pack_point((63, -63)) == 191 + (65 << 8)
    for point in ((64,), (0, -64), (1, 200)):
        with pytest.raises(ValueError, match="outside the byte lanes"):
            pack_point(point)


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "F4", "G2"])
def test_lane_reflections_match_the_tuple_reflections(label):
    """s_i is q - c * lane_rows[i] and lane_high & ~q marks the right descents, at every point of the group."""
    rs = build_root_system(label)
    dyn = rs.dynkin
    for x in enumerate_weyl_group(rs):
        q = pack_point(x.point)
        descents = [i for i in range(rs.rank) if (dyn.lane_high & ~q) >> (8 * i + 7) & 1]
        assert descents == [i for i, c in enumerate(x.point) if c < 0]
        for i, c in enumerate(x.point):
            assert q - c * dyn.lane_rows[i] == pack_point(reflect_weight(x.point, i, dyn.weight_links))


_ALL_TYPES = (
    [f"A{n}" for n in range(1, 33)] + [f"B{n}" for n in range(2, 33)] + [f"C{n}" for n in range(2, 33)]
    + [f"D{n}" for n in range(4, 33)] + ["E6", "E7", "E8", "F4", "G2"]
)
_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1) // 2, "B": lambda n: n * n, "C": lambda n: n * n, "D": lambda n: n * (n - 1),
    "E": {6: 36, 7: 63, 8: 120}.get, "F": lambda n: 24, "G": lambda n: 6,
}


def test_root_table_keys_every_positive_root_by_its_coefficient_bytes():
    """On all 128 types, root_by_lanes holds |Phi^+| entries: the coefficient bytes of each root, in root order."""
    assert len(_ALL_TYPES) == 128
    for label in _ALL_TYPES:
        rs = build_root_system(label)
        table = rs.root_by_lanes
        assert list(table) == [int.from_bytes(bytes(beta), "little") for beta in rs.positive_roots], label
        assert tuple(table.values()) == rs.positive_roots, label
        assert len(table) == _ROOT_COUNTS[label[0]](rs.rank), label
