import pytest

from kltangent import (
    GroupTooLarge,
    LengthBoundExceeded,
    LetterOutOfRange,
    NotReduced,
    all_reduced_words,
    bruhat_leq,
    build_root_system,
    canonical_reduced_word,
    enumerate_weyl_group,
    gamma_sequence,
    identity_element,
    inverse,
    inversion_set_of_inverse,
    is_min_coset_rep,
    is_reduced,
    longest_element,
    multiply,
    parse_word,
    root_from_epsilon,
    simple_reflection,
    weyl_group_order,
    word_to_element,
)
from oracles import bruhat_oracle, longest_element_by_ascents


def test_parse_word():
    assert parse_word("1 2 1") == (1, 2, 1)
    assert parse_word("s1 s2 s1") == (1, 2, 1)
    assert parse_word("1,2,1") == (1, 2, 1)
    assert parse_word("") == ()
    with pytest.raises(LetterOutOfRange):
        parse_word("s1 x2")


def test_word_to_element_examples(a2):
    e = identity_element(a2)
    assert word_to_element(a2, ()) == e
    assert word_to_element(a2, (1, 1)) == e
    w0 = word_to_element(a2, (1, 2, 1))
    assert w0.length == 3
    assert w0 == word_to_element(a2, (2, 1, 2))
    with pytest.raises(LetterOutOfRange):
        word_to_element(a2, (3,))


def test_is_reduced(a2):
    assert is_reduced(a2, (1, 2, 1))
    assert not is_reduced(a2, (1, 1))
    assert is_reduced(a2, ())


def test_simple_reflection_matrices(a2):
    s1 = simple_reflection(a2, 1)
    assert s1.rows == ((-1, 1), (0, 1))
    assert multiply(a2, s1, s1) == identity_element(a2)


def test_bruhat_examples(a2):
    e = identity_element(a2)
    s1 = word_to_element(a2, (1,))
    s1s2 = word_to_element(a2, (1, 2))
    s2s1 = word_to_element(a2, (2, 1))
    w0 = word_to_element(a2, (1, 2, 1))
    assert bruhat_leq(a2, e, w0) and bruhat_leq(a2, e, e)
    assert bruhat_leq(a2, s1, s2s1)
    assert not bruhat_leq(a2, s1s2, s2s1)
    assert not bruhat_leq(a2, w0, s1s2)


@pytest.mark.parametrize("label", ["A3", "B3"])
def test_bruhat_matches_subword_oracle_all_pairs(label):
    rs = build_root_system(label)
    elements = enumerate_weyl_group(rs)
    words = {x.rows: canonical_reduced_word(rs, x) for x in elements}
    for v in elements:
        for u in elements:
            assert bruhat_leq(rs, u, v) == bruhat_oracle(rs, u, v, words[v.rows]), (u, v)


def test_gamma_examples(a2):
    assert gamma_sequence(a2, (1, 2, 1)).gammas == ((1, 0), (1, 1), (0, 1))
    assert gamma_sequence(a2, (1, 2)).gammas == ((1, 0), (1, 1))
    assert gamma_sequence(a2, (2,)).gammas == ((0, 1),)
    assert gamma_sequence(a2, ()).gammas == ()
    with pytest.raises(NotReduced):
        gamma_sequence(a2, (1, 1))


@pytest.mark.parametrize("label", ["A3", "B3"])
def test_gamma_well_defined_up_to_length_6(label):
    rs = build_root_system(label)
    for x in enumerate_weyl_group(rs):
        if x.length > 6:
            continue
        expected = inversion_set_of_inverse(rs, x)
        for word in all_reduced_words(rs, x):
            gammas = gamma_sequence(rs, word).gammas
            assert len(set(gammas)) == len(gammas)
            assert frozenset(gammas) == expected


def test_inversion_set_examples(a2, d4):
    assert inversion_set_of_inverse(a2, identity_element(a2)) == frozenset()
    assert inversion_set_of_inverse(a2, word_to_element(a2, (1, 2))) == {(1, 0), (1, 1)}
    x = word_to_element(d4, (2, 1, 3, 4, 2))
    expected = {
        root_from_epsilon(d4, eps)
        for eps in [(1, 0, -1, 0), (1, 1, 0, 0), (0, 1, -1, 0), (0, 1, 0, -1), (0, 1, 0, 1)]
    }
    assert inversion_set_of_inverse(d4, x) == expected


def test_canonical_reduced_word(a2, a3):
    assert canonical_reduced_word(a2, identity_element(a2)) == ()
    assert canonical_reduced_word(a2, word_to_element(a2, (2, 1, 2))) == (1, 2, 1)
    # canonical = lexicographically least reduced word, checked exhaustively
    for x in enumerate_weyl_group(a3):
        assert canonical_reduced_word(a3, x) == min(all_reduced_words(a3, x))


def test_all_reduced_words(a2, a3):
    w0 = word_to_element(a2, (1, 2, 1))
    assert sorted(all_reduced_words(a2, w0)) == [(1, 2, 1), (2, 1, 2)]
    assert all_reduced_words(a2, identity_element(a2)) == [()]
    assert len(all_reduced_words(a3, longest_element(a3))) == 16
    with pytest.raises(LengthBoundExceeded):
        all_reduced_words(a3, longest_element(a3), max_length=3)


@pytest.mark.parametrize("label,order", [("A2", 6), ("B3", 48), ("D4", 192), ("G2", 12), ("F4", 1152)])
def test_enumerate_weyl_group(label, order):
    rs = build_root_system(label)
    elements = enumerate_weyl_group(rs)
    assert len(elements) == len(set(elements)) == weyl_group_order(rs) == order


def test_enumerate_guard():
    with pytest.raises(GroupTooLarge):
        enumerate_weyl_group(build_root_system("E8"))
    with pytest.raises(GroupTooLarge):
        enumerate_weyl_group(build_root_system("E7"))  # 2,903,040 > default guard
    assert weyl_group_order(build_root_system("E6")) == 51_840  # within the guard


def test_min_coset_rep_examples(a2, a3):
    e = identity_element(a2)
    assert is_min_coset_rep(a2, e, {1, 2})
    assert not is_min_coset_rep(a2, word_to_element(a2, (1,)), {1})
    assert is_min_coset_rep(a2, word_to_element(a2, (1, 2)), {1})
    assert not is_min_coset_rep(a2, word_to_element(a2, (1, 2)), {2})
    assert is_min_coset_rep(a2, word_to_element(a2, (2, 1)), {2})
    assert not is_min_coset_rep(a3, word_to_element(a3, (2,)), {2})


@pytest.mark.parametrize("label", ["A3", "B3"])
def test_min_coset_rep_word_characterization(label):
    # minimal representative iff no reduced word ends in a parabolic letter
    rs = build_root_system(label)
    parabolics = [{1}, {2}, {1, 3}, {1, 2}]
    for x in enumerate_weyl_group(rs):
        words = all_reduced_words(rs, x)
        for parabolic in parabolics:
            by_words = all(word[-1] not in parabolic for word in words if word)
            assert is_min_coset_rep(rs, x, parabolic) == by_words


@pytest.mark.parametrize("label", ["A3", "B3"])
def test_length_complement_w0(label):
    rs = build_root_system(label)
    w0 = longest_element(rs)
    assert w0.length == len(rs.positive_roots)
    for x in enumerate_weyl_group(rs):
        assert x.length + multiply(rs, inverse(rs, x), w0).length == w0.length


LONGEST_LABELS = (
    [f"A{n}" for n in range(1, 9)]
    + [f"{family}{n}" for family in "BC" for n in range(2, 7)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("label", LONGEST_LABELS)
def test_longest_element_is_minus_rho(label):
    # w0(rho) = -rho; the ascent search climbs to the same element
    rs = build_root_system(label)
    w0 = longest_element(rs)
    reference = longest_element_by_ascents(rs)
    assert w0 == reference
    assert w0.length == reference.length == len(rs.positive_roots)


def test_inverse(a3):
    for word in [(), (1,), (1, 2), (2, 1, 3, 2), (1, 2, 3, 1, 2, 1)]:
        x = word_to_element(a3, word)
        assert multiply(a3, x, inverse(a3, x)) == identity_element(a3)
        assert inverse(a3, x).length == x.length


def test_element_equality_is_representation_independent(a2):
    x = word_to_element(a2, (1, 2, 1))
    y = word_to_element(a2, (2, 1, 2))
    assert x == y and hash(x) == hash(y)
    assert len({x, y}) == 1
