"""The id-table fast paths must agree with the public matrix-based operations."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kltangent import (
    GroupTooLarge,
    all_reduced_words,
    bruhat_leq,
    build_root_system,
    canonical_reduced_word,
    demazure_element,
    hecke_mult,
    word_to_element,
)
from kltangent.weyl import group_table
from oracles import brute_reduced_words, matrix_group


def test_reduced_word_generator_matches_public_enumeration():
    # the table's words are the public enumeration's, which the brute force checks
    for label in ("A3", "B3"):
        rs = build_root_system(label)
        gt = group_table(rs)
        for m, word in matrix_group(rs):
            x = word_to_element(rs, word)
            expected = brute_reduced_words(rs, m, len(word))
            assert all_reduced_words(rs, x, len(word)) == expected
            assert gt.reduced_words_of(gt.index[x.lanes]) == expected


def test_folds_match_public_ops():
    rng = random.Random(99)
    for label in ("A3", "B3", "G2"):
        rs = build_root_system(label)
        gt = group_table(rs)
        for _ in range(300):
            word = tuple(rng.randint(1, rs.rank) for _ in range(rng.randint(0, 9)))
            assert gt.elements[gt.product_fold(word)] == word_to_element(rs, word)
            assert gt.elements[gt.demazure_fold(word)] == demazure_element(rs, word)


@pytest.mark.parametrize("label", ["D4", "F4"])
def test_folds_match_point_form_products(label):
    rs = build_root_system(label)
    gt = group_table(rs)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, rs.rank), max_size=30))
    def check(letters):
        word = tuple(letters)
        assert gt.elements[gt.product_fold(word)] == word_to_element(rs, word)
        assert gt.elements[gt.demazure_fold(word)] == demazure_element(rs, word)

    check()


def test_leq_masks_match_bruhat():
    for label in ("B3", "A4", "D4", "G2"):
        rs = build_root_system(label)
        gt = group_table(rs)
        for u_id, u in enumerate(gt.elements):
            for v_id, v in enumerate(gt.elements):
                assert gt.leq(u_id, v_id) == bruhat_leq(rs, u, v)
    rs = build_root_system("F4")
    gt = group_table(rs)
    rng = random.Random(4)
    for _ in range(20_000):
        u_id, v_id = rng.randrange(len(gt.elements)), rng.randrange(len(gt.elements))
        assert gt.leq(u_id, v_id) == bruhat_leq(rs, gt.elements[u_id], gt.elements[v_id])


def test_hecke_table_absorbs_descents():
    # a Demazure step keeps the longer of x and x*s_i, as the 0-Hecke product does
    for label in ("A3", "B3", "G2"):
        gt = group_table(build_root_system(label))
        for idx in range(len(gt.elements)):
            word = gt.word_of(idx)
            for i in range(1, gt.rs.rank + 1):
                longer = gt.rmult[i - 1][idx]
                expected = longer if gt.length[longer] > gt.length[idx] else idx
                assert gt.demazure_fold(word + (i,)) == expected
                assert gt.dmult[i - 1][idx] == gt.index[hecke_mult(gt.rs, gt.elements[idx], i).lanes] == expected


def test_group_table_guard_applies_on_every_call():
    rs = build_root_system("A3")
    assert len(group_table(rs).elements) == 24
    with pytest.raises(GroupTooLarge, match=r"\|W\(A3\)\| = 24 exceeds the guard 1$"):
        group_table(rs, guard=1)  # the table is cached, the guard still applies
    assert group_table(rs, guard=24) is group_table(rs)


@pytest.mark.parametrize("label", ["B3", "D4"])
def test_word_of_reads_the_canonical_words(label):
    rs = build_root_system(label)
    gt = group_table(rs)
    for idx, x in enumerate(gt.elements):
        assert gt.word_of(idx) == canonical_reduced_word(rs, x)
