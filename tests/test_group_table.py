"""The id-table fast paths must agree with the public matrix-based operations."""

import random

from kltangent import (
    all_reduced_words,
    bruhat_leq,
    build_root_system,
    demazure_element,
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
            assert gt.reduced_words_of(gt.index[x.point]) == expected


def test_folds_match_public_ops():
    rng = random.Random(99)
    for label in ("A3", "B3", "G2"):
        rs = build_root_system(label)
        gt = group_table(rs)
        for _ in range(300):
            word = tuple(rng.randint(1, rs.rank) for _ in range(rng.randint(0, 9)))
            assert gt.elements[gt.product_fold(word)] == word_to_element(rs, word)
            assert gt.elements[gt.demazure_fold(word)] == demazure_element(rs, word)


def test_leq_masks_match_bruhat(b3):
    gt = group_table(b3)
    for u_id, u in enumerate(gt.elements):
        for v_id, v in enumerate(gt.elements):
            assert gt.leq(u_id, v_id) == bruhat_leq(b3, u, v)


def test_hecke_table_absorbs_descents(a3):
    gt = group_table(a3)
    for idx in range(len(gt.elements)):
        for i in range(a3.rank):
            image = gt.hecke[i][idx]
            assert gt.length[image] >= gt.length[idx]
            assert image in (idx, gt.rmult[i][idx])
