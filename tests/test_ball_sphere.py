"""The bitset ball-sphere check against the face enumeration of ``build_complex``."""

import pytest

from kltangent import build_complex, build_root_system, euler_characteristics, group_table
from kltangent.verify import _cases, _clear_masks, _WordComplexes, ball_sphere_suite
from kltangent.weyl import _bits


def _positions(bitset):
    """The position sets of the set bits of a 2^l-bit set, as index tuples."""
    return {tuple(b + 1 for b in _bits(r)) for r in _bits(bitset)}


@pytest.mark.parametrize("label,cases", [("A3", 959), ("B3", 6539), ("C3", 6539), ("G2", 85)])
def test_word_complexes_match_build_complex(label, cases):
    rs = build_root_system(label)
    gt = group_table(rs)
    masks = gt.leq_masks()
    seen = 0
    for _, word, w_ids in _cases(gt, None, 0):
        complexes = _WordComplexes(gt, word, _clear_masks(len(word)))
        for w_id in w_ids:
            seen += 1
            faces, facets, interior, reduced = complexes.target(masks, w_id)
            c = build_complex(rs, gt.elements[w_id], word)
            assert _positions(faces) == set(c.faces), (word, w_id)
            assert _positions(facets) == set(c.facets), (word, w_id)
            assert interior == euler_characteristics(c)[1], (word, w_id)
            assert reduced == sum(1 for f in c.faces if len(f) == len(word) - gt.length[w_id]), (word, w_id)
    assert seen == cases


def test_ball_sphere_suite_b3():
    outcome = ball_sphere_suite(build_root_system("B3"))
    assert outcome.ok
    assert outcome.cases == 6539
