"""The bitset ball-sphere check against the face enumeration of ``build_complex``."""

from itertools import product

import pytest

from kltangent import build_complex, build_root_system, euler_characteristics, group_table
from kltangent.verify import VerifyConfig, _cases, _parity_mask, _word_complexes, ball_sphere_suite
from kltangent.weyl import _bits


def _positions(bitset):
    """The position sets of the set bits of a 2^l-bit set, as index tuples."""
    return {tuple(b + 1 for b in _bits(r)) for r in _bits(bitset)}


def _chi(faces, n):
    """The reduced Euler characteristic of a complex on n positions from its face set."""
    odd = _parity_mask(n)
    return (faces & odd).bit_count() - (faces & ~odd).bit_count()


def _check_against_build_complex(rs, gt, word, w_id, faces, covered, reduced):
    c = build_complex(rs, gt.elements[w_id], word)
    assert _positions(faces) == set(c.faces), (word, w_id)
    assert _positions(faces & ~covered) == set(c.facets), (word, w_id)
    assert _chi(faces, len(word)) == euler_characteristics(c)[0], (word, w_id)
    assert reduced == sum(1 for f in c.faces if len(f) == len(word) - gt.length[w_id]), (word, w_id)


@pytest.mark.parametrize(
    "label,cases", [("A3", 959), ("B3", 6539), ("C3", 6539), ("G2", 85), ("D4", 200), ("F4", 103)]
)
def test_word_complexes_match_build_complex(label, cases):
    # exhaustive up to |W| = 48, as in the battery; above it 200 sampled draws, of which
    # those of at most 12 letters are checked: only single-target groups prune targets
    rs = build_root_system(label)
    gt = group_table(rs)
    sample = None if len(gt.elements) <= 48 else 200
    seen = 0
    for _, word, w_ids in _cases(gt, sample, VerifyConfig().seed):
        if len(word) > 12:
            continue
        complexes = _word_complexes(gt, word, w_ids)
        for w_id in w_ids:
            seen += 1
            _check_against_build_complex(rs, gt, word, w_id, *complexes[w_id])
    assert seen == cases


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_non_reduced_words_give_spheres_exactly_at_their_demazure_product(label):
    # Knutson-Miller: Delta(s, w) is a sphere iff delta(s) = w, a ball otherwise;
    # words that are not reduced give spheres of dimension l(s) - l(w) - 1 >= 1
    rs = build_root_system(label)
    gt = group_table(rs)
    masks = gt.leq_masks()
    targets = range(len(gt.elements))
    spheres = 0
    for n in range(7):
        for word in product(range(1, rs.rank + 1), repeat=n):
            top = gt.demazure_fold(word)
            complexes = _word_complexes(gt, word, targets)
            for w_id in targets:
                if not masks[top] >> w_id & 1:
                    assert w_id not in complexes, (word, w_id)
                    continue
                faces, covered, reduced = complexes[w_id]
                _check_against_build_complex(rs, gt, word, w_id, faces, covered, reduced)
                dim = n - gt.length[w_id] - 1
                assert _chi(faces, n) == ((-1) ** (dim % 2) if w_id == top else 0), (word, w_id)
                spheres += w_id == top and dim >= 1
    assert spheres > 0


def test_parity_mask_marks_the_masks_of_odd_size():
    for n in range(13):
        odd = _parity_mask(n)
        assert odd >> (1 << n) == 0
        assert all((odd >> r & 1) == r.bit_count() % 2 for r in range(1 << n))


def test_ball_sphere_suite_b3():
    outcome = ball_sphere_suite(build_root_system("B3"))
    assert outcome.ok
    assert outcome.cases == 6539
