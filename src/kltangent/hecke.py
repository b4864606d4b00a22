"""The 0-Hecke monoid: Demazure products of words and the excess statistic.

The 0-Hecke algebra has basis H_u, u in W, with H_u H_{s_i} = H_{u s_i} when
the length goes up and H_u H_{s_i} = H_u when it goes down.  Products of
generators therefore stay inside the basis, and the Demazure product delta(q)
of a word q is the index of H_{q_1} ... H_{q_l}.  The excess
e(q) = |q| - l(delta(q)) is zero exactly when q is reduced.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rootsys import RootSystem
from .weyl import Word, WeylElement, _check_element, _check_letter, has_right_ascent, identity_element, right_multiply_simple


@dataclass(frozen=True)
class HeckeWordStats:
    """Demazure product of a word together with its length and excess."""

    delta: WeylElement
    length: int
    excess: int


def hecke_mult(rs: RootSystem, u: WeylElement, i: int) -> WeylElement:
    """0-Hecke product H_u H_{s_i}: u*s_i if that is longer, else u; WrongType unless u is an element of rs."""
    _check_letter(rs, i)
    if has_right_ascent(u, i):
        return right_multiply_simple(rs, u, i)  # checks u
    _check_element(rs, u)
    return u


def demazure_element(rs: RootSystem, q: Word) -> WeylElement:
    """The Demazure product delta(q), folding hecke_mult left to right."""
    cur = identity_element(rs)
    for letter in q:
        cur = hecke_mult(rs, cur, letter)
    return cur


def demazure_product(rs: RootSystem, q: Word) -> HeckeWordStats:
    """delta(q) with word length and excess e(q) = |q| - l(delta(q)).

    In A2, (1, 2, 1, 2) folds to the longest element after three letters and
    the fourth is absorbed, so the excess is 1.
    """
    delta = demazure_element(rs, q)
    return HeckeWordStats(delta=delta, length=len(q), excess=len(q) - delta.length)


def demazure_signed_counts(rs: RootSystem, q: Word) -> dict[WeylElement, int]:
    """For each u, the signed count sum_{t subseq of q, delta(t) = u} (-1)^|t|.

    One dynamic-programming pass over the positions of q from {e: 1}: at each
    letter a subsequence either skips it (sign kept) or takes it (sign
    flipped, Demazure step applied).  Combined with the sign (-1)^{l(u)} this
    gives the signed Hecke-subword sums for every target at once, so a caller
    with many targets for one word calls it once per word; nothing is cached.
    """
    counts: dict[WeylElement, int] = {identity_element(rs): 1}
    for letter in q:
        for u, c in list(counts.items()):  # the counts before the letter
            v = hecke_mult(rs, u, letter)
            counts[v] = counts.get(v, 0) - c
        counts = {u: c for u, c in counts.items() if c}
    return counts
