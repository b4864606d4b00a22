"""Subword complexes: faces, facets, boundary, Euler characteristics.

For a word s and a target element w, the subword complex Delta(s, w) has as
faces the position sets r whose complementary subword still contains a
reduced word for w; equivalently delta(s \\ r) >= w in Bruhat order.  Such a
complex is always a ball or a sphere, the boundary faces are exactly those
with delta(s \\ r) strictly above w, and the interior reduced Euler
characteristic equals (-1)^dim.  The signed sum over all Hecke subwords for
w (index sets t with delta(s at t) = w, signed by (-1)^{excess}) is always 1.

The module keeps no table between calls: ``build_complex`` builds the 2^l
Demazure products of s, one Bruhat test per distinct product and the
lexicographic order of the masks for every complex it returns.  It is the
slow oracle of the verification battery's ball-sphere check, which folds
each word's faces letter by letter as one bitset over the masks and reads
the reduced Euler characteristic and the facets off it (``kltangent.verify``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import LengthBoundExceeded, TargetNotContained
from .hecke import demazure_element, demazure_signed_counts, hecke_mult
from .rootsys import RootSystem
from .weyl import Word, WeylElement, _check_element, _check_letter, bruhat_leq, identity_element

# Strictly increasing 1-based positions into a word.
IndexSequence = tuple[int, ...]

# Longest word that _check_word lets through: it guards the 2^l face enumeration, the
# K-class pass, the cone evidence of a report, and the sampled pool of verify._cases.
_ENUM_LETTERS_BOUND = 20


class HeckeSubword(NamedTuple):
    indices: IndexSequence
    excess: int


def _check_word(rs: RootSystem, s: Word) -> None:
    for letter in s:
        _check_letter(rs, letter)
    if len(s) > _ENUM_LETTERS_BOUND:
        raise LengthBoundExceeded(f"|s| = {len(s)} exceeds the enumeration guard {_ENUM_LETTERS_BOUND}")


def _subword_deltas(rs: RootSystem, s: Word) -> list[WeylElement]:
    """delta(subword of s at mask) for every bitmask over positions of s.

    Built letter by letter: the masks with highest bit k are those below 2^k
    plus bit k, so each entry costs one 0-Hecke multiplication.
    """
    table = [identity_element(rs)]
    for letter in s:
        table += [hecke_mult(rs, d, letter) for d in table]
    return table


def _mask_to_indices(mask: int) -> IndexSequence:
    return tuple(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)


def hecke_subwords(rs: RootSystem, w: WeylElement, s: Word) -> list[HeckeSubword]:
    """All index sets t with delta(s at t) = w, each with excess |t| - l(w).

    This is the exponential enumeration; the tangent-space decision procedure
    never calls it (the punctured Demazure product suffices there) but it is
    the verification oracle for that fast path.
    """
    _check_element(rs, w)
    _check_word(rs, s)
    out = []
    target = w.lanes
    for mask, delta in enumerate(_subword_deltas(rs, s)):
        if delta.lanes == target:
            indices = _mask_to_indices(mask)
            out.append(HeckeSubword(indices, len(indices) - w.length))
    out.sort(key=lambda h: h.indices)
    return out


def reduced_subwords(rs: RootSystem, w: WeylElement, s: Word) -> list[IndexSequence]:
    """The excess-0 Hecke subwords: index sets whose subword is a reduced word for w."""
    return [h.indices for h in hecke_subwords(rs, w, s) if h.excess == 0]


@dataclass(frozen=True)
class SubwordComplex:
    """Faces and facets of Delta(s, w), with face -> complement-Demazure data."""

    rs: RootSystem = field(compare=False, repr=False)
    word: Word
    target: WeylElement
    faces: tuple[IndexSequence, ...]
    facets: tuple[IndexSequence, ...]
    _deltas: dict = field(compare=False, repr=False)

    @property
    def dimension(self) -> int:
        return len(self.word) - self.target.length - 1


def build_complex(rs: RootSystem, w: WeylElement, s: Word) -> SubwordComplex:
    """Enumerate Delta(s, w); raises TargetNotContained when w is not <= delta(s).

    One Bruhat test per distinct Demazure product of a complement.  The index
    sets are built position by position, like the Demazure table, and the
    masks are read in lexicographic order of their positions, so faces and
    facets come out sorted.
    """
    _check_element(rs, w)
    _check_word(rs, s)
    complements = _subword_deltas(rs, s)[::-1]  # mask r <-> subword at full ^ r
    if not bruhat_leq(rs, w, complements[0]):  # the empty face's complement: delta(s)
        raise TargetNotContained(f"{s} has no reduced subword for the target")
    products = {d.lanes: d for d in complements}
    above = {q: bruhat_leq(rs, w, d) for q, d in products.items()}
    is_face = [above[d.lanes] for d in complements]
    indices: list[IndexSequence] = [()]
    for k in range(1, len(s) + 1):
        indices += [t + (k,) for t in indices]
    bits = [1 << j for j in range(len(s))]
    faces, facets, delta_by_face = [], [], {}
    for r in sorted(range(len(complements)), key=indices.__getitem__):
        if not is_face[r]:
            continue
        face = indices[r]
        faces.append(face)
        delta_by_face[face] = complements[r]
        if all(r & b or not is_face[r | b] for b in bits):
            facets.append(face)
    return SubwordComplex(rs, s, w, tuple(faces), tuple(facets), delta_by_face)


def boundary_faces(c: SubwordComplex) -> list[IndexSequence]:
    """Faces with delta(s \\ r) strictly greater than the target, in lexicographic order.

    On a face delta(s \\ r) >= w, so it differs from w exactly when it is longer.
    """
    return [r for r in c.faces if c._deltas[r].length > c.target.length]


def euler_characteristics(c: SubwordComplex) -> tuple[int, int]:
    """(reduced, interior) Euler characteristics of the complex.

    The empty face has dimension -1 and contributes -1 to the reduced
    characteristic.  interior = reduced - reduced(boundary), and because the
    complex is a ball or sphere this always equals (-1)^dimension (asserted).
    """
    reduced = sum((-1) ** ((len(r) + 1) % 2) for r in c.faces)
    boundary = sum((-1) ** ((len(r) + 1) % 2) for r in boundary_faces(c))
    interior = reduced - boundary
    if interior != (-1) ** (c.dimension % 2):
        raise AssertionError((c.word, c.target, interior))
    return reduced, interior


def euler_signed_sum(rs: RootSystem, w: WeylElement, s: Word) -> int:
    """sum over Hecke subwords t for w of (-1)^{e(t)}; always exactly 1.

    Evaluated through the signed-count dynamic programming of
    :func:`kltangent.hecke.demazure_signed_counts`, so no subword enumeration
    is needed; the result is asserted against the constant 1.
    """
    _check_element(rs, w)
    if not bruhat_leq(rs, w, demazure_element(rs, s)):  # hecke_mult checks every letter
        raise TargetNotContained(f"{s} has no reduced subword for the target")
    counts = demazure_signed_counts(rs, s)
    total = (-1) ** (w.length % 2) * counts.get(w, 0)
    if total != 1:
        raise AssertionError((s, w, total))
    return total
