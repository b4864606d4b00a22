"""Subword complexes: faces, facets, boundary, Euler characteristics.

For a word s and a target element w, the subword complex Delta(s, w) has as
faces the position sets r whose complementary subword still contains a
reduced word for w; equivalently delta(s \\ r) >= w in Bruhat order.  Such a
complex is always a ball or a sphere, the boundary faces are exactly those
with delta(s \\ r) strictly above w, and the interior reduced Euler
characteristic equals (-1)^dim.  The signed sum over all Hecke subwords for
w (index sets t with delta(s at t) = w, signed by (-1)^{excess}) is always 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import LengthBoundExceeded, LetterOutOfRange, TargetNotContained
from .hecke import demazure_element, demazure_signed_counts, hecke_mult
from .rootsys import RootSystem
from .weyl import Word, WeylElement, bruhat_leq, identity_element

# Strictly increasing 1-based positions into a word.
IndexSequence = tuple[int, ...]

_ENUM_LETTERS_BOUND = 20  # 2^l face enumeration guard


class HeckeSubword(NamedTuple):
    indices: IndexSequence
    excess: int


def _check_word(rs: RootSystem, s: Word, bound: int = _ENUM_LETTERS_BOUND) -> None:
    for letter in s:
        if not 1 <= letter <= rs.rank:
            raise LetterOutOfRange(f"letter {letter} out of range for {rs.cartan_type}")
    if len(s) > bound:
        raise LengthBoundExceeded(f"|s| = {len(s)} exceeds the enumeration guard {bound}")


def _subword_deltas(rs: RootSystem, s: Word) -> list[WeylElement]:
    """delta(subword of s at mask) for every bitmask over positions of s.

    Built incrementally: stripping the highest set bit removes the last letter
    of the subword, so each entry costs one 0-Hecke multiplication.  Tables
    for short words are cached on the root system (the verification sweeps
    revisit the same words for many targets).
    """
    cache = rs._cache.setdefault("subword_deltas", {})
    hit = cache.get(s)
    if hit is not None:
        return hit
    table = [identity_element(rs)] * (1 << len(s))
    for mask in range(1, 1 << len(s)):
        top = mask.bit_length() - 1
        table[mask] = hecke_mult(rs, table[mask ^ (1 << top)], s[top])
    if len(s) <= 12 and len(cache) < 1024:
        cache[s] = table
    return table


def _mask_to_indices(mask: int) -> IndexSequence:
    return tuple(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)


_MASK_TABLES: dict[int, tuple[list[IndexSequence], list[int]]] = {}


def _mask_tables(n: int) -> tuple[list[IndexSequence], list[int]]:
    """(index set of every mask over n positions, the masks in lexicographic order of those sets).

    Stripping the highest set bit removes the last index, so each entry is one
    tuple extension.  Cached for n <= 12, like the Demazure tables.
    """
    hit = _MASK_TABLES.get(n)
    if hit is not None:
        return hit
    indices: list[IndexSequence] = [()] * (1 << n)
    for mask in range(1, 1 << n):
        top = mask.bit_length() - 1
        indices[mask] = indices[mask ^ (1 << top)] + (top + 1,)
    tables = (indices, sorted(range(1 << n), key=indices.__getitem__))
    if n <= 12:
        _MASK_TABLES[n] = tables
    return tables


def hecke_subwords(rs: RootSystem, w: WeylElement, s: Word) -> list[HeckeSubword]:
    """All index sets t with delta(s at t) = w, each with excess |t| - l(w).

    This is the exponential enumeration; the tangent-space decision procedure
    never calls it (the punctured Demazure product suffices there) but it is
    the verification oracle for that fast path.
    """
    _check_word(rs, s)
    out = []
    target = w.point
    for mask, delta in enumerate(_subword_deltas(rs, s)):
        if delta.point == target:
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
    """Enumerate Delta(s, w); raises TargetNotContained when w is not <= delta(s)."""
    _check_word(rs, s)
    if not bruhat_leq(rs, w, demazure_element(rs, s)):
        raise TargetNotContained(f"{s} has no reduced subword for the target")
    n = len(s)
    full = (1 << n) - 1
    deltas = _subword_deltas(rs, s)
    # Many masks share a Demazure product: one Bruhat test per distinct product.
    above: dict[tuple[int, ...], bool] = {}
    for d in deltas:
        if d.point not in above:
            above[d.point] = bruhat_leq(rs, w, d)
    is_face = [above[deltas[full ^ r].point] for r in range(1 << n)]
    bits = [1 << j for j in range(n)]
    indices, lex_order = _mask_tables(n)
    faces, facets, delta_by_face = [], [], {}
    for r in lex_order:  # faces and facets come out sorted
        if not is_face[r]:
            continue
        face = indices[r]
        faces.append(face)
        delta_by_face[face] = deltas[full ^ r]
        if all(r & b or not is_face[r | b] for b in bits):
            facets.append(face)
    return SubwordComplex(rs, s, w, tuple(faces), tuple(facets), delta_by_face)


def boundary_faces(c: SubwordComplex) -> list[IndexSequence]:
    """Faces with delta(s \\ r) strictly greater than the target."""
    return sorted(r for r in c.faces if c._deltas[r] != c.target)


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
    for letter in s:
        if not 1 <= letter <= rs.rank:
            raise LetterOutOfRange(f"letter {letter} out of range for {rs.cartan_type}")
    if not bruhat_leq(rs, w, demazure_element(rs, s)):
        raise TargetNotContained(f"{s} has no reduced subword for the target")
    counts = demazure_signed_counts(rs, s)
    total = (-1) ** (w.length % 2) * counts.get(w, 0)
    if total != 1:
        raise AssertionError((s, w, total))
    return total
