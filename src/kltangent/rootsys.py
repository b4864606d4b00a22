"""Finite crystallographic root systems of types A--G in simple-root coordinates.

Every root is stored as an integer coefficient vector over the simple roots,
so all arithmetic is exact.  Nodes follow the Bourbaki numbering: in D4 the
trivalent node is node 2, and in G2 node 1 carries the short root, so the
highest root of G2 has coefficient vector (3, 2).

The Cartan matrix convention is ``cartan_matrix[i][j] = <alpha_i, alpha_j^vee>``
(0-based rows/columns for nodes i+1, j+1), so the simple reflection acts by

    s_j(v) = v - <v, alpha_j^vee> alpha_j,   <v, alpha_j^vee> = sum_k v_k A[k][j].

This module holds the tables every reflection reads: :class:`Dynkin` keeps the
neighbour tables of A, which :func:`reflect_root_in_place` reads to apply s_i
to a root-lattice vector, and the Cartan rows in byte lanes.  It also owns
the one encoder of a point of the orbit of rho (:func:`pack_point`): one int
whose lane i holds coordinate i, on which s_i is one multiply-subtract and
the right descents are one mask.  That int is the one form of a Weyl group
element (``weyl.WeylElement.lanes``); ``Dynkin.rho`` holds rho in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import gcd

from .errors import InvalidCartanType, LetterOutOfRange, WrongType

# A root or root-lattice vector: integer coefficients over the simple roots.
Root = tuple[int, ...]

_FAMILIES = "ABCDEFG"
_MAX_RANK = 32  # refused above this before any root is built: A_n has n(n+1)/2 roots of length n
# Byte lanes of a point of the rho-orbit (pack_point): lane i holds coordinate i plus
# the bias.  A coordinate is +-<rho, beta^vee> for a root beta, at most h - 1 in
# absolute value for the Coxeter number h: n + 1 in A_n, 2n in B_n and C_n, 2n - 2
# in D_n and at most 30 (E8) in the exceptional types, so at most 2 * _MAX_RANK - 1.
_LANE_BIAS = 128
_LANE_REACH = 2 * _MAX_RANK - 1

# Number of positive roots per family, used as a construction cross-check.
_POSITIVE_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


@dataclass(frozen=True)
class CartanType:
    """A Cartan family letter together with a rank, e.g. ``CartanType("D", 4)``."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise InvalidCartanType(f"unknown family {self.family!r}")
        n = self.rank
        ok = {
            "A": n >= 1,
            "B": n >= 2,
            "C": n >= 2,
            "D": n >= 4,
            "E": n in (6, 7, 8),
            "F": n == 4,
            "G": n == 2,
        }[self.family]
        if not ok:
            raise InvalidCartanType(f"rank {n} is not allowed for family {self.family}")
        if n > _MAX_RANK:
            raise InvalidCartanType(f"rank {n} exceeds the ceiling {_MAX_RANK}")

    @classmethod
    def parse(cls, label: str) -> "CartanType":
        """Parse labels like ``"A3"``, ``"d4"`` or ``"G2"`` (case-insensitive).

        >>> CartanType.parse("b3")
        CartanType(family='B', rank=3)
        """
        text = label.strip()
        if len(text) < 2 or not text[1:].isdecimal():  # exactly the digits int() reads
            raise InvalidCartanType(f"cannot parse Cartan type {label!r}")
        return cls(text[0].upper(), int(text[1:]))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def height(v: Root) -> int:
    """Sum of simple-root coefficients; >= 1 for positive roots."""
    return sum(v)


def negate(v: Root) -> Root:
    return tuple(-c for c in v)


def _edges(ct: CartanType) -> list[tuple[int, int, int, int]]:
    """Dynkin edges as (i, j, a_ij, a_ji) with 1-based nodes, a_ij = <alpha_i, alpha_j^vee>."""
    n = ct.rank
    f = ct.family
    chain = [(i, i + 1, -1, -1) for i in range(1, n)]
    if f == "A":
        return chain
    if f == "B":  # alpha_n short
        return chain[:-1] + [(n - 1, n, -2, -1)]
    if f == "C":  # alpha_n long
        return chain[:-1] + [(n - 1, n, -1, -2)]
    if f == "D":
        return [(i, i + 1, -1, -1) for i in range(1, n - 1)] + [(n - 2, n, -1, -1)]
    if f == "E":
        edges = [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]
        if n >= 7:
            edges.append((6, 7))
        if n == 8:
            edges.append((7, 8))
        return [(i, j, -1, -1) for i, j in edges]
    if f == "F":  # alpha_1, alpha_2 long; alpha_3, alpha_4 short
        return [(1, 2, -1, -1), (2, 3, -2, -1), (3, 4, -1, -1)]
    if f == "G":  # alpha_1 short, alpha_2 long
        return [(1, 2, -1, -3)]
    raise InvalidCartanType(f"unknown family {f!r}")


def _cartan_matrix(ct: CartanType) -> tuple[tuple[int, ...], ...]:
    n = ct.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, aij, aji in _edges(ct):
        a[i - 1][j - 1] = aij
        a[j - 1][i - 1] = aji
    return tuple(tuple(row) for row in a)


class Dynkin:
    """The neighbour tables of one Cartan matrix A (0-based nodes), read by every reflection.

    ``weight_links[i]`` holds (j, A[i][j]) for the neighbours j of node i:
    s_i negates coordinate i of a weight p and subtracts p_i * A[i][j] from
    coordinate j.  ``root_links[i]`` holds (k, A[k][i]): on a root-lattice
    vector v, s_i subtracts <v, alpha_i^vee> = 2 v_i + sum_k v_k A[k][i] from
    coordinate i.  ``norms[k]`` is a positive multiple of (alpha_k, alpha_k),
    so (lambda, beta) has the sign of sum_k lambda_k norms[k] beta_k.

    The norms are computed in integers: node 0 gets 6, and the walk from i
    to a neighbour j multiplies by A[j][i] / A[i][j].  A connected Dynkin
    diagram has at most one edge between roots of different lengths, and
    across it the ratio is 2 or 3 one way, 1/2 or 1/3 the other; every other
    edge has ratio 1.  So each norm is 6 or 6r for that one ratio r, and
    each division is exact.  Dividing by the gcd leaves the least integer
    norms: all 1 in the simply-laced types, 1 and 2 in B, C, F, 1 and 3 in G.

    ``rho`` is the lane form (:func:`pack_point`) of the sum of the
    fundamental weights, every coordinate 1: the point of the identity.
    ``lane_rows[i]`` is row i of A packed into byte lanes, A[i][j] in lane j
    (2 in lane i, the neighbours' entries from ``weight_links[i]``), and
    ``lane_high`` has the top bit of every lane set.  On the lane form q of a
    point (:func:`pack_point`), s_i is q - c * lane_rows[i] with c the
    coordinate in lane i, and ``lane_high & ~q`` marks the right descents.
    """

    __slots__ = ("rank", "rho", "weight_links", "root_links", "norms", "lane_rows", "lane_high")

    def __init__(self, cartan) -> None:
        n = len(cartan)
        self.rank = n
        self.rho = pack_point((1,) * n)
        self.weight_links = tuple(
            tuple((j, cartan[i][j]) for j in range(n) if j != i and cartan[i][j]) for i in range(n)
        )
        self.root_links = tuple(
            tuple((k, cartan[k][i]) for k in range(n) if k != i and cartan[k][i]) for i in range(n)
        )
        # (alpha_i, alpha_j) = A[i][j] (alpha_j, alpha_j) / 2 is symmetric in i, j;
        # walk the (connected) Dynkin diagram from node 0.
        norms = [6] + [0] * (n - 1)
        stack = [0]
        while stack:
            i = stack.pop()
            for j, a in self.weight_links[i]:
                if not norms[j]:
                    norms[j] = norms[i] * cartan[j][i] // a
                    stack.append(j)
        scale = gcd(*norms)
        self.norms = tuple(q // scale for q in norms)
        self.lane_rows = tuple(
            sum(a << 8 * j for j, a in ((i, 2),) + self.weight_links[i]) for i in range(n)
        )
        self.lane_high = int.from_bytes(b"\x80" * n, "little")


def pack_point(point: tuple[int, ...]) -> int:
    """The byte-lane form of a point of the orbit of rho: lane i (bits 8i..8i+7) holds point[i] + 128.

    A coordinate i of x^{-1}(rho) is <rho, x(alpha_i^vee)> = +-<rho, beta^vee>
    for a positive root beta, whose absolute value is the height of the
    coroot beta^vee, at most h - 1 <= 63 for the Coxeter number h at rank
    <= 32: every lane then lies in 65..191, so s_i (``Dynkin.lane_rows``)
    never carries out of a lane.  The
    top bit of lane i is set exactly when coordinate i is positive, since no
    coordinate of a regular point is 0.  ValueError for a coordinate past the
    lanes.

    >>> hex(pack_point((1, -1)))
    '0x7f81'
    """
    if max(point) > _LANE_REACH or min(point) < -_LANE_REACH:
        raise ValueError(f"point {point} has a coordinate outside the byte lanes (|c| <= {_LANE_REACH})")
    return int.from_bytes(bytes([c + _LANE_BIAS for c in point]), "little")


def reflect_root_in_place(v: list[int], i: int, root_links) -> None:
    """s_i (0-based node i) applied in place to a vector in simple-root coordinates."""
    pairing = 2 * v[i]  # <v, alpha_i^vee>
    for k, a in root_links[i]:
        pairing += v[k] * a
    v[i] -= pairing


class RootSystem:
    """Cartan data plus the full positive-root list of a finite root system.

    Immutable after construction; safe to share across threads.  ``dynkin``
    holds the reflection tables that Weyl group elements reference.
    ``root_by_lanes`` maps the coefficient lanes sum_k beta_k 2^{8k} of each
    positive root beta to beta, in the order of ``positive_roots``; the
    gamma fold looks its columns up in it.  The
    private ``_cache`` dict holds one lazily built table, the group table
    (``weyl.group_table``); its value is deterministic, so concurrent
    idempotent writes are harmless under the GIL and correctness never
    depends on a cache hit.  Per-word tables are built by their callers,
    once per word, and never stored here.
    """

    def __init__(self, cartan_type: CartanType) -> None:
        self.cartan_type = cartan_type
        self.rank = cartan_type.rank
        self.cartan_matrix = _cartan_matrix(cartan_type)
        self.dynkin = Dynkin(self.cartan_matrix)
        self.simple_roots: tuple[Root, ...] = tuple(
            tuple(1 if k == i else 0 for k in range(self.rank)) for i in range(self.rank)
        )
        self.simple_root_names = tuple(f"a{i + 1}" for i in range(self.rank))
        self.root_by_lanes = self._close_positive_roots()
        self.positive_roots = tuple(self.root_by_lanes.values())
        highs = [v for v in self.positive_roots if height(v) == height(self.positive_roots[-1])]
        if len(highs) != 1:
            raise AssertionError("highest root must be unique")
        self.highest_root: Root = highs[0]
        self._cache: dict = {}

    def _close_positive_roots(self) -> dict[int, Root]:
        """{V: beta} over the positive roots beta, sorted by height and then by coefficients.

        Every positive root of height > 1 is s_i(beta) for a positive root
        beta of smaller height, so walking up from the simple roots reaches
        them all.  s_i(v) = v - <v, alpha_i^vee> alpha_i changes coordinate i
        only: an image whose coordinate i went up, a negative pairing, is
        positive, and only those images are built.

        A root v travels as two ints of byte lanes: V, its coefficients
        (at most 6), and P, its pairings <v, alpha_j^vee> (at most 3 in
        absolute value) plus 128 in lane j.  The negative pairings are the
        lanes whose top bit is clear, one mask.  With c = -<v, alpha_i^vee>,
        s_i(v) is V + c * 2^{8i}, and its pairings are P + c * lane_rows[i],
        since <alpha_i, alpha_j^vee> = A[i][j].

        The table keeps each root under V = sum_k beta_k 2^{8k}, decoded once.
        V is linear, and injective on root-lattice vectors with coefficients
        below 128 in absolute value, so a signed sum of columns x(alpha_j) in
        this form (``weyl._gammas``) is the V of the root it sums to; a
        negative root has a negative V, which is never a key.
        """
        n = self.rank
        rows, high = self.dynkin.lane_rows, self.dynkin.lane_high
        frontier = [(1 << 8 * i, high + rows[i]) for i in range(n)]
        seen = {coeffs for coeffs, _ in frontier}
        while frontier:
            new = []
            for coeffs, pairings in frontier:
                negative = high & ~pairings
                while negative:
                    bit = negative & -negative
                    negative ^= bit
                    i = (bit.bit_length() >> 3) - 1
                    c = _LANE_BIAS - ((pairings >> 8 * i) & 0xFF)
                    image = coeffs + (c << 8 * i)
                    if image not in seen:
                        seen.add(image)
                        new.append((image, pairings + c * rows[i]))
            frontier = new
        expected = _POSITIVE_COUNTS[self.cartan_type.family](n)
        if len(seen) != expected:
            raise AssertionError((self.cartan_type, len(seen), expected))
        table = ((coeffs, tuple(coeffs.to_bytes(n, "little"))) for coeffs in seen)
        return dict(sorted(table, key=lambda item: (height(item[1]), item[1])))

    def __repr__(self) -> str:
        return f"RootSystem({self.cartan_type})"


def build_root_system(ct: CartanType | str) -> RootSystem:
    """Construct the root system for a Cartan type or a label like ``"D4"``."""
    if isinstance(ct, str):
        ct = CartanType.parse(ct)
    return RootSystem(ct)


def _check_vector(rank: int, v) -> None:
    """WrongType unless v has one coordinate per simple root."""
    if len(v) != rank:
        raise WrongType(f"expected a root-lattice vector of length {rank}")


def reflect(rs: RootSystem, i: int, v: Root) -> Root:
    """Apply the simple reflection s_i to a root-lattice vector.

    >>> rs = build_root_system("A2")
    >>> reflect(rs, 1, (0, 1))
    (1, 1)
    """
    if not 1 <= i <= rs.rank:
        raise LetterOutOfRange(f"simple index {i} out of range for {rs.cartan_type}")
    _check_vector(rs.rank, v)
    out = list(v)
    reflect_root_in_place(out, i - 1, rs.dynkin.root_links)
    return tuple(out)


def cominuscule_nodes(rs: RootSystem) -> frozenset[int]:
    """Nodes whose simple root has coefficient 1 in the highest root."""
    return frozenset(i + 1 for i, c in enumerate(rs.highest_root) if c == 1)


def format_root(rs: RootSystem, v: Root) -> str:
    """Human-readable form, e.g. ``a1+2a2`` or ``-a1-a2``; ``0`` for the zero vector.

    WrongType unless len(v) is the rank.

    >>> format_root(build_root_system("D4"), (1, 2, 1, 1))
    'a1+2a2+a3+a4'
    """
    _check_vector(rs.rank, v)
    parts = []
    for name, c in zip(rs.simple_root_names, v):
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        parts.append(f"{sign}{'' if mag == 1 else mag}{name}")
    return "".join(parts) if parts else "0"


def _epsilon_matrix(ct: CartanType) -> list[list[int]]:
    """Rows = simple roots written in the orthogonal epsilon basis (A/B/C/D only)."""
    n = ct.rank
    f = ct.family
    if f == "A":
        dim = n + 1
        rows = [[0] * dim for _ in range(n)]
        for i in range(n):
            rows[i][i], rows[i][i + 1] = 1, -1
        return rows
    if f in ("B", "C", "D"):
        rows = [[0] * n for _ in range(n)]
        for i in range(n - 1):
            rows[i][i], rows[i][i + 1] = 1, -1
        if f == "B":
            rows[n - 1][n - 1] = 1
        elif f == "C":
            rows[n - 1][n - 1] = 2
        else:
            rows[n - 1] = [0] * n
            rows[n - 1][n - 2], rows[n - 1][n - 1] = 1, 1
        return rows
    raise WrongType(f"epsilon coordinates supported for families A-D, not {f}")


def root_to_epsilon(rs: RootSystem, v: Root) -> tuple[int, ...]:
    """Rewrite a root-lattice vector in epsilon coordinates (families A--D); WrongType unless len(v) is the rank."""
    mat = _epsilon_matrix(rs.cartan_type)
    _check_vector(rs.rank, v)
    dim = len(mat[0])
    return tuple(sum(v[i] * mat[i][j] for i in range(rs.rank)) for j in range(dim))


def root_from_epsilon(rs: RootSystem, eps: tuple[int, ...]) -> Root:
    """Inverse of :func:`root_to_epsilon`; raises if eps is not in the root lattice.

    Below the last nodes alpha_i = eps_i - eps_{i+1}, so the coefficient of
    alpha_i is the partial sum c_i = eps_1 + ... + eps_i for i <= n (Bourbaki,
    Lie Groups and Lie Algebras, ch. VI, Plates I-IV).  In C, alpha_n = 2 eps_n
    halves the last one; in D, alpha_{n-1} = eps_{n-1} - eps_n and
    alpha_n = eps_{n-1} + eps_n give c_{n-1}, c_n = (c_{n-1} -+ eps_n) / 2.
    The forward map decides membership: in A it fails when the entries do
    not sum to 0, in C and D when a halved sum is odd.

    >>> rs = build_root_system("D4")
    >>> root_from_epsilon(rs, (1, 1, 0, 0))   # eps1 + eps2, the highest root
    (1, 2, 1, 1)
    """
    dim = len(_epsilon_matrix(rs.cartan_type)[0])
    if len(eps) != dim:
        raise WrongType(f"expected an epsilon vector of length {dim}")
    family = rs.cartan_type.family
    coeffs = list(accumulate(eps[: rs.rank]))
    if family == "C":
        coeffs[-1] //= 2
    elif family == "D":
        coeffs[-2:] = (coeffs[-2] - eps[-1]) // 2, (coeffs[-2] + eps[-1]) // 2
    root = tuple(coeffs)
    if root_to_epsilon(rs, root) != tuple(eps):
        if family == "A":
            raise WrongType(f"{eps} is not in the root lattice of {rs.cartan_type}")
        raise WrongType(f"{eps} is not an integer root-lattice vector")
    return root
