"""Independent brute-force oracles used to pin expected values in the tests.

Everything here recomputes results from definitions (subsequence sweeps,
explicit lattice-point recursion, subword-property Bruhat search, products of
simple-reflection matrices, exact rational elimination) without touching the
package's fast paths, so a match is meaningful evidence.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from kltangent import (
    LaurentPoly,
    TruncatedSeries,
    demazure_element,
    gamma_sequence,
    hecke_mult,
    identity_element,
    is_reduced,
    one_minus_e,
    word_to_element,
)
from kltangent.errors import WrongType
from kltangent.rootsys import _epsilon_matrix
from kltangent.weyl import has_right_ascent, right_multiply_simple


def reflect_weight(point, i, weight_links):
    """s_i (0-based node i) applied to a weight in fundamental-weight coordinates, as a tuple.

    The tuple reference for the package's lane forms: s_i negates coordinate
    i and subtracts point[i] * A[i][j] from each neighbour j.
    """
    c = point[i]
    out = list(point)
    out[i] = -c
    for j, a in weight_links[i]:
        out[j] -= c * a
    return tuple(out)


def gammas_by_tuple_columns(rs, word):
    """gamma_i = s_1...s_{i-1}(alpha_i), from the tuple columns x(alpha_j) of each prefix x.

    The tuple reference for ``weyl._gammas``, read off the Cartan matrix:
    at letter i, column i is negated and every other column k loses
    A[k][i] times it.  It checks nothing, so on a word that is not reduced
    some gamma comes out negative.
    """
    a, n = rs.cartan_matrix, rs.rank
    columns = [tuple(1 if k == j else 0 for k in range(n)) for j in range(n)]
    gammas = []
    for letter in word:
        i = letter - 1
        ci = columns[i]
        gammas.append(ci)
        columns = [
            tuple(-c for c in ci) if k == i else tuple(c - a[k][i] * d for c, d in zip(columns[k], ci))
            for k in range(n)
        ]
    return tuple(gammas)


def brute_hecke_subwords(rs, w, s):
    """Index sets whose 0-Hecke fold is w, by direct subsequence sweep."""
    out = []
    for size in range(len(s) + 1):
        for positions in combinations(range(1, len(s) + 1), size):
            cur = identity_element(rs)
            for j in positions:
                cur = hecke_mult(rs, cur, s[j - 1])
            if cur == w:
                out.append(positions)
    return out


def kclasses_by_enumeration(rs, s, targets=None):
    """{u: P_{u,s}} for every u (or every u in targets) with a nonzero class, term by term.

    Every subsequence t of s is visited once, extending a shorter one by a
    later position, and folded to delta(t) by 0-Hecke multiplication.  When
    delta(t) is wanted, t adds (-1)^{e(t)} prod_{i in t} (1 - e^{-gamma_i})
    to its class; each product is one multiplication of a shorter one.
    """
    assert is_reduced(rs, s)
    gammas = gamma_sequence(rs, s).gammas
    products = {(): LaurentPoly.one(rs.rank)}

    def product(t):
        if t not in products:
            products[t] = product(t[:-1]) * one_minus_e(gammas[t[-1] - 1])
        return products[t]

    sums = {}  # u -> {exponent: coefficient}
    stack = [((), identity_element(rs))]
    while stack:
        t, delta = stack.pop()
        if targets is None or delta in targets:
            sign = -1 if (len(t) - delta.length) % 2 else 1
            acc = sums.setdefault(delta, {})
            for e, c in product(t).items():
                acc[e] = acc.get(e, 0) + sign * c
        for j in range(t[-1] if t else 0, len(s)):
            stack.append((t + (j + 1,), hecke_mult(rs, delta, s[j])))
    classes = {u: LaurentPoly(acc) for u, acc in sums.items()}
    return {u: p for u, p in classes.items() if not p.is_zero}


def brute_subword_complex(rs, w, s):
    """(faces, facets, face -> Demazure fold of the complement) of Delta(s, w) from the definition.

    A face is a position set whose complementary subword contains a reduced
    word for w; facets are the inclusion-maximal faces.
    """
    positions = range(1, len(s) + 1)
    faces, deltas = [], {}
    for size in range(len(s) + 1):
        for r in combinations(positions, size):
            rest = tuple(s[j - 1] for j in positions if j not in r)
            if brute_reduced_subwords(rs, w, rest):
                faces.append(r)
                cur = identity_element(rs)
                for letter in rest:
                    cur = hecke_mult(rs, cur, letter)
                deltas[r] = cur
    face_set = set(faces)
    facets = [
        r for r in faces
        if not any(tuple(sorted(r + (j,))) in face_set for j in positions if j not in r)
    ]
    return sorted(faces), sorted(facets), deltas


def subword_products_by_listing(gt, word):
    """{(product of t, |t|)} over all 2^|word| subwords t of word, each listed, letter by letter through ``gt.rmult``."""
    table = [(gt.identity, 0)]
    for letter in word:
        row = gt.rmult[letter - 1]
        table += [(row[p], n + 1) for p, n in table]
    return set(table)


def bruhat_leq_by_descent(rs, u, v):
    """u <= v by the descent walk on the tuple points, with no lanes.

    With s a right descent of v:  u <= v  iff  us <= vs when s is also a
    descent of u, else u <= vs.  Each step reflects a point coordinate by
    coordinate (:func:`reflect_weight`).
    """
    links = rs.dynkin.weight_links
    a, la = u.point, u.length
    b, lb = v.point, v.length
    while la < lb:
        if la == 0:
            return True
        i = next(k for k, c in enumerate(b) if c < 0)
        b = reflect_weight(b, i, links)
        lb -= 1
        if a[i] < 0:
            a = reflect_weight(a, i, links)
            la -= 1
    return la == lb and a == b


def position_flags_by_folding(rs, w, s):
    """(delta(s \\ j) >= w, s_1...s^_j...s_l >= w) for every position j, each punctured word folded anew."""
    out = []
    for j in range(1, len(s) + 1):
        punctured = s[: j - 1] + s[j:]
        demazure_ok = bruhat_leq_by_descent(rs, w, demazure_element(rs, punctured))
        out.append((demazure_ok, bruhat_leq_by_descent(rs, w, word_to_element(rs, punctured))))
    return out


def brute_reduced_subwords(rs, w, s):
    """Index sets whose ordinary product is w with exactly l(w) letters."""
    out = []
    for positions in combinations(range(1, len(s) + 1), w.length):
        sub = tuple(s[j - 1] for j in positions)
        if word_to_element(rs, sub) == w:
            out.append(positions)
    return out


def bruhat_oracle(rs, u, v, v_word):
    """u <= v iff some subsequence of a reduced word of v is a reduced word of u."""
    for positions in combinations(range(len(v_word)), u.length):
        sub = tuple(v_word[i] for i in positions)
        if word_to_element(rs, sub) == u:
            return True
    return False


def count_lattice_solutions(vectors, target):
    """Number of ways to write target as a nonnegative integer combination."""
    vectors = [tuple(v) for v in vectors]
    target = tuple(target)

    def rec(idx, remaining):
        if not any(remaining):
            return 1
        if idx == len(vectors):
            return 0
        v = vectors[idx]
        total = 0
        cur = remaining
        while min(cur) >= 0:
            total += rec(idx + 1, cur)
            cur = tuple(r - c for r, c in zip(cur, v))
        return total

    return rec(0, target)


def orthant_points(rank, bound):
    """All nonnegative integer vectors of the given rank with height <= bound."""
    for h in range(bound + 1):
        for cut in combinations_with_replacement(range(rank), h):
            vec = [0] * rank
            for i in cut:
                vec[i] += 1
            yield tuple(vec)


def char_series_by_orthant(numerator, weights, bound):
    """numerator / prod (1 - e^{-beta}) up to the height bound, walking the whole orthant.

    Multiplying by sum_k e^{-k beta} is a prefix sum along beta:
    new[-mu] = old[-mu] + new[-(mu - beta)], taken at every lattice point mu
    >= 0 of height <= bound in order of increasing height.
    """
    weights = [tuple(b) for b in weights]
    rank = len(weights[0])
    terms = {e: c for e, c in numerator.items() if -sum(e) <= bound}
    for beta in weights:
        nxt = {}
        for mu in orthant_points(rank, bound):
            prev = tuple(m - b for m, b in zip(mu, beta))
            val = terms.get(tuple(-m for m in mu), 0)
            if min(prev) >= 0:
                val += nxt.get(tuple(-p for p in prev), 0)
            if val:
                nxt[tuple(-m for m in mu)] = val
        terms = nxt
    return TruncatedSeries(terms, bound)


def oracle_spread(numerator, weights, bound):
    """numerator / prod (1 - e^{-beta}) up to the height bound, on exponent tuples: the reference spread.

    Multiplying by sum_k e^{-k beta} spreads each term e^{-mu} along
    e^{-mu - beta}, e^{-mu - 2 beta}, ... while the height stays <= bound.
    The numerator's exponents must lie in the negative cone of the weights.
    """
    terms = {e: c for e, c in numerator.items() if -sum(e) <= bound}
    for beta in weights:
        step = sum(beta)
        nxt = {}
        for e, c in terms.items():
            h = -sum(e)
            while h <= bound:
                nxt[e] = nxt.get(e, 0) + c
                e = tuple(x - b for x, b in zip(e, beta))
                h += step
        terms = {e: c for e, c in nxt.items() if c}
    return TruncatedSeries(terms, bound)


# -- Weyl group elements as integer matrices on the root lattice ------------
# A matrix m has rows[i][j] = coefficient of alpha_i in x(alpha_j), in the
# simple-root basis; only rootsys data (Cartan matrix, positive roots) is used.


def simple_reflection_matrix(rs, i):
    """s_i(v) = v - <v, alpha_i^vee> alpha_i, with <v, alpha_i^vee> = sum_k v_k A[k][i]."""
    n = rs.rank
    return tuple(
        tuple((1 if r == k else 0) - (rs.cartan_matrix[k][i - 1] if r == i - 1 else 0) for k in range(n))
        for r in range(n)
    )


def mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n))


def mat_act(m, v):
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in m)


def matrix_of_word(rs, word):
    """The product of the simple-reflection matrices over a word, left to right."""
    m = tuple(tuple(1 if i == j else 0 for j in range(rs.rank)) for i in range(rs.rank))
    for letter in word:
        m = mat_mul(m, simple_reflection_matrix(rs, letter))
    return m


def _negative(v):
    return any(v) and all(c <= 0 for c in v)


def matrix_inversions(rs, m):
    """I(x^{-1}) = {-x(beta) : beta > 0, x(beta) < 0}."""
    out = set()
    for beta in rs.positive_roots:
        image = mat_act(m, beta)
        if _negative(image):
            out.add(tuple(-c for c in image))
    return out


def matrix_length(rs, m):
    return len(matrix_inversions(rs, m))


def longest_element_by_ascents(rs):
    """w0 by climbing: multiply by the least right ascent until none is left."""
    cur = identity_element(rs)
    while True:
        ascents = [i for i in range(1, rs.rank + 1) if has_right_ascent(cur, i)]
        if not ascents:
            return cur
        cur = right_multiply_simple(rs, cur, ascents[0])


def matrix_right_descents(rs, m):
    """{i : x(alpha_i) < 0}."""
    return {i for i in range(1, rs.rank + 1) if _negative([row[i - 1] for row in m])}


def matrix_group(rs):
    """(matrix, a reduced word) for every element, by breadth-first right multiplication.

    Shortest first, and sorted by matrix within one length.
    """
    identity = matrix_of_word(rs, ())
    seen = {identity}
    layer = [(identity, ())]
    out = list(layer)
    while layer:
        nxt = []
        for m, word in layer:
            for i in range(1, rs.rank + 1):
                if i in matrix_right_descents(rs, m):
                    continue
                y = mat_mul(m, simple_reflection_matrix(rs, i))
                if y not in seen:
                    seen.add(y)
                    nxt.append((y, word + (i,)))
        nxt.sort()
        out.extend(nxt)
        layer = nxt
    return out


def matrix_canonical_word(rs, word):
    """Lexicographically least reduced word: repeatedly strip the least left descent.

    i is a left descent of x iff x^{-1}(alpha_i) < 0; stripping it turns x^{-1}
    into x^{-1} s_i.
    """
    inv = matrix_of_word(rs, tuple(reversed(word)))
    letters = []
    while True:
        descents = matrix_right_descents(rs, inv)
        if not descents:
            return tuple(letters)
        i = min(descents)
        letters.append(i)
        inv = mat_mul(inv, simple_reflection_matrix(rs, i))


def brute_reduced_words(rs, m, length):
    """Every word of the given length whose simple-reflection matrix product is m, sorted.

    Each word extends a shorter prefix by one letter, so it costs one matrix
    product; with length = l(x) these are the reduced words of x.
    """
    out = []
    stack = [((), matrix_of_word(rs, ()))]
    while stack:
        word, prefix = stack.pop()
        if len(word) == length:
            if prefix == m:
                out.append(word)
            continue
        for i in range(1, rs.rank + 1):
            stack.append((word + (i,), mat_mul(prefix, simple_reflection_matrix(rs, i))))
    return sorted(out)


def witness_by_elimination(rs, word):
    """A coweight v with <gamma, v> = -1 on every inversion of the element of word, or None.

    Solves the |I(x^{-1})| x rank system by exact rational elimination, free
    coordinates 0; the inversions come from the matrix of the word.
    """
    inversions = sorted(matrix_inversions(rs, matrix_of_word(rs, word)))
    return solve_rational(inversions, [-1] * len(inversions), rs.rank)


def solve_rational(rows, rhs, unknowns: int) -> tuple[Fraction, ...] | None:
    """One solution c of ``rows · c = rhs`` over the rationals, or None if there is none.

    Exact Gauss-Jordan elimination; free unknowns are set to 0, so an empty
    system gives the zero vector of length ``unknowns``.

    >>> solve_rational([[1, 1], [1, -1]], [3, 1], 2)
    (Fraction(2, 1), Fraction(1, 1))
    >>> solve_rational([[1, 2], [1, 2]], [1, 0], 2) is None
    True
    """
    aug = [[Fraction(a) for a in row] + [Fraction(b)] for row, b in zip(rows, rhs, strict=True)]
    m, cols = len(aug), unknowns
    pivots = []
    r = 0
    for col in range(cols):
        piv = next((k for k in range(r, m) if aug[k][col] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        scale = aug[r][col]
        aug[r] = [v / scale for v in aug[r]]
        for k in range(m):
            if k != r and aug[k][col] != 0:
                factor = aug[k][col]
                aug[k] = [a - factor * b for a, b in zip(aug[k], aug[r])]
        pivots.append(col)
        r += 1
    if any(aug[k][-1] != 0 for k in range(r, m)):
        return None
    solution = [Fraction(0)] * cols
    for k, col in enumerate(pivots):
        solution[col] = aug[k][-1]
    return tuple(solution)


def root_from_epsilon_by_elimination(rs, eps):
    """The simple-root coefficients of an epsilon vector, by solving the epsilon matrix's system.

    The reference of ``rootsys.root_from_epsilon``: the same WrongType, with
    the same messages, for a wrong length, a vector outside the rational span
    of the roots, and a rational but non-integer solution.
    """
    mat = _epsilon_matrix(rs.cartan_type)
    dim = len(mat[0])
    if len(eps) != dim:
        raise WrongType(f"expected an epsilon vector of length {dim}")
    coeffs = solve_rational([[mat[i][j] for i in range(rs.rank)] for j in range(dim)], eps, rs.rank)
    if coeffs is None:
        raise WrongType(f"{eps} is not in the root lattice of {rs.cartan_type}")
    if any(c.denominator != 1 for c in coeffs):
        raise WrongType(f"{eps} is not an integer root-lattice vector")
    return tuple(int(c) for c in coeffs)
