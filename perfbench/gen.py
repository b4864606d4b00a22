"""Seeded input generator for the benchmark workloads.

The generator carries its own Weyl-group arithmetic (the numbers game on
rho in fundamental-weight coordinates), so the inputs it produces never depend
on the code under test: the same seed gives byte-identical inputs on every
commit.  Node numbering is Bourbaki's, as in ``kltangent.rootsys``.

An element u is represented by nu = u^{-1}(rho).  Then l(u s_i) > l(u) iff
nu_i > 0, and u s_i is represented by s_i(nu), where
s_i(nu)_j = nu_j - nu_i * <alpha_i, alpha_j^vee>.
"""

from __future__ import annotations

import json
import random

# Dynkin edges (i, j, <alpha_i, alpha_j^vee>, <alpha_j, alpha_i^vee>), 1-based nodes.
_EDGES = {
    "A5": [(1, 2, -1, -1), (2, 3, -1, -1), (3, 4, -1, -1), (4, 5, -1, -1)],
    "B3": [(1, 2, -1, -1), (2, 3, -2, -1)],
    "D4": [(1, 2, -1, -1), (2, 3, -1, -1), (2, 4, -1, -1)],
    "F4": [(1, 2, -1, -1), (2, 3, -2, -1), (3, 4, -1, -1)],
    "E6": [(1, 3, -1, -1), (3, 4, -1, -1), (4, 5, -1, -1), (5, 6, -1, -1), (2, 4, -1, -1)],
}
_EDGES["E7"] = _EDGES["E6"] + [(6, 7, -1, -1)]
_EDGES["E8"] = _EDGES["E7"] + [(7, 8, -1, -1)]


class Coxeter:
    """The Weyl group of one Cartan type, acting on rho by the numbers game."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.rank = int(label[1:])
        a = [[2 if i == j else 0 for j in range(self.rank)] for i in range(self.rank)]
        for i, j, aij, aji in _EDGES[label]:
            a[i - 1][j - 1] = aij
            a[j - 1][i - 1] = aji
        self.cartan = a

    def _reflect(self, nu: list[int], i: int) -> list[int]:
        c = nu[i - 1]
        return [v - c * a for v, a in zip(nu, self.cartan[i - 1])]

    def random_reduced_word(self, rng: random.Random, length: int) -> tuple[int, ...]:
        """A reduced word of the given length, each letter a random right ascent."""
        nu = [1] * self.rank
        word = []
        for _ in range(length):
            ascents = [i for i in range(1, self.rank + 1) if nu[i - 1] > 0]
            if not ascents:
                raise ValueError(f"length {length} exceeds the longest element of {self.label}")
            i = rng.choice(ascents)
            word.append(i)
            nu = self._reflect(nu, i)
        return tuple(word)

    def demazure(self, word) -> tuple[int, ...]:
        """A reduced word for the Demazure product: the letters that lengthen."""
        nu = [1] * self.rank
        taken = []
        for i in word:
            if nu[i - 1] > 0:
                taken.append(i)
                nu = self._reflect(nu, i)
        return tuple(taken)

    def inversions(self, word) -> list[tuple[int, ...]]:
        """gamma_i = s_1 ... s_{i-1}(alpha_i) in simple-root coordinates."""
        out = []
        for k, letter in enumerate(word):
            v = [1 if j == letter - 1 else 0 for j in range(self.rank)]
            for i in reversed(word[:k]):
                pairing = sum(v[m] * self.cartan[m][i - 1] for m in range(self.rank))
                v[i - 1] -= pairing
            out.append(tuple(v))
        return out

    def decomposable_count(self, word) -> int:
        """How many inversions are nonnegative-integer sums of the other inversions."""
        gammas = self.inversions(word)
        return sum(_in_span([g for g in gammas if g != gamma], gamma) for gamma in gammas)

    def random_target(self, rng: random.Random, x_word) -> tuple[int, ...]:
        """A reduced word for the Demazure product of a random subword of x, so w <= x."""
        keep = rng.uniform(0.2, 0.9)
        return self.demazure([i for i in x_word if rng.random() < keep])


def _in_span(vectors, target) -> bool:
    """Is target a nonnegative-integer combination of the (positive) vectors?"""
    if not any(target):
        return True
    if not vectors:
        return False
    v, rest = vectors[0], vectors[1:]
    while min(target) >= 0:
        if _in_span(rest, target):
            return True
        target = tuple(t - c for t, c in zip(target, v))
    return False


def _fmt(word) -> str:
    return " ".join(map(str, word))


# tangent-cli: (type, the lengths one pass draws x from).  Each pass holds one
# x per entry, so every pass has the same length mix; E6 includes w0.
_CLI_PASS = [
    ("E6", (6, 12, 18, 24, 30, 36)),
    ("E7", (9, 18, 27, 36, 45)),
    ("E8", (8, 16, 24, 32, 40)),
]


def tangent_cli_inputs(seed: int, passes: int) -> list[list[dict]]:
    """Passes of CLI calls: per x, two `tangent` and a `cominuscule` or a `demazure`.

    Calls carry what the checks need: the inversion set of x and the Demazure
    length, computed here.  The calls of a pass are shuffled, so a pass cut
    short by the end of a run is a fair sample of it.
    """
    rng = random.Random(f"tangent-cli/{seed}")
    out = []
    for _ in range(passes):
        calls = []
        for label, lengths in _CLI_PASS:
            cox = Coxeter(label)
            for k, length in enumerate(lengths):
                x = cox.random_reduced_word(rng, length)
                gammas = sorted(cox.inversions(x))
                for _ in range(2):
                    w = cox.random_target(rng, x)
                    calls.append({"argv": ["tangent", label, "--x", _fmt(x), "--w", _fmt(w), "--json"],
                                  "x": x, "w": w, "gammas": gammas})
                if k % 2 == 0:
                    calls.append({"argv": ["cominuscule", label, "--x", _fmt(x), "--json"],
                                  "x": x, "gammas": gammas})
                else:
                    q = x + tuple(rng.randint(1, cox.rank) for _ in range(rng.randint(1, 8)))
                    calls.append({"argv": ["demazure", label, _fmt(q)], "x": q,
                                  "delta_length": len(cox.demazure(q))})
        rng.shuffle(calls)
        out.append(calls)
    return out


# cone-session: (type, l(x), number of integrally decomposable inversions of x).
# The cost of a query is set mostly by the decomposable weights, where the
# tangent-cone coefficient is expanded as a series; fixing their count per
# type keeps the work of every pass alike across seeds.
SESSION_TYPES = (("B3", 7, 3), ("D4", 7, 2), ("A5", 7, 2), ("F4", 7, 2))
_TARGETS_PER_X = 10


def cone_session_inputs(seed: int, passes: int) -> list[list[dict]]:
    """Passes of (x, w) queries; each pass scans 10 targets under one x per type."""
    rng = random.Random(f"cone-session/{seed}")
    out = []
    for _ in range(passes):
        calls = []
        for label, length, decomposable in SESSION_TYPES:
            cox = Coxeter(label)
            x = cox.random_reduced_word(rng, length)
            while cox.decomposable_count(x) != decomposable:
                x = cox.random_reduced_word(rng, length)
            for _ in range(_TARGETS_PER_X):
                calls.append({"type": label, "x": x, "w": cox.random_target(rng, x),
                              "decomposable": decomposable})
        out.append(calls)
    return out


def verify_sweep_inputs(seed: int) -> dict:
    """The battery's config seed, derived from the workload seed."""
    return {"type": "B3", "config_seed": random.Random(f"verify-sweep/{seed}").randrange(1 << 31)}


def serialize(inputs) -> bytes:
    return json.dumps(inputs, sort_keys=True).encode()
