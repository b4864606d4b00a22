"""Tracing installed from outside the package: wrappers around public functions.

Every wrapped call becomes a node of a calling-context tree keyed by
(parent node, function name), holding its call count, total time and the
time its wrapped children took, so self time is total minus children.
Calls of ordinary (non-hot) functions are also kept as individual spans
(name, start, end, parent span) up to a fixed cap and written out at the end.
Hot inner functions are only aggregated per parent, which keeps memory
bounded however many times they run.

Wrappers replace the function on its defining module and under every other
name that refers to it (``kltangent.tangent.bruhat_leq``,
``kltangent.subword.hecke_mult``, the package re-exports), because the
package imports names with ``from .weyl import ...``.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict

# (module, attribute path, hot).  Leaf helpers called once per root or vector
# (height, negate, reflect, act_on_root, has_right_ascent, ...) stay unwrapped:
# a wrapper there would cost more than the work it measures.
TRACED = [
    ("rootsys", "build_root_system", False),
    ("rootsys", "cominuscule_nodes", False),
    ("rootsys", "root_from_epsilon", False),
    ("weyl", "word_to_element", False),
    ("weyl", "right_multiply_simple", True),
    ("weyl", "left_multiply_simple", True),
    ("weyl", "multiply", False),
    ("weyl", "inverse", False),
    ("weyl", "bruhat_leq", True),
    ("weyl", "canonical_reduced_word", False),
    ("weyl", "gamma_sequence", False),
    ("weyl", "inversion_set_of_inverse", False),
    ("weyl", "is_reduced", False),
    ("weyl", "is_min_coset_rep", False),
    ("weyl", "enumerate_weyl_group", False),
    ("weyl", "group_table", False),
    ("weyl", "GroupTable.leq_masks", False),
    ("hecke", "hecke_mult", True),
    ("hecke", "demazure_element", False),
    ("hecke", "demazure_product", False),
    ("hecke", "demazure_signed_counts", False),
    ("subword", "hecke_subwords", False),
    ("subword", "reduced_subwords", False),
    ("subword", "build_complex", False),
    ("subword", "boundary_faces", False),
    ("subword", "euler_characteristics", False),
    ("subword", "euler_signed_sum", False),
    ("rt_ring", "LaurentPoly.__mul__", True),
    ("rt_ring", "lambda_minus_one", False),
    ("rt_ring", "in_nonneg_integer_span", True),
    ("rt_ring", "char_series", False),
    ("tangent", "kclass_restriction", False),
    ("tangent", "is_explicit_factor", False),
    ("tangent", "is_integrally_indecomposable", False),
    ("tangent", "tangent_cone_coefficient", False),
    ("tangent", "kl_tangent_membership", False),
    ("tangent", "kl_tangent_report", False),
    ("tangent", "gp_tangent_report", False),
    ("tangent", "type_a_tangent_oracle", False),
    ("tangent", "cominuscule_witness", False),
    ("tangent", "is_cominuscule_element", False),
    ("tangent", "element_to_permutation", False),
    ("cli", "main", False),
]

SPAN_CAP = 200_000


def _suite_functions(verify_module) -> list[str]:
    return sorted(name for name in vars(verify_module) if name.endswith("_suite"))


def _subwords(args, kwargs):  # hecke_subwords / build_complex (rs, w, s): 2^|s| masks
    return 1 << len(args[2])


def _series_points(args, kwargs):  # char_series(numerator, weights, bound)
    weights = list(args[1])
    rank = len(weights[0]) if weights else 0
    return len(weights) * math.comb(args[2] + rank, rank)


COUNTERS = {
    "subword.hecke_subwords": ("subword.subwords_enumerated", _subwords),
    "subword.build_complex": ("subword.subwords_enumerated", _subwords),
    "rt_ring.char_series": ("rt_ring.series_points", _series_points),
}

MEMOS = {
    "weyl.memo.bruhat_entries": "bruhat",
    "weyl.memo.rmul_entries": "rmul",
    "hecke.memo.demazure_counts_entries": "demazure_counts",
}


class Tracer:
    """Calling-context tree plus a bounded list of individual spans."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.node_name: list[int] = []  # node id -> name id
        self.node_parent: list[int] = []
        self.node_calls: list[int] = []
        self.node_total: list[float] = []
        self.node_child: list[float] = []
        self.children: dict[tuple[int, int], int] = {}
        self.stack: list[tuple[int, int]] = [(self._node(-1, self._name("root")), -1)]
        self.spans: list[tuple[int, float, float, int]] = []  # (name id, start, end, parent span)
        self.spans_dropped = 0
        self.counters: dict[str, int] = defaultdict(int)
        self.memo_entries: dict[str, int] = defaultdict(int)
        self.root_systems: list = []
        self._restore: list[tuple[object, str, object]] = []

    def _name(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _node(self, parent: int, name_id: int) -> int:
        self.node_name.append(name_id)
        self.node_parent.append(parent)
        self.node_calls.append(0)
        self.node_total.append(0.0)
        self.node_child.append(0.0)
        return len(self.node_name) - 1

    def region(self, name: str):
        """A traced caller for the benchmark's own steps: ``region(fn, *args)``."""
        return self.wrap(name, _call, hot=False)

    def wrap(self, name: str, fn, hot: bool, counter=None):
        name_id = self._name(name)
        stack, children, spans = self.stack, self.children, self.spans
        node_calls, node_total, node_child = self.node_calls, self.node_total, self.node_child
        clock = self.clock
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, parent_span = stack[-1]
            node = children.get((parent, name_id))
            if node is None:
                node = children[(parent, name_id)] = self._node(parent, name_id)
            if counter is not None:
                counters[counter[0]] += counter[1](args, kwargs)
            span = -1
            if not hot:
                if len(spans) < SPAN_CAP:
                    span = len(spans)
                    spans.append(None)
                else:
                    self.spans_dropped += 1
            stack.append((node, span if span >= 0 else parent_span))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                node_calls[node] += 1
                node_total[node] += end - start
                node_child[parent] += end - start
                if span >= 0:
                    spans[span] = (name_id, start, end, parent_span)

        return wrapper

    def install(self, package) -> None:
        """Wrap every TRACED function and the verify suites, at every binding."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == package.__name__ or name.startswith(package.__name__ + ".")}
        targets = list(TRACED) + [("verify", f, False) for f in _suite_functions(modules[f"{package.__name__}.verify"])]
        for module_name, path, hot in targets:
            owner = modules[f"{package.__name__}.{module_name}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            label = f"{module_name}.{path}".replace("__mul__", "mul")
            wrapped = self.wrap(label, original, hot, COUNTERS.get(label))
            if label == "rootsys.build_root_system":
                wrapped = self._keep_root_systems(wrapped)
            if cls_path:
                self._set(owner, attr, wrapped)
                continue
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _keep_root_systems(self, build):
        kept = self.root_systems

        @functools.wraps(build)
        def wrapper(*args, **kwargs):
            rs = build(*args, **kwargs)
            kept.append(rs)
            return rs

        return wrapper

    def harvest_memos(self, keep: int = 0) -> None:
        """Add the memo sizes of root systems built after index ``keep``, then drop them."""
        for rs in self.root_systems[keep:]:
            for metric, key in MEMOS.items():
                self.memo_entries[metric] += len(rs._cache.get(key) or ())
        del self.root_systems[keep:]

    # -- results -------------------------------------------------------------

    def per_function(self) -> dict[str, dict[str, float]]:
        """calls, total_s (outermost calls only) and self_s per wrapped name."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for node, name_id in enumerate(self.node_name):
            name = self.names[name_id]
            row = out[name]
            row["calls"] += self.node_calls[node]
            row["self_s"] += self.node_total[node] - self.node_child[node]
            if not self._under_same_name(node):
                row["total_s"] += self.node_total[node]
        return out

    def _under_same_name(self, node: int) -> bool:
        name_id = self.node_name[node]
        parent = self.node_parent[node]
        while parent >= 0:
            if self.node_name[parent] == name_id:
                return True
            parent = self.node_parent[parent]
        return False

    def write(self, path) -> None:
        """Spans plus the aggregated tree, as one JSON document."""
        doc = {
            "names": self.names,
            "spans": [list(s) for s in self.spans if s is not None],
            "spans_dropped": self.spans_dropped,
            "nodes": [
                {"name": self.names[n], "parent": p, "calls": c, "total_s": t, "self_s": t - ch}
                for n, p, c, t, ch in zip(self.node_name, self.node_parent, self.node_calls,
                                          self.node_total, self.node_child)
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _call(fn, *args, **kwargs):
    return fn(*args, **kwargs)
