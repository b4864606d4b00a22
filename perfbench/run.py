"""Benchmark of the kltangent package: three closed-loop workloads, one client each.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload tangent-cli --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all        # every workload, each in its own process

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs queries for
half the time untraced, then the same queries traced from a fresh set-up,
prints the per-layer metrics and the tracing overhead, and writes the spans to
``.bench_out/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any failed output check
makes the exit code 1; a directory without the package sources gives 2.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import itertools
import json
import math
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 9
PINNED = HERE / "expected.json"  # result digest of the first pass at DEFAULT_SEED

# Per-layer functions reported by the traced run (every wrapped function is in the span file).
REPORTED = [
    "rootsys.build_root_system",
    "weyl.word_to_element", "weyl.right_multiply_simple", "weyl.bruhat_leq",
    "weyl.canonical_reduced_word", "weyl.gamma_sequence", "weyl.inversion_set_of_inverse",
    "weyl.group_table", "weyl.GroupTable.leq_masks",
    "hecke.demazure_element", "hecke.demazure_signed_counts",
    "subword.build_complex", "subword.euler_signed_sum", "subword.hecke_subwords",
    "rt_ring.char_series", "rt_ring.LaurentPoly.mul", "rt_ring.in_nonneg_integer_span",
    "tangent.kclass_restriction", "tangent.tangent_cone_coefficient",
    "tangent.is_integrally_indecomposable", "tangent.kl_tangent_report",
    "tangent.cominuscule_witness", "cli.main",
]
LAYERS = ["rootsys", "weyl", "hecke", "subword", "rt_ring", "tangent", "verify", "cli"]
B3_SUITES = [
    "root-basics", "weyl-basics", "hecke-subword-equivalence", "euler-identity", "ball-sphere",
    "kclass-well-defined", "cone-mechanism", "cominuscule-indecomposable", "cominuscule-parabolic",
    "cominuscule-complete", "te-containment", "explicit-factor-fast-slow", "decomposable-guard",
    "fixed-examples",
]
# End-to-end metrics in the result line.  peak_rss_mb is printed but left out:
# on tangent-cli it is set by the single heaviest call of a run and ranged
# from 34 to 66 MB over five seeds, wider than any regression bound.
UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms"}

# Machine-speed calibration.  On a shared host the CPU speed drifts by 15-20%
# within tens of seconds, and verify-sweep by up to 40% between runs, which no
# run length averages out.  An untraced run therefore times a fixed reference
# workload every CAL_EVERY_S of wall time, from a SIGALRM handler so that it
# samples the host evenly, also inside a long op.  Every measured interval
# leaves out the time of the samples inside it and is scaled by REF_NOMINAL_S /
# (median reference time around it, over at least CAL_WINDOW samples): times
# read as on a host where the reference takes REF_NOMINAL_S.  Raw times are
# printed beside.  The reference mixes random lookups in a table larger than
# the core caches with tuple arithmetic: a purely arithmetic loop tracked the
# memory-heavy verify sweep badly (spread 0.16 against 0.08 with lookups).
REF_NOMINAL_S = 0.0045
REF_TABLE_SIZE = 200_000
REF_LOOKUPS = 4000
CAL_EVERY_S = 0.1
CAL_WINDOW = 9


def _reference_table() -> tuple[dict, list]:
    table = {(i, i * 7 % 13, i % 5): i for i in range(REF_TABLE_SIZE)}
    keys = list(table)
    random.Random(0).shuffle(keys)
    return table, keys[:REF_LOOKUPS]


def _reference_work(table: dict, keys: list, n: int = 600) -> int:
    total = sum(table[k] for k in keys)
    v = (1, 2, 3, 4, 5, 6)
    step = (1, -1, 0, 2, 0, -1)
    seen: dict[tuple[int, ...], int] = {}
    for i in range(n):
        c = i % 5 - 2
        v = tuple(a - c * b for a, b in zip(v, step))
        seen[v] = seen.get(v, 0) + 1
    return total + len(seen)


class Calibrator:
    """Periodic reference-loop samples, and intervals corrected by them."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.spent: list[float] = [0.0]  # prefix sums of sample durations
        self.table, self.keys = _reference_table()

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _reference_work(self.table, self.keys)
        self.starts.append(t0)
        self.spent.append(self.spent[-1] + time.perf_counter() - t0)

    def clock(self) -> float:
        """perf_counter() less the time spent on samples so far."""
        return time.perf_counter() - self.spent[-1]

    def __enter__(self) -> "Calibrator":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def work(self, start: float, end: float) -> float:
        """Seconds in [start, end) not spent on calibration samples."""
        lo, hi = bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)
        return end - start - (self.spent[hi] - self.spent[lo])

    def normalized(self, start: float, end: float) -> float:
        """work(start, end) at the nominal reference speed (raw when never sampled)."""
        n = len(self.starts)
        if n == 0:
            return self.work(start, end)
        lo, hi = bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)
        while hi - lo < min(CAL_WINDOW, n):
            lo, hi = max(0, lo - 1), min(n, hi + 1)
        durations = [self.spent[k + 1] - self.spent[k] for k in range(lo, hi)]
        return self.work(start, end) * REF_NOMINAL_S / statistics.median(durations)


def _import_package(src: Path):
    """Import kltangent afresh from the checkout's src/ (drops any loaded copy)."""
    for name in [n for n in sys.modules if n == "kltangent" or n.startswith("kltangent.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    kl = importlib.import_module("kltangent")
    importlib.import_module("kltangent.cli")
    importlib.import_module("kltangent.verify")
    if Path(kl.__file__).resolve().parent != src / "kltangent":
        raise SystemExit(f"kltangent imported from {kl.__file__}, not from {src}")
    return kl


def _percentile(weighted: list[tuple[float, int]], q: float) -> float:
    """Nearest-rank percentile of values given with multiplicities."""
    weighted = sorted(weighted)
    rank = math.ceil(q * sum(n for _, n in weighted))
    seen = 0
    for value, n in weighted:
        seen += n
        if seen >= rank:
            return value
    return weighted[-1][0]


class Phase:
    """Wall-clock intervals and checked results of the queries of one run phase."""

    def __init__(self) -> None:
        self.ops: list[tuple[float, float, int, int]] = []  # (start, end, ops, pass index)
        self.complete_passes = 0
        self.digests: list[str] = []  # one per pass, the last maybe partial
        self.queries = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.outcomes = []  # verify-sweep: VerifyOutcome lists


def run_phase(workload, state, passes, seconds: float | None = None, n_queries: int | None = None,
              tracer=None) -> Phase:
    """Run queries in pass order, always finishing the first pass, then while
    the next query is expected to end within ``seconds`` (or until exactly
    ``n_queries`` have run)."""
    phase = Phase()
    op = tracer.region("bench.op") if tracer else (lambda fn, *a: fn(*a))
    clock = time.perf_counter
    begin = clock()
    for index in itertools.count():
        digest = hashlib.sha256()
        for done, query in enumerate(passes[index % len(passes)]):
            if n_queries is not None:
                stop = phase.queries >= n_queries
            else:
                stop = index > 0 and (clock() - begin) * (1 + 1 / phase.queries) > seconds
            if stop:
                if done:
                    phase.digests.append(digest.hexdigest())
                return phase
            kept = len(tracer.root_systems) if tracer else 0
            start = clock()
            try:
                out = op(workload.op, state, query)
            except Exception as exc:  # a raised error is a failed op
                out, error = None, f"{type(exc).__name__}: {exc}"
            else:
                error = None
            end = clock()
            phase.queries += 1
            if tracer:
                tracer.harvest_memos(kept)
            if error is None:
                semantic, problems = workload.result(state, query, out)
            else:
                semantic, problems = None, [error]
            digest.update(json.dumps(semantic, sort_keys=True).encode())
            if workload.ops_timed:
                phase.ops.append((start, end, 1, index))
                phase.attempted += 1
                phase.failed += bool(problems)
            else:  # one battery of verified cases, each charged the mean
                outcomes = out or []
                phase.outcomes.append(outcomes)
                cases = max(1, sum(o.cases for o in outcomes))
                phase.ops.append((start, end, cases, index))
                phase.attempted += cases
                phase.failed += max(len(problems), sum(len(o.failures) for o in outcomes))
            phase.problems.extend(problems)
            workload.between_ops()
        phase.complete_passes += 1
        phase.digests.append(digest.hexdigest())


def end_to_end(phase: Phase, setups, measure) -> dict[str, float]:
    """The end-to-end metrics, each interval timed by ``measure(start, end)``.

    Op time is the time spent inside the program's calls; the checks the
    benchmark makes between calls are left out.
    """
    timed = [(measure(start, end), n, index) for start, end, n, index in phase.ops]
    pass_times = [0.0] * phase.complete_passes
    for seconds, _, index in timed:
        if index < phase.complete_passes:
            pass_times[index] += seconds
    return {
        "setup_s": statistics.median(measure(*s) for s in setups),
        "wall_s": statistics.median(pass_times),
        "ops_per_s": sum(n for _, n, _ in timed) / sum(seconds for seconds, _, _ in timed),
        "op_p50_ms": 1e3 * _percentile([(seconds / n, n) for seconds, n, _ in timed], 0.50),
        "op_p90_ms": 1e3 * _percentile([(seconds / n, n) for seconds, n, _ in timed], 0.90),
    }


def per_layer(tracer, traced: Phase, untraced: Phase, measure) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (raw times, calibration samples left out) and the
    tracing overhead, from the two phases timed by ``measure(start, end)``."""
    rows = tracer.per_function()
    out: dict[str, tuple[float, str]] = {}
    for name in REPORTED:
        row = rows.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        out[f"{name}.calls"] = (row["calls"], "count")
        out[f"{name}.total_s"] = (row["total_s"], "s")
        out[f"{name}.self_s"] = (row["self_s"], "s")
    for layer in LAYERS:
        own = sum(r["self_s"] for name, r in rows.items() if name.startswith(layer + "."))
        out[f"layer.{layer}.self_s"] = (own, "s")
    for counter in ("subword.subwords_enumerated", "rt_ring.series_points"):
        out[counter] = (tracer.counters.get(counter, 0), "count")
    for memo in tracing.MEMOS:
        out[memo] = (tracer.memo_entries.get(memo, 0), "count")
    suites = {suite: [0.0, 0] for suite in B3_SUITES}
    for outcomes in traced.outcomes:
        for o in outcomes:
            row = suites.setdefault(o.suite.split("[")[0], [0.0, 0])
            row[0] += o.seconds
            row[1] += o.cases
    for suite in B3_SUITES:
        out[f"verify.{suite}.s"] = (suites[suite][0], "s")
        out[f"verify.{suite}.cases"] = (suites[suite][1], "count")
    walls = [sum(measure(start, end) for start, end, *_ in p.ops) for p in (untraced, traced)]
    out["trace.untraced_wall_s"] = (walls[0], "s")
    out["trace.traced_wall_s"] = (walls[1], "s")
    out["trace.overhead_s"] = (walls[1] - walls[0], "s")
    out["trace.spans_dropped"] = (tracer.spans_dropped, "count")
    return out


def run_workload(name: str, seed: int, seconds: float, traced: bool, root: Path) -> int:
    workload = WORKLOADS[name]
    src = root / "src"
    sys.path.insert(0, str(src))
    problems: list[str] = []

    passes = workload.inputs(seed)
    if gen.serialize(passes) != gen.serialize(workload.inputs(seed)):
        problems.append("generator is not deterministic for one seed")

    calibrator = Calibrator()
    setups = []
    with calibrator:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            kl = _import_package(src)
            state = workload.setup(kl)
            setups.append((start, time.perf_counter()))
        phase = run_phase(workload, state, passes, seconds / 2 if traced else seconds)
        if traced:  # the same queries again, traced, from a fresh set-up
            untraced = phase
            tracer = tracing.Tracer(clock=calibrator.clock)
            tracer.install(kl)
            state = tracer.region("bench.setup")(workload.setup, kl)
            phase = run_phase(workload, state, passes, n_queries=untraced.queries, tracer=tracer)
            tracer.harvest_memos()
            tracer.uninstall()

    raw = {}
    if traced:
        if phase.digests != untraced.digests:
            problems.append("traced and untraced runs give different result digests")
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{name}-seed{seed}.json")
        metrics = per_layer(tracer, phase, untraced, calibrator.normalized)
    else:
        metrics = {k: (v, UNITS[k]) for k, v in end_to_end(phase, setups, calibrator.normalized).items()}
        raw = end_to_end(phase, setups, calibrator.work)

    if seed == DEFAULT_SEED:
        pinned = json.loads(PINNED.read_text()).get(name)
        if pinned != phase.digests[0]:
            problems.append(f"result digest {phase.digests[0]} differs from the pinned {pinned}")

    failed = phase.failed + len(problems)
    problems += phase.problems
    for line in problems[:20]:
        print(f"CHECK FAILED [{name}]: {line}", file=sys.stderr)

    print(f"# {name} seed={seed} trace={int(traced)} passes={phase.complete_passes} "
          f"queries={phase.queries} op samples={sum(op[2] for op in phase.ops)} digest={phase.digests[0]}")
    for key, (value, unit) in metrics.items():
        extra = f"   (raw {raw[key]:.6g})" if key in raw else ""
        print(f"{name:>14}  {key:<44} {value:>14.6g} {unit}{extra}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{name:>14}  {'peak_rss_mb':<44} {peak_rss_mb:>14.6g} MB")
    print(f"{name:>14}  {'failed_frac':<44} {failed / phase.attempted:>14.6g} 1")
    print(json.dumps({
        "correct": not problems,
        "attempted": phase.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


def run_all(args, root: Path) -> int:
    """Each workload in its own process; prints all metrics, exits 1 on any failure."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=root, stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0 or result is None:
            combined["correct"] = False
        if result is None:
            continue
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "kltangent" / "__init__.py").is_file():
        print(f"error: no kltangent sources under {root / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, root)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)


if __name__ == "__main__":
    sys.exit(main())
