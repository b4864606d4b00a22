"""The three benchmark workloads: set-up, one pass of work, and output checks.

All three are closed loop with one client in one process.  A pass is a fixed
list of generated queries; a run repeats passes until its time is up.

* ``tangent-cli`` calls ``kltangent.cli.main`` in process, once per query, as
  a shell user would: every call builds its own root system, so memos start
  cold and queries share no work.  Ranks 6-8 (E6 up to w0, E7, E8).
* ``cone-session`` keeps one root system per type for the whole run and scans
  about ten targets w under each x with the library calls, so memos are warm
  and shared.  Ranks 3-5 (B3, D4, A5, F4), words of length 7.
* ``verify-sweep`` runs the exhaustive B3 verification battery; one pass is
  one battery, one op is one verified case.  Cases are not timed one by one,
  so each is charged the battery's mean time per case.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
from fractions import Fraction

import gen


def _positive(g) -> bool:
    return any(g) and min(g) >= 0


def check_statuses(statuses, kl, x_len: int, w_len: int, w_len_got: int) -> list[str]:
    """Invariants every tangent report satisfies, for any input.

    ``statuses`` holds (gamma, verdict, indecomposable, demazure_ok, cone
    coefficient) per position.
    """
    problems = []
    gammas = [s[0] for s in statuses]
    if len(gammas) != x_len:
        problems.append(f"{len(gammas)} gammas for l(x) = {x_len}")
    if len(set(gammas)) != len(gammas):
        problems.append("gammas not distinct")
    if not all(_positive(g) for g in gammas):
        problems.append("gamma not positive")
    if w_len_got != w_len:
        problems.append(f"l(w) = {w_len_got}, generated {w_len}")
    for gamma, verdict, indecomposable, demazure_ok, _ in statuses:
        expected = ("In" if demazure_ok else "Out") if indecomposable else "Undetermined"
        if verdict != expected:
            problems.append(f"gamma {gamma}: {verdict}, expected {expected}")
    in_set = {s[0] for s in statuses if s[1] == "In"}
    if set(kl) != in_set or not set(kl) <= set(gammas):
        problems.append("KL tangent weights differ from the In positions")
    return problems


def _semantic_report(statuses, kl, complete) -> dict:
    """Word-independent content of a report: verdict and cone data per weight."""
    return {
        "verdicts": sorted([list(s[0]), s[1]] for s in statuses),
        "cone": sorted([list(s[0]), s[4]] for s in statuses if s[4] is not None),
        "kl": sorted(list(g) for g in kl),
        "complete": complete,
    }


class TangentCli:
    name = "tangent-cli"
    ops_timed = True

    def inputs(self, seed: int):
        return gen.tangent_cli_inputs(seed, passes=8)

    def setup(self, kl):
        for label in ("E6", "E7", "E8"):
            kl.build_root_system(label)
        return {"main": kl.cli.main}

    def op(self, state, call):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = state["main"](call["argv"])
        if code != 0:
            raise RuntimeError(f"exit code {code}: {buf.getvalue()[:200]}")
        return json.loads(buf.getvalue())

    def between_ops(self) -> None:
        # A shell call ends its process; in process, the memos of a finished
        # call sit in reference cycles until the collector runs.  Collect them
        # now, untimed, instead of inside a later call.
        gc.collect()

    def result(self, state, call, out) -> tuple[object, list[str]]:
        command = call["argv"][0]
        gammas = [tuple(g) for g in call.get("gammas", ())]
        if command == "tangent":
            statuses = [
                (tuple(st["gamma"]["coeffs"]), st["status"], st["evidence"]["indecomposable"],
                 st["evidence"]["demazure_ok"], st["evidence"]["cone_coefficient"])
                for st in out["statuses"]
            ]
            kl = [tuple(g["coeffs"]) for g in out["kl_tangent_weights"]]
            problems = check_statuses(statuses, kl, len(call["x"]), len(call["w"]), out["w_length"])
            if sorted(s[0] for s in statuses) != gammas:
                problems.append("gammas differ from the inversion set of x")
            if out["x_length"] != len(call["x"]):
                problems.append(f"l(x) = {out['x_length']}, generated {len(call['x'])}")
            return _semantic_report(statuses, kl, out["complete"]), problems
        if command == "cominuscule":
            problems = []
            witness = out["witness"]
            if witness is not None:
                v = [Fraction(c) for c in witness]
                if any(sum(g_k * v_k for g_k, v_k in zip(g, v)) != -1 for g in gammas):
                    problems.append("cominuscule witness is not -1 on every inversion")
            return {"cominuscule": out["cominuscule"]}, problems
        problems = []
        if out["delta_length"] != call["delta_length"]:
            problems.append(f"Demazure length {out['delta_length']}, generated {call['delta_length']}")
        if out["excess"] != len(call["x"]) - out["delta_length"]:
            problems.append("excess != |q| - l(delta(q))")
        return {"delta_length": out["delta_length"], "excess": out["excess"]}, problems


class ConeSession:
    name = "cone-session"
    ops_timed = True

    def inputs(self, seed: int):
        return gen.cone_session_inputs(seed, passes=200)

    def setup(self, kl):
        return {"kl": kl, "rs": {label: kl.build_root_system(label) for label, *_ in gen.SESSION_TYPES}}

    def between_ops(self) -> None:
        pass  # a long-lived session keeps its memos and its garbage

    def op(self, state, query):
        kl, rs = state["kl"], state["rs"][query["type"]]
        x = kl.word_to_element(rs, tuple(query["x"]))
        w = kl.word_to_element(rs, tuple(query["w"]))
        report = kl.kl_tangent_report(rs, w, x, include_cone_evidence=True)
        poly = kl.kclass_restriction(rs, w, tuple(query["x"]))
        return report, w.length, poly

    def result(self, state, query, out) -> tuple[object, list[str]]:
        report, w_len, poly = out
        statuses = [
            (st.gamma, st.verdict.value, st.evidence.indecomposable, st.evidence.demazure_ok,
             st.evidence.cone_coefficient)
            for st in report.statuses
        ]
        kl = sorted(report.kl_tangent_weights)
        problems = check_statuses(statuses, kl, len(query["x"]), len(query["w"]), w_len)
        if any((s[4] is None) != s[2] for s in statuses):
            problems.append("cone coefficient missing at a decomposable weight")
        if sum(not s[2] for s in statuses) != query["decomposable"]:
            problems.append(f"decomposable weights differ from the generated {query['decomposable']}")
        terms = poly.items()
        if sum(c for _, c in terms) != (1 if not query["w"] else 0):
            problems.append("P_{w,s} at the identity character is not [w = e]")
        semantic = _semantic_report(statuses, kl, report.complete)
        semantic["kclass"] = [[list(e), c] for e, c in terms]
        return semantic, problems


class VerifySweep:
    name = "verify-sweep"
    ops_timed = False

    def inputs(self, seed: int):
        return [[gen.verify_sweep_inputs(seed)]]

    def setup(self, kl):
        table = kl.group_table(kl.build_root_system("B3"))
        table.leq_masks()
        return {"kl": kl}

    def between_ops(self) -> None:
        # Each battery stands for one `kltangent verify B3` process: collect
        # the cyclic garbage of the last one (untimed) before the next starts.
        gc.collect()

    def op(self, state, battery):
        kl = state["kl"]
        return kl.verify.run_battery(battery["type"], kl.verify.VerifyConfig(seed=battery["config_seed"]))

    def result(self, state, battery, outcomes) -> tuple[object, list[str]]:
        problems = [f"{o.suite}: {len(o.failures)} failures" for o in outcomes if not o.ok]
        return [[o.suite, o.cases, o.ok] for o in outcomes], problems


WORKLOADS = {w.name: w for w in (TangentCli(), ConeSession(), VerifySweep())}
