import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kltangent import build_root_system, canonical_reduced_word, demazure_element, identity_element, verify
from kltangent.cli import _dump, _outcome_payload, main
from kltangent.weyl import has_right_ascent, right_multiply_simple

# stdout and exit code of the README examples, a B3 report with cone evidence and three
# error payloads, recorded while a generic recursive encoder still walked every payload;
# two rows, a report at E7 w0 (63 letters) and a 40-letter E8 report, were recorded
# while the flags still walked every position on tuple points, a B32 report whose x
# has a coordinate of 63 (the byte-lane bound) while elements still held tuple points,
# and a G2 K-class (a gamma with coefficient 3 at the short root) and a 20-letter C32
# K-class (rank-32 columns) while the signed pass still built an element per Hecke state
PINNED = json.loads((Path(__file__).parent / "data" / "cli_stdout.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tangent_json_example(capsys):
    code, out, _ = run(capsys, "tangent", "A2", "--x", "1 2 1", "--w", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 2
    assert [st["status"] for st in payload["statuses"]] == ["In", "Undetermined", "In"]
    # schema 2 dropped explicit_factor, which always equalled not demazure_ok
    assert all("explicit_factor" not in st["evidence"] for st in payload["statuses"])
    assert sorted(w["coeffs"] for w in payload["kl_tangent_weights"]) == [[0, 1], [1, 0]]
    assert payload["complete"] is False
    assert payload["x_word"] == [1, 2, 1] and payload["w_word"] == [1]


def test_tangent_oracle_flag(capsys):
    code, out, _ = run(capsys, "tangent", "A2", "--x", "1 2 1", "--w", "1",
                       "--type-a-oracle", "--json")
    payload = json.loads(out)
    assert code == 0
    assert [st["status"] for st in payload["statuses"]] == ["In", "Out", "In"]
    assert payload["complete"] is True


def test_tangent_parabolic(capsys):
    code, out, _ = run(capsys, "tangent", "A2", "--x", "2 1", "--w", "1",
                       "--parabolic", "2", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["parabolic"] == [2]


def test_demazure_json(capsys):
    code, out, _ = run(capsys, "demazure", "A2", "1 1")
    payload = json.loads(out)
    assert code == 0
    assert payload["delta_word"] == [1] and payload["excess"] == 1


def test_kclass(capsys):
    code, out, _ = run(capsys, "kclass", "A2", "--x", "1 2 1", "--w", "1", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["kclass"] == [
        {"coeff": "-1", "exponent": [-1, -1]},
        {"coeff": "1", "exponent": [0, 0]},
    ]
    code, out, _ = run(capsys, "kclass", "A2", "--x", "1 2 1", "--w", "1")
    assert out.strip() == "1 - e^{-a1-a2}"
    # a non-reduced x word is canonicalized before the class is computed
    code, out, _ = run(capsys, "kclass", "A2", "--x", "1 1 1 2 1", "--w", "1", "--json")
    assert code == 0 and json.loads(out)["x_word"] == [1, 2, 1]


def test_subword_complex_json(capsys):
    code, out, _ = run(capsys, "subword-complex", "A2", "1 2 1", "1")
    payload = json.loads(out)
    assert code == 0
    assert payload["faces"] == [[], [1], [1, 2], [2], [2, 3], [3]]
    assert payload["facets"] == [[1, 2], [2, 3]]
    assert payload["boundary"] == [[], [1], [3]]
    assert payload["euler_reduced"] == 0 and payload["euler_interior"] == -1


def test_cominuscule(capsys):
    code, out, _ = run(capsys, "cominuscule", "D4", "--x", "2 1 3 4 2", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["cominuscule"] is False and payload["witness"] is None
    code, out, _ = run(capsys, "cominuscule", "A2", "--x", "1 2", "--json")
    payload = json.loads(out)
    assert payload["cominuscule"] is True and payload["witness"] == ["-1", "0"]


def test_json_round_trip_and_determinism(capsys):
    _, first, _ = run(capsys, "tangent", "B2", "--x", "1 2 1", "--w", "2", "--json")
    _, second, _ = run(capsys, "tangent", "B2", "--x", "1 2 1", "--w", "2", "--json")
    assert first == second  # identical invocations are bit-identical
    payload = json.loads(first)
    assert json.dumps(payload, sort_keys=True, ensure_ascii=False) == first.strip()


@st.composite
def _tangent_argv(draw):
    """``tangent --json`` arguments: a reduced word of at most 45 letters and the Demazure product of a subword."""
    rs = build_root_system(draw(st.sampled_from(["A4", "B4", "C3", "D5", "G2", "F4", "E6", "E7", "E8"])))
    word, x = (), identity_element(rs)
    for letter in draw(st.lists(st.integers(1, rs.rank), min_size=45, max_size=160)):
        if len(word) < 45 and has_right_ascent(x, letter):
            word, x = word + (letter,), right_multiply_simple(rs, x, letter)
    keep = draw(st.lists(st.booleans(), min_size=len(word), max_size=len(word)))
    w = demazure_element(rs, tuple(letter for letter, k in zip(word, keep) if k))
    cone = ["--cone-evidence"] if len(word) <= 20 and draw(st.booleans()) else []
    spell = lambda letters: " ".join(map(str, letters))
    w_word = canonical_reduced_word(rs, w)
    return ["tangent", str(rs.cartan_type), "--x", spell(word), "--w", spell(w_word), *cone, "--json"]


def test_tangent_json_is_deterministic_and_round_trips_on_random_words(capsys):
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_tangent_argv())
    def check(argv):
        code, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert code == 0 and first == second, argv
        assert json.dumps(json.loads(first), sort_keys=True, ensure_ascii=False) + "\n" == first, argv

    check()


def test_domain_error_exit_code(capsys):
    code, out, _ = run(capsys, "tangent", "A2", "--x", "1", "--w", "1 2 1", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["error"]["type"] == "NotBelow"
    code, _, err = run(capsys, "tangent", "A2", "--x", "1", "--w", "1 2 1")
    assert code == 1 and "NotBelow" in err
    code, out, _ = run(capsys, "demazure", "Q7", "1")
    assert code == 1


def test_superscript_digits_are_typed_errors(capsys):
    # str.isdigit() accepts "²" and "³", which int() rejects; both must stay domain errors
    code, out, _ = run(capsys, "tangent", "A2", "--x", "²", "--w", "", "--json")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "LetterOutOfRange"
    code, out, _ = run(capsys, "verify", "B³", "--json")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "InvalidCartanType"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["tangent", "A2"])  # missing required --x/--w
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["tangent", "A2", "--x", "1 2", "--w", "", "--parabolic", "x"])
    assert info.value.code == 2
    for count in ("-5", "0"):  # a battery of no random cases would pass vacuously
        with pytest.raises(SystemExit) as info:
            main(["verify", "A2", "--random-cases", count])
        assert info.value.code == 2


def test_verify_cli_small(capsys):
    code, out, err = run(capsys, "verify", "A2", "--random-cases", "50", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(not o["failures"] for o in payload["outcomes"])
    assert "euler-identity[A2]" in {o["suite"] for o in payload["outcomes"]}
    assert "cases" in err or err  # timing diagnostics go to stderr


def test_verify_times_each_suite_to_a_tenth_of_a_millisecond(capsys):
    """stderr gives every suite's seconds with 4 decimals; stdout keeps the recorded bytes, with no timing."""
    code, out, err = run(capsys, "verify", "A2", "--json")
    assert code == 0
    pinned = (Path(__file__).parent / "data" / "verify_stdout.json").read_text().splitlines(keepends=True)[0]
    assert out == pinned
    lines = err.splitlines()
    assert len(lines) == len(json.loads(out)["outcomes"])
    for line in lines:
        assert re.fullmatch(r"\[ok\] [a-z-]+(\[A2\])?: \d+ cases, 0 failures \(\d+\.\d{4}s\)", line), line
    code, out, _ = run(capsys, "verify", "A2")
    assert code == 0 and "s)" not in out


def test_verify_several_types(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify", "A2", "G2", "--random-cases", "50", "--json")
    assert code == 0
    singles = [run(capsys, "verify", label, "--random-cases", "50", "--json")[1] for label in ("A2", "G2")]
    assert out.splitlines(keepends=True) == singles  # one line per type, as if run alone

    real_battery = verify.run_battery

    def battery_failing_on_g2(label, config):
        outcomes = real_battery(label, config)
        if label == "G2":
            outcomes[0].record(note="injected failure")
        return outcomes

    monkeypatch.setattr(verify, "run_battery", battery_failing_on_g2)
    code, out, _ = run(capsys, "verify", "A2", "G2", "--random-cases", "50", "--json")
    assert code == 1
    assert [json.loads(line)["ok"] for line in out.splitlines()] == [True, False]


def test_verify_prints_the_canonical_type_label(capsys):
    code, out, _ = run(capsys, "verify", "b03", "--random-cases", "20", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cartan_type"] == "B3"
    shared = ("decomposable-guard[A2]", "fixed-examples")  # the suites every battery runs alike
    per_type = [o["suite"] for o in payload["outcomes"] if o["suite"] not in shared]
    assert per_type and all(suite.endswith("[B3]") for suite in per_type)


def test_cli_import_leaves_verify_unloaded():
    # only `kltangent verify` needs the battery, so the other subcommands skip its import
    src = Path(__file__).resolve().parents[1] / "src"
    script = "import sys, kltangent.cli; print('kltangent.verify' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_verify_rejects_huge_group(capsys):
    code, out, _ = run(capsys, "verify", "E8", "--json")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "GroupTooLarge"


@pytest.mark.parametrize("case", PINNED, ids=lambda case: " ".join(case["argv"]))
def test_stdout_bytes_are_pinned(capsys, case):
    code, out, _ = run(capsys, *case["argv"])
    assert (code, out) == (case["exit_code"], case["stdout"])


def test_failure_payload_with_evidence_is_pinned(monkeypatch):
    # the a2-verdicts failure record holds (verdict, evidence); the bytes were recorded
    # when the evidence was still a dataclass walked by the encoder
    monkeypatch.setattr(verify, "type_a_tangent_oracle", lambda *args: True)
    outcome = verify.fixed_examples_suite()
    assert _dump({"cartan_type": "A2", "ok": outcome.ok, "outcomes": [_outcome_payload(outcome)]}) == (
        '{"cartan_type": "A2", "ok": false, "outcomes": [{"cases": 3, "failures": [{"example": '
        '"a2-verdicts", "got": ["Undetermined", {"cone_coefficient": 1, "demazure_ok": true, '
        '"indecomposable": false, "ordinary_product_ok": false}]}], "suite": "fixed-examples"}], '
        '"schema_version": 2}'
    )


def test_rank_ceiling_exit_code(capsys):
    code, out, _ = run(capsys, "tangent", "A33", "--x", "1", "--w", "", "--json")
    assert code == 1
    assert json.loads(out)["error"] == {"type": "InvalidCartanType", "message": "rank 33 exceeds the ceiling 32"}
