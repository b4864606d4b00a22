"""Guards that must hold as documented: the 20-letter bound, no per-word cache, python -O.

The localized class and the tangent-cone series refuse words longer than 20
letters with the same error everywhere; the per-word functions store nothing
on a long-lived root system; and the correctness checks raise
AssertionError explicitly, so they survive ``python -O``: the package holds
no ``assert`` statement.
"""

import ast
import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from kltangent import (
    LaurentPoly,
    LengthBoundExceeded,
    build_complex,
    build_root_system,
    canonical_reduced_word,
    euler_signed_sum,
    hecke_subwords,
    identity_element,
    kclass_restriction,
    kclass_restrictions,
    kl_tangent_report,
    longest_element,
    tangent_cone_series,
    word_to_element,
)
from kltangent.cli import main
from kltangent.hecke import demazure_signed_counts

SRC = Path(__file__).resolve().parents[1] / "src"


def _e6_w0_word():
    rs = build_root_system("E6")
    return rs, canonical_reduced_word(rs, longest_element(rs))


def test_kclass_guard_on_21_letters():
    rs, w0_word = _e6_w0_word()
    word = w0_word[:21]  # a prefix of a reduced word is reduced
    e = identity_element(rs)
    with pytest.raises(LengthBoundExceeded, match=r"\|s\| = 21 exceeds the enumeration guard 20"):
        kclass_restriction(rs, e, word)
    with pytest.raises(LengthBoundExceeded):
        kclass_restrictions(rs, word)
    with pytest.raises(LengthBoundExceeded):
        tangent_cone_series(rs, e, word, 1)
    assert kclass_restriction(rs, e, word[:20]) == LaurentPoly.one(6)


def test_report_cone_evidence_guard_at_e6_w0():
    rs, _ = _e6_w0_word()
    x = longest_element(rs)
    w = word_to_element(rs, (1,))
    report = kl_tangent_report(rs, w, x)
    assert any(not st.evidence.indecomposable for st in report.statuses)
    with pytest.raises(LengthBoundExceeded, match=r"\|s\| = 36 exceeds the enumeration guard 20"):
        kl_tangent_report(rs, w, x, include_cone_evidence=True)


def test_cli_kclass_guard_payload(capsys):
    _, w0_word = _e6_w0_word()
    code = main(["kclass", "E6", "--x", " ".join(map(str, w0_word)), "--w", "1", "--json"])
    assert code == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": {"message": "|s| = 36 exceeds the enumeration guard 20", "type": "LengthBoundExceeded"},
        "schema_version": 2,
    }


def test_per_word_functions_keep_no_cache():
    rs = build_root_system("A5")
    e = identity_element(rs)
    words = list(product((1, 2, 3, 4, 5), repeat=5))[:2048]  # 2048 distinct words of 5 letters
    for word in words:
        assert euler_signed_sum(rs, e, word) == 1
        assert demazure_signed_counts(rs, word)
        assert build_complex(rs, e, word).faces
        assert hecke_subwords(rs, e, word)
    assert rs._cache == {}


def test_euler_identity_check_survives_python_O():
    script = """
import kltangent.subword as sw
from kltangent import build_root_system, identity_element
assert False, "assert statements are stripped under -O"
rs = build_root_system("A2")
sw.demazure_signed_counts = lambda rs, q: {}  # breaks the Euler identity
try:
    sw.euler_signed_sum(rs, identity_element(rs), (1, 2))
except AssertionError as exc:
    print("raised", exc)
else:
    print("passed")
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("raised ((1, 2),"), done.stdout


def test_package_has_no_assert_statement():
    # python -O strips assert statements; the package's checks raise explicitly instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "kltangent").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
