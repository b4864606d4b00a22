"""The gamma fold on signed coefficient lanes against the tuple-column fold.

``weyl._gammas`` folds the columns x(alpha_j) of each prefix as ints and
reads each gamma from ``RootSystem.root_by_lanes``; ``gammas_by_tuple_columns``
folds tuple columns off the Cartan matrix.  They must agree on every reduced
word, and a word that is not reduced must still raise the positivity check.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kltangent import build_root_system, group_table, identity_element
from kltangent.weyl import _gammas, has_right_ascent, right_multiply_simple
from oracles import gammas_by_tuple_columns


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "G2"])
def test_gammas_match_the_tuple_fold_on_every_reduced_word(label):
    rs = build_root_system(label)
    gt = group_table(rs)
    words = 0
    for idx in range(len(gt.elements)):
        for word in gt.reduced_words_of(idx):
            words += 1
            assert _gammas(rs, word) == gammas_by_tuple_columns(rs, word), word
    assert words > len(gt.elements)


_ROOT_SYSTEMS = {label: build_root_system(label) for label in ("E6", "E7", "E8", "F4", "B32", "C32")}


@st.composite
def _reduced_words(draw):
    """A root system of E6-E8, F4, B32 or C32 and a random reduced word of at most 60 letters."""
    rs = _ROOT_SYSTEMS[draw(st.sampled_from(sorted(_ROOT_SYSTEMS)))]
    letters = draw(st.lists(st.integers(1, rs.rank), max_size=120))
    word, x = [], identity_element(rs)
    for letter in letters:
        if len(word) < 60 and has_right_ascent(x, letter):
            word.append(letter)
            x = right_multiply_simple(rs, x, letter)
    return rs, tuple(word)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_reduced_words())
def test_gammas_match_the_tuple_fold_on_random_reduced_words(case):
    rs, word = case
    gammas = _gammas(rs, word)
    assert gammas == gammas_by_tuple_columns(rs, word)
    assert all(gamma in rs.positive_roots for gamma in gammas)


@pytest.mark.parametrize(
    "label,word", [("A2", (1, 1)), ("B3", (1, 2, 3, 3)), ("G2", (1, 2) * 3 + (1,)), ("C32", (32, 31, 31))]
)
def test_gammas_refuse_a_word_that_is_not_reduced(label, word):
    rs = build_root_system(label)
    assert min(min(gamma) for gamma in gammas_by_tuple_columns(rs, word)) < 0
    with pytest.raises(AssertionError, match="gamma formula must stay positive"):
        _gammas(rs, word)


def test_positivity_check_survives_python_optimize():
    script = textwrap.dedent(
        """
        import sys
        from kltangent import build_root_system
        from kltangent.weyl import _gammas

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        try:
            _gammas(build_root_system("G2"), (2, 1, 2, 1, 2, 1, 2))
        except AssertionError as exc:
            print(exc)
        """
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "gamma formula must stay positive\n"
