"""Battery-level invariants not already pinned by the acceptance criteria."""

import hashlib
import threading
import time
from collections import Counter
from itertools import product

import pytest

from kltangent import build_root_system, bruhat_leq, enumerate_weyl_group, group_table, tangent, verify
from kltangent.subword import _ENUM_LETTERS_BOUND
from kltangent.verify import (
    _SAMPLED_CASES,
    VerifyConfig,
    VerifyOutcome,
    _cases,
    cominuscule_complete_suite,
    cone_mechanism_suite,
    decomposable_guard_suite,
    euler_identity_suite,
    run_battery,
    te_containment_suite,
    weyl_basics_suite,
)
from kltangent.weyl import _bits


def test_te_containment_a3_d4():
    # every invariant-curve weight is ruled In at cominuscule fixed points
    for label in ("A3", "D4"):
        outcome = te_containment_suite(build_root_system(label))
        assert outcome.ok and outcome.cases > 0


def test_cominuscule_reports_complete_a3_b3():
    for label in ("A3", "B3"):
        outcome = cominuscule_complete_suite(build_root_system(label))
        assert outcome.ok and outcome.cases > 0


def test_weyl_basics_suite_green_on_b2():
    outcome = weyl_basics_suite(build_root_system("B2"))
    assert outcome.ok and outcome.cases > 0


def test_outcome_failure_cap():
    outcome = VerifyOutcome("demo")
    for k in range(200):
        outcome.record(case=k)
    assert not outcome.ok
    assert len(outcome.failures) == 51  # cap plus the truncation sentinel
    assert outcome.failures[-1] == {"note": "failure list truncated"}


def test_run_battery_all_green_on_g2():
    from kltangent.verify import VerifyConfig

    outcomes = run_battery("G2", VerifyConfig(random_cases=100))
    assert all(o.ok for o in outcomes)
    assert [(o.suite, o.cases) for o in outcomes] == [
        ("root-basics[G2]", 13),
        ("weyl-basics[G2]", 168),
        ("hecke-subword-equivalence[G2]", 2293),
        ("euler-identity[G2]", 85),
        ("ball-sphere[G2]", 85),
        ("kclass-well-defined[G2]", 85),
        ("cone-mechanism[G2]", 182),
        ("cominuscule-indecomposable[G2]", 6),
        ("cominuscule-parabolic[G2]", 0),
        ("cominuscule-complete[G2]", 13),
        ("te-containment[G2]", 6),
        ("explicit-factor-fast-slow[G2]", 100),
        ("decomposable-guard[A2]", 2),
        ("fixed-examples", 3),
    ]


# Default-config batteries; the x = e word () is one case of each whole-group sweep.
BATTERY_CASES = {
    "A3": [
        ("root-basics[A3]", 19),
        ("weyl-basics[A3]", 624),
        ("hecke-subword-equivalence[A3]", 33340),
        ("euler-identity[A3]", 959),
        ("ball-sphere[A3]", 959),
        ("kclass-well-defined[A3]", 959),
        ("cone-mechanism[A3]", 626),
        ("cominuscule-indecomposable[A3]", 29),
        ("cominuscule-parabolic[A3]", 14),
        ("cominuscule-complete[A3]", 73),
        ("te-containment[A3]", 29),
        ("cominuscule-permutations[A3]", 24),
        ("type-a-oracle[A3]", 2962),
        ("simply-laced-products[A3]", 187),
        ("explicit-factor-fast-slow[A3]", 500),
        ("decomposable-guard[A2]", 2),
        ("fixed-examples", 3),
    ],
    "B3": [
        ("root-basics[B3]", 28),
        ("weyl-basics[B3]", 2391),
        ("hecke-subword-equivalence[B3]", 59572),
        ("euler-identity[B3]", 6539),
        ("ball-sphere[B3]", 6539),
        ("kclass-well-defined[B3]", 6539),
        ("cone-mechanism[B3]", 3151),
        ("cominuscule-indecomposable[B3]", 41),
        ("cominuscule-parabolic[B3]", 6),
        ("cominuscule-complete[B3]", 109),
        ("te-containment[B3]", 41),
        ("explicit-factor-fast-slow[B3]", 500),
        ("decomposable-guard[A2]", 2),
        ("fixed-examples", 3),
    ],
}


@pytest.mark.parametrize("label", ["A3", "B3"])
def test_run_battery_case_counts_pinned(label):
    outcomes = run_battery(label)
    assert all(o.ok for o in outcomes)
    assert [(o.suite, o.cases) for o in outcomes] == BATTERY_CASES[label]


# sha256 of repr([(x id, word, w id), ...]) over the default-seed sampled draws
SAMPLED_DIGESTS = {
    ("D4", True): "966b8a5cbcf0f27c65a1ed262146ac73d8a025772950fa7e840da11d10a17249",
    ("D4", False): "8202b7ca9facabb242aea6cab2216395187dc6a3b9883aa0f40a487b44d57946",
    ("A5", True): "38ac55d24bb5b5e4866f759729eb6bc20c3b577d75e472cfa0e4eff7b6e6d10d",
    ("A5", False): "0f0611222141a8680787da22414563301a7c42a90eeccff4011b825416b5a6b7",
}


def _sampled_triples(gt, all_words):
    groups = _cases(gt, _SAMPLED_CASES, VerifyConfig().seed, all_words)
    return [(idx, word, w_id) for idx, word, w_ids in groups for w_id in w_ids]


@pytest.mark.parametrize("label", ["D4", "A5"])
def test_sampled_cases_are_pinned(label):
    gt = group_table(build_root_system(label))
    for all_words in (True, False):
        triples = _sampled_triples(gt, all_words)
        assert len(triples) == _SAMPLED_CASES
        assert hashlib.sha256(repr(triples).encode()).hexdigest() == SAMPLED_DIGESTS[label, all_words]


@pytest.mark.parametrize("label,cases", [("B3", 3151), ("D4", 4139), ("A5", 5140)])
def test_sampled_cone_suite_case_counts(label, cases):
    # the grouped suite counts every draw's positions, repeated (x, w) draws included
    outcome = cone_mechanism_suite(build_root_system(label), sample=_SAMPLED_CASES, seed=VerifyConfig().seed)
    assert outcome.ok
    assert outcome.cases == cases


def test_cone_suite_folds_each_target_suffix_once(monkeypatch):
    # the Demazure flags fold each distinct (word, target) once, past the word's first
    # indecomposable position, and the signed pass folds none
    rs = build_root_system("B3")
    gt = group_table(rs)
    calls = []
    real = tangent._suffix_floors

    def counted(rs, w, letters):
        calls.append((letters, w))
        return real(rs, w, letters)

    monkeypatch.setattr(tangent, "_suffix_floors", counted)
    seed = VerifyConfig().seed
    outcome = cone_mechanism_suite(rs, sample=_SAMPLED_CASES, seed=seed)
    assert outcome.ok and outcome.cases == 3151
    positions_of = verify._indecomposable_positions(rs, gt)
    folds = {}  # distinct (word, target) -> the suffix it folds
    for idx, word, w_ids in _cases(gt, _SAMPLED_CASES, seed, all_words=False):
        positions = positions_of(idx, word)[1]
        if positions:  # a word with no indecomposable position has no pass and no flags
            folds.update(((word, w_id), word[positions[0] :]) for w_id in w_ids)
    assert Counter(calls) == Counter((suffix, gt.elements[w_id]) for (_, w_id), suffix in folds.items())


def test_run_battery_times_every_suite():
    started = time.perf_counter()
    outcomes = run_battery("A2")
    wall = time.perf_counter() - started
    assert all(o.seconds > 0 for o in outcomes)
    assert sum(o.seconds for o in outcomes) <= wall
    assert decomposable_guard_suite().seconds == 0.0  # only run_battery times a suite


def test_sampled_words_respect_the_subword_guard_on_f4():
    # 30 elements of W(F4) are longer than the guard; no draw may land on them
    gt = group_table(build_root_system("F4"))
    assert max(gt.length) > _ENUM_LETTERS_BOUND
    for all_words in (True, False):
        triples = _sampled_triples(gt, all_words)
        assert len(triples) == _SAMPLED_CASES
        assert max(len(word) for _, word, _ in triples) <= _ENUM_LETTERS_BOUND


def test_bruhat_memo_is_thread_safe():
    # concurrent queries against a fresh root system must agree with a serial run
    serial_rs = build_root_system("A3")
    elements = enumerate_weyl_group(serial_rs)
    expected = {
        (u.rows, v.rows): bruhat_leq(serial_rs, u, v) for u in elements for v in elements
    }

    shared_rs = build_root_system("A3")
    shared_elements = enumerate_weyl_group(shared_rs)
    errors = []

    def worker(offset: int) -> None:
        for i, u in enumerate(shared_elements):
            v = shared_elements[(i + offset) % len(shared_elements)]
            if bruhat_leq(shared_rs, u, v) != expected[(u.rows, v.rows)]:
                errors.append((u, v))

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_euler_suite_holds_on_every_short_word(label, monkeypatch):
    """The battery checks reduced words only; the identity holds for every word q and every w <= delta(q)."""
    rs = build_root_system(label)
    gt = group_table(rs)
    masks = gt.leq_masks()
    groups = []
    for n in range(7):
        for q in product(range(1, rs.rank + 1), repeat=n):
            top = gt.demazure_fold(q)
            groups.append((top, q, tuple(_bits(masks[top]))))
    monkeypatch.setattr(verify, "_cases", lambda *args: iter(groups))
    outcome = euler_identity_suite(rs)
    assert outcome.ok, outcome.failures[:3]
    assert outcome.cases == sum(len(w_ids) for _, _, w_ids in groups)
    assert any(len(q) > gt.length[top] for top, q, _ in groups)
