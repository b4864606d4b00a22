"""Acceptance battery: one test per criterion, exhaustive at the stated scope.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with its case count and wall time.  Every check here is exact
(integer equality); the stated time limits are asserted as well.
"""

import time

import pytest

from kltangent import build_root_system
from kltangent.verify import (
    ball_sphere_suite,
    cominuscule_indecomposable_suite,
    cominuscule_parabolic_suite,
    cominuscule_permutation_suite,
    cone_mechanism_suite,
    decomposable_guard_suite,
    euler_identity_suite,
    explicit_factor_random_suite,
    fixed_examples_suite,
    kclass_well_definedness_suite,
    simply_laced_product_suite,
    type_a_oracle_suite,
)


def _report(criterion: str, outcomes, started: float, budget: float | None = None) -> None:
    elapsed = time.perf_counter() - started
    cases = sum(o.cases for o in outcomes)
    failures = [f for o in outcomes for f in o.failures]
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}  cases={cases}  time={elapsed:.2f}s")
    assert not failures, failures[:10]
    if budget is not None:
        assert elapsed < budget, f"{criterion} exceeded its {budget}s budget ({elapsed:.2f}s)"


def test_criterion_1_euler_identity_a3_b3():
    t0 = time.perf_counter()
    outcomes = [euler_identity_suite(build_root_system("A3")),
                euler_identity_suite(build_root_system("B3"))]
    assert sum(o.cases for o in outcomes) == 959 + 6539  # every (x, word, w <= x)
    _report("1 euler-identity", outcomes, t0, budget=60)


def test_criterion_2_ball_sphere_a3_b3():
    t0 = time.perf_counter()
    outcomes = [ball_sphere_suite(build_root_system("A3")),
                ball_sphere_suite(build_root_system("B3"))]
    assert sum(o.cases for o in outcomes) == 959 + 6539
    _report("2 ball-sphere", outcomes, t0, budget=120)


def test_criterion_3_kclass_well_defined_a3():
    t0 = time.perf_counter()
    outcomes = [kclass_well_definedness_suite(build_root_system("A3"))]
    assert outcomes[0].cases == 959  # one class comparison per (x, w, reduced word)
    _report("3 kclass-well-defined", outcomes, t0, budget=120)


def test_criterion_4_cone_mechanism_a3():
    t0 = time.perf_counter()
    outcomes = [cone_mechanism_suite(build_root_system("A3"))]
    _report("4 cone-mechanism", outcomes, t0, budget=300)


def test_criterion_5_type_a_oracle_a2_a3():
    t0 = time.perf_counter()
    outcomes = [type_a_oracle_suite(build_root_system("A2")),
                type_a_oracle_suite(build_root_system("A3"))]
    _report("5 type-a-oracle", outcomes, t0)


def test_criterion_6_fixed_examples():
    t0 = time.perf_counter()
    outcomes = [fixed_examples_suite()]
    _report("6 fixed-examples", outcomes, t0)


def test_criterion_7_cominuscule_coherence():
    t0 = time.perf_counter()
    outcomes = [
        cominuscule_permutation_suite(build_root_system("A3")),
        cominuscule_permutation_suite(build_root_system("A4")),
        cominuscule_indecomposable_suite(build_root_system("A4")),
        cominuscule_indecomposable_suite(build_root_system("B3")),
        cominuscule_indecomposable_suite(build_root_system("D4")),
        cominuscule_parabolic_suite(build_root_system("A3")),
        cominuscule_parabolic_suite(build_root_system("D4")),
    ]
    _report("7 cominuscule-coherence", outcomes, t0)


def test_criterion_8_simply_laced_products_a3_d4():
    t0 = time.perf_counter()
    outcomes = [simply_laced_product_suite(build_root_system("A3")),
                simply_laced_product_suite(build_root_system("D4"))]
    _report("8 simply-laced-products", outcomes, t0)


def test_criterion_9_fast_slow_random_10000():
    t0 = time.perf_counter()
    outcomes = [explicit_factor_random_suite(
        ["A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "F4"],
        cases=10_000,
        seed=20260808,
    )]
    assert outcomes[0].cases == 10_000
    _report("9 explicit-factor-fast-slow", outcomes, t0)


def test_criterion_10_decomposable_guard():
    t0 = time.perf_counter()
    outcomes = [decomposable_guard_suite()]
    _report("10 decomposable-guard", outcomes, t0)


def test_supplement_kclass_well_defined_b3():
    # the criterion-3 identity swept exhaustively over B3 as well
    t0 = time.perf_counter()
    outcomes = [kclass_well_definedness_suite(build_root_system("B3"))]
    assert outcomes[0].cases == 6539
    _report("3+ kclass-well-defined[B3]", outcomes, t0)


@pytest.mark.parametrize("label,samples", [("B3", 300), ("D4", 200)])
def test_supplement_cone_mechanism_sampled(label, samples):
    # the criterion-4 mechanism re-checked on sampled (x, w, j) beyond type A
    t0 = time.perf_counter()
    outcomes = [cone_mechanism_suite(build_root_system(label), sample=samples, seed=11)]
    _report(f"4+ cone-mechanism[{label}]", outcomes, t0)
    # the count depends on the seeded draw order: x first, then w <= x
    assert outcomes[0].cases == {"B3": 952, "D4": 826}[label]


def test_supplement_euler_identity_d4_sampled():
    # the criterion-1 identity on 1000 random (x, w, word) triples in D4
    t0 = time.perf_counter()
    outcomes = [euler_identity_suite(build_root_system("D4"), sample=1000, seed=11)]
    _report("1+ euler-identity[D4]", outcomes, t0)
