import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kltangent import (
    ExponentOutsideCone,
    LaurentPoly,
    NotBelow,
    NotMember,
    NotMinimalCosetRep,
    NotReduced,
    Verdict,
    WrongType,
    all_reduced_words,
    build_complex,
    bruhat_leq,
    build_root_system,
    cominuscule_witness,
    demazure_element,
    element_to_permutation,
    enumerate_weyl_group,
    euler_signed_sum,
    gamma_sequence,
    gp_tangent_report,
    group_table,
    hecke_subwords,
    identity_element,
    inversion_set_of_inverse,
    is_cominuscule_element,
    is_explicit_factor,
    is_integrally_indecomposable,
    kclass_restriction,
    kl_tangent_membership,
    kl_tangent_report,
    multiply,
    root_from_epsilon,
    tangent_cone_coefficient,
    te_curve_weights,
    type_a_cominuscule_oracle,
    type_a_tangent_oracle,
    word_to_element,
)
from kltangent.weyl import _bits, has_right_ascent, right_descents, right_multiply_simple

A1, A2_, A12 = (1, 0), (0, 1), (1, 1)


def test_kclass_examples(a2):
    s1 = word_to_element(a2, (1,))
    expected = LaurentPoly({(0, 0): 1, (-1, -1): -1})
    assert kclass_restriction(a2, s1, (1, 2, 1)) == expected
    assert kclass_restriction(a2, s1, (2, 1, 2)) == expected  # other reduced word, same class
    assert kclass_restriction(a2, identity_element(a2), (1, 2, 1)) == LaurentPoly.one(2)
    with pytest.raises(NotReduced):
        kclass_restriction(a2, s1, (1, 1))
    with pytest.raises(NotBelow):
        kclass_restriction(a2, word_to_element(a2, (1, 2, 1)), (1, 2))


def test_kclass_matches_inclusion_exclusion(a2):
    # sum over the three Hecke subwords (1), (3), (1,3) with signs +, +, -
    s1 = word_to_element(a2, (1,))
    gammas = gamma_sequence(a2, (1, 2, 1)).gammas
    from kltangent import one_minus_e

    direct = (
        one_minus_e(gammas[0])
        + one_minus_e(gammas[2])
        - one_minus_e(gammas[0]) * one_minus_e(gammas[2])
    )
    assert kclass_restriction(a2, s1, (1, 2, 1)) == direct


def test_explicit_factor_examples(a2):
    s1 = word_to_element(a2, (1,))
    w0 = word_to_element(a2, (1, 2, 1))
    assert is_explicit_factor(a2, 1, s1, (1, 2, 1)) is False
    assert is_explicit_factor(a2, 2, s1, (1, 2, 1)) is False  # delta(s1, s1) = s1 >= s1
    assert all(is_explicit_factor(a2, j, w0, (1, 2, 1)) for j in (1, 2, 3))


@pytest.mark.parametrize("label", ["A3", "B3"])
def test_explicit_factor_fast_equals_slow_exhaustive(label):
    rs = build_root_system(label)
    for x in enumerate_weyl_group(rs):
        if x.length > 6:
            continue
        for s in all_reduced_words(rs, x):
            for w in enumerate_weyl_group(rs):
                if not w.length or w.length > x.length:
                    continue
                try:
                    fast = [is_explicit_factor(rs, j, w, s) for j in range(1, len(s) + 1)]
                except NotBelow:
                    continue
                # one enumeration answers every j; the public oracle is asked about one j per (w, s)
                subwords = hecke_subwords(rs, w, s)
                slow = [all(j in sub.indices for sub in subwords) for j in range(1, len(s) + 1)]
                assert fast == slow
                j = 1 + w.length % len(s)
                assert is_explicit_factor(rs, j, w, s, method="enumerate") == slow[j - 1]


def test_indecomposable_examples():
    assert is_integrally_indecomposable(A12, {A1, A12}) is True
    assert is_integrally_indecomposable(A12, {A1, A2_, A12}) is False
    assert is_integrally_indecomposable(A1, {A1, A2_, A12}) is True
    with pytest.raises(NotMember):
        is_integrally_indecomposable((2, 0), {A1, A2_})


def test_d4_inversion_roots_all_indecomposable(d4):
    x = word_to_element(d4, (2, 1, 3, 4, 2))
    inv = inversion_set_of_inverse(d4, x)
    eps = [(1, 0, -1, 0), (1, 1, 0, 0), (0, 1, -1, 0), (0, 1, 0, -1), (0, 1, 0, 1)]
    assert inv == {root_from_epsilon(d4, v) for v in eps}
    assert all(is_integrally_indecomposable(g, inv) for g in inv)
    assert not is_cominuscule_element(d4, x)


def test_membership_examples(a2):
    s1 = word_to_element(a2, (1,))
    assert kl_tangent_membership(a2, 1, s1, (1, 2, 1)).verdict is Verdict.IN
    assert kl_tangent_membership(a2, 1, s1, (1, 2)).verdict is Verdict.OUT
    status = kl_tangent_membership(a2, 2, s1, (1, 2, 1))
    assert status.verdict is Verdict.UNDETERMINED
    assert status.evidence.indecomposable is False
    assert status.evidence.demazure_ok is True
    assert status.evidence.ordinary_product_ok is False
    assert (not status.evidence.demazure_ok) is False  # 1 - e^{-gamma_2} is no explicit factor
    assert status.evidence.cone_coefficient == 1


def test_membership_invariants_no_oracle(a3):
    # In/Out only at indecomposable positions; In iff the Demazure test passes
    for x in enumerate_weyl_group(a3):
        if not 0 < x.length <= 5:
            continue
        s = tuple(all_reduced_words(a3, x)[0])
        for w in enumerate_weyl_group(a3):
            for j in range(1, len(s) + 1):
                try:
                    status = kl_tangent_membership(a3, j, w, s, include_cone_coefficient=False)
                except NotBelow:
                    break
                if status.verdict is Verdict.UNDETERMINED:
                    assert not status.evidence.indecomposable
                else:
                    assert status.evidence.indecomposable
                    assert (status.verdict is Verdict.IN) == status.evidence.demazure_ok


def test_report_examples(a2):
    s1 = word_to_element(a2, (1,))
    w0 = word_to_element(a2, (1, 2, 1))
    e = identity_element(a2)
    s1s2 = word_to_element(a2, (1, 2))

    report = kl_tangent_report(a2, s1, s1s2)
    assert report.kl_tangent_weights == {A12}
    assert report.statuses[0].verdict is Verdict.OUT
    assert report.complete and is_cominuscule_element(a2, s1s2)

    point = kl_tangent_report(a2, w0, w0)
    assert point.kl_tangent_weights == frozenset()
    assert point.schubert_extra_weights == frozenset()

    full = kl_tangent_report(a2, e, s1s2)
    assert full.kl_tangent_weights == inversion_set_of_inverse(a2, s1s2)
    assert full.schubert_extra_weights == {(0, -1)}

    with pytest.raises(NotBelow):
        kl_tangent_report(a2, w0, s1)


def test_report_independent_of_reduced_word(a3, b3):
    # per-weight verdicts agree no matter which reduced word the run uses
    from kltangent import bruhat_leq

    def verdicts_by_gamma(rs, w, word):
        out = {}
        for j in range(1, len(word) + 1):
            status = kl_tangent_membership(rs, j, w, word, include_cone_coefficient=False)
            out[status.gamma] = status.verdict
        return out

    for rs in (a3, b3):
        for x in enumerate_weyl_group(rs):
            if not 2 <= x.length <= 4:
                continue
            words = all_reduced_words(rs, x)
            if len(words) < 2:
                continue
            for w in enumerate_weyl_group(rs):
                if w.length > x.length or not bruhat_leq(rs, w, x):
                    continue
                first = verdicts_by_gamma(rs, w, words[0])
                for word in words[1:]:
                    assert verdicts_by_gamma(rs, w, word) == first


@pytest.mark.parametrize(
    "label, cone", [("B3", False), ("A4", False), ("B3", True), ("G2", True)], ids=["B3", "A4", "B3-cone", "G2-cone"]
)
def test_membership_equals_report_at_every_position(label, cone):
    # a position decided alone gets the report's status, cone coefficient included when asked for
    rs = build_root_system(label)
    gt = group_table(rs)
    masks = gt.leq_masks()
    coefficients = 0
    for x_id, x in enumerate(gt.elements):
        for w_id in _bits(masks[x_id]):
            w = gt.elements[w_id]
            report = kl_tangent_report(rs, w, x, include_cone_evidence=cone)
            for status in report.statuses:
                single = kl_tangent_membership(rs, status.position, w, report.x_word, include_cone_coefficient=cone)
                assert single == status, (label, report.x_word, w_id, status.position)
                coefficients += status.evidence.cone_coefficient is not None
    assert (coefficients > 0) == cone


@st.composite
def _x_w_and_second_word(draw, label):
    """x from a random reduced word of at most 20 letters, w the Demazure product of a
    random subword of it, and a second reduced word of x from random right descents."""
    rs = build_root_system(label)
    word, x = (), identity_element(rs)
    for letter in draw(st.lists(st.integers(1, rs.rank), min_size=20, max_size=80)):
        if len(word) < 20 and has_right_ascent(x, letter):
            word, x = word + (letter,), right_multiply_simple(rs, x, letter)
    keep = draw(st.lists(st.booleans(), min_size=len(word), max_size=len(word)))
    w = demazure_element(rs, tuple(letter for letter, k in zip(word, keep) if k))
    peeled, y = [], x
    while y.length:
        i = draw(st.sampled_from(sorted(right_descents(rs, y))))
        peeled.append(i)
        y = right_multiply_simple(rs, y, i)
    return rs, x, w, tuple(reversed(peeled))


@pytest.mark.parametrize("label", ["E6", "E7"])
def test_verdicts_do_not_depend_on_the_reduced_word(label):
    # the verdicts belong to (w, x): any reduced word gives the report's, weight by weight
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_x_w_and_second_word(label))
    def check(case):
        rs, x, w, other = case
        by_gamma = {status.gamma: status for status in kl_tangent_report(rs, w, x).statuses}
        assert sorted(by_gamma) == sorted(gamma_sequence(rs, other).gammas)
        for j in range(1, len(other) + 1):
            status = kl_tangent_membership(rs, j, w, other, include_cone_coefficient=False)
            expected = by_gamma[status.gamma]
            assert status.verdict is expected.verdict
            assert status.evidence.ordinary_product_ok == expected.evidence.ordinary_product_ok

    check()


def test_te_curve_weights_examples(a2):
    s1 = word_to_element(a2, (1,))
    e = identity_element(a2)
    assert te_curve_weights(a2, s1, (1, 2, 1)) == {A1, A2_}
    assert te_curve_weights(a2, e, (1, 2, 1)) == {A1, A2_, A12}
    assert te_curve_weights(a2, s1, (1, 2)) == {A12}


def test_type_a_oracle_examples(a2, b2):
    s1 = word_to_element(a2, (1,))
    assert type_a_tangent_oracle(a2, 2, s1, (1, 2, 1)) is False
    assert type_a_tangent_oracle(a2, 1, s1, (1, 2, 1)) is True
    assert all(type_a_tangent_oracle(a2, j, identity_element(a2), (1, 2, 1)) for j in (1, 2, 3))
    with pytest.raises(WrongType):
        type_a_tangent_oracle(b2, 1, word_to_element(b2, (1,)), (1, 2, 1))


def test_oracle_flag_behavior(a2, b2):
    s1 = word_to_element(a2, (1,))
    w0 = word_to_element(a2, (1, 2, 1))
    plain = kl_tangent_report(a2, s1, w0)
    assert plain.statuses[1].verdict is Verdict.UNDETERMINED and not plain.complete
    upgraded = kl_tangent_report(a2, s1, w0, use_type_a_oracle=True)
    assert upgraded.statuses[1].verdict is Verdict.OUT and upgraded.complete
    with pytest.raises(WrongType):
        kl_tangent_report(b2, word_to_element(b2, (1,)), word_to_element(b2, (1, 2)),
                          use_type_a_oracle=True)


def test_cone_coefficient_examples(a2):
    s1 = word_to_element(a2, (1,))
    w0 = word_to_element(a2, (1, 2, 1))
    assert tangent_cone_coefficient(a2, (-1, 0), s1, (1, 2, 1)) == 1
    assert tangent_cone_coefficient(a2, (-1, 0), w0, (1, 2, 1)) == 0
    # decomposable weight: coefficient 1 even though gamma_2 is not tangent
    assert tangent_cone_coefficient(a2, (-1, -1), s1, (1, 2, 1)) == 1
    s2 = word_to_element(a2, (2,))
    with pytest.raises(ExponentOutsideCone):
        tangent_cone_coefficient(a2, (-1, 0), s2, (2,))  # -a1 outside cone of {a2}


def test_cominuscule_examples(a2):
    e = identity_element(a2)
    s1s2 = word_to_element(a2, (1, 2))
    w0 = word_to_element(a2, (1, 2, 1))
    assert is_cominuscule_element(a2, e)
    witness = cominuscule_witness(a2, s1s2)
    assert witness is not None and witness[0] == -1 and witness[1] == 0
    assert not is_cominuscule_element(a2, w0)


def test_cominuscule_inverse_invariance(a3):
    from kltangent import inverse

    for x in enumerate_weyl_group(a3):
        assert is_cominuscule_element(a3, x) == is_cominuscule_element(a3, inverse(a3, x))


def test_permutations(a2, a3, b2):
    assert element_to_permutation(a2, identity_element(a2)) == (1, 2, 3)
    assert element_to_permutation(a2, word_to_element(a2, (1, 2, 1))) == (3, 2, 1)
    with pytest.raises(WrongType):
        element_to_permutation(b2, identity_element(b2))
    assert type_a_cominuscule_oracle(2, (3, 2, 1)) is False
    for x in enumerate_weyl_group(a2):
        perm = element_to_permutation(a2, x)
        assert type_a_cominuscule_oracle(2, perm) == is_cominuscule_element(a2, x)
    with pytest.raises(WrongType):
        type_a_cominuscule_oracle(2, (1, 1, 2))
    # permutation respects the group action on epsilon coordinates
    from kltangent import act_on_root, root_from_epsilon, root_to_epsilon

    for x in enumerate_weyl_group(a3):
        perm = element_to_permutation(a3, x)
        for j in range(1, a3.rank + 1):
            alpha = tuple(1 if k == j - 1 else 0 for k in range(a3.rank))
            eps = root_to_epsilon(a3, act_on_root(x, alpha))
            expected = [0] * (a3.rank + 1)
            expected[perm[j - 1] - 1] += 1
            expected[perm[j] - 1] -= 1
            assert list(eps) == expected


def test_gp_report(a2, a3):
    w = word_to_element(a2, (1,))
    x = word_to_element(a2, (2, 1))
    report = gp_tangent_report(a2, w, x, {2})
    base = kl_tangent_report(a2, w, x)
    assert report.parabolic == frozenset({2})
    assert report.statuses == base.statuses
    assert report.kl_tangent_weights == base.kl_tangent_weights
    assert report.schubert_extra_weights == base.schubert_extra_weights
    # empty parabolic is exactly the G/B report
    empty = gp_tangent_report(a2, w, x, set())
    assert empty.statuses == base.statuses
    with pytest.raises(NotMinimalCosetRep):
        gp_tangent_report(a3, identity_element(a3), word_to_element(a3, (2,)), {2})
    with pytest.raises(NotMinimalCosetRep):
        gp_tangent_report(a2, word_to_element(a2, (2,)), x, {2})


def test_g2_report_structure():
    # non-simply-laced sanity: verdict structure holds at the G2 long element
    g2 = build_root_system("G2")
    x = word_to_element(g2, (1, 2, 1, 2, 1, 2))
    assert x.length == 6
    for w in enumerate_weyl_group(g2):
        report = kl_tangent_report(g2, w, x)
        for status in report.statuses:
            ev = status.evidence
            if status.verdict is Verdict.UNDETERMINED:
                assert not ev.indecomposable
            else:
                assert ev.indecomposable
                assert (status.verdict is Verdict.IN) == ev.demazure_ok
            # invariant-curve weights always pass the Demazure test too
            if ev.ordinary_product_ok:
                assert ev.demazure_ok
        assert report.kl_tangent_weights.isdisjoint(report.schubert_extra_weights)
        te = te_curve_weights(g2, w, report.x_word)
        undecided = {st.gamma for st in report.statuses if st.verdict is Verdict.UNDETERMINED}
        assert te <= report.kl_tangent_weights | undecided


def test_b2_c2_relabelling_mirror(b2):
    # B2 and C2 are the same diagram with nodes swapped; whole reports must match
    from kltangent import canonical_reduced_word

    c2 = build_root_system("C2")
    swap = {1: 2, 2: 1}
    for x in enumerate_weyl_group(b2):
        word_b = canonical_reduced_word(b2, x)
        x_c = word_to_element(c2, tuple(swap[i] for i in word_b))
        assert x_c.length == x.length
        for w in enumerate_weyl_group(b2):
            w_word = canonical_reduced_word(b2, w)
            w_c = word_to_element(c2, tuple(swap[i] for i in w_word))
            try:
                report_b = kl_tangent_report(b2, w, x)
            except NotBelow:
                with pytest.raises(NotBelow):
                    kl_tangent_report(c2, w_c, x_c)
                continue
            report_c = kl_tangent_report(c2, w_c, x_c)
            mirrored = {(g[1], g[0]): st.verdict for g, st in
                        ((s.gamma, s) for s in report_b.statuses)}
            actual = {st.gamma: st.verdict for st in report_c.statuses}
            assert actual == mirrored
            assert {(g[1], g[0]) for g in report_b.kl_tangent_weights} == report_c.kl_tangent_weights


def test_out_implies_explicit_factor(a3):
    # weights ruled Out always exhibit the factor in every summand
    for x in enumerate_weyl_group(a3):
        if not 0 < x.length <= 5:
            continue
        s = all_reduced_words(a3, x)[0]
        for w in enumerate_weyl_group(a3):
            if w.length > x.length or w.length == 0:
                continue
            for j in range(1, len(s) + 1):
                try:
                    status = kl_tangent_membership(a3, j, w, s, include_cone_coefficient=False)
                except NotBelow:
                    break
                if status.verdict is Verdict.OUT:
                    assert not status.evidence.demazure_ok
                    assert is_explicit_factor(a3, j, w, s, method="enumerate")


def test_elements_of_another_root_system_are_refused(a2, a3, b2):
    """An element keeps its own Dynkin tables, so one from another type would be walked by the wrong links."""
    w_a2 = word_to_element(a2, (1,))
    x_b2 = word_to_element(b2, (1, 2, 1, 2))
    with pytest.raises(WrongType):
        kl_tangent_report(b2, w_a2, x_b2)
    with pytest.raises(WrongType):
        gp_tangent_report(b2, identity_element(b2), w_a2, {2})
    with pytest.raises(WrongType):
        kclass_restriction(b2, word_to_element(a2, (1, 2, 1)), (1, 2, 1, 2))
    e_a3 = identity_element(a3)
    with pytest.raises(WrongType):
        kl_tangent_report(a2, e_a3, word_to_element(a2, (1, 2)))
    with pytest.raises(WrongType):
        is_explicit_factor(a2, 1, e_a3, (1, 2))
    with pytest.raises(WrongType):
        cominuscule_witness(b2, w_a2)
    with pytest.raises(WrongType):
        element_to_permutation(a2, e_a3)
    longest_a2 = word_to_element(a2, (1, 2, 1))
    for subword_function in (hecke_subwords, build_complex, euler_signed_sum):
        with pytest.raises(WrongType):
            subword_function(b2, longest_a2, (1, 2, 1, 2))
    # unchecked, a walk or a product reads the lanes and links of the wrong type: an
    # IndexError from A2 against A3, and a wrong True or a non-element against B2
    u_a2, v_a3, v_b2 = word_to_element(a2, (1, 2)), word_to_element(a3, (1, 2, 3)), word_to_element(b2, (1, 2, 1))
    for rs, call in ((a2, bruhat_leq), (a3, bruhat_leq), (a2, multiply), (a3, multiply)):
        with pytest.raises(WrongType):
            call(rs, u_a2, v_a3)
    with pytest.raises(WrongType):
        bruhat_leq(b2, w_a2, v_b2)
    with pytest.raises(WrongType):
        multiply(b2, v_b2, u_a2)


def test_elements_of_another_build_of_the_type_are_accepted(b2):
    """The Dynkin tables are compared by value: a second build of B2 gives the same answers."""
    b2_again = build_root_system("B2")
    x = word_to_element(b2, (1, 2, 1, 2))
    for w_word in ((), (1,), (2, 1), (1, 2, 1)):
        w, w_again = word_to_element(b2, w_word), word_to_element(b2_again, w_word)
        assert kl_tangent_report(b2, w_again, x) == kl_tangent_report(b2, w, x)
        assert kclass_restriction(b2, w_again, (1, 2, 1, 2)) == kclass_restriction(b2, w, (1, 2, 1, 2))
    assert cominuscule_witness(b2, word_to_element(b2_again, (1, 2))) == cominuscule_witness(
        b2, word_to_element(b2, (1, 2))
    )
