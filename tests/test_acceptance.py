"""Acceptance checklist: the end-to-end guarantees of the package.

Every criterion is an exact integer check — no tolerances anywhere.
Run under pytest (one test per criterion, a PASS line printed on
success, visible with -s) or standalone:

    python tests/test_acceptance.py
"""

import itertools
import sys

import pytest

from oracles import aomoto_laurent_factors, naive_laurent_constant_term
from sumsetlab import (
    AomotoParams,
    NotPrime,
    PrimeField,
    SumsetInstance,
    aomoto_closed_form,
    aomoto_constant_term,
    certificate_check,
    compute_bounds,
    coverage_sweep,
    dyson_closed_form,
    dyson_constant_term,
    enumerate_restricted_sumset,
    key_coefficient,
    key_coefficient_closed_form,
    leading_coefficient_check,
    run_experiment,
    uniform_forbidden,
    zeilberger_coefficient,
)

SWEEP_SEED = 20260808
_sweep_cache = None


def soundness_sweep():
    """200 seeded instances shared by criteria 5 and 7."""
    global _sweep_cache
    if _sweep_cache is None:
        _sweep_cache = run_experiment(
            seed=SWEEP_SEED, trials=200,
            p_set=(5, 7, 11, 13), n_set=(2, 3), m_set=(0, 1),
            k_max=6, enforce="thm3",
        )
    return _sweep_cache


def criterion_1_dyson_identity():
    """Constant term = multinomial = coefficient form, all small vectors."""
    checked = 0
    for nv in (2, 3, 4):
        for avec in itertools.product(range(3), repeat=nv):
            ct = dyson_constant_term(avec)
            assert ct == dyson_closed_form(avec), avec
            assert ct == zeilberger_coefficient(avec), avec
            checked += 1
    assert checked == 9 + 27 + 81


def criterion_2_aomoto_identity():
    """Both orientations of the shifted product match their closed forms:
    side "b" of a tuple, expanded with the shift on the b exponent, is
    side "a" of the swapped tuple (n, s, b, a, m)."""
    for n in (1, 2, 3):
        for s in range(n + 1):
            for a in range(3):
                for b in range(3):
                    for m in range(2):
                        params = AomotoParams(n=n, s=s, a=a, b=b, m=m)
                        swapped = params._replace(a=b, b=a)
                        point = (n, s, a, b, m)
                        side_b = naive_laurent_constant_term(
                            aomoto_laurent_factors(params, "b"))
                        assert aomoto_constant_term(params) == \
                            aomoto_closed_form(params), point
                        assert aomoto_constant_term(swapped) == \
                            aomoto_closed_form(swapped) == side_b, point


def criterion_3_key_coefficient_closed_form():
    """Closed form = direct expansion on the full grid; always positive."""
    for n in (2, 3):
        for m in (1, 2):
            for k in range(m * (n - 1) + 1, m * (n - 1) + 5):
                for s in range(n + 1):
                    sizes = (k + 1,) * s + (k,) * (n - s)
                    closed = key_coefficient_closed_form(n, m, k, s)
                    brute = key_coefficient(sizes, m)
                    assert closed == brute, (n, m, k, s)
                    assert closed > 0, (n, m, k, s)
    assert key_coefficient_closed_form(2, 1, 3, 0) == 2
    assert key_coefficient_closed_form(2, 1, 3, 2) == 4


def criterion_4_polynomiality_and_leading_coefficient():
    """Sampled closed form fits a degree-D polynomial; leading term checks."""
    for m in (0, 1):
        for b in (0, 1, 2):
            for s in (0, 1, 2):
                rep = leading_coefficient_check(2, s, b, m, degree_bound_slack=2)
                assert rep.degree == 2 * b + s
                assert rep.agree, (m, b, s)
    pinned = leading_coefficient_check(2, 0, 1, 1)
    assert pinned.coefficients == (4, 6, 2)  # 2! (a+1)(a+2)
    assert pinned.leading_coefficient == 2


def criterion_5_soundness_sweep():
    """200 seeded instances: no bound or certificate violation."""
    rows = soundness_sweep()
    assert len(rows) == 200
    for row in rows:
        result = row.analysis
        assert result.violations == (), (row.index, row.p, row.n, row.k, row.m)
        if result.certificate is not None and result.certificate.certificate_valid:
            assert len(result.sumset) >= result.certificate.claimed_bound


def criterion_6_pairwise_distinct_reproduction():
    """p=7, A={0,1,2,3}: sums of two distinct elements give 2|A|-3 = 5."""
    A = (0, 1, 2, 3)
    inst = SumsetInstance(7, [A, A], uniform_forbidden(2, {0}))
    card = len(enumerate_restricted_sumset(inst))
    assert card == 5 == 2 * len(A) - 3
    rep = compute_bounds(inst)
    assert rep.thm2.hypothesis_met and rep.thm2.value == 5


def criterion_7_improvement_over_floor_bound():
    """Whenever p <= n(k-1)-mn(n-1): thm3 = p >= n*floor((p-1)/n)+1,
    strictly unless n divides p-1."""
    rows = soundness_sweep()
    hits = 0
    for row in rows:
        if row.p > row.n * (row.k - 1) - row.m * row.n * (row.n - 1):
            continue
        hits += 1
        bounds = row.analysis.bounds
        assert bounds.thm3.value == row.p
        floor_bound = row.n * ((row.p - 1) // row.n) + 1
        assert bounds.old.value == floor_bound
        assert row.p >= floor_bound
        if (row.p - 1) % row.n:
            assert row.p > floor_bound
        else:
            assert row.p == floor_bound
    assert hits > 0, "sweep never entered the shrink regime"


def criterion_8_coverage_theorem():
    """Threshold-size subsets cover all residues; exhaustive at p=7, m=1,
    sampled at p in {11,13}, m in {1,2}.  The proof arithmetic from the
    threshold to n(|A|-1) - mn(n-1) + 1 >= p is asserted over a grid by
    test_sumsets.py::test_threshold_is_least_size."""
    exhaustive = coverage_sweep(7, 1, mode="exhaustive")
    assert len(exhaustive.rows) == 21
    for row in exhaustive.rows:
        assert row.hypothesis_met
        assert row.n == 2
        assert row.covered, row.subset
    for p in (11, 13):
        for m in (1, 2):
            sampled = coverage_sweep(p, m, mode="sample", count=50,
                                     seed=SWEEP_SEED + p + m)
            assert len(sampled.rows) == 50
            for row in sampled.rows:
                if row.hypothesis_met:
                    assert row.covered, (p, m, row.subset)


def criterion_9_negative_controls():
    """A vanishing coefficient certifies nothing; composite moduli rejected."""
    inst = SumsetInstance(2, [(0, 1), (0, 1)], uniform_forbidden(2, {0}))
    cert = certificate_check(inst)
    assert cert.coefficient_integer == 2
    assert cert.coefficient_mod_p == 0
    assert cert.certificate_valid is False
    with pytest.raises(NotPrime):
        PrimeField(6)
    with pytest.raises(NotPrime):
        SumsetInstance(9, [(0, 1)])


CRITERIA = (
    (1, "Dyson constant term = multinomial = coefficient form",
     criterion_1_dyson_identity),
    (2, "Aomoto constant term matches both closed-form orientations",
     criterion_2_aomoto_identity),
    (3, "key coefficient closed form = expansion, positive on the grid",
     criterion_3_key_coefficient_closed_form),
    (4, "shifted closed form is polynomial; leading coefficient checks",
     criterion_4_polynomiality_and_leading_coefficient),
    (5, "200-instance soundness sweep has zero violations",
     criterion_5_soundness_sweep),
    (6, "pairwise-distinct sums over p=7 reproduce 2|A|-3",
     criterion_6_pairwise_distinct_reproduction),
    (7, "uniform bound improves on the floor bound in the shrink regime",
     criterion_7_improvement_over_floor_bound),
    (8, "threshold-size subsets cover every residue",
     criterion_8_coverage_theorem),
    (9, "negative controls: vanishing certificate, composite modulus",
     criterion_9_negative_controls),
)


@pytest.mark.parametrize("number,label,check", CRITERIA,
                         ids=[f"criterion_{c[0]}" for c in CRITERIA])
def test_criterion(number, label, check):
    check()
    print(f"PASS {number}/9: {label}")


if __name__ == "__main__":
    failures = 0
    for number, label, check in CRITERIA:
        try:
            check()
        except Exception as exc:  # report and continue: one line per criterion
            failures += 1
            print(f"FAIL {number}/9: {label} — {exc}")
        else:
            print(f"PASS {number}/9: {label}")
    sys.exit(1 if failures else 0)
