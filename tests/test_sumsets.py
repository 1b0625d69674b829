import itertools
import json
import re
import tracemalloc
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

import sumsetlab.sumsets as sumsets_module
from oracles import (
    brute_sumset,
    coverage_sweep_rows,
    expanded_certificate,
    list_sample,
    literal_certificate,
    orbit_key,
)
from sumsetlab import (
    BudgetExceeded,
    CannotSatisfyHypothesis,
    DegreeInfeasible,
    InstanceFormatError,
    NotInShrinkRegime,
    NotPrime,
    ParameterOutOfRange,
    PrimeField,
    SplitMix64,
    SumsetInstance,
    analyze,
    certificate_check,
    compute_bounds,
    coverage_check,
    coverage_sweep,
    coverage_threshold,
    enumerate_restricted_sumset,
    instance_from_dict,
    instance_to_dict,
    is_prime,
    key_coefficient_closed_form,
    load_instance,
    parameter_hypothesis_met,
    random_instance,
    run_experiment,
    shrink_sizes,
    uniform_forbidden,
)


def eh_instance(p=7, upto=4):
    """Sums of two distinct elements of {0, ..., upto-1} mod p."""
    A = tuple(range(upto))
    return SumsetInstance(p, [A, A], uniform_forbidden(2, {0}))


# ----------------------------------------------------------------------
# instances
# ----------------------------------------------------------------------

def test_instance_normalization():
    inst = SumsetInstance(7, [[3, 1, 2]], None)
    assert inst.sets == ((1, 2, 3),)
    assert inst.n == 1
    assert inst.uniform_m == 0
    assert inst.uniform_size == 3


def test_instance_missing_pairs_default_empty():
    inst = SumsetInstance(7, [[0, 1], [0, 1]], {(0, 1): [2]})
    assert inst.forbidden[(1, 0)] == frozenset()
    assert inst.uniform_m is None  # sizes 1 and 0


def test_instance_validation():
    # a set is named 1-based, as documents number them
    with pytest.raises(InstanceFormatError, match="^set 2 is empty$"):
        SumsetInstance(7, [[0, 1], []])
    with pytest.raises(InstanceFormatError, match=r"^set 1 has elements outside \[0, 7\)$"):
        SumsetInstance(7, [[0, 7]])
    with pytest.raises(InstanceFormatError, match="^set 2 has repeated elements$"):
        SumsetInstance(7, [[1], [0, 0, 1]])
    with pytest.raises(InstanceFormatError):
        SumsetInstance(7, [[0, 1]], {(0, 0): [1]})
    for key in ((0, 1, 2), 0):
        with pytest.raises(InstanceFormatError):
            SumsetInstance(7, [[0, 1], [2, 3]], {key: [1]})
    with pytest.raises(InstanceFormatError,
                       match=r"^forbidden set 1,2 has elements outside \[0, 7\)$"):
        SumsetInstance(7, [[0, 1], [2, 3]], {(0, 1): [9]})
    with pytest.raises(NotPrime):
        SumsetInstance(6, [[0, 1]])
    # one element contract: non-bool ints, never coerced, types checked first
    for sets in ([[2.9, 4]], [[True, 2]], [["1", 2]], [[0, [1]]]):
        with pytest.raises(InstanceFormatError):
            SumsetInstance(7, sets)
    # uniform_forbidden refuses [0.7] itself, so both run inside the check
    for forbidden in (lambda: {(0, 1): [0.5]}, lambda: uniform_forbidden(2, [0.7])):
        with pytest.raises(InstanceFormatError):
            SumsetInstance(7, [[0, 1], [2, 3]], forbidden())


def test_uniform_forbidden_checks_types_before_merging():
    # True == 1, so a frozenset built first would merge it away unseen
    with pytest.raises(InstanceFormatError, match="S must hold integers, got True"):
        SumsetInstance(7, [[0], [1]], uniform_forbidden(2, [1, True]))
    with pytest.raises(InstanceFormatError, match="got '1'"):
        uniform_forbidden(3, ["1"])
    assert uniform_forbidden(2, [1, 2, 1]) == {(0, 1): {1, 2}, (1, 0): {1, 2}}


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------

def test_enumerate_pairwise_distinct():
    assert sorted(enumerate_restricted_sumset(eh_instance())) == [1, 2, 3, 4, 5]


def test_enumerate_unrestricted():
    inst = SumsetInstance(7, [(0, 1, 2), (0, 1, 2)])
    assert sorted(enumerate_restricted_sumset(inst)) == [0, 1, 2, 3, 4]


def test_enumerate_forbidden_everything():
    inst = SumsetInstance(5, [(0,), (0,)], uniform_forbidden(2, {0}))
    assert enumerate_restricted_sumset(inst) == set()


def test_enumerate_single_set():
    inst = SumsetInstance(11, [(1, 5, 9)])
    assert sorted(enumerate_restricted_sumset(inst)) == [1, 5, 9]


def test_enumerate_asymmetric_constraint():
    # only S_12 is set; the reversed difference stays legal
    inst = SumsetInstance(7, [(0, 1), (0, 1)], {(0, 1): [1]})
    # forbidden: a1 - a2 = 1, i.e. (1, 0); remaining sums: 0, 1, 1+1=2
    assert sorted(enumerate_restricted_sumset(inst)) == [0, 1, 2]


def test_enumerate_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_restricted_sumset(eh_instance(), budget=15)


def test_enumerate_wraps_mod_p():
    inst = SumsetInstance(5, [(3, 4), (3, 4)], uniform_forbidden(2, {0}))
    assert sorted(enumerate_restricted_sumset(inst)) == [2]  # 3 + 4 = 7 = 2 mod 5


@st.composite
def small_instances(draw):
    """Instances over p <= 7 with up to 4 sets.  Dense sets and few
    forbidden differences reach C = Z/pZ; sparse sets or dense forbidden
    sets fall short of it."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 4))
    residues = st.integers(0, p - 1)
    sets = [draw(st.sets(residues, min_size=1, max_size=p)) for _ in range(n)]
    forbidden = {
        (i, j): draw(st.sets(residues, max_size=2))
        for i in range(n) for j in range(n) if i != j
    }
    return SumsetInstance(p, sets, forbidden)


@settings(max_examples=300, deadline=None)
@given(small_instances())
@example(SumsetInstance(7, [range(7)] * 3, uniform_forbidden(3, {0})))  # all of Z/7
@example(SumsetInstance(7, [(0, 1, 2)] * 2, uniform_forbidden(2, {0})))  # {1, 2, 3}
@example(SumsetInstance(5, [(0, 2, 4)]))  # n = 1: no pair to test
@example(SumsetInstance(7, [(0, 3), (1, 2), (4,)]))  # every pair empty
@example(SumsetInstance(7, [(0, 1, 2)] * 2, {(0, 1): [1], (1, 0): [2, 5]}))  # S_12 != S_21
@example(SumsetInstance(7, [(0, 1, 2)] * 2, {(0, 1): [1], (1, 0): [6]}))  # S_21 = -S_12
@example(SumsetInstance(5, [range(5)] * 3, {(0, 1): [0], (2, 0): [1]}))  # all of Z/5
def test_enumerate_matches_brute_oracle(inst):
    assert enumerate_restricted_sumset(inst) == brute_sumset(inst)


def test_enumerate_stops_once_every_residue_is_hit():
    visits = 0

    class CountedSet(tuple):
        def __iter__(self):
            nonlocal visits
            for a in super().__iter__():
                visits += 1
                yield a

    inst = SumsetInstance(7, [range(7)] * 4, uniform_forbidden(4, {3}))
    expected = brute_sumset(inst)
    inst.sets = tuple(CountedSet(A) for A in inst.sets)
    assert enumerate_restricted_sumset(inst) == expected == set(range(7))
    # the walk that runs to the end visits 1232 elements; this one hits
    # all seven residues within its first 22
    assert visits < 100


# ----------------------------------------------------------------------
# bounds
# ----------------------------------------------------------------------

def test_bounds_erdos_heilbronn():
    inst = eh_instance()
    card = len(enumerate_restricted_sumset(inst))
    result = analyze(inst)
    rep = result.bounds
    assert len(result.sumset) == card == 5
    assert rep.thm2.value == 5 and rep.thm2.hypothesis_met
    assert rep.thm1.value == 5 and rep.thm1.hypothesis_met
    assert rep.thm3.value == 5 and rep.thm3.hypothesis_met
    assert not rep.old.hypothesis_met


def test_bounds_thm3_min():
    inst = SumsetInstance(13, [tuple(range(5))] * 2, uniform_forbidden(2, {0}))
    rep = compute_bounds(inst)
    assert rep.thm3.value == 7


def test_bounds_floor_value():
    inst = SumsetInstance(7, [tuple(range(4))] * 3)
    rep = compute_bounds(inst)
    assert rep.old.value == 7  # 3*floor(6/3) + 1
    assert rep.old.hypothesis_met
    assert rep.thm3.value == 7  # min(p, 10)
    assert not rep.thm1.hypothesis_met  # p = 7 <= 9


def test_bounds_near_uniform_sizes():
    inst = SumsetInstance(11, [(0, 1, 2), (0, 1, 2, 3)], uniform_forbidden(2, {0}))
    rep = compute_bounds(inst)
    assert rep.thm2.value == (2 + 3) - 2 + 1
    assert rep.thm1.value is None and rep.thm3.value is None


def test_bounds_sizes_spread_too_far():
    inst = SumsetInstance(11, [(0, 1), (0, 1, 2, 3)])
    assert compute_bounds(inst).thm2.value is None


def test_bounds_non_uniform_forbidden():
    inst = SumsetInstance(7, [(0, 1), (0, 1)], {(0, 1): [0]})
    rep = compute_bounds(inst)
    assert all(entry.value is None for entry in rep.entries())


def test_bounds_cauchy_davenport_specialization():
    # m = 0 reduces the near-uniform bound to sum(k_j) - n + 1
    inst = SumsetInstance(11, [(0, 1, 2), (0, 2, 4), (1, 2, 3)])
    rep = compute_bounds(inst)
    assert rep.thm2.value == 3 + 3 + 3 - 3 + 1


def test_bounds_distinct_elements_specialization():
    # S_ij = {0}, all A_j = A: the bound becomes n|A| - n^2 + 1
    for n, size in [(2, 4), (3, 5)]:
        A = tuple(range(size))
        inst = SumsetInstance(13, [A] * n, uniform_forbidden(n, {0}))
        assert compute_bounds(inst).thm2.value == n * size - n * n + 1


def test_improvement_over_floor_bound():
    hits = 0
    for p in (5, 7, 11, 13):
        for n in (2, 3):
            for m in (0, 1):
                for k in range(1, min(7, p + 1)):
                    if not (p > m * n and p <= n * (k - 1) - m * n * (n - 1)):
                        continue
                    hits += 1
                    inst = SumsetInstance(
                        p, [tuple(range(k))] * n, uniform_forbidden(n, set(range(m)))
                    )
                    rep = compute_bounds(inst)
                    assert rep.old.hypothesis_met
                    assert rep.thm3.value == p
                    assert p >= rep.old.value
                    if (p - 1) % n:
                        assert p > rep.old.value
                    else:
                        assert p == rep.old.value
    assert hits > 0


def test_bounds_reasons_state_each_hypothesis():
    # n = 2, k = 5, m = 1: n(k-1) - mn(n-1) = 6 and mn = 2, so p = 7 lies
    # past both and p = 5 in the shrink regime
    expected = {
        5: ("p=5 <= max(n(k-1)-mn(n-1), mn)=6", "p=5 <= max(mn, sum(|A_j|-1)-mn(n-1))=6",
            "p=5 > mn=2", "p > mn and p <= n(k-1)-mn(n-1)"),
        7: ("p=7 > max(n(k-1)-mn(n-1), mn)=6", "p=7 > max(mn, sum(|A_j|-1)-mn(n-1))=6",
            "p=7 > mn=2", "needs p > mn=2 and p <= n(k-1)-mn(n-1)=6"),
    }
    for p, reasons in expected.items():
        rep = compute_bounds(SumsetInstance(p, [range(5)] * 2, uniform_forbidden(2, {0})))
        assert tuple(entry.reason for entry in rep.entries()) == reasons
        assert [entry.hypothesis_met for entry in rep.entries()] == [p == 7, p == 7, True, p == 5]
    # n = 1 divides p - 1: the old bound is p itself
    assert compute_bounds(SumsetInstance(5, [range(3)])).old.value == 5


# ----------------------------------------------------------------------
# certificates
# ----------------------------------------------------------------------

def test_certificate_erdos_heilbronn():
    cert = certificate_check(eh_instance())
    assert cert.coefficient_integer == 4
    assert cert.coefficient_mod_p == 4
    assert cert.claimed_bound == 5
    assert cert.certificate_valid


def test_certificate_vanishes_mod_two():
    inst = SumsetInstance(2, [(0, 1), (0, 1)], uniform_forbidden(2, {0}))
    cert = certificate_check(inst)
    assert cert.coefficient_integer == 2
    assert cert.coefficient_mod_p == 0
    assert not cert.certificate_valid


def test_certificate_literal_asymmetric():
    # only the (1,2) direction is constrained, so the |S_ij| are not uniform
    inst = SumsetInstance(5, [(0, 1), (0, 1, 2)], {(0, 1): [0]})
    cert = certificate_check(inst)
    assert cert.method == "literal-product"
    assert cert.coefficient_integer == -1
    assert cert.coefficient_mod_p == 4
    assert cert.claimed_bound == 3
    assert cert.certificate_valid
    assert sorted(enumerate_restricted_sumset(inst)) == [1, 2, 3]


def test_certificate_degree_infeasible():
    inst = SumsetInstance(7, [(0,), (1,)], uniform_forbidden(2, {0}))
    with pytest.raises(DegreeInfeasible):
        certificate_check(inst)
    with pytest.raises(DegreeInfeasible):
        literal_certificate(inst)


def test_literal_agrees_with_leading_form():
    # on uniform instances only the top-degree part of the constraint
    # polynomial reaches the target, so the two routes agree exactly
    for seed in range(8):
        inst = random_instance(seed, 11, 2, 4, 1)
        lead = certificate_check(inst)
        literal = literal_certificate(inst)
        assert lead.coefficient_integer == literal.coefficient_integer
        assert lead.claimed_bound == literal.claimed_bound


@st.composite
def small_instances(draw):
    """p <= 13, n <= 3, |A_j| <= 4, |S_ij| <= 2; uniform or per-pair S_ij."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    uniform = draw(st.integers(0, 2)) == 0
    n = draw(st.integers(1 if uniform else 2, 3))

    def subset(lo, hi):
        size = draw(st.integers(lo, min(hi, p)))
        return draw(st.sets(st.integers(0, p - 1), min_size=size, max_size=size))

    sets = [subset(1, 4) for _ in range(n)]
    if uniform:
        forbidden = uniform_forbidden(n, subset(0, 2))
    else:
        forbidden = {(i, j): subset(0, 2) for i in range(n) for j in range(n) if i != j}
    return SumsetInstance(p, sets, forbidden)


@settings(max_examples=200, deadline=None)
@given(small_instances())
def test_certificate_matches_literal_oracle(inst):
    try:
        expected = literal_certificate(inst)
    except DegreeInfeasible:
        with pytest.raises(DegreeInfeasible):
            certificate_check(inst)
        return
    cert = certificate_check(inst)
    assert cert.coefficient_integer == expected.coefficient_integer
    assert cert.coefficient_mod_p == expected.coefficient_mod_p
    assert cert.claimed_bound == expected.claimed_bound
    assert cert.method == ("literal-product" if inst.uniform_m is None else "leading-form")


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


@st.composite
def uniform_shapes(draw):
    """Instances with every |S_ij| = m <= 3, n <= 5 sets and sizes in
    {k, k+1}, in any order, k from m(n-1) - 1 to m(n-1) + 2: on both
    sides of the least feasible k, m(n-1) + 1.  The S_ij differ from
    pair to pair."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(0, 3))
    k = draw(st.integers(max(1, m * (n - 1) - 1), m * (n - 1) + 2))
    s = draw(st.integers(0, n))
    sizes = draw(st.permutations((k + 1,) * s + (k,) * (n - s)))
    p = draw(st.sampled_from([q for q in _PRIMES if q > k and q >= m]))
    residues = st.integers(0, p - 1)
    sets = [draw(st.sets(residues, min_size=size, max_size=size)) for size in sizes]
    forbidden = {(i, j): draw(st.sets(residues, min_size=m, max_size=m))
                 for i in range(n) for j in range(n) if i != j}
    return SumsetInstance(p, sets, forbidden)


@settings(max_examples=150, deadline=None)
@given(uniform_shapes())
@example(SumsetInstance(5, [(0, 1, 2)]))  # n = 1
@example(SumsetInstance(7, [(0, 1), (0, 1, 2), (0, 1, 2)], uniform_forbidden(3, {0})))  # E < 0
def test_certificate_closed_form_route_matches_the_expansion(inst):
    try:
        expected = expanded_certificate(inst)
    except DegreeInfeasible as exc:
        with pytest.raises(DegreeInfeasible) as refused:
            certificate_check(inst)
        assert str(refused.value) == str(exc)
        return
    assert certificate_check(inst) == expected


def test_certificate_route_by_shape(monkeypatch):
    class Expanded(Exception):
        pass

    def expand(sizes, m):
        raise Expanded

    monkeypatch.setattr(sumsets_module, "key_coefficient", expand)
    # sizes in {k, k+1} with every |S_ij| = m: the closed form, which
    # takes well under a millisecond where this expansion took ~0.2 s
    inst = SumsetInstance(23, [range(10)] * 7, uniform_forbidden(7, {0}))
    coefficient = key_coefficient_closed_form(7, 1, 10, 0)
    assert certificate_check(inst) == ("leading-form", coefficient, coefficient % 23, 22, True)
    # an infeasible uniform shape is refused without an expansion
    inst = SumsetInstance(7, [(0, 1), (0, 1, 2), (0, 1, 2)], uniform_forbidden(3, {0}))
    with pytest.raises(DegreeInfeasible, match=re.escape("sum(sizes_j - 1) = 5 < m*n*(n-1) = 6")):
        certificate_check(inst)
    # sizes that spread by 2, and non-uniform |S_ij|, still expand
    with pytest.raises(Expanded):
        certificate_check(SumsetInstance(7, [(0, 1), (0, 1, 2, 3)], uniform_forbidden(2, {0})))
    with pytest.raises(Expanded):
        certificate_check(SumsetInstance(7, [(0, 1), (0, 1, 2)], {(0, 1): [0]}))


def test_certificate_soundness_on_seeded_instances():
    for seed in range(25):
        inst = random_instance(seed, 11, 2, 3, 1)
        cert = certificate_check(inst)
        if cert.certificate_valid:
            card = len(enumerate_restricted_sumset(inst))
            assert card >= cert.claimed_bound


# ----------------------------------------------------------------------
# per-instance pipeline
# ----------------------------------------------------------------------

def test_analyze_erdos_heilbronn():
    result = analyze(eh_instance())
    assert result.sumset == (1, 2, 3, 4, 5)
    assert result.bounds.thm2.value == 5
    assert result.certificate == certificate_check(eh_instance())
    assert result.degree_infeasible is None
    assert result.violations == ()


def test_analyze_degree_infeasible():
    inst = SumsetInstance(7, [(0, 1), (0, 1)], {(0, 1): [0, 1], (1, 0): [3]})
    result = analyze(inst)
    assert result.certificate is None
    assert result.degree_infeasible == "sum(|A_j| - 1) = 2 < deg P = 3"
    assert result.violations == ()


def test_analyze_names_each_violated_bound(monkeypatch):
    # the bounds are theorems, so each is raised by one to make it fail
    bounds = sumsets_module.compute_bounds

    def raised(inst):
        report = bounds(inst)
        return type(report)(*(
            entry if entry.value is None else entry._replace(value=entry.value + 1)
            for entry in report.entries()))

    monkeypatch.setattr(sumsets_module, "compute_bounds", raised)
    # |C| = 5 meets thm1, thm2 and thm3 (5 each) but not the hypothesis of old
    assert analyze(eh_instance()).violations == tuple(
        f"cardinality 5 < {name} bound 6" for name in ("thm1", "thm2", "thm3"))


def test_analyze_budget():
    with pytest.raises(BudgetExceeded):
        analyze(eh_instance(), budget=3)


# ----------------------------------------------------------------------
# shrink construction
# ----------------------------------------------------------------------

def test_shrink_examples():
    assert shrink_sizes(7, 3, 0, 4) == (3, 3, 3)
    assert shrink_sizes(11, 3, 0, 6) == (5, 4, 4)
    assert shrink_sizes(7, 2, 1, 6) == (5, 5)
    assert shrink_sizes(5, 1, 0, 7) == (5,)  # n = 1


def test_shrink_regime_errors():
    with pytest.raises(NotInShrinkRegime):
        shrink_sizes(13, 2, 1, 5)  # p too large for the regime
    with pytest.raises(NotInShrinkRegime):
        shrink_sizes(2, 2, 1, 5)  # p <= mn
    with pytest.raises(NotInShrinkRegime):
        shrink_sizes(5, 1, 0, 1)  # k = 1: no sum reaches p
    # p < 2, n < 1, m < 0 and k < 1, each just past its bound
    for args in ((1, 2, 1, 5), (13, 0, 1, 5), (13, 2, -1, 5), (13, 2, 1, 0)):
        with pytest.raises(ParameterOutOfRange, match="^bad parameters"):
            shrink_sizes(*args)


def test_shrink_invariants():
    # inside the old bound's regime p > mn, p <= n(k-1) - mn(n-1) the sizes
    # sum to p - 1 + n + mn(n-1) and none exceeds k: the arithmetic that
    # shrink_sizes relies on without checking it
    for p in filter(is_prime, range(200)):
        for n, m, k in itertools.product(range(1, 7), range(4), range(1, 60)):
            if not m * n < p <= n * (k - 1) - m * n * (n - 1):
                continue
            sizes = shrink_sizes(p, n, m, k)
            kp = (p - 1) // n + m * (n - 1) + 1
            assert sum(sizes) == p - 1 + n + m * n * (n - 1)
            assert all(sz in (kp, kp + 1) for sz in sizes)
            assert max(sizes) <= k
            assert sum(1 for sz in sizes if sz == kp + 1) == (p - 1) % n


def test_shrunk_instance_meets_bound():
    # shrink, then actually enumerate subsets of the first sizes_j elements
    p, n, m, k = 7, 2, 1, 6
    sizes = shrink_sizes(p, n, m, k)
    A = tuple(range(k))
    inst = SumsetInstance(
        p, [A[:sz] for sz in sizes], uniform_forbidden(n, {0})
    )
    assert len(enumerate_restricted_sumset(inst)) >= p


# ----------------------------------------------------------------------
# coverage threshold
# ----------------------------------------------------------------------

def test_threshold_values():
    assert coverage_threshold(7, 1) == 5
    assert coverage_threshold(11, 1) == 7
    assert coverage_threshold(13, 1) == 7
    assert coverage_threshold(11, 2) == 9
    assert coverage_threshold(13, 2) == 9


def test_threshold_is_least_size():
    # the threshold is the least |A| >= 2 with (|A| + m - 1)^2 >= q, and from
    # it on n(|A|-1) - mn(n-1) + 1 >= p with coverage_check's n: the step
    # from the threshold to the paper's bound, which coverage_check relies
    # on without checking it
    for p in filter(is_prime, range(500)):
        for m in range(1, 9):
            t = coverage_threshold(p, m)
            q = 4 * m * p + 4 * m * (m - 3) + 2
            assert t >= 2
            assert (t + m - 1) ** 2 >= q > (t - 1 + m - 1) ** 2
            for size in range(t, p + 1):
                n = (size - 1 + m) // (2 * m)
                assert n * (size - 1) - m * n * (n - 1) + 1 >= p


def test_threshold_validation():
    with pytest.raises(ParameterOutOfRange):
        coverage_threshold(7, 0)
    with pytest.raises(ParameterOutOfRange):
        coverage_threshold(1, 1)


def test_coverage_check_covered():
    rep = coverage_check(7, {0}, {0, 1, 2, 3, 4})
    assert rep.n == 2
    assert rep.hypothesis_met
    assert rep.covered and rep.missing == ()


def test_coverage_check_single_summand():
    rep = coverage_check(7, {0}, {0, 1, 2})
    assert rep.n == 1
    assert not rep.hypothesis_met
    assert not rep.covered
    assert rep.missing == (3, 4, 5, 6)


def test_coverage_check_zero_summands():
    # |A| <= m forces n = 0; the empty sum covers only 0
    rep = coverage_check(7, {0, 1, 2}, {0, 1})
    assert rep.n == 0
    assert not rep.hypothesis_met
    assert rep.missing == (1, 2, 3, 4, 5, 6)


def test_coverage_check_budget_before_instance(monkeypatch):
    # |A| = 633 with S = {0} means n = 316 summands: 633^316 tuples
    def no_instance(*args, **kwargs):
        raise AssertionError("an instance was built")

    def no_enumeration(*args, **kwargs):
        raise AssertionError("the general enumeration ran")

    monkeypatch.setattr(sumsets_module, "SumsetInstance", no_instance)
    monkeypatch.setattr(sumsets_module, "enumerate_restricted_sumset", no_enumeration)
    with pytest.raises(BudgetExceeded) as info:
        coverage_check(100003, [0], range(633), budget=1000)
    assert len(str(info.value)) < 120
    # a check within the budget uses neither: sums of 3 distinct elements
    # of {0, ..., 6} run over 3..15, every residue mod 13
    assert coverage_check(13, [0], range(7)).covered


@st.composite
def coverage_inputs(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    residues = st.integers(0, p - 1)
    S = draw(st.sets(residues, min_size=1, max_size=3))
    A = draw(st.sets(residues, min_size=1, max_size=min(p, 8)))
    return p, S, A


@settings(max_examples=300, deadline=None)
@given(coverage_inputs())
@example((7, {0}, set(range(5))))            # 0 in S u -S: distinct summands
@example((7, {3}, {0, 1, 2, 4, 5}))          # 0 outside S u -S: repeats allowed
@example((11, {2, 9}, set(range(8))))        # S holds both s and p - s
@example((7, {0, 1, 2}, {0, 1}))             # n = 0: the empty sum
@example((7, {0}, {0, 1, 2}))                # n = 1
@example((2, {0}, {0, 1}))                   # p = 2
@example((2, {1}, {0, 1}))                   # p = 2, 0 outside S u -S
def test_coverage_check_matches_the_brute_oracle(case):
    p, S, A = case
    report = coverage_check(p, S, A)
    n = report.n
    # n = floor((|A| - 1 + m) / 2m), the summand count of the paper's bound
    assert 2 * len(S) * n <= len(A) - 1 + len(S) < 2 * len(S) * (n + 1)
    if n:
        sumset = brute_sumset(SumsetInstance(p, [A] * n, uniform_forbidden(n, S)))
    else:
        sumset = {0}  # the empty sum
    assert report.missing == tuple(r for r in range(p) if r not in sumset)


def test_coverage_check_refuses_a_missing_list_over_the_budget(monkeypatch):
    # n = 1 summand passes the tuple check, but about 10^9 residues are
    # missing: refused before any p-sized object is built
    def small_range(*args):
        assert max(args) < 10 ** 6, "a p-sized range was built"
        return range(*args)

    monkeypatch.setattr(sumsets_module, "range", small_range, raising=False)
    with pytest.raises(BudgetExceeded) as info:
        coverage_check(1000000007, [0], [0, 1, 2])
    assert str(info.value) == (
        "1000000004 missing residues exceed the budget of 10000000")
    # p - |C| = 4 residues are missing: listed at a budget of 4, refused at 3
    assert coverage_check(7, {0}, {0, 1, 2}, budget=4).missing == (3, 4, 5, 6)
    with pytest.raises(BudgetExceeded):
        coverage_check(7, {0}, {0, 1, 2}, budget=3)


def test_budget_message_prints_a_huge_count_as_a_power_of_two():
    inst = SumsetInstance(7, [[0, 1, 2, 3, 4, 5, 6]] * 40)  # 7^40 tuples
    with pytest.raises(BudgetExceeded) as info:
        enumerate_restricted_sumset(inst, budget=10)
    assert str(info.value) == "more than 2^112 tuples exceed the enumeration budget of 10"
    # in full up to 64 bits, as a power of two from 65
    assert sumsets_module._count_text(2 ** 64 - 1) == "18446744073709551615"
    assert sumsets_module._count_text(2 ** 64) == "more than 2^64"


def test_exhaustive_sweep_refuses_exactly_the_subset_counts_over_the_budget(monkeypatch):
    # m = p makes n = 0 summands, so only the subset count can be refused;
    # an accepted sweep hands the orbit table the exact count C(p, size)
    counts = []
    monkeypatch.setattr(sumsets_module, "_orbit_table",
                        lambda field, S, size, count, budget: counts.append(count))
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        for size in range(1, p + 1):
            exact = comb(p, size)
            for cap in {0, 1, 7, exact - 1, exact, exact + 1, 10**6}:
                counts.clear()
                if exact > cap:
                    with pytest.raises(BudgetExceeded, match=f"^more than {cap} subsets "):
                        coverage_sweep(p, p, size=size, budget=cap)
                else:
                    coverage_sweep(p, p, size=size, budget=cap)
                assert counts == ([exact] if exact <= cap else [])


def test_coverage_exhaustive_small():
    sweep = coverage_sweep(7, 1)
    assert len(sweep.rows) == 21
    assert all(row.hypothesis_met and row.covered for row in sweep.rows)
    assert sweep.failures() == []


def test_coverage_sample_deterministic():
    a = coverage_sweep(11, 1, mode="sample", count=10, seed=3)
    b = coverage_sweep(11, 1, mode="sample", count=10, seed=3)
    assert a.rows == b.rows
    # the defaults draw 50 subsets from seed 0
    assert coverage_sweep(11, 1, mode="sample").rows == \
        coverage_sweep(11, 1, mode="sample", count=50, seed=0).rows != \
        coverage_sweep(11, 1, mode="sample", count=50, seed=1).rows


def test_coverage_sample_count_is_held_to_the_budget():
    # as in exhaustive mode, more than ``budget`` subsets are refused
    # (each check enumerates 7^3 = 343 tuples, inside the budget)
    assert len(coverage_sweep(11, 1, mode="sample", count=400, seed=3, budget=400).rows) == 400
    with pytest.raises(BudgetExceeded):
        coverage_sweep(11, 1, mode="sample", count=401, seed=3, budget=400)


def test_coverage_sweep_holds_the_listed_residues_to_the_budget():
    # size 1 gives n = 0 and C = {0}: each of the 101 rows lists the other
    # 100 residues, 10100 over the sweep, while no one row nears the budget
    rows = coverage_sweep(101, 1, size=1, budget=10100).rows
    assert len(rows) == 101 and sum(len(row.missing) for row in rows) == 10100
    with pytest.raises(BudgetExceeded, match="missing residues over the rows"):
        coverage_sweep(101, 1, size=1, budget=10099)
    # and so in sample mode: 3 rows of 12 missing residues each
    assert len(coverage_sweep(13, 1, mode="sample", count=3, size=1, budget=36).rows) == 3
    with pytest.raises(BudgetExceeded, match="missing residues over the rows"):
        coverage_sweep(13, 1, mode="sample", count=3, size=1, budget=35)


def test_coverage_sweep_validation():
    for size in (0, 8):
        with pytest.raises(ParameterOutOfRange, match=rf"^subset size {size} not in \[1, 7\]$"):
            coverage_sweep(7, 1, size=size)
    with pytest.raises(ParameterOutOfRange, match="^count must be >= 0, got -1$"):
        coverage_sweep(7, 1, mode="sample", count=-1)
    with pytest.raises(ParameterOutOfRange):
        coverage_sweep(7, 1, mode="nope")
    with pytest.raises(BudgetExceeded):
        coverage_sweep(13, 1, budget=100)


def test_coverage_residues_are_checked_whatever_n_is():
    # size 1 gives n = 0, where no instance is built to catch a bad residue
    for s_set in ([20], [13], [-1]):
        with pytest.raises(ParameterOutOfRange):
            coverage_check(13, s_set, [3])
        with pytest.raises(ParameterOutOfRange):
            coverage_sweep(13, 1, s_set=s_set, size=1)
    for a_set in ([13], [-1, 2], range(5, 15)):
        with pytest.raises(ParameterOutOfRange):
            coverage_check(13, [0], a_set)
    # the element contract of SumsetInstance, with repeats merged
    for s_set, a_set in ((["0"], range(5)), ([0], [True, 2]), ([0], [1, True]), ([0.0], [1])):
        with pytest.raises(ParameterOutOfRange):
            coverage_check(7, s_set, a_set)
    with pytest.raises(ParameterOutOfRange):
        coverage_sweep(13, 1, s_set=[False], size=1)
    for s_set, a_set, text in (([], [1], "S"), ([0], [], "A")):
        with pytest.raises(ParameterOutOfRange, match=f"^{text} must be nonempty$"):
            coverage_check(7, s_set, a_set)


@st.composite
def sweep_arguments(draw):
    """coverage_sweep arguments over primes p <= 17 and m <= 3, with
    sizes from 1 (n = 0) up to two past the threshold; exhaustive sweeps
    keep to at most 800 subsets."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13, 17]))
    m = draw(st.integers(1, min(3, p)))
    s_set = tuple(draw(st.sets(st.integers(0, p - 1), min_size=m, max_size=m)))
    mode = draw(st.sampled_from(["exhaustive", "sample"]))
    top = min(p, coverage_threshold(p, m) + 2)
    sizes = [k for k in range(1, top + 1) if mode == "sample" or comb(p, k) <= 800]
    size = draw(st.sampled_from(sizes))
    return p, m, s_set, size, mode, draw(st.integers(0, 30)), draw(st.integers(0, 2 ** 32))


@settings(max_examples=80, deadline=None)
@given(sweep_arguments())
# n = 2 and 1274 of 1287 rows uncovered, in orbits reached by both signs
@example((13, 1, (3,), 5, "exhaustive", 0, 0))
@example((31, 2, (0, 1), 8, "sample", 20, 4))  # every sampled row uncovered
# n = 1; {0, 1, 3, 4} and the like are their own reflections
@example((7, 2, (2, 5), 4, "exhaustive", 0, 0))
# orbits with a stabilizer: isosceles 3-subsets, and the one subset of size p
@example((13, 1, (5,), 3, "exhaustive", 0, 0))
@example((11, 2, (0, 3), 11, "exhaustive", 0, 0))
def test_coverage_sweep_matches_per_subset_oracle(args):
    p, m, s_set, size, mode, count, seed = args
    kwargs = dict(mode=mode, count=count, seed=seed, size=size, s_set=s_set)
    assert tuple(coverage_sweep(p, m, **kwargs).rows) == coverage_sweep_rows(p, m, **kwargs)


def test_exhaustive_sweep_keeps_its_orbits_not_its_rows():
    # 24310 rows in 750 orbits: the sweep keeps an 8-byte code per row and
    # a report per orbit, about 14 bytes a row; it kept 213 when it held
    # every row's report
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sweep = coverage_sweep(17, 1)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(sweep.rows) == comb(17, 8) == 24310
    assert kept < 32 * len(sweep.rows)


def count_checks(monkeypatch):
    """Count coverage_sweep's calls of coverage_check: returns the list of
    checked subsets."""
    checked = []
    check = sumsets_module.coverage_check

    def counted_check(p, s_set, a_set, *args, **kwargs):
        checked.append(tuple(a_set))
        return check(p, s_set, a_set, *args, **kwargs)

    monkeypatch.setattr(sumsets_module, "coverage_check", counted_check)
    return checked


def test_a_sweep_over_the_tuple_budget_is_refused_before_any_check(monkeypatch):
    checked = count_checks(monkeypatch)
    # 5 subsets of size 4, each with 4^2 = 16 tuples of n = 2 summands
    with pytest.raises(BudgetExceeded, match=(
            "^sums of 2 elements of a 4-subset exceed the enumeration budget of 15 tuples$")):
        coverage_sweep(5, 1, size=4, budget=15)
    assert checked == []
    assert len(coverage_sweep(5, 1, size=4, budget=16).rows) == 5


def test_exhaustive_sweep_checks_one_subset_per_orbit(monkeypatch):
    # Burnside over x -> +-x + t: (1716 + 13*20)/26 = 76 and (715 + 13*15)/26 = 35
    checked = count_checks(monkeypatch)
    for m, orbits in ((1, 76), (2, 35)):
        checked.clear()
        sweep = coverage_sweep(13, m)
        assert len(checked) == orbits
        assert len(sweep.rows) == comb(13, coverage_threshold(13, m))
        # the checked subsets are each orbit's first in the walk's order
        firsts = {}
        for row in sweep.rows:
            firsts.setdefault(orbit_key(row.subset, 13), row.subset)
        assert checked == list(firsts.values())


def test_sample_sweep_checks_every_drawn_subset(monkeypatch):
    checked = count_checks(monkeypatch)
    sweep = coverage_sweep(11, 1, mode="sample", count=40, seed=3)
    assert checked == [row.subset for row in sweep.rows]
    # the draws repeat orbits, and each repeat is checked again
    assert len({orbit_key(A, 11) for A in checked}) < 40


# x -> p - x + t fixes one residue of Z/13 and pairs off the rest, so the
# 78 isosceles 3-subsets lie in orbits of 13, not 26: (286 + 13*6)/26 = 14
@pytest.mark.parametrize("size, orbits", [(3, 14), (13, 1), (1, 1), (12, 1)])
def test_exhaustive_sweep_rows_under_stabilizers(monkeypatch, size, orbits):
    checked = count_checks(monkeypatch)
    rows = coverage_sweep(13, 1, size=size).rows
    assert len(checked) == orbits and len(rows) == comb(13, size)
    monkeypatch.undo()
    assert tuple(rows) == coverage_sweep_rows(13, 1, size=size)


# ----------------------------------------------------------------------
# seeded generation
# ----------------------------------------------------------------------

def test_splitmix_reference_vectors():
    # published first outputs of the splitmix64 stream
    r = SplitMix64(0)
    assert [r.next64() for _ in range(3)] == [
        16294208416658607535, 7960286522194355700, 487617019471545679,
    ]
    assert SplitMix64(1234567).next64() == 6457827717110365317


def test_splitmix_sample():
    assert SplitMix64(42).sample(10, 4) == SplitMix64(42).sample(10, 4)
    assert SplitMix64(7).sample(5, 5) == (0, 1, 2, 3, 4)
    assert SplitMix64(7).sample(5, 0) == ()
    for count in (4, -1):
        with pytest.raises(ValueError, match=f"^cannot sample {count} from a population of 3$"):
            SplitMix64(7).sample(3, count)
    with pytest.raises(ValueError, match="^bound must be >= 1, got 0$"):
        SplitMix64(7).below(0)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 64 - 1), st.integers(1, 60).flatmap(
    lambda size: st.tuples(st.just(size), st.integers(0, size))))
def test_splitmix_sample_matches_list_oracle(seed, shape):
    size, count = shape
    rng, ref = SplitMix64(seed), SplitMix64(seed)
    assert rng.sample(size, count) == list_sample(ref, size, count)
    assert rng.state == ref.state  # same number of draws


def test_splitmix_sample_huge_population():
    drawn = SplitMix64(3).sample(10 ** 12, 50)
    assert len(set(drawn)) == 50 and all(0 <= x < 10 ** 12 for x in drawn)


def test_random_instance_deterministic():
    a = random_instance(99, 13, 3, 4, 1)
    b = random_instance(99, 13, 3, 4, 1)
    assert a == b


def test_random_instance_golden():
    # generated once from the documented stream and pinned
    inst = random_instance(1, 7, 2, 3, 1)
    assert inst.sets == ((0, 1, 2), (0, 4, 5))
    assert inst.forbidden[(0, 1)] == frozenset({0})
    assert inst.forbidden[(1, 0)] == frozenset({3})


def test_random_instance_shapes():
    inst = random_instance(5, 11, 3, 4, 2)
    assert inst.sizes == (4, 4, 4)
    assert inst.uniform_m == 2
    assert len(inst.forbidden) == 6


def test_random_instance_unsatisfiable_hypothesis():
    with pytest.raises(CannotSatisfyHypothesis):
        random_instance(1, 2, 2, 1, 1, enforce="thm3")  # p = 2 <= mn = 2


def test_random_instance_validation():
    for k in (8, 0):
        with pytest.raises(ParameterOutOfRange, match=rf"^k must lie in \[1, 7\], got {k}$"):
            random_instance(1, 7, 2, k, 1)
    with pytest.raises(ParameterOutOfRange, match=r"^m must lie in \[0, 7\], got -1$"):
        random_instance(1, 7, 2, 3, -1)
    with pytest.raises(ParameterOutOfRange):
        random_instance(1, 7, 0, 3, 1)
    # n is checked first, so n = 0 is named whatever else is wrong
    for args, enforce in (((0, 11, 0, 0, 1), "none"), ((0, 11, 0, 3, 1), "bogus")):
        with pytest.raises(ParameterOutOfRange, match="^n must be >= 1, got 0$"):
            random_instance(*args, enforce=enforce)
    assert random_instance(1, 7, 1, 3, 0).sizes == (3,)  # n = 1


def test_parameter_hypothesis():
    assert parameter_hypothesis_met("none", 2, 5, 5, 5)
    assert parameter_hypothesis_met("thm3", 7, 2, 4, 1)
    assert not parameter_hypothesis_met("thm3", 2, 2, 1, 1)
    assert parameter_hypothesis_met("thm1", 7, 2, 4, 1)
    assert not parameter_hypothesis_met("thm1", 7, 2, 6, 1)
    with pytest.raises(ValueError):
        parameter_hypothesis_met("thm9", 7, 2, 4, 1)
    assert parameter_hypothesis_met("thm1", 7, 1, 4, 0)  # n = 1: 7 > 3
    with pytest.raises(ParameterOutOfRange, match="^n must be >= 1, got 0$"):
        parameter_hypothesis_met("thm1", 7, 0, 4, 1)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23]), st.integers(2, 4),
       st.integers(1, 8), st.integers(0, 3), st.integers(0, 2 ** 32),
       st.sampled_from(["thm1", "thm2", "thm3"]))
def test_parameter_hypothesis_matches_bound_report(p, n, k, m, seed, name):
    k, m = min(k, p), min(m, p)
    inst = random_instance(seed, p, n, k, m)
    entry = getattr(compute_bounds(inst), name)
    assert parameter_hypothesis_met(name, p, n, k, m) == entry.hypothesis_met


def test_shrink_regime_error_is_the_old_bound_reason():
    p, n, m, k = 13, 2, 1, 5
    reason = compute_bounds(random_instance(0, p, n, k, m)).old.reason
    with pytest.raises(NotInShrinkRegime, match=re.escape(reason)):
        shrink_sizes(p, n, m, k)


# ----------------------------------------------------------------------
# experiment harness
# ----------------------------------------------------------------------

def test_experiment_soundness_small():
    rows = run_experiment(7, 40, (5, 7, 11), (2, 3), (0, 1), 5, enforce="thm3")
    assert len(rows) == 40
    for row in rows:
        assert row.sound
        assert row.analysis.violations == ()
    assert [row.n for row in run_experiment(1, 3, (5,), (1,), (0,), 3)] == [1, 1, 1]


def test_experiment_deterministic():
    a = run_experiment(3, 10, (5, 7), (2,), (0, 1), 4)
    b = run_experiment(3, 10, (5, 7), (2,), (0, 1), 4)
    assert [(r.p, r.n, r.k, r.m, len(r.analysis.sumset)) for r in a] == \
        [(r.p, r.n, r.k, r.m, len(r.analysis.sumset)) for r in b]


def test_experiment_zero_trials():
    assert run_experiment(1, 0, (5,), (2,), (0,), 3) == []
    with pytest.raises(ParameterOutOfRange, match="^trials must be >= 0, got -1$"):
        run_experiment(1, -1, (5,), (2,), (0,), 3)


@pytest.mark.parametrize("args", [
    (0, 1, [7.9], [2.5], ["1"], 3),  # int() would run one trial at p = 7
    (0, 1, [7], [2], [True], 3), (0, 1, [7, 7.0], [2], [1], 3),
    (0, True, [7], [2], [1], 3), (0, 1, [7], [2], [1], 3.5), (0.5, 1, [7], [2], [1], 3),
])
def test_experiment_refuses_what_is_not_an_int(args):
    with pytest.raises(ParameterOutOfRange, match="must hold integers"):
        run_experiment(*args)


def test_experiment_unsatisfiable():
    with pytest.raises(CannotSatisfyHypothesis):
        run_experiment(1, 1, (5,), (2,), (3,), 4, enforce="thm3")  # mn = 6 > 5


# ----------------------------------------------------------------------
# instance documents
# ----------------------------------------------------------------------

def test_document_round_trip():
    inst = random_instance(4, 11, 3, 3, 1)
    doc = instance_to_dict(inst)
    assert instance_from_dict(doc) == inst


def test_document_canonical_shape():
    inst = SumsetInstance(7, [(2, 0), (1, 3)], {(0, 1): [4], (1, 0): []})
    doc = instance_to_dict(inst)
    assert doc == {"p": 7, "sets": [[0, 2], [1, 3]], "forbidden": {"1,2": [4]}}


@pytest.mark.parametrize("doc", [
    "not a dict",
    {"sets": [[0]]},
    {"p": 7},
    {"p": 7.5, "sets": [[0]]},
    {"p": True, "sets": [[0]]},
    {"p": 7, "sets": []},
    {"p": 7, "sets": [[0]], "extra": 1},
    {"p": 7, "sets": [["x"]]},
    {"p": 7, "sets": [[0], [1]], "forbidden": {"1": [0]}},
    {"p": 7, "sets": [[0], [1]], "forbidden": {"1,1": [0]}},
    {"p": 7, "sets": [[0], [1]], "forbidden": {"0,1": [0]}},
    {"p": 7, "sets": [[0], [1]], "forbidden": {"1,3": [0]}},
    {"p": 7, "sets": [[0], [1]], "forbidden": {"1,2": [7]}},
    {"p": 7, "sets": [[0], [1]], "forbidden": {"1,2": 3}},
    {"p": 7, "sets": [[0], [1]], "forbidden": {"\u00b2,1": [0]}},
    {"p": 7, "sets": [[0], [1]], "forbidden": {"1,2": [0], "01,2": [1]}},
    {"p": 7, "sets": [[2.5, 4]]},
    {"p": 7, "sets": [[True, 2]]},
    {"p": 7, "sets": [[0, 0]]},
    {"p": 7, "sets": [[0], [1]], "forbidden": {"1,2": [0.5]}},
    {"p": 7, "sets": [[0], [1]], "forbidden": {"1,2": [False]}},
    {"p": 7, "sets": [[0], [1]], "forbidden": {"1,2": [[0]]}},
])
def test_document_validation(doc):
    with pytest.raises(InstanceFormatError):
        instance_from_dict(doc)


def test_document_forbidden_keys_name_sets_one_based():
    for key in ("0,1", "1,0", "1,3", "1,1"):
        with pytest.raises(InstanceFormatError, match=(
                rf"^forbidden key '{key}' must name two distinct sets in 1\.\.2$")):
            instance_from_dict({"p": 7, "sets": [[0], [1]], "forbidden": {key: [0]}})
    with pytest.raises(InstanceFormatError, match="^set 2 must be a list of integers$"):
        instance_from_dict({"p": 7, "sets": [[0], 1]})


def test_document_composite_modulus():
    with pytest.raises(NotPrime):
        instance_from_dict({"p": 6, "sets": [[0, 1]]})


def test_load_instance(tmp_path):
    path = tmp_path / "inst.json"
    inst = eh_instance()
    path.write_text(json.dumps(instance_to_dict(inst)))
    assert load_instance(path) == inst
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    with pytest.raises(InstanceFormatError):
        load_instance(bad)


# ----------------------------------------------------------------------
# soundness of the bound family on exhaustive small cases
# ----------------------------------------------------------------------

def test_bounds_sound_on_seeded_uniform_instances():
    field_cache = {}
    for seed in range(30):
        for p, n, k, m in [(5, 2, 3, 1), (7, 2, 4, 1), (7, 3, 3, 0), (11, 3, 4, 1)]:
            field_cache.setdefault(p, PrimeField(p))
            inst = random_instance(seed, p, n, k, m)
            card = len(enumerate_restricted_sumset(inst))
            rep = compute_bounds(inst)
            for entry in rep.entries():
                if entry.hypothesis_met and entry.value is not None:
                    assert card >= entry.value, (seed, p, n, k, m, entry)
