import itertools
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

import sumsetlab.identities as identities_module
from sumsetlab import (
    AomotoParams,
    DegreeInfeasible,
    HypothesisViolated,
    InterpolationMismatch,
    NonIntegerResult,
    ParameterOutOfRange,
    TooFewVariables,
    aomoto_closed_form,
    aomoto_constant_term,
    chi,
    dyson_closed_form,
    dyson_constant_term,
    key_coefficient,
    key_coefficient_closed_form,
    leading_coefficient_check,
    zeilberger_coefficient,
)
from sumsetlab.identities import (
    _exact,
    _newton_fit,
    ratio_text,
    relabel_sign,
    sweep,
    zeilberger_sign,
)
from oracles import (
    SparsePoly,
    aomoto_laurent_factors,
    eval_poly,
    kp_coeff,
    lagrange_interpolate,
    lemma22_laurent_factors,
    naive_laurent_constant_term,
    one_minus_ratio,
)


def test_chi():
    assert chi(3 >= 1) == 1
    assert chi(0 >= 1) == 0


# ----------------------------------------------------------------------
# Dyson
# ----------------------------------------------------------------------

def test_dyson_pairs():
    assert dyson_constant_term((1, 1)) == 2
    assert dyson_constant_term((1, 1, 1)) == 6
    assert dyson_constant_term((0, 0, 0, 0)) == 1


def test_dyson_closed_form():
    assert dyson_closed_form((1, 1, 1)) == 6
    assert dyson_closed_form((2, 1)) == 3
    assert dyson_closed_form((0, 0, 0)) == 1


def test_dyson_too_few_variables():
    with pytest.raises(TooFewVariables):
        dyson_constant_term((3,))
    with pytest.raises(TooFewVariables):
        zeilberger_coefficient((3,))


def test_dyson_negative_entries():
    with pytest.raises(ParameterOutOfRange):
        dyson_constant_term((1, -1))
    with pytest.raises(ParameterOutOfRange):
        dyson_closed_form((1, -1))


def test_zeilberger_two_variables():
    # [x0 x1] (x0 - x1)^2 = -2, and the pair sign flips it to +2
    x0, x1 = SparsePoly.variable(2, 0), SparsePoly.variable(2, 1)
    assert ((x0 - x1) ** 2).coeff((1, 1)) == -2
    assert zeilberger_coefficient((1, 1)) == 2


def test_zeilberger_matches_dyson():
    assert zeilberger_coefficient((1, 1, 1)) == 6
    assert zeilberger_coefficient((0, 0, 0)) == 1
    for nv in (2, 3):
        for avec in itertools.product(range(3), repeat=nv):
            ct = dyson_constant_term(avec)
            assert ct == dyson_closed_form(avec) == zeilberger_coefficient(avec)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=2, max_size=6))
def test_zeilberger_derived_from_sorted_order(avec):
    # the route of the CLI sweep: the sorted key's coefficient under the
    # row's own sign, against the expansion in the row's own order
    key = sorted(avec)
    unsigned = zeilberger_sign(key) * zeilberger_coefficient(key)
    derived = zeilberger_sign(avec) * relabel_sign(avec) * unsigned
    assert derived == zeilberger_coefficient(avec)


def test_relabel_sign_against_permutation_parity():
    # relabel the raw product by an explicit sorting permutation and add
    # up the exponents of the pairs it reverses; ties kept in order or
    # reversed give the same sign
    for nv in (2, 3, 4):
        for avec in itertools.product(range(3), repeat=nv):
            for tie in (1, -1):
                order = sorted(range(nv), key=lambda i: (avec[i], tie * i))
                pos = {v: r for r, v in enumerate(order)}
                flips = sum(avec[i] + avec[j] for i in range(nv)
                            for j in range(i + 1, nv) if pos[i] > pos[j])
                assert relabel_sign(avec) == (-1) ** flips, (avec, tie)


# ----------------------------------------------------------------------
# Aomoto
# ----------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ParameterOutOfRange):
        AomotoParams(n=0, s=0, a=1, b=1, m=0)
    with pytest.raises(ParameterOutOfRange):
        AomotoParams(n=2, s=3, a=1, b=1, m=0)
    with pytest.raises(ParameterOutOfRange):
        AomotoParams(n=2, s=0, a=-1, b=1, m=0)


def test_aomoto_reduces_to_ratio_pair():
    params = AomotoParams(n=1, s=0, a=1, b=1, m=0)
    assert aomoto_constant_term(params) == 2
    assert aomoto_closed_form(params) == 2


def test_aomoto_trivial_inner_product():
    for m in (0, 1, 3):
        params = AomotoParams(n=1, s=0, a=0, b=0, m=m)
        assert aomoto_constant_term(params) == 1
        assert aomoto_closed_form(params) == 1


def test_aomoto_n2_example():
    params = AomotoParams(n=2, s=0, a=1, b=1, m=1)
    assert aomoto_constant_term(params) == 6
    assert aomoto_closed_form(params) == 6


def test_aomoto_full_shift():
    params = AomotoParams(n=1, s=1, a=0, b=0, m=0)
    assert aomoto_closed_form(params) == 1
    assert aomoto_constant_term(params) == 1


def test_inverted_closed_form_values():
    # side "b" is the closed form of the swapped tuple (n, s, b, a, m)
    # n=2, m=1, s=0, b=1: the product telescopes to (a+1)(a+2)
    assert aomoto_closed_form(AomotoParams(n=2, s=0, a=1, b=1, m=1)) == 6
    assert aomoto_closed_form(AomotoParams(n=2, s=0, a=1, b=0, m=1)) == 2
    # the m! factors cancel
    assert aomoto_closed_form(AomotoParams(n=1, s=0, a=1, b=1, m=5)) == 2


def test_orientations_differ_when_shift_is_asymmetric():
    params = AomotoParams(n=1, s=1, a=1, b=0, m=0)
    swapped = params._replace(a=params.b, b=params.a)
    ct_a = aomoto_constant_term(params)
    ct_b = naive_laurent_constant_term(aomoto_laurent_factors(params, "b"))
    assert ct_a == 1 and ct_b == 2
    assert aomoto_closed_form(params) == ct_a
    assert aomoto_constant_term(swapped) == aomoto_closed_form(swapped) == ct_b


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=2, max_size=4))
def test_dyson_routes_match_laurent_oracle(avec):
    # the Laurent product expanded in full, denominators never cleared
    nv = len(avec)
    factors = [SparsePoly.one(nv)] + [(one_minus_ratio(nv, i, j), avec[j])
                                      for j in range(nv) for i in range(nv) if i != j]
    ct = naive_laurent_constant_term(factors)
    assert dyson_constant_term(avec) == ct
    assert zeilberger_coefficient(avec) == ct


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.builds(
    AomotoParams, n=st.just(n), s=st.integers(0, n), a=st.integers(0, 2),
    b=st.integers(0, 2), m=st.integers(0, 1 if n == 3 else 2))))
def test_aomoto_matches_laurent_oracle(params):
    # x_v -> 1/x_v: side "b" of params is side "a" of the swapped tuple
    swapped = params._replace(a=params.b, b=params.a)
    for side, tup in (("a", params), ("b", swapped)):
        ct = naive_laurent_constant_term(aomoto_laurent_factors(params, side))
        assert aomoto_constant_term(tup) == ct, side
        assert aomoto_closed_form(tup) == ct, side


# ----------------------------------------------------------------------
# exact division and its text
# ----------------------------------------------------------------------

def test_exact_names_the_ratio_in_lowest_terms():
    assert _exact(42, 6) == 7
    for num, den in ((7, 2), (14, 4)):
        with pytest.raises(NonIntegerResult, match=r"^expected an integer, got 7/2$"):
            _exact(num, den)


@settings(max_examples=200, deadline=None)
@given(st.integers(), st.integers(min_value=1))
def test_ratio_text_writes_what_fraction_writes(num, den):
    assert ratio_text(num, den) == str(Fraction(num, den))


# ----------------------------------------------------------------------
# key coefficient
# ----------------------------------------------------------------------

def test_key_coefficient_pinned():
    assert key_coefficient((3, 3), 1) == 2
    assert key_coefficient((4, 4), 1) == 4
    assert key_coefficient((2, 2), 0) == 2
    assert key_coefficient((20000,), 0) == 1  # x_1^E alone, with E large
    # per-pair multiplicities: the uniform map equals the common m, and
    # (x_1 - x_2)^1 (x_1 + x_2)^2 has [x_1 x_2^2] = -1
    assert key_coefficient((4, 4), {(0, 1): 1, (1, 0): 1}) == 4
    assert key_coefficient((2, 3), {(0, 1): 1}) == -1


def test_key_coefficient_degree_infeasible():
    with pytest.raises(DegreeInfeasible):
        key_coefficient((1, 1), 1)


def test_key_coefficient_validation():
    with pytest.raises(ParameterOutOfRange):
        key_coefficient((0, 2), 1)
    with pytest.raises(ParameterOutOfRange):
        key_coefficient((2, 2), -1)
    with pytest.raises(ParameterOutOfRange):
        key_coefficient((), 1)
    with pytest.raises(ParameterOutOfRange):
        key_coefficient((2, 2), {(0, 1): -1})
    # an index outside 0..n-1, a negative one read as x_(n+i) included
    for pair in ((0, 2), (-1, 1), (0, -1)):
        with pytest.raises(ParameterOutOfRange, match="bad index pairs"):
            key_coefficient((2, 2), {pair: 1})


@pytest.mark.parametrize("sizes, m", [
    ([3.7, 3], 1), ((3, True), 1), (("3", 3), 1), ((3, 3), 1.0), ((3, 3), True),
    ((3, 3), {(0, 1): 1.5}), ((3, 3), {(0.0, 1): 1}), ((3, 3), {(0, True): 1}),
])
def test_key_coefficient_refuses_what_is_not_an_int(sizes, m):
    # int() would read [3.7, 3] as (3, 3) and return 2
    with pytest.raises(ParameterOutOfRange, match="must hold integers"):
        key_coefficient(sizes, m)


@pytest.mark.parametrize("avec", [[1.5, 1], [True, 1], (1, "1")])
@pytest.mark.parametrize("route", [dyson_constant_term, dyson_closed_form,
                                   zeilberger_coefficient])
def test_dyson_routes_refuse_what_is_not_an_int(route, avec):
    # int() would read [1.5, 1] and [True, 1] as (1, 1) and return 2
    with pytest.raises(ParameterOutOfRange, match="must hold integers"):
        route(avec)


def key_coefficient_cases():
    """Sizes 1..6 for n <= 4 sets, with a common m <= 2 or per-pair
    multiplicities m_ij <= 2."""
    def with_mults(n):
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        per_pair = (st.dictionaries(st.sampled_from(pairs), st.integers(0, 2))
                    if pairs else st.just({}))
        return st.tuples(st.lists(st.integers(1, 6), min_size=n, max_size=n),
                         st.one_of(st.integers(0, 2), per_pair))
    return st.integers(1, 4).flatmap(with_mults)


@settings(max_examples=150, deadline=None)
@given(key_coefficient_cases())
def test_key_coefficient_matches_kp_formula(case):
    sizes, mults = case
    try:
        expected = kp_coeff(sizes, mults)
    except DegreeInfeasible:
        with pytest.raises(DegreeInfeasible):
            key_coefficient(sizes, mults)
        return
    assert key_coefficient(sizes, mults) == expected


def test_closed_form_pinned():
    assert key_coefficient_closed_form(2, 1, 3, 0) == 2
    assert key_coefficient_closed_form(2, 1, 3, 2) == 4
    assert key_coefficient_closed_form(2, 0, 2, 0) == 2


def test_closed_form_hypothesis():
    with pytest.raises(HypothesisViolated,
                       match=r"^need k > m\*\(n-1\), got k=4, m\*\(n-1\)=4$"):
        key_coefficient_closed_form(3, 2, 4, 0)  # k = m(n-1)
    # n < 1, m < 0, k < 1, s < 0 and s > n, each just past its bound
    for args in ((0, 1, 3, 0), (2, -1, 3, 0), (1, 0, 0, 0), (2, 1, 3, -1), (2, 1, 3, 3)):
        with pytest.raises(ParameterOutOfRange, match="^bad parameters"):
            key_coefficient_closed_form(*args)


def test_closed_form_m0_is_multinomial():
    # with m = 0 the coefficient is the plain multinomial of (sizes - 1)
    for n, k, s in [(2, 2, 0), (2, 3, 1), (3, 2, 2)]:
        sizes = (k + 1,) * s + (k,) * (n - s)
        assert key_coefficient_closed_form(n, 0, k, s) == \
            dyson_closed_form(tuple(sz - 1 for sz in sizes))


def test_closed_form_matches_expansion_sweep():
    for n in (2, 3):
        for m in (1, 2):
            for k in range(m * (n - 1) + 1, m * (n - 1) + 3):
                for s in range(n + 1):
                    sizes = (k + 1,) * s + (k,) * (n - s)
                    closed = key_coefficient_closed_form(n, m, k, s)
                    assert closed == key_coefficient(sizes, m)
                    assert closed > 0


def test_single_set_key_coefficient():
    # n = 1: no pair factors; [x^(k-1)] (x)^(k-1) = 1
    assert key_coefficient((4,), 0) == 1
    assert key_coefficient_closed_form(1, 0, 4, 0) == 1
    # a set of 10^6 elements, inside the default budget: no E! is computed
    assert key_coefficient((10 ** 6,), 0) == 1


@pytest.mark.parametrize("k, s", [(9, 0), (10, 0), (9, 3)])
def test_seven_set_key_coefficient(k, s):
    # 7 sets with m = 1, E = 7k + s - 49: the largest certificates the
    # default budget admits (10^7 tuples at k = 10)
    sizes = (k + 1,) * s + (k,) * (7 - s)
    assert key_coefficient(sizes, 1) == key_coefficient_closed_form(7, 1, k, s)


# ----------------------------------------------------------------------
# polynomiality / leading coefficient
# ----------------------------------------------------------------------

def test_leading_coefficient_pinned_case():
    rep = leading_coefficient_check(2, 0, 1, 1)
    assert rep.degree == 2
    assert rep.coefficients == (4, 6, 2)  # 2! (a+1)(a+2)
    assert len(rep.sample_values) == rep.degree + 1 + 2  # the default slack
    assert rep.leading_coefficient == 2
    assert rep.expected_leading == 2
    assert rep.agree


def test_leading_coefficient_degree_zero():
    rep = leading_coefficient_check(1, 0, 0, 0)
    assert rep.degree == 0
    assert rep.sample_values[0] == 1
    assert rep.leading_coefficient == 1
    assert rep.agree


def test_leading_coefficient_m0_shift():
    rep = leading_coefficient_check(2, 1, 0, 0)
    assert rep.degree == 1
    assert rep.leading_coefficient == 1
    assert rep.agree


def test_leading_coefficient_sweep():
    for b in range(3):
        for s in range(3):
            for m in range(2):
                rep = leading_coefficient_check(2, s, b, m)
                assert rep.agree
                assert rep.degree == 2 * b + s


def test_leading_coefficient_validation():
    # n < 1, b < 0, m < 0, s < 0 and s > n, each just past its bound
    for args in ((0, 0, 0, 0), (2, 0, -1, 0), (2, 0, 0, -1), (2, -1, 0, 0), (2, 3, 0, 0)):
        with pytest.raises(ParameterOutOfRange, match="^bad parameters"):
            leading_coefficient_check(*args)
    with pytest.raises(ParameterOutOfRange, match="^slack must be >= 0, got -1$"):
        leading_coefficient_check(2, 0, 0, 0, degree_bound_slack=-1)
    assert leading_coefficient_check(2, 0, 0, 0, degree_bound_slack=0).agree


@pytest.mark.parametrize("n", [1, 2, 3])
def test_leading_coefficient_matches_laurent_oracle(n):
    # the lemma22 grid, b and m up to their caps, n <= 3 (n = 4 takes
    # seconds to expand): expected_leading comes from the key coefficient,
    # and the Laurent product it replaced, expanded in full, must equal it
    for b in range(4):
        for s in range(n + 1):
            for m in range(3):
                rep = leading_coefficient_check(n, s, b, m)
                ct = naive_laurent_constant_term(lemma22_laurent_factors(n, s, b, m))
                assert ct == rep.expected_leading, (n, s, b, m)


def test_newton_fit_rejects_an_off_polynomial_sample():
    # 2^a agrees with 1 + a + C(a, 2) up to a = 2 and is 8 at a = 3,
    # where that quadratic gives 7
    with pytest.raises(InterpolationMismatch,
                       match=r"^sample at a=3 is 8, but the degree-2 interpolant gives 7$"):
        _newton_fit([2 ** a for a in range(5)], 2)
    assert _newton_fit([2 ** a for a in range(3)], 2) == (2, 1, 1)  # 2! (1 + a/2 + a^2/2)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=9),
       st.integers(0, 3), st.integers(-3, 3))
def test_newton_fit_matches_lagrange(ys, slack, nudge):
    degree = len(ys) - 1
    coeffs = lagrange_interpolate(list(range(degree + 1)), ys)
    later = [eval_poly(coeffs, x) for x in range(degree + 1, degree + 1 + slack)]
    assert all(y.denominator == 1 for y in later)
    samples = ys + [int(y) for y in later]
    fit = _newton_fit(samples, degree)
    assert all(type(c) is int for c in fit)
    assert tuple(Fraction(c, factorial(degree)) for c in fit) == tuple(coeffs)
    if slack and nudge:
        samples[-1] += nudge
        with pytest.raises(InterpolationMismatch, match=(
                f"^sample at a={len(samples) - 1} is {samples[-1]}, "
                f"but the degree-{degree} interpolant gives {int(later[-1])}$")):
            _newton_fit(samples, degree)


# ----------------------------------------------------------------------
# Sweeps and their symmetry quotients
# ----------------------------------------------------------------------

def counting(monkeypatch, name, delegate):
    """Replace sumsetlab.identities.<name> by ``delegate``; returns the list
    of arguments (a-vectors or parameter tuples) it is called with, as lists."""
    calls = []

    def wrapper(arg):
        calls.append(list(arg))
        return delegate(arg)

    monkeypatch.setattr(identities_module, name, wrapper)
    return calls


def first_failure(rows):
    return next((row for row in rows if not row["agree"]), None)


@pytest.mark.parametrize("scope", ["dyson", "zeilberger"])
def test_sweep_expands_dyson_once_per_multiset(monkeypatch, scope):
    dyson = counting(monkeypatch, "dyson_constant_term", dyson_constant_term)
    closed = counting(monkeypatch, "dyson_closed_form", dyson_closed_form)
    zeil = counting(monkeypatch, "zeilberger_coefficient", zeilberger_coefficient)
    rows = sweep(scope, max_vars=4, max_entry=3)
    assert first_failure(rows) is None and len(rows) == 336
    # 10 + 20 + 35 multisets of 2, 3 and 4 entries from {0, 1, 2, 3}
    assert len(dyson) == 65 and all(avec == sorted(avec) for avec in dyson)
    assert closed == dyson
    # the Zeilberger coefficient is expanded on the same sorted keys; each
    # row derives its own from it under its own sign
    assert zeil == (dyson if scope == "zeilberger" else [])


def test_sweep_zeilberger_wrong_row_sign_disagrees(monkeypatch):
    # a relabelling sign that ignores the permutation breaks the unsorted rows
    monkeypatch.setattr(identities_module, "relabel_sign", lambda avec: 1)
    rows = sweep("zeilberger", max_vars=3, max_entry=2)
    assert first_failure(rows)["avec"] == [1, 0]


def test_sweep_dyson_top_of_range_expands_one_row_per_multiset(monkeypatch):
    calls = counting(monkeypatch, "dyson_constant_term", dyson_closed_form)
    rows = sweep("dyson", max_vars=6, max_entry=4)
    assert first_failure(rows) is None
    assert len(rows) == 19525 and len(calls) == 456


def test_sweep_zeilberger_top_of_range_expands_one_row_per_multiset(monkeypatch):
    # on a sorted key both expansions equal the closed form, which is fast
    dyson = counting(monkeypatch, "dyson_constant_term", dyson_closed_form)
    zeil = counting(monkeypatch, "zeilberger_coefficient", dyson_closed_form)
    rows = sweep("zeilberger", max_vars=6, max_entry=4)
    assert first_failure(rows) is None
    assert len(rows) == 19525 and len(zeil) == 456 and zeil == dyson


def test_sweep_aomoto_expands_side_a_once_per_params(monkeypatch):
    # each row reads its own tuple and the swapped one, so both routes run
    # once per tuple, and (n, n, a, b, m) runs as (n, 0, a + 1, b, m): the
    # 192 grid tuples with s < n and the 24 of a = 4 that s = n, a = 3
    # reaches, not one per row and orientation (576)
    expanded = counting(monkeypatch, "aomoto_constant_term", aomoto_constant_term)
    closed = counting(monkeypatch, "aomoto_closed_form", aomoto_closed_form)
    rows = sweep("aomoto", max_n=3, max_a=3, max_b=3, max_m=1, chi_side="a")
    assert first_failure(rows) is None and len(rows) == 288
    for calls in (expanded, closed):
        assert len(calls) == 216 and len(set(map(tuple, calls))) == 216
        assert all(s < n for n, s, *_ in calls)
        assert sum(a == 4 for _, _, a, _, _ in calls) == 24


def test_sweep_prop21_expands_each_size_tuple_once(monkeypatch):
    # the sizes (k+1,)*n of s = n are those of k + 1, s = 0: for each of
    # the 6 (n, m), 3 of the 4 k share them, so 96 rows need 78 expansions
    calls = []

    def counted(sizes, m):
        calls.append((tuple(sizes), m))
        return key_coefficient(sizes, m)

    monkeypatch.setattr(identities_module, "key_coefficient", counted)
    rows = sweep("prop21", min_n=2, max_n=4, max_m=2, k_span=4)
    assert first_failure(rows) is None and len(rows) == 96
    assert len(calls) == len(set(calls)) == 78
    # k takes the k_span values from m(n-1) + 1, the least the closed form allows
    assert {(r["n"], r["m"], r["k"]) for r in rows} == {
        (n, m, k) for n in (2, 3, 4) for m in (1, 2)
        for k in range(m * (n - 1) + 1, m * (n - 1) + 5)}


def test_sweep_lemma22_interpolation_mismatch_is_a_failed_row(monkeypatch):
    def mismatch(n, s, b, m, slack):
        raise InterpolationMismatch(f"sample off the fit at n={n}, s={s}, b={b}, m={m}")

    monkeypatch.setattr(identities_module, "leading_coefficient_check", mismatch)
    rows = sweep("lemma22", n=2, max_b=0, max_s=0, max_m=0, slack=2)
    assert rows == [{"n": 2, "s": 0, "b": 0, "m": 0, "agree": False,
                     "error": "sample off the fit at n=2, s=0, b=0, m=0"}]
    assert first_failure(rows) == rows[0]


def test_sweep_refuses_an_unknown_scope():
    with pytest.raises(ParameterOutOfRange, match="unknown identity scope 'dysen'"):
        sweep("dysen", max_vars=2, max_entry=1)


def direct_values(scope, row):
    """The values of a ``sweep(scope, ...)`` row, each computed on the
    row's own parameters, without the sweep's quotient."""
    if scope in ("dyson", "zeilberger"):
        avec = row["avec"]
        out = {"constant_term": dyson_constant_term(avec),
               "closed_form": dyson_closed_form(avec)}
        if scope == "zeilberger":
            out["coefficient_form"] = zeilberger_coefficient(avec)
        return out
    if scope == "aomoto":
        params = AomotoParams(*(row[k] for k in "nsabm"))
        swapped = params._replace(a=params.b, b=params.a)
        return {"ct_chi_a": aomoto_constant_term(params),
                "closed_form": aomoto_closed_form(params),
                "ct_chi_b": aomoto_constant_term(swapped),
                "inverted_form": aomoto_closed_form(swapped)}
    n, k, s = row["n"], row["k"], row["s"]
    return {"expansion": key_coefficient((k + 1,) * s + (k,) * (n - s), row["m"])}


SWEEP_CONFIGS = st.one_of(
    st.tuples(st.sampled_from(["dyson", "zeilberger"]), st.fixed_dictionaries({
        "max_vars": st.integers(2, 4), "max_entry": st.integers(0, 3)})),
    st.tuples(st.just("aomoto"), st.fixed_dictionaries({
        "max_n": st.integers(1, 3), "max_a": st.integers(0, 3), "max_b": st.integers(0, 3),
        "max_m": st.integers(0, 2), "chi_side": st.sampled_from("ab")})),
    st.tuples(st.just("prop21"), st.fixed_dictionaries({
        "min_n": st.integers(1, 2), "max_n": st.integers(2, 4), "max_m": st.integers(1, 3),
        "k_span": st.integers(1, 4)})),
)


@settings(max_examples=30, deadline=None)
@given(SWEEP_CONFIGS)
def test_sweep_rows_equal_the_direct_routes(case):
    scope, config = case
    for row in sweep(scope, **config):
        expected = direct_values(scope, row)
        assert {key: row[key] for key in expected} == expected, row
