import itertools
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from sumsetlab import difference_coeff
from oracles import (
    LengthMismatch,
    SparsePoly,
    difference_factors,
    expand_factors,
    kp_coeff,
    naive_coeff,
)

X = SparsePoly.variable(2, 0)
Y = SparsePoly.variable(2, 1)


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------

def test_from_terms_basic():
    p = SparsePoly(2, [((1, 0), 1), ((0, 1), 1)])
    assert p.terms == {(1, 0): 1, (0, 1): 1}


def test_from_terms_cancellation():
    assert SparsePoly(1, [((0,), 1), ((0,), -1)]).terms == {}


def test_from_terms_merges_duplicates():
    assert SparsePoly(2, [((1, 0), 1), ((1, 0), 2)]).terms == {(1, 0): 3}


def test_from_terms_length_mismatch():
    with pytest.raises(LengthMismatch):
        SparsePoly(2, [((1, 0, 0), 1)])


def test_coeff_length_mismatch():
    with pytest.raises(LengthMismatch):
        X.coeff((1, 0, 0))


# ----------------------------------------------------------------------
# ring operations
# ----------------------------------------------------------------------

def test_mul_difference_of_squares():
    assert ((X + Y) * (X - Y)).terms == {(2, 0): 1, (0, 2): -1}


def test_mul_by_one_is_identity():
    p = 3 * X * Y + Y ** 2 - 7
    assert p * SparsePoly.one(2) == p


def test_squared_product_expansion():
    # (x - y)^2 (x + y)^2 expanded by plain repeated multiplication
    product = expand_factors([X - Y, X - Y, X + Y, X + Y])
    assert product.terms == {(4, 0): 1, (2, 2): -2, (0, 4): 1}
    assert ((X - Y) ** 2 * (X + Y) ** 2) == product


def test_pow_binomial():
    p = (X + Y) ** 4
    assert [p.coeff((4 - i, i)) for i in range(5)] == [1, 4, 6, 4, 1]


def test_pow_zero_is_one():
    assert ((3 * X - Y) ** 0) == SparsePoly.one(2)
    assert (SparsePoly.zero(2) ** 0) == SparsePoly.one(2)


def test_pow_square():
    assert ((X - Y) ** 2).terms == {(2, 0): 1, (1, 1): -2, (0, 2): 1}


def test_mul_length_mismatch():
    with pytest.raises(LengthMismatch):
        X * SparsePoly.variable(3, 0)


def test_coeff_of_absent_monomial_is_zero():
    assert ((X + Y) ** 2).coeff((5, 5)) == 0


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------

def exponent_vectors(nvars, lo, hi):
    return st.tuples(*([st.integers(lo, hi)] * nvars))


def polys(nvars, lo=0, hi=3, max_terms=6):
    return st.builds(
        lambda pairs: SparsePoly(nvars, pairs),
        st.lists(
            st.tuples(exponent_vectors(nvars, lo, hi), st.integers(-9, 9)),
            max_size=max_terms,
        ),
    )


def poly_triples():
    return st.integers(1, 3).flatmap(
        lambda n: st.tuples(polys(n, lo=-2), polys(n, lo=-2), polys(n, lo=-2))
    )


@settings(max_examples=60, deadline=None)
@given(poly_triples())
def test_ring_axioms(triple):
    p, q, r = triple
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + SparsePoly.zero(p.nvars) == p
    assert p * SparsePoly.one(p.nvars) == p


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: polys(n, max_terms=4)), st.integers(0, 5))
def test_pow_is_iterated_mul(p, e):
    expected = SparsePoly.one(p.nvars)
    for _ in range(e):
        expected = expected * p
    assert p ** e == expected


# ----------------------------------------------------------------------
# difference_coeff, the package's engine, against the oracles
# ----------------------------------------------------------------------

def test_difference_coeff_worked_products():
    # [x0^2 x1^2] (x0 - x1)^2 (x0 + x1)^2 and [x0 x1] (x0 - x1)(x1 - x0)
    assert difference_coeff(2, [((0, 1), 2)], (2, 2)) == -2
    assert difference_coeff(2, [((0, 1), 1), ((1, 0), 1)], (1, 1)) == 2
    assert difference_coeff(2, [((1, 0), 1)], (1, 0)) == -1
    assert difference_coeff(2, [], (2, 2)) == 6
    assert difference_coeff(0, [], ()) == 1  # the empty product


def test_difference_coeff_one_variable():
    # x0^E alone: the only pair on one variable, (0, 0), is refused
    for t in range(4):
        assert difference_coeff(1, [], (t,)) == 1
    with pytest.raises(ValueError):
        difference_coeff(1, [((0, 0), 1)], (3,))


def test_difference_coeff_large_power():
    # the fold computes one binomial per variable and no E!, so a large
    # E with few terms stays quick
    assert difference_coeff(1, [], (20000,)) == 1
    assert difference_coeff(1, [], (10 ** 6,)) == 1
    # two variables in no pair: [x0^t x1^t] (x0 + x1)^(2t)
    t = 50000
    assert difference_coeff(2, [], (t, t)) == comb(2 * t, t)
    # -(x0 - x1)^2 (x0 + x1)^E at x0^19999 x1^499, with E = 20496
    power = 20496
    expected = -(comb(power, 19997) - 2 * comb(power, 19998) + comb(power, 19999))
    assert difference_coeff(2, [((0, 1), 1), ((1, 0), 1)], (19999, 499)) == expected


@pytest.mark.parametrize("nvars, mults, target, expected", [
    (3, [], (0, 0, 0), 1),  # no pair: the empty product on three variables
    (2, [((0, 1), 1)], (1, 0), 1),
    (2, [((0, 1), 1)], (0, 1), -1),
    (2, [((0, 1), 7)], (3, 4), 35),
    (3, [((0, 1), 2)], (2, 0, 0), 1),  # x1 and x2 close on zero-width fields
    (3, [((0, 1), 2)], (1, 1, 0), -2),  # x2 is in no pair
    (3, [((0, 1), 1), ((2, 1), 1)], (1, 0, 1), 1),
    (3, [((0, 1), 1), ((1, 2), 1), ((2, 0), 1)], (1, 1, 1), 0),  # antisymmetric
    (3, [((i, j), 1) for i in range(3) for j in range(3) if i != j], (2, 2, 2), 6),
    (4, [((0, 3), 2), ((3, 0), 1), ((1, 2), 1)], (1, 0, 1, 2), 3),
    (4, [((0, 3), 2), ((3, 0), 1), ((1, 2), 1)], (0, 1, 0, 3), 1),
])
def test_difference_coeff_without_power(nvars, mults, target, expected):
    # E = 0: no fold runs, and the answer is read at the key of the target
    assert sum(target) == sum(e for _, e in mults)
    assert difference_coeff(nvars, mults, target) == expected
    assert naive_coeff(difference_factors(nvars, mults, target), target) == expected


@pytest.mark.parametrize("mults, target", [
    ([((0, 1), 1.7)], (1.2, 0)), ([((0, 1), 1.7)], (1, 0)), ([((0.0, 1), 1)], (1, 0)),
    ([((0, 1), True)], (1, 0)), ([((0, 1), 1)], (True, 0)),
])
def test_difference_coeff_refuses_what_is_not_an_int(mults, target):
    # int() would read each as (x0 - x1) at (1, 0), coefficient 1
    with pytest.raises(ValueError, match="must hold integers"):
        difference_coeff(2, mults, target)


def test_difference_coeff_refusals():
    with pytest.raises(ValueError):
        difference_coeff(2, [((0, 1), 3)], (1, 1))  # E = -1
    with pytest.raises(ValueError):
        difference_coeff(2, [((0, 1), -1)], (1, 1))
    with pytest.raises(ValueError):
        difference_coeff(2, [((0, 2), 1)], (1, 1))
    # a negative index would read as x_(n+i), as in list indexing
    with pytest.raises(ValueError):
        difference_coeff(2, [((-1, 1), 1)], (1, 1))
    with pytest.raises(ValueError):
        difference_coeff(2, [((0, -1), 1)], (1, 1))
    with pytest.raises(ValueError):
        difference_coeff(2, [], (1, 1, 0))
    with pytest.raises(ValueError):
        difference_coeff(2, [((1, 1), 1)], (1, 1))  # not two distinct indices
    with pytest.raises(ValueError):
        difference_coeff(2, [((0, 0), 0)], (1, 1))
    # a negative target entry is a coefficient of 0, once E >= 0
    assert difference_coeff(2, [((0, 1), 1)], (-1, 3)) == 0
    assert difference_coeff(3, [((2, 0), 1)], (2, -1, 0)) == 0


def mult_lists(nvars, max_entries=5, max_e=3):
    """Entries ((i, j), e) in any order: ordered pairs beside their
    reverses with other multiplicities, repeats and zeros.  One variable
    has no pair, so its list is empty."""
    pairs = [(i, j) for i in range(nvars) for j in range(nvars) if i != j]
    if not pairs:
        return st.just([])
    entry = st.tuples(st.sampled_from(pairs), st.integers(0, max_e))
    return st.lists(entry, max_size=max_entries)


def targets_by_degree(nvars, mults, power):
    """Every target of total degree sum(e) + power whose entries reach at
    most one past each variable's reach (the power plus the
    multiplicities at that variable), so targets at each reach, one below
    it and one above it all come up."""
    reach = [power] * nvars
    for (i, j), e in mults:
        reach[i] += e
        reach[j] += e
    degree = sum(e for _, e in mults) + power
    for t in itertools.product(*(range(r + 2) for r in reach)):
        if sum(t) == degree:
            yield t


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), mult_lists(n), st.integers(0, 3))))
# x2 is the higher index of two pairs, so at the step (1, 2) it already
# holds a power from (0, 2); at the target (0, 1, 2, 2) only its ceiling,
# k >= a - (t_2 - e_2), keeps it within its target and its bit field
@example((4, [((0, 2), 1), ((1, 2), 2), ((1, 3), 1)], 1))
def test_difference_coeff_matches_full_expansion(data):
    nvars, mults, power = data
    degree = sum(e for _, e in mults) + power
    expanded = expand_factors(difference_factors(nvars, mults, (degree,) + (0,) * (nvars - 1)))
    for target in targets_by_degree(nvars, mults, power):
        assert difference_coeff(nvars, mults, target) == expanded.coeff(target), target


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), mult_lists(n, max_entries=6),
    st.lists(st.integers(-1, 5), min_size=n, max_size=n))))
def test_difference_coeff_matches_pruned_oracles(data):
    # any target, negative entries and E < 0 included, against the full
    # expansion; four variables and entries up to 5 keep it cheap
    nvars, mults, target = data
    if sum(target) < sum(e for _, e in mults):
        with pytest.raises(ValueError):
            difference_coeff(nvars, mults, target)
        return
    expected = naive_coeff(difference_factors(nvars, mults, target), target)
    assert difference_coeff(nvars, mults, target) == expected
    if min(target) < 0:
        assert expected == 0


def key_shapes():
    """Sizes and per-pair multiplicities {(i, j): m_ij} with E >= 0, the
    shape of a key coefficient with non-uniform forbidden sets."""
    def shape(n):
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        mults = st.dictionaries(st.sampled_from(pairs), st.integers(0, 2), max_size=4)
        return st.tuples(st.lists(st.integers(1, 4), min_size=n, max_size=n), mults)
    return st.integers(2, 3).flatmap(shape).filter(
        lambda sm: sum(sm[0]) - len(sm[0]) >= sum(sm[1].values()))


@settings(max_examples=80, deadline=None)
@given(key_shapes())
def test_difference_coeff_matches_kp_formula(shape):
    sizes, mults = shape
    target = tuple(sz - 1 for sz in sizes)
    assert difference_coeff(len(sizes), sorted(mults.items()), target) == kp_coeff(sizes, mults)


def sparse_shapes():
    """Five or six variables, two to four pairs with multiplicities 1..2
    (so some variables are in no pair) and targets of 0..3 with E >= 1:
    the shapes where the fold merges most."""
    def shape(n):
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        mults = st.dictionaries(st.sampled_from(pairs), st.integers(1, 2),
                                min_size=2, max_size=4)
        target = st.lists(st.integers(0, 3), min_size=n, max_size=n)
        return st.tuples(st.just(n), mults, target)
    return st.integers(5, 6).flatmap(shape).filter(
        lambda nmt: sum(nmt[2]) > sum(nmt[1].values()))


@settings(max_examples=60, deadline=None)
@given(sparse_shapes())
# x4, in no pair, takes all of E = 1 before the first step, so the term
# that leaves x5 one short of its target passes P = E at x5's fold and is
# dropped (kept, its P would carry into the next field)
@example((6, {(0, 5): 2, (3, 0): 2, (0, 1): 2}, [3, 0, 0, 1, 1, 2]))
def test_difference_coeff_folds_sparse_products(shape):
    nvars, mults, target = shape
    got = difference_coeff(nvars, sorted(mults.items()), target)
    assert got == kp_coeff([t + 1 for t in target], mults)
