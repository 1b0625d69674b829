"""Independent reference routes used to check the pruned engine.

Everything here deliberately avoids targeted_coeff.  Most products are
expanded in full with plain multiplication and the wanted coefficient is
read off at the end; Laurent products stay Laurent, with no clearing of
denominators.  ``pruned_coeff`` is the engine's earlier pruned expansion,
which multiplies every power of the variable sum through term by term,
and ``kp_coeff`` reaches the key coefficient by exact evaluation with no
expansion at all.
"""

import itertools
from fractions import Fraction
from functools import reduce
from math import factorial, prod

from sumsetlab import (
    DEFAULT_BUDGET,
    CertificateReport,
    DegreeInfeasible,
    LengthMismatch,
    NegativeExponentInput,
    SparsePoly,
    SplitMix64,
    coverage_check,
    coverage_threshold,
    sum_of_variables,
)


def expand_factors(factors):
    """Full product of a factor list (polys or (poly, repetition) pairs)."""
    polys = []
    for item in factors:
        if isinstance(item, SparsePoly):
            polys.append(item)
        else:
            poly, rep = item
            polys.extend([poly] * rep)
    if not polys:
        raise ValueError("cannot infer the variable count of an empty product")
    return reduce(lambda x, y: x * y, polys)


def naive_coeff(factors, target):
    return expand_factors(factors).coeff(target)


def pruned_coeff(factors, target) -> int:
    """targeted_coeff as it was before the variable-sum contraction: every
    factor, powers of the variable sum included, is multiplied through one
    repetition at a time, dropping partial terms above the target."""
    target = tuple(int(t) for t in target)
    nvars = len(target)
    flist = []
    for item in factors:
        if isinstance(item, SparsePoly):
            poly, rep = item, 1
        else:
            poly, rep = item
            rep = int(rep)
        if not isinstance(poly, SparsePoly):
            raise TypeError(f"factor {poly!r} is not a SparsePoly")
        if rep < 0:
            raise ValueError(f"repetition exponent must be >= 0, got {rep}")
        if poly.nvars != nvars:
            raise LengthMismatch(
                f"factor on {poly.nvars} variables in a {nvars}-variable product"
            )
        if any(v < 0 for e in poly.terms for v in e):
            raise NegativeExponentInput(
                "factors must have nonnegative exponents; clear denominators first"
            )
        if rep:  # a factor repeated 0 times contributes the empty product 1
            flist.append((poly, rep))
    if any(t < 0 for t in target):
        return 0
    reach = sum(rep * poly.total_degree() for poly, rep in flist)
    if reach < sum(target):
        return 0  # degree-infeasible: the product cannot climb to the target
    acc = {(0,) * nvars: 1}
    for poly, rep in flist:
        items = list(poly.terms.items())
        for _ in range(rep):
            nxt = {}
            for e1, c1 in acc.items():
                for e2, c2 in items:
                    e = tuple(a + b for a, b in zip(e1, e2))
                    oversized = False
                    for v, t in zip(e, target):
                        if v > t:
                            oversized = True
                            break
                    if oversized:
                        continue
                    c = nxt.get(e, 0) + c1 * c2
                    if c:
                        nxt[e] = c
                    elif e in nxt:
                        del nxt[e]
            acc = nxt
            if not acc:
                return 0
    return acc.get(target, 0)


def kp_coeff(sizes, mults):
    """key_coefficient(sizes, mults) by the coefficient formula of Lasoń and
    Karasev-Petrov, with no expansion.

    For f of degree at most sum(t) and C_i = {0, ..., t_i},
    [x^t] f = sum over c in C_1 x ... x C_n of f(c) / prod_i phi_i'(c_i),
    where phi_i'(c) = c! (-1)^{t_i - c} (t_i - c)!.  Here t_j = sizes_j - 1
    and f = prod_{i != j} (x_i - x_j)^{m_ij} (x_1 + ... + x_n)^E is
    homogeneous of degree sum(t).  ``mults`` is the common multiplicity or
    a map {(i, j): m_ij} over 0-based pairs, as for key_coefficient.
    """
    t = [int(sz) - 1 for sz in sizes]
    n = len(t)
    if isinstance(mults, dict):
        pairs = dict(mults)
    else:
        pairs = {(i, j): mults for i in range(n) for j in range(n) if i != j}
    balance = sum(t) - sum(pairs.values())
    if balance < 0:
        raise DegreeInfeasible(f"sum(t) = {sum(t)} < deg = {sum(pairs.values())}")
    total = Fraction(0)
    for c in itertools.product(*(range(ti + 1) for ti in t)):
        value = sum(c) ** balance
        for (i, j), e in pairs.items():
            value *= (c[i] - c[j]) ** e
        if value:
            total += Fraction(value, prod(
                factorial(ci) * (-1) ** (ti - ci) * factorial(ti - ci)
                for ci, ti in zip(c, t)
            ))
    if total.denominator != 1:
        raise ArithmeticError(f"the formula gave a non-integer {total}")
    return total.numerator


def naive_laurent_constant_term(factors):
    product = expand_factors(factors)
    return product.coeff((0,) * product.nvars)


def literal_certificate(inst) -> CertificateReport:
    """Certificate from the literal constraint polynomial.

    Expands P = prod_{i != j} prod_{s in S_ij} (x_i - x_j - s) against the
    balancing power of (x_1 + ... + x_n) and extracts the coefficient of
    prod x_j^{|A_j| - 1} directly.  This is the reference route for
    sumsetlab.certificate_check, which keeps only the top-degree part of P.
    """
    n = inst.n
    sizes = inst.sizes
    deg = sum(len(S) for S in inst.forbidden.values())
    balance = sum(sz - 1 for sz in sizes) - deg
    if balance < 0:
        raise DegreeInfeasible(
            f"sum(|A_j| - 1) = {sum(sz - 1 for sz in sizes)} < deg P = {deg}"
        )
    factors = [SparsePoly.one(n)]  # keeps the product nonempty when E = deg P = 0
    for (i, j) in sorted(inst.forbidden):
        ei = tuple(1 if t == i else 0 for t in range(n))
        ej = tuple(1 if t == j else 0 for t in range(n))
        for s in sorted(inst.forbidden[i, j]):
            factors.append(SparsePoly(n, [(ei, 1), (ej, -1), ((0,) * n, -s)]))
    factors.append((sum_of_variables(n), balance))
    coefficient = naive_coeff(factors, tuple(sz - 1 for sz in sizes))
    residue = coefficient % inst.p
    return CertificateReport(
        "literal-product", coefficient, residue, balance + 1, residue != 0
    )


def one_minus_ratio(nvars, i, j):
    """1 - x_i/x_j as a Laurent polynomial."""
    e = [0] * nvars
    e[i] += 1
    e[j] -= 1
    return SparsePoly(nvars, {(0,) * nvars: 1, tuple(e): -1})


def aomoto_laurent_factors(params, chi_side):
    """The Aomoto product on x_0..x_n as Laurent factors:
    prod_l (1 - x_l/x_0)^{a + [l <= s]} (1 - x_0/x_l)^b
    prod_{1 <= i != j <= n} (1 - x_i/x_j)^m for chi_side "a"; for
    chi_side "b" the [l <= s] shift moves to the b exponent."""
    nv = params.n + 1
    factors = [SparsePoly.one(nv)]  # keeps the product nonempty
    for l in range(1, nv):
        shift = 1 if l <= params.s else 0
        up = params.a + (shift if chi_side == "a" else 0)
        down = params.b + (shift if chi_side == "b" else 0)
        factors += [(one_minus_ratio(nv, l, 0), up), (one_minus_ratio(nv, 0, l), down)]
    for i in range(1, nv):
        for j in range(1, nv):
            if i != j:
                factors.append((one_minus_ratio(nv, i, j), params.m))
    return factors


def lemma22_laurent_factors(n, s, b, m):
    """(x_1+...+x_n)^D prod_l x_l^{-a_l} prod_{i != j} (1 - x_i/x_j)^m with
    a_l = b + [l <= s] and D = sum a_l: the Laurent product whose constant
    term is D! times the leading coefficient leading_coefficient_check
    expects."""
    a_l = [b + (1 if l <= s else 0) for l in range(1, n + 1)]
    factors = [(sum_of_variables(n), sum(a_l)),
               SparsePoly(n, {tuple(-a for a in a_l): 1})]
    for i in range(n):
        for j in range(n):
            if i != j and m:
                factors.append((one_minus_ratio(n, i, j), m))
    return factors


def brute_sumset(inst):
    """The restricted sumset by itertools.product over A_1 x ... x A_n,
    checking every ordered pair (i, j), so both orientations of each pair
    constraint: the reference for enumerate_restricted_sumset."""
    p, n = inst.p, inst.n
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    return {
        sum(tup) % p
        for tup in itertools.product(*inst.sets)
        if all((tup[i] - tup[j]) % p not in inst.forbidden[i, j] for i, j in pairs)
    }


def coverage_sweep_rows(p, m, mode="exhaustive", count=50, seed=0, size=None,
                        s_set=None, budget=DEFAULT_BUDGET):
    """The rows of coverage_sweep with one coverage_check per subset, in
    itertools.combinations order or in draw order: the reference for the
    sweep's orbit quotient."""
    S = range(m) if s_set is None else s_set
    if size is None:
        size = coverage_threshold(p, m)
    if mode == "exhaustive":
        subsets = itertools.combinations(range(p), size)
    else:
        rng = SplitMix64(seed)
        subsets = (rng.sample(p, size) for _ in range(count))
    return tuple(coverage_check(p, S, A, budget) for A in subsets)


def trial_division_is_prime(n):
    """Primality by trial division up to sqrt(n); the reference for
    sumsetlab.is_prime."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def list_sample(rng, population_size, count):
    """SplitMix64.sample over an explicit list of the population: the
    reference for the dict-backed version, making the same draws."""
    pool = list(range(population_size))
    for i in range(count):
        j = i + rng.below(population_size - i)
        pool[i], pool[j] = pool[j], pool[i]
    return tuple(sorted(pool[:count]))
