"""Reference routes used to check the coefficient engine.

Nothing here calls ``sumsetlab.difference_coeff``.  ``SparsePoly`` is a
plain sparse polynomial ring over the integers, with Laurent exponents
allowed.  ``targeted_coeff`` is the engine as it was before
``difference_coeff``: it expands any list of SparsePoly factors, pruning
from above and below and contracting the variable-sum power.
``pruned_coeff`` is the older expansion that prunes only from above and
multiplies every power of the variable sum through term by term.
``naive_coeff`` expands in full and reads the coefficient off at the
end; Laurent products stay Laurent, with no clearing of denominators.
``kp_coeff`` reaches the key coefficient by exact evaluation, with no
expansion at all.  ``expanded_certificate`` is the certificate with its
coefficient always expanded by ``key_coefficient``, the reference for the
closed-form route of ``certificate_check``.  ``brute_sumset``,
``two_orientation_sumset`` and ``walked_coverage_sumset`` are the
references for the sumset walks, ``coverage_sweep_rows`` for the sweep's
orbit quotient, ``pending_sweep_rows`` for the rows it derives from its
orbit table and ``orbit_key`` for its orbits.  ``lagrange_interpolate``
and ``eval_poly`` are the Fraction fit that the forward differences of
``leading_coefficient_check`` replaced.  ``fraction_dyson_closed_form``,
``fraction_aomoto_closed_form`` and ``fraction_key_closed_form`` are
the closed forms evaluated factor by factor in Fractions, the reference
for their integer numerator-over-denominator versions.  ``whole_table``
is the CLI table made as one string, the reference for the table that
the CLI writes a batch of rows at a time.  ``build_parser`` is the
argparse parser the CLI had before it read argv from its own tables, the
reference for ``sumsetlab.cli.parse_args``.
"""

import argparse
import bisect
import itertools
import sys
from fractions import Fraction
from functools import cache, reduce
from math import factorial, prod
from operator import add

from sumsetlab import (
    DEFAULT_BUDGET,
    CertificateReport,
    CoverageReport,
    DegreeInfeasible,
    SplitMix64,
    SumsetInstance,
    coverage_check,
    coverage_threshold,
    enumerate_restricted_sumset,
    key_coefficient,
    uniform_forbidden,
)
from sumsetlab.cli import EXIT_USAGE, _ID_OPTIONS, _SCOPE_LIMITS, _flag, _option_help
from sumsetlab.sumsets import BUDGET_ENV_VAR, HYPOTHESIS_CHOICES


class LengthMismatch(ValueError):
    """An exponent vector's length differs from the ambient variable count."""


class NegativeExponentInput(ValueError):
    """A Laurent term reached a polynomial-only code path."""


class SparsePoly:
    """Immutable sparse polynomial: ``terms`` maps exponent tuples to ints.

    Construction canonicalizes: duplicate exponent vectors are summed and
    zero coefficients dropped, so two equal polynomials always compare
    equal.  Do not mutate ``terms`` after construction.

    >>> P = SparsePoly(2, [((1, 0), 1), ((0, 1), 1)])   # x0 + x1
    >>> (P * P).coeff((1, 1))
    2
    >>> (P ** 0).terms
    {(0, 0): 1}
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=()):
        if nvars < 1:
            raise ValueError(f"need at least one variable, got nvars={nvars}")
        table = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for exps, c in items:
            e = tuple(exps)
            if len(e) != nvars:
                raise LengthMismatch(
                    f"exponent vector {e} has length {len(e)}, expected {nvars}"
                )
            if c == 0:
                continue
            acc = table.get(e, 0) + c
            if acc:
                table[e] = acc
            elif e in table:
                del table[e]
        self.nvars = nvars
        self.terms = table

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def one(cls, nvars):
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def monomial(cls, nvars, exps, coeff=1):
        return cls(nvars, {tuple(exps): coeff})

    @classmethod
    def variable(cls, nvars, i):
        """The single variable x_i."""
        return cls.monomial(nvars, tuple(1 if j == i else 0 for j in range(nvars)))

    # -- queries -------------------------------------------------------

    def coeff(self, exps) -> int:
        """Stored coefficient of the given monomial, or 0."""
        e = tuple(exps)
        if len(e) != self.nvars:
            raise LengthMismatch(
                f"exponent vector {e} has length {len(e)}, expected {self.nvars}"
            )
        return self.terms.get(e, 0)

    def total_degree(self) -> int:
        """Maximum term degree (0 for the zero polynomial)."""
        return max((sum(e) for e in self.terms), default=0)

    def sorted_terms(self, reverse=False):
        """Terms in graded lexicographic order, for deterministic output."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=reverse)

    # -- ring operations ----------------------------------------------

    def _check_same_shape(self, other):
        if other.nvars != self.nvars:
            raise LengthMismatch(
                f"polynomials on {self.nvars} and {other.nvars} variables"
            )

    def __add__(self, other):
        if isinstance(other, int):
            other = SparsePoly(self.nvars, {(0,) * self.nvars: other})
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._check_same_shape(other)
        table = dict(self.terms)
        for e, c in other.terms.items():
            acc = table.get(e, 0) + c
            if acc:
                table[e] = acc
            elif e in table:
                del table[e]
        out = SparsePoly(self.nvars)
        out.terms.update(table)
        return out

    __radd__ = __add__

    def __neg__(self):
        out = SparsePoly(self.nvars)
        out.terms.update({e: -c for e, c in self.terms.items()})
        return out

    def __sub__(self, other):
        if isinstance(other, int):
            return self + (-other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            out = SparsePoly(self.nvars)
            if other:
                out.terms.update({e: c * other for e, c in self.terms.items()})
            return out
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._check_same_shape(other)
        table = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                acc = table.get(e, 0) + c1 * c2
                if acc:
                    table[e] = acc
                elif e in table:
                    del table[e]
        out = SparsePoly(self.nvars)
        out.terms.update(table)
        return out

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError(f"exponent must be >= 0, got {e}")
        result = SparsePoly.one(self.nvars)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, SparsePoly):
            return self.nvars == other.nvars and self.terms == other.terms
        return NotImplemented

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms(reverse=True):
            mono = "*".join(
                f"x{i}^{e}" if e != 1 else f"x{i}" for i, e in enumerate(exps) if e
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


def sum_of_variables(nvars: int) -> SparsePoly:
    """x_0 + x_1 + ... + x_{nvars-1}."""
    return SparsePoly(
        nvars,
        {tuple(1 if j == i else 0 for j in range(nvars)): 1 for i in range(nvars)},
    )


@cache
def _variable_sum(nvars: int) -> SparsePoly:
    """``sum_of_variables(nvars)``, built once per variable count for
    :func:`targeted_coeff` to compare every factor with; shared, so it
    is never handed out."""
    return sum_of_variables(nvars)


def _factor_pairs(factors, nvars):
    """The (poly, repetitions) pairs of a factor list of SparsePoly or
    (SparsePoly, repetitions) items, validated, without the factors
    repeated 0 times (each is the empty product 1)."""
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
        if rep:
            flist.append((poly, rep))
    return flist


def _bounded_product(acc, items, touched, floor, ceiling):
    """The product of the term maps ``acc`` and ``items`` (a list of
    (exponents, coefficient) pairs), keeping only the terms e with
    floor[v] <= e[v] <= ceiling[v] at every variable v in ``touched``."""
    out = {}
    for e1, c1 in acc.items():
        for e2, c2 in items:
            e = tuple(map(add, e1, e2))
            for v in touched:
                if not floor[v] <= e[v] <= ceiling[v]:
                    break
            else:
                c = out.get(e, 0) + c1 * c2
                if c:
                    out[e] = c
                elif e in out:
                    del out[e]
    return out


def targeted_coeff(factors, target) -> int:
    """Coefficient of the ``target`` monomial in the product of ``factors``.

    ``factors`` is a sequence of SparsePoly (optionally paired with a
    repetition exponent); all must have nonnegative exponents.

    Factors equal to ``sum_of_variables(nvars)`` are set aside and their
    repetitions summed into one power E.  The others are expanded into V
    by the rules below, and the result is the contraction

        [x^t] V (x_0 + ... + x_{n-1})^E = sum_e [x^e]V * E! / prod_i (t_i - e_i)!

    over the surviving terms e with sum(t - e) = E.  This is exact: the
    multinomial theorem gives E!/prod d_i! as the coefficient of x^d in
    the power for every d >= 0 with sum(d) = E and 0 for every other d,
    and every surviving e has t - e >= 0.

    The expansion keeps only terms that can still reach the target.  For
    a partial product A and the product B of everything not yet
    multiplied in (the power of the variable sum included),

        [x^t] A B = sum_e [x^e]A * [x^(t - e)]B,

    and [x^d]B = 0 unless 0 <= d_v <= r_v at every variable v: B has no
    negative exponents, and r_v, the sum of the top exponents of x_v over
    the factors of B, bounds the exponent of x_v in B.  So a term e of A
    with e_v > t_v (the ceiling) or e_v + r_v < t_v (the floor) adds
    nothing to the coefficient and is dropped; both are exact integer
    comparisons.  The identity holds however the product is split, so
    the order is free and is chosen to prune: the factors are
    multiplied in a stable sort by the lowest variable each one touches.
    Once the last factor touching x_v is in, r_v = E, and with E = 0
    (the Dyson, Zeilberger and Aomoto products) the exponent of x_v is
    pinned to t_v from then on.  A factor repeated ``rep`` times is first
    raised to its power, dropping terms above the ceiling as the power is
    built (they stay above it in every product), and then multiplied in
    as one step; for a binomial x_i - x_j the power has rep + 1 terms.
    A step changes e_v and r_v only at the variables its factor touches,
    so only those are tested.

    >>> x0, x1 = SparsePoly.variable(2, 0), SparsePoly.variable(2, 1)
    >>> targeted_coeff([(x0 + x1, 4)], (2, 2))
    6
    """
    target = tuple(int(t) for t in target)
    nvars = len(target)
    variable_sum = _variable_sum(nvars) if nvars else None
    flist = []
    power = 0
    for poly, rep in _factor_pairs(factors, nvars):
        if poly == variable_sum:
            power += rep
        else:
            flist.append((poly, rep))
    if any(t < 0 for t in target):
        return 0
    reach = power + sum(rep * poly.total_degree() for poly, rep in flist)
    if reach < sum(target):
        return 0  # degree-infeasible: the product cannot climb to the target
    steps = []  # (lowest variable touched, poly, rep, top exponents, touched)
    for poly, rep in flist:
        tops = [max((e[v] for e in poly.terms), default=0) for v in range(nvars)]
        touched = [v for v in range(nvars) if tops[v]]
        steps.append((touched[0] if touched else -1, poly, rep, tops, touched))
    steps.sort(key=lambda step: step[0])
    room = [power] * nvars  # r_v: the most the factors still to come add to x_v
    for _, _, rep, tops, touched in steps:
        for v in touched:
            room[v] += rep * tops[v]
    if any(r < t for r, t in zip(room, target)):
        return 0
    one = (0,) * nvars
    zeros = [0] * nvars
    acc = {one: 1}
    for _, poly, rep, tops, touched in steps:
        items = list(poly.terms.items())
        power_terms = {one: 1}
        for _ in range(rep):
            power_terms = _bounded_product(power_terms, items, touched, zeros, target)
        for v in touched:
            room[v] -= rep * tops[v]
        floor = [t - r for t, r in zip(target, room)]
        acc = _bounded_product(acc, list(power_terms.items()), touched, floor, target)
        if not acc:
            return 0
    if not power:
        return acc.get(target, 0)
    numerator = factorial(power)
    coefficient = 0
    for e, c in acc.items():
        rest = [t - v for v, t in zip(e, target)]
        if sum(rest) == power:
            coefficient += c * (numerator // prod(factorial(r) for r in rest))
    return coefficient


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


def difference_factors(nvars, mults, target):
    """The SparsePoly factor list of difference_coeff(nvars, mults, target):
    one x_i - x_j per ordered entry, as given (no merging of reverse
    pairs), and the variable sum to the power E = sum(target) - sum(e).
    A negative E is passed on as is, for the oracle to refuse."""
    units = [SparsePoly.variable(nvars, v) for v in range(nvars)]
    factors = [SparsePoly.one(nvars)]  # keeps the product nonempty
    factors += [(units[i] - units[j], e) for (i, j), e in mults]
    factors.append((sum_of_variables(nvars), sum(target) - sum(e for _, e in mults)))
    return factors


def pruned_coeff(factors, target) -> int:
    """The expansion as it was before the variable-sum contraction: every
    factor, powers of the variable sum included, is multiplied through one
    repetition at a time, dropping partial terms above the target."""
    target = tuple(int(t) for t in target)
    nvars = len(target)
    flist = _factor_pairs(factors, nvars)
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


def lagrange_interpolate(xs, ys):
    """Exact Lagrange interpolation through the points (xs[i], ys[i]);
    coefficients ascending by degree, as Fractions.  The fit that
    ``leading_coefficient_check`` used before forward differences."""
    npts = len(xs)
    coeffs = [Fraction(0)] * npts
    for i in range(npts):
        basis = [Fraction(1)]
        denom = 1
        for j in range(npts):
            if j == i:
                continue
            nxt = [Fraction(0)] * (len(basis) + 1)
            for d, c in enumerate(basis):
                nxt[d + 1] += c
                nxt[d] -= c * xs[j]
            basis = nxt
            denom *= xs[i] - xs[j]
        scale = Fraction(ys[i], denom)
        for d, c in enumerate(basis):
            coeffs[d] += c * scale
    return coeffs


def eval_poly(coeffs, x):
    """Horner evaluation of ascending coefficients at x, in Fractions."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def fraction_dyson_closed_form(avec):
    """(sum a_j)! / prod a_j!, one Fraction division per entry."""
    val = Fraction(factorial(sum(avec)))
    for a in avec:
        val /= factorial(a)
    return val


def fraction_aomoto_closed_form(params):
    """The Aomoto factorial product, one Fraction factor per l."""
    n, s, a, b, m = params.n, params.s, params.a, params.b, params.m
    val = Fraction(1)
    for l in range(n):
        c = 1 if l >= n - s else 0
        val *= Fraction(
            factorial(a + b + m * l + c) * factorial(m * l + m),
            factorial(a + m * l + c) * factorial(m * l + b) * factorial(m),
        )
    return val


def fraction_key_closed_form(n, m, k, s):
    """The closed form of the key coefficient for k > m(n-1), factor by
    factor in Fractions, the 1/(k - jm) factors first."""
    val = Fraction(1)
    for j in range(s):
        val /= k - j * m
    val *= factorial(n * k + s - m * n * n + m * n - n)
    val /= factorial(m) ** n
    for j in range(1, n + 1):
        val *= Fraction(factorial(j * m), factorial(k - 1 - j * m + m))
    return val


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


def expanded_certificate(inst) -> CertificateReport:
    """The certificate of a uniform instance (every |S_ij| = m) with its
    coefficient expanded by key_coefficient(sizes, m), whatever the
    sizes: the reference for certificate_check, which reads Prop. 2.1's
    closed form when the sizes lie in {k, k+1}."""
    coefficient = key_coefficient(inst.sizes, inst.uniform_m)
    claimed = sum(sz - 1 for sz in inst.sizes) - sum(map(len, inst.forbidden.values())) + 1
    residue = coefficient % inst.p
    return CertificateReport("leading-form", coefficient, residue, claimed, residue != 0)


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
    chi_side "b" the [l <= s] shift moves to the b exponent.  This is the
    only route to side "b" that sets the shift there literally; the
    package reaches it through the swapped tuple (n, s, b, a, m)."""
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


def two_orientation_sumset(inst):
    """The restricted sumset by a depth-first walk that tests each earlier
    coordinate a_i against a new one a twice, (a_i - a) mod p in S_id and
    then (a - a_i) mod p in S_di, recursing once per leaf and stopping
    once C = Z/pZ: the walk enumerate_restricted_sumset made before it
    tested each unordered pair once, against S_id u -S_di."""
    p, n, sets = inst.p, inst.n, inst.sets
    earlier = [
        [(i, inst.forbidden[i, d], inst.forbidden[d, i]) for i in range(d)]
        for d in range(n)
    ]
    out = set()
    chosen = [0] * n

    def walk(d, acc):
        if d == n:
            out.add(acc % p)
            return len(out) == p
        for a in sets[d]:
            for i, forb_id, forb_di in earlier[d]:
                ai = chosen[i]
                if (ai - a) % p in forb_id or (a - ai) % p in forb_di:
                    break
            else:
                chosen[d] = a
                if walk(d + 1, acc + a):
                    return True
        return False

    walk(0, 0)
    return out


def walked_coverage_sumset(p, s_set, a_set, n):
    """C for n copies of A with S_ij = S on every ordered pair, by the
    general walk over ordered tuples: the route coverage_check took
    before its walk over nondecreasing index tuples."""
    if n == 0:
        return {0}  # the empty sum
    return enumerate_restricted_sumset(SumsetInstance(p, [a_set] * n, uniform_forbidden(n, s_set)))


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


def pending_sweep_rows(p, s_set, size, budget=DEFAULT_BUDGET):
    """The rows of an exhaustive coverage_sweep by the walk the sweep made
    before it kept an orbit table: in itertools.combinations order, a
    subset that no earlier orbit holds is checked, and its other images
    eps*A + t wait in a dict, each with that report and its (eps, t),
    until the walk reaches them and derives their rows.  The reference
    for the rows that coverage_sweep derives from its orbit table."""
    S = tuple(sorted(set(s_set)))
    threshold = coverage_threshold(p, len(S))
    pending = {}  # a later subset -> (its orbit's report, eps, t)
    rows = []
    for A in itertools.combinations(range(p), size):
        hit = pending.pop(A, None)
        if hit is None:
            row = coverage_check(p, S, A, budget)
            # e*A + u, sorted: the elements of e*A that wrap past p come
            # first.  A itself is reached now, not later.
            for e, image in ((1, A), (-1, tuple(sorted(-a % p for a in A)))):
                for u in range(p):
                    cut = bisect.bisect_left(image, p - u)
                    pending.setdefault(
                        tuple([x + u - p for x in image[cut:]]
                              + [x + u for x in image[:cut]]),
                        (row, e, u))
            del pending[A]
        else:
            base, eps, t = hit
            missing = tuple(sorted((eps * y + base.n * t) % p for y in base.missing))
            row = CoverageReport(A, base.n, threshold, base.hypothesis_met,
                                 base.covered, missing)
        rows.append(row)
    return tuple(rows)


def orbit_key(A, p):
    """The least sorted image of A under the 2p maps x -> eps*x + t
    (eps = +-1, t in Z/pZ), by brute force: one name per orbit of the
    thm4 sweep."""
    return min(tuple(sorted((eps * a + t) % p for a in A))
               for eps in (1, -1) for t in range(p))


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


def whole_table(headers, rows):
    """The lines of a CLI table joined as one string, every cell, padded
    line and the join alive at once: the reference for the table that
    the CLI writes a batch of rows at a time."""
    table = [headers] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(table):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _int_list(text):
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by every main() call."""
    parser = _Parser(
        prog="sumsetlab",
        description="Exact verification of restricted-sumset bounds over Z/pZ "
                    "and the constant-term identities behind them.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "doc"), default="table",
                        help="human table or structured JSON document (default: table)")
    common.add_argument("--out", metavar="PATH", default=None,
                        help="write the report to PATH instead of stdout")
    common.add_argument("--budget", type=int, default=None, metavar="N",
                        help=f"enumeration budget (default: ${BUDGET_ENV_VAR} "
                             f"or {DEFAULT_BUDGET})")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_id = sub.add_parser(
        "identities", parents=[common],
        help="brute-force vs closed-form sweeps of the constant-term identities",
    )
    p_id.add_argument("scope", choices=("dyson", "zeilberger", "aomoto", "lemma22", "prop21"),
                      help="which identity family to sweep")
    for dest in _ID_OPTIONS:
        kind = ({"choices": _SCOPE_LIMITS["aomoto"]["chi_side"][1:]} if dest == "chi_side"
                else {"type": int, "metavar": "N"})
        p_id.add_argument(_flag(dest), default=None, help=_option_help(dest), **kind)

    p_sum = sub.add_parser(
        "sumset", parents=[common],
        help="enumerate one instance file and report bounds and certificate",
    )
    p_sum.add_argument("instance", metavar="FILE",
                       help="JSON instance document (fields p, sets, forbidden)")

    p_t4 = sub.add_parser(
        "thm4", parents=[common],
        help="coverage sweep: do restricted n-fold sums of threshold-size sets "
             "hit every residue",
    )
    p_t4.add_argument("--p", type=int, required=True, help="prime modulus")
    p_t4.add_argument("--m", type=int, required=True, help="forbidden-set size")
    p_t4.add_argument("--mode", choices=("exhaustive", "sample"), default="exhaustive")
    p_t4.add_argument("--count", type=int, default=50,
                      help="sample mode: number of seeded subsets (default 50)")
    p_t4.add_argument("--seed", type=int, default=0, help="sample mode seed")
    p_t4.add_argument("--size", type=int, default=None,
                      help="subset size to test (default: the coverage threshold)")
    p_t4.add_argument("--forbidden", type=_int_list, default=None, metavar="LIST",
                      help="comma-separated forbidden differences "
                           "(default: 0,..,m-1)")

    p_exp = sub.add_parser(
        "experiment", parents=[common],
        help="seeded random soundness sweep over instances",
    )
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--trials", type=int, default=100)
    p_exp.add_argument("--p-set", type=_int_list, default=[5, 7, 11, 13], metavar="LIST")
    p_exp.add_argument("--n-set", type=_int_list, default=[2, 3], metavar="LIST")
    p_exp.add_argument("--m-set", type=_int_list, default=[0, 1], metavar="LIST")
    p_exp.add_argument("--k-max", type=int, default=6)
    p_exp.add_argument("--enforce", choices=HYPOTHESIS_CHOICES, default="none",
                       help="resample parameter tuples until this bound's "
                            "hypothesis holds")
    return parser
