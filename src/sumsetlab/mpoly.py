"""Sparse multivariate Laurent polynomials over arbitrary-precision integers.

A polynomial is a finite map from exponent vectors (tuples of signed
integers, one entry per variable) to nonzero integer coefficients.
Everything here is exact: coefficients are Python ints, so there is no
overflow and no modular shortcut — reduction mod p, when wanted, happens
in the caller.

The workhorse is :func:`targeted_coeff`, which extracts a single
coefficient from a product of polynomial factors while pruning every
partial term that can no longer reach the target: from above, a term
already past the target's exponent in some variable, and from below, a
term that the factors still to come cannot lift to it (a per-variable
floor).  The factors go in an order that closes one variable after
another, and a repeated factor goes in as one pruned power.  A power of
the variable sum (x_0 + ... + x_{n-1})^E is never expanded: by the
multinomial theorem its coefficient at any exponent vector d with
sum(d) = E is E!/prod d_i!, so it is contracted against the expansion
of the other factors in one pass.  Negative exponents are legal
everywhere except inside ``targeted_coeff`` itself, which is what makes
the pruning rules sound; a Laurent constant term is reached by clearing
denominators first (see ``identities``).
"""

from functools import cache
from math import factorial, prod
from operator import add


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

    def is_zero(self) -> bool:
        return not self.terms

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
        if poly == variable_sum:
            power += rep
        elif rep:  # a factor repeated 0 times contributes the empty product 1
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
