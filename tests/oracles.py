"""Independent references for the package's engines, used only by the tests.

Each engine has one reference here that shares none of its code, and the
tests check the engine against it.

- ``difference_coeff``: ``naive_coeff`` expands the product of
  ``SparsePoly`` factors in full and reads the coefficient off at the
  end.  ``SparsePoly`` is a plain sparse polynomial ring over the
  integers with Laurent exponents allowed, so Laurent products stay
  Laurent, with no clearing of denominators.  ``kp_coeff`` reaches the
  key coefficient by exact evaluation (the Lasoń / Karasev-Petrov
  formula), with no expansion at all.  ``naive_laurent_constant_term``
  reads the constant terms of the identities off their Laurent factor
  lists (``aomoto_laurent_factors``, ``lemma22_laurent_factors``).
- The certificates: ``literal_certificate`` expands the literal
  constraint polynomial, and ``expanded_certificate`` always expands the
  key coefficient, the reference for the closed-form route of
  ``certificate_check``.
- The sumset walks: ``brute_sumset`` tries every tuple, and
  ``walked_coverage_sumset`` is the general walk that ``coverage_check``
  replaced.  ``coverage_sweep_rows`` checks every subset, the reference
  for the sweep's orbit quotient; ``pending_sweep_rows`` is the sweep's
  earlier walk, for the rows it derives from its orbit table; and
  ``orbit_key`` names an orbit by brute force.
- The closed forms: ``lagrange_interpolate`` and ``eval_poly`` are the
  Fraction fit that the forward differences of
  ``leading_coefficient_check`` replaced, and
  ``fraction_dyson_closed_form``, ``fraction_aomoto_closed_form`` and
  ``fraction_key_closed_form`` evaluate the closed forms factor by factor
  in Fractions, for their integer numerator-over-denominator versions.
- The CLI: ``whole_table`` makes the table as one string, for the table
  written a batch of rows at a time, and ``build_parser`` is the argparse
  parser, for ``sumsetlab.cli.parse_args``.
- ``trial_division_is_prime`` is the reference for ``is_prime``, and
  ``list_sample`` for the dict-backed ``SplitMix64.sample``.
"""

import argparse
import bisect
import itertools
import sys
from fractions import Fraction
from functools import cache, reduce
from math import factorial, prod

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
    E < 0 raises ValueError, as expand_factors would read it as E = 0."""
    power = sum(target) - sum(e for _, e in mults)
    if power < 0:
        raise ValueError(f"the balancing exponent must be >= 0, got {power}")
    units = [SparsePoly.variable(nvars, v) for v in range(nvars)]
    factors = [SparsePoly.one(nvars)]  # keeps the product nonempty
    factors += [(units[i] - units[j], e) for (i, j), e in mults]
    factors.append((sum_of_variables(nvars), power))
    return factors


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
