"""Constant-term and coefficient identities, each computed two ways.

Every identity in this module has a brute-force route and an exact
closed form built from factorials.  The brute-force routes are all one
call of :func:`sumsetlab.mpoly.difference_coeff`: a coefficient of a
product of differences x_i - x_j times a balancing power of the
variable sum.  The key coefficient is that shape as it stands; the
Dyson and Aomoto constant terms reach it by clearing denominators,
1 - x_i/x_j = x_j^{-1} (x_j - x_i).  Each closed form is built as one
integer numerator over one integer denominator and finished by one exact
division that raises on a remainder — a cheap transcription test.
:func:`sweep` compares the routes over parameter grids, computing each
value that a symmetry of the product repeats once; a caller may read
one route alone, as ``certificate_check`` reads
:func:`key_coefficient_closed_form`, which only the ``prop21`` sweep
compares with :func:`key_coefficient`.

Variable conventions follow the classical statements: the Dyson and
Aomoto products live on variables x_0..x_n, the key coefficient on
x_1..x_n (indexed 0..n-1 internally).
"""

import itertools
from collections import namedtuple
from functools import partial
from math import comb, factorial, gcd

from .mpoly import _checked_ints, difference_coeff


class TooFewVariables(ValueError):
    """An identity over at least two variables got fewer."""


class ParameterOutOfRange(ValueError):
    """Identity parameter outside its legal range."""


class NonIntegerResult(ArithmeticError):
    """A factorial-ratio product failed to be an integer.

    The closed forms here are integers whenever their hypotheses hold, so
    this firing means the formula was transcribed wrong, not that the
    input was unlucky.
    """


class HypothesisViolated(ValueError):
    """Closed form evaluated outside the regime where it is proved."""


class DegreeInfeasible(ValueError):
    """The balancing power of (x_1 + ... + x_n) would need a negative exponent."""


class InterpolationMismatch(ArithmeticError):
    """An extra sample point fell off the interpolated polynomial."""


def chi(condition) -> int:
    """Indicator: 1 if the condition holds, else 0."""
    return 1 if condition else 0


def ratio_text(num: int, den: int) -> str:
    """num / den (den >= 1) written in lowest terms: "a/b" with the sign
    on a, or "a" when the ratio is an integer.

    >>> ratio_text(14, 4)
    '7/2'
    >>> ratio_text(-6, 4)
    '-3/2'
    >>> ratio_text(12, 6)
    '2'
    >>> ratio_text(0, 5)
    '0'
    """
    g = gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def _exact(num: int, den: int) -> int:
    """num / den, which must be an integer (den > 0); else
    NonIntegerResult naming the ratio in lowest terms."""
    quot, rem = divmod(num, den)
    if rem:
        raise NonIntegerResult(f"expected an integer, got {ratio_text(num, den)}")
    return quot


def _ratio_constant_term(nvars, ratios) -> int:
    """Constant term of prod (1 - x_i/x_j)^e over ``ratios`` = [((i, j), e), ...].

    Since (1 - x_i/x_j)^e = x_j^{-e} (x_j - x_i)^e, it is the coefficient
    of prod_j x_j^{t_j} in prod (x_j - x_i)^e, where t_j adds up the
    exponents e of the pairs with denominator x_j (so E = 0).
    """
    target = [0] * nvars
    for (_, j), e in ratios:
        target[j] += e
    return difference_coeff(nvars, [((j, i), e) for (i, j), e in ratios], target)


def _check_avec(avec):
    avec = _checked_ints(avec, "entries", ParameterOutOfRange)
    if any(a < 0 for a in avec):
        raise ParameterOutOfRange(f"entries must be >= 0, got {avec}")
    return avec


# ----------------------------------------------------------------------
# Dyson's identity
# ----------------------------------------------------------------------

def dyson_constant_term(avec) -> int:
    """Constant term of prod_{i != j} (1 - x_i/x_j)^{a_j}, by expansion.

    The product runs over ordered pairs of the len(avec) variables; the
    exponent depends on the second index only.
    """
    avec = _check_avec(avec)
    nv = len(avec)
    if nv < 2:
        raise TooFewVariables(f"need at least 2 variables, got {nv}")
    return _ratio_constant_term(
        nv, [((i, j), avec[j]) for j in range(nv) for i in range(nv) if i != j]
    )


def dyson_closed_form(avec) -> int:
    """The multinomial coefficient (sum a_j)! / prod a_j!."""
    avec = _check_avec(avec)
    den = 1
    for a in avec:
        den *= factorial(a)
    return _exact(factorial(sum(avec)), den)


def zeilberger_coefficient(avec) -> int:
    """Dyson's constant term recovered from a single coefficient of
    prod_{i < j} (x_i - x_j)^{a_i + a_j}.

    Clearing denominators in the Dyson product and grouping each ordered
    pair with its reverse gives

        constant term = sign * [prod_j x_j^{n*a_j}] prod_{i<j} (x_i - x_j)^{a_i+a_j}

    with n = len(avec) - 1 and sign = (-1)^{sum_j j*a_j}.  (The variant
    sometimes quoted with target monomial prod x_j^{a_j} is degree-
    inconsistent for n >= 2: the product is homogeneous of degree
    n * sum(a_j), so that coefficient is identically zero.)  Both routes
    end in the same engine, which merges every ordered pair with its
    reverse under a per-pair sign, (x_j - x_i)^b = (-1)^b (x_i - x_j)^b.
    :func:`dyson_constant_term` hands it the ordered pairs as clearing
    denominators gives them, so the engine's per-pair signs decide its
    sign; this route hands it the merged pairs i < j and applies the
    global sign (-1)^{sum_j j*a_j} itself.  Their agreement therefore
    checks that global sign against the per-pair ones.

    The ``zeilberger`` sweep calls it once per multiset of the a-vector
    and derives every other row of that multiset under the row's own
    sign (see ``_dyson_rows``).
    """
    avec = _check_avec(avec)
    nv = len(avec)
    if nv < 2:
        raise TooFewVariables(f"need at least 2 variables, got {nv}")
    n = nv - 1
    mults = [((i, j), avec[i] + avec[j]) for i in range(nv) for j in range(i + 1, nv)]
    return zeilberger_sign(avec) * difference_coeff(nv, mults, tuple(n * a for a in avec))


def zeilberger_sign(avec) -> int:
    """The global sign (-1)^{sum_j j*a_j} of :func:`zeilberger_coefficient`.

    >>> zeilberger_sign((1, 0)), zeilberger_sign((0, 1)), zeilberger_sign((2, 1, 1))
    (1, -1, -1)
    """
    return -1 if sum(j * a for j, a in enumerate(avec)) % 2 else 1


def relabel_sign(avec) -> int:
    """The sign (-1)^{sum over i < j with a_i > a_j of (a_i + a_j)}.

    It is the sign that prod_{i<j} (x_i - x_j)^{a_i + a_j} picks up when
    its variables are relabelled so that the a-vector reads in sorted
    order: each pair i < j that the relabelling reverses turns
    (x_i - x_j) into -(x_j - x_i).  Those are the pairs with a_i > a_j;
    a pair of tied entries may or may not be reversed, but its exponent
    2*a_i is even, so it never changes the sign.

    >>> relabel_sign((0, 1)), relabel_sign((1, 0)), relabel_sign((2, 0))
    (1, -1, 1)
    >>> relabel_sign((2, 1, 1)), relabel_sign((1, 2, 0))
    (1, -1)
    """
    odd = 0
    for j, b in enumerate(avec):
        for a in avec[:j]:
            if a > b:
                odd ^= (a + b) & 1
    return -1 if odd else 1


# ----------------------------------------------------------------------
# Aomoto's identity
# ----------------------------------------------------------------------

class AomotoParams(namedtuple("AomotoParams", "n s a b m")):
    """Parameters of the shifted Dyson product on x_0..x_n.

    n  -- number of non-x_0 variables
    s  -- how many of the inner factors carry the +1 shift (0 <= s <= n)
    a  -- exponent on the (1 - x_l/x_0) factors
    b  -- exponent on the (1 - x_0/x_l) factors
    m  -- symmetric exponent on the (1 - x_i/x_j) factors, 1 <= i != j <= n

    Construction checks these ranges and raises ParameterOutOfRange.
    ``_make`` and ``_replace``, inherited from the named tuple, build
    without that check.
    """

    __slots__ = ()

    def __new__(cls, n, s, a, b, m):
        if n < 1:
            raise ParameterOutOfRange(f"n must be >= 1, got {n}")
        if not 0 <= s <= n:
            raise ParameterOutOfRange(f"s must lie in [0, {n}], got {s}")
        if a < 0 or b < 0 or m < 0:
            raise ParameterOutOfRange(f"a, b, m must be >= 0, got a={a}, b={b}, m={m}")
        return super().__new__(cls, n, s, a, b, m)


def aomoto_constant_term(params: AomotoParams) -> int:
    """Constant term of the Aomoto product, by expansion on n+1 variables:

        prod_{l=1}^{n} (1 - x_l/x_0)^{a + chi(l <= s)} (1 - x_0/x_l)^b
        prod_{1 <= i != j <= n} (1 - x_i/x_j)^m

    with the shift on the a exponent (side "a").  x_v -> 1/x_v turns the
    shift on the b exponent (side "b") into side "a" with a and b
    exchanged, so side "b" of (1, 1, 1, 0, 0) is this function on the
    swapped tuple (1, 1, 0, 1, 0):

    >>> aomoto_constant_term(AomotoParams(n=1, s=1, a=1, b=0, m=0))
    1
    >>> aomoto_constant_term(AomotoParams(n=1, s=1, a=0, b=1, m=0))
    2
    """
    n, s = params.n, params.s
    ratios = []
    for l in range(1, n + 1):
        ratios.append(((l, 0), params.a + chi(l <= s)))
        ratios.append(((0, l), params.b))
    ratios += [((i, j), params.m)
               for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    return _ratio_constant_term(n + 1, ratios)


def aomoto_closed_form(params: AomotoParams) -> int:
    """Factorial product equal to :func:`aomoto_constant_term`:

        prod_{l=0}^{n-1} (a+b+ml+chi(l>=n-s))! (ml+m)!
                         / [ (a+ml+chi(l>=n-s))! (ml+b)! m! ]

    x_v -> 1/x_v makes side "b" of (n, s, a, b, m) this on (n, s, b, a, m).
    """
    n, s, a, b, m = params.n, params.s, params.a, params.b, params.m
    num = den = 1
    for l in range(n):
        c = chi(l >= n - s)
        num *= factorial(a + b + m * l + c) * factorial(m * l + m)
        den *= factorial(a + m * l + c) * factorial(m * l + b) * factorial(m)
    return _exact(num, den)


# ----------------------------------------------------------------------
# The key coefficient and its closed form
# ----------------------------------------------------------------------

def key_coefficient(sizes, m) -> int:
    """[prod_j x_j^{sizes_j - 1}] prod_{i != j} (x_i - x_j)^{m_ij} (x_1+...+x_n)^E

    with E = sum(sizes_j - 1) - sum(m_ij), evaluated by pruned expansion.
    ``m`` is either the common multiplicity of every ordered pair or a map
    {(i, j): m_ij} over 0-based pairs, where a missing pair counts 0.
    This is the coefficient whose nonvanishing mod p certifies the
    restricted-sumset lower bound for sets of the given sizes and
    forbidden sets with |S_ij| = m_ij.
    """
    sizes, mults = _key_multiplicities(sizes, m)
    return difference_coeff(len(sizes), sorted(mults.items()), tuple(sz - 1 for sz in sizes))


def _key_multiplicities(sizes, m) -> tuple:
    """(sizes, mults): the arguments of :func:`key_coefficient` checked,
    with ``sizes`` as a tuple of ints and ``mults`` as the map
    {(i, j): m_ij}.  Sizes, indices and multiplicities must be non-bool
    ints.  Raises ParameterOutOfRange on a bad argument and
    DegreeInfeasible when E < 0, so a caller that reaches the coefficient
    another way refuses the same shapes with the same text.
    """
    sizes = _checked_ints(sizes, "sizes", ParameterOutOfRange)
    n = len(sizes)
    if n < 1:
        raise ParameterOutOfRange("need at least one set size")
    if any(sz < 1 for sz in sizes):
        raise ParameterOutOfRange(f"sizes must be >= 1, got {sizes}")
    if isinstance(m, dict):
        mults, names = dict(m), ("sum(|A_j| - 1)", "deg P")
        _checked_ints([x for pair in mults for x in pair], "index pairs", ParameterOutOfRange)
        _checked_ints(mults.values(), "m", ParameterOutOfRange)
        if any(not (0 <= i < n and 0 <= j < n) or i == j for i, j in mults):
            raise ParameterOutOfRange(f"bad index pairs in {sorted(mults)} for n={n}")
    else:
        _checked_ints([m], "m", ParameterOutOfRange)
        mults = {(i, j): m for i in range(n) for j in range(n) if i != j}
        names = ("sum(sizes_j - 1)", "m*n*(n-1)")
    if any(e < 0 for e in mults.values()):
        raise ParameterOutOfRange(f"m must be >= 0, got {m}")
    deg = sum(mults.values())
    balance = sum(sizes) - n - deg
    if balance < 0:
        raise DegreeInfeasible(f"{names[0]} = {sum(sizes) - n} < {names[1]} = {deg}")
    return sizes, mults


def key_coefficient_closed_form(n: int, m: int, k: int, s: int) -> int:
    """Closed form of :func:`key_coefficient` when s sizes equal k+1 and
    n-s equal k, valid for k > m*(n-1):

        (prod_{j=0}^{s-1} 1/(k-jm)) * (sum k_j - m n^2 + m n - n)!/(m!)^n
        * prod_{j=1}^{n} (jm)! / (k-1-jm+m)!
    """
    if n < 1 or m < 0 or k < 1 or not 0 <= s <= n:
        raise ParameterOutOfRange(f"bad parameters n={n}, m={m}, k={k}, s={s}")
    if k <= m * (n - 1):
        raise HypothesisViolated(f"need k > m*(n-1), got k={k}, m*(n-1)={m * (n - 1)}")
    total = n * k + s
    num = factorial(total - m * n * n + m * n - n)
    den = factorial(m) ** n
    for j in range(s):
        den *= k - j * m
    for j in range(1, n + 1):
        num *= factorial(j * m)
        den *= factorial(k - 1 - j * m + m)
    return _exact(num, den)


# ----------------------------------------------------------------------
# Polynomiality in the shift parameter and the leading coefficient
# ----------------------------------------------------------------------

def _newton_fit(ys, degree):
    """Fit the polynomial of degree <= ``degree`` through the samples
    ys[a] at a = 0, 1, ..., degree, check every later sample against it
    (else InterpolationMismatch), and return the coefficients of
    degree! times it, ascending by degree, as ints.

    All in integers: Newton's forward-difference form
    f(a) = sum_i D^i f(0) C(a, i), with D^i f(0) the i-th forward
    difference of the samples, gives each later sample as an integer,
    and degree! f(a) = sum_i D^i f(0) (degree!/i!) a(a-1)...(a-i+1) has
    integer coefficients, expanded from the top as in Horner's rule.
    Its top coefficient is D^degree f(0) itself.
    """
    diffs = []  # D^i f(0), i = 0..degree
    row = list(ys[: degree + 1])
    while row:
        diffs.append(row[0])
        row = [y1 - y0 for y0, y1 in zip(row, row[1:])]
    for x in range(degree + 1, len(ys)):
        got = sum(d * comb(x, i) for i, d in enumerate(diffs))
        if got != ys[x]:
            raise InterpolationMismatch(
                f"sample at a={x} is {ys[x]}, but the degree-{degree} "
                f"interpolant gives {got}"
            )
    scale = factorial(degree)
    poly = []  # degree! times the polynomial, ascending
    for i in range(degree, -1, -1):
        shifted = [0] + poly  # poly * (a - i) + diffs[i] * degree!/i!
        for d, c in enumerate(poly):
            shifted[d] -= i * c
        shifted[0] += diffs[i] * (scale // factorial(i))
        poly = shifted
    return tuple(poly)


class LeadingCoefficientReport(namedtuple(
        "LeadingCoefficientReport",
        "n s b m degree sample_values coefficients leading_coefficient"
        " expected_leading agree")):
    """Outcome of :func:`leading_coefficient_check`.

    ``coefficients`` (the interpolant in ascending degree),
    ``leading_coefficient`` and ``expected_leading`` (the constant-term
    route) are each ``degree``! times the rational value, so each is an
    int; ``ratio_text(x, factorial(degree))`` writes the value itself.
    """

    __slots__ = ()


def leading_coefficient_check(n: int, s: int, b: int, m: int,
                              degree_bound_slack: int = 2) -> LeadingCoefficientReport:
    """Check that the side-"b" closed form is a polynomial in a and
    that its leading coefficient matches an independent constant-term
    computation.

    With a_l = b + chi(l <= s) for l = 1..n and D = sum(a_l), the value
    f(a) = aomoto_closed_form(AomotoParams(n, s, b, a, m)), side "b", is
    sampled at a = 0..D+slack.  The first D+1 samples determine a
    degree-<=D interpolant, fit by integer forward differences; the slack
    samples must fall on it (else InterpolationMismatch).  D! times its degree-D
    coefficient, which is the D-th forward difference of the samples,
    must equal

        constant term of (x_1+...+x_n)^D prod_l x_l^{-a_l}
                         prod_{i != j} (1 - x_i/x_j)^m.

    Since prod_{i != j} (1 - x_i/x_j)^m
    = prod_j x_j^{-m(n-1)} prod_{i != j} (x_i - x_j)^m, that constant
    term is the key coefficient for sizes a_l + m(n-1) + 1.
    """
    if n < 1 or b < 0 or m < 0 or not 0 <= s <= n:
        raise ParameterOutOfRange(f"bad parameters n={n}, s={s}, b={b}, m={m}")
    if degree_bound_slack < 0:
        raise ParameterOutOfRange(f"slack must be >= 0, got {degree_bound_slack}")
    a_l = [b + chi(l <= s) for l in range(1, n + 1)]
    degree = sum(a_l)
    ys = [aomoto_closed_form(AomotoParams(n=n, s=s, a=b, b=a, m=m))
          for a in range(degree + 1 + degree_bound_slack)]
    coeffs = _newton_fit(ys, degree)
    sizes = tuple(al + m * (n - 1) + 1 for al in a_l)
    expected = key_coefficient(sizes, m)
    leading = coeffs[degree]
    return LeadingCoefficientReport(
        n=n, s=s, b=b, m=m,
        degree=degree,
        sample_values=tuple(ys),
        coefficients=coeffs,
        leading_coefficient=leading,
        expected_leading=expected,
        agree=leading == expected,
    )


# ----------------------------------------------------------------------
# Sweeps: both routes of one identity over a grid of its parameters
# ----------------------------------------------------------------------

def sweep(scope: str, **config) -> list:
    """The rows of ``sumsetlab identities SCOPE`` as its report prints
    them, one dict with an "agree" field per grid point.  ``config``
    holds the scope's options by their CLI names (``n`` for lemma22's
    ``--fix-n``), whose ranges the CLI checks.  Each scope computes a
    value that a symmetry of the product repeats once, for the reason
    its rows state, so the rows are those of computing every point.

    >>> sweep("dyson", max_vars=2, max_entry=1)[-1]
    {'avec': [1, 1], 'constant_term': 2, 'closed_form': 2, 'agree': True}
    """
    if scope not in _SWEEPS:
        raise ParameterOutOfRange(f"unknown identity scope {scope!r}")
    return _SWEEPS[scope](**config)


def _dyson_rows(max_vars, max_entry, zeilberger=False):
    # A permuted a-vector relabels the Dyson product's variables, so
    # the Dyson values belong to its multiset: one expansion each, on
    # the sorted order, which is also the first row to meet it.  So is
    # the raw Zeilberger coefficient (its global sign taken off), and a
    # row avec gets zeilberger_sign(avec) * relabel_sign(avec) times it,
    # which is zeilberger_coefficient(avec).  Every row so still applies
    # its own global sign and checks it against an independently
    # computed permutation sign; a wrong sign on any row disagrees with
    # the Dyson value.  The engine on unsorted orders is left to the
    # tests of tests/test_mpoly.py and tests/test_identities.py.
    rows = []
    by_multiset = {}
    for nv in range(2, max_vars + 1):
        for avec in itertools.product(range(max_entry + 1), repeat=nv):
            key = tuple(sorted(avec))
            if key not in by_multiset:
                by_multiset[key] = (
                    dyson_constant_term(key), dyson_closed_form(key),
                    zeilberger_sign(key) * zeilberger_coefficient(key)
                    if zeilberger else None)
            ct, closed, raw = by_multiset[key]
            row = {"avec": list(avec), "constant_term": ct, "closed_form": closed}
            if zeilberger:
                coeff = zeilberger_sign(avec) * relabel_sign(avec) * raw
                row["coefficient_form"] = coeff
                row["agree"] = ct == closed == coeff
            else:
                row["agree"] = ct == closed
            rows.append(row)
    return rows


def _aomoto_rows(max_n, max_a, max_b, max_m, chi_side):
    other = "b" if chi_side == "a" else "a"
    # Inverting every variable swaps the (l, 0) and (0, l) blocks and
    # maps the m-block onto itself, so side "b" of (n, s, a, b, m) is
    # side "a" of (n, s, b, a, m): both routes run once per parameter
    # tuple, the swapped tuple computed on demand when it is off the grid.
    # With s = n every a exponent carries the shift, so (n, n, a, b, m)
    # is (n, 0, a + 1, b, m) on both routes, and is computed as that.
    side_a = {}

    def routes(params):
        if params.s == params.n:
            params = params._replace(s=0, a=params.a + 1)
        if params not in side_a:
            side_a[params] = (aomoto_constant_term(params), aomoto_closed_form(params))
        return side_a[params]

    rows = []
    for n in range(1, max_n + 1):
        for s, a, b, m in itertools.product(
                range(n + 1), range(max_a + 1), range(max_b + 1), range(max_m + 1)):
            params = AomotoParams(n=n, s=s, a=a, b=b, m=m)
            ct_a, closed = routes(params)
            ct_b, inverted = routes(params._replace(a=b, b=a))
            ct = {"a": ct_a, "b": ct_b}
            rows.append({"n": n, "s": s, "a": a, "b": b, "m": m, "ct_chi_a": ct_a,
                         "ct_chi_b": ct_b, "closed_form": closed, "inverted_form": inverted,
                         "agree": closed == ct[chi_side] and inverted == ct[other]})
    return rows


def _lemma22_rows(n, max_b, max_s, max_m, slack):
    rows = []
    for b, s, m in itertools.product(
            range(max_b + 1), range(min(max_s, n) + 1), range(max_m + 1)):
        base = {"n": n, "s": s, "b": b, "m": m}
        try:
            rep = leading_coefficient_check(n, s, b, m, slack)
        except InterpolationMismatch as exc:
            rows.append({**base, "agree": False, "error": str(exc)})
            continue
        scale = factorial(rep.degree)
        rows.append({**base, "degree": rep.degree,
                     "leading_coefficient": ratio_text(rep.leading_coefficient, scale),
                     "expected_leading": ratio_text(rep.expected_leading, scale),
                     "agree": rep.agree})
    return rows


def _prop21_rows(min_n, max_n, max_m, k_span):
    # The sizes (k+1,)*n of s = n are those of k + 1, s = 0, so each
    # expansion is keyed by its sizes and m (sizes repeat across m).
    expansions = {}
    rows = []
    for n in range(min_n, max_n + 1):
        for m in range(1, max_m + 1):
            low = m * (n - 1) + 1
            for k, s in itertools.product(range(low, low + k_span), range(n + 1)):
                closed = key_coefficient_closed_form(n, m, k, s)
                sizes = (k + 1,) * s + (k,) * (n - s)
                if (sizes, m) not in expansions:
                    expansions[sizes, m] = key_coefficient(sizes, m)
                brute = expansions[sizes, m]
                rows.append({"n": n, "m": m, "k": k, "s": s, "closed_form": closed,
                             "expansion": brute, "agree": closed == brute})
    return rows


_SWEEPS = {
    "dyson": _dyson_rows,
    "zeilberger": partial(_dyson_rows, zeilberger=True),
    "aomoto": _aomoto_rows,
    "lemma22": _lemma22_rows,
    "prop21": _prop21_rows,
}
