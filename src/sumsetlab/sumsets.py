"""Restricted sumsets over Z/pZ: enumeration, bounds, and certificates.

The central object is a :class:`SumsetInstance`: source sets A_1..A_n
over Z/pZ together with, for every ordered index pair (i, j), i != j, a
forbidden difference set S_ij.  The restricted sumset is

    C = { a_1 + ... + a_n : a_j in A_j,  a_i - a_j not in S_ij for i != j }.

This module enumerates C exactly, evaluates the lower-bound formulas the
CLI reports as thm1/thm2/thm3 (plus the older floor bound they improve
on), checks coefficient certificates for those bounds, and carries the
shrink and coverage-threshold constructions built on top of them.
:func:`analyze` runs the whole per-instance pipeline.
Instances can be serialized to a small JSON document and regenerated
deterministically from a seed.
"""

import bisect
import itertools
import json
from collections import namedtuple
from math import comb, isqrt, prod

from .contract import (
    DEFAULT_BUDGET,
    HYPOTHESIS_CHOICES,
    BudgetExceeded,
    CannotSatisfyHypothesis,
    InstanceFormatError,
)
from .ffield import PrimeField
from .identities import (
    DegreeInfeasible,
    ParameterOutOfRange,
    _key_multiplicities,
    key_coefficient,
    key_coefficient_closed_form,
)
from .mpoly import _checked_ints


class NotInShrinkRegime(ValueError):
    """Shrinking only applies when p <= n(k-1) - mn(n-1) and p > mn."""


def _canonical(values, p: int, name: str, error=InstanceFormatError,
               merge: bool = False) -> tuple:
    """``values`` as a sorted tuple under the element contract: distinct
    non-bool ints in [0, p), the types checked before anything is hashed
    or sorted.  A fault raises ``error`` with a text that names ``name``;
    ``merge`` merges repeats instead of refusing them."""
    elems = _checked_ints(values, name, error)
    out = tuple(sorted(set(elems)))
    if len(out) < len(elems) and not merge:
        raise error(f"{name} has repeated elements")
    if out and (out[0] < 0 or out[-1] >= p):
        raise error(f"{name} has elements outside [0, {p})")
    return out


class SumsetInstance:
    """Source sets plus per-ordered-pair forbidden difference sets.

    Each set (nonempty) and forbidden set must hold distinct non-bool ints
    in [0, p), else InstanceFormatError names it 1-based, as documents do.
    ``sets`` are stored as sorted tuples of canonical residues;
    ``forbidden`` maps every ordered pair (i, j), 0-based, i != j, to a
    frozenset (missing pairs are treated as empty).  Instances are
    immutable by convention.
    """

    def __init__(self, field, sets, forbidden=None):
        self.field = field if isinstance(field, PrimeField) else PrimeField(field)
        p = self.field.p
        norm_sets = []
        for idx, raw in enumerate(sets):
            elems = _canonical(raw, p, f"set {idx + 1}")
            if not elems:
                raise InstanceFormatError(f"set {idx + 1} is empty")
            norm_sets.append(elems)
        if not norm_sets:
            raise InstanceFormatError("need at least one set")
        n = len(norm_sets)
        norm_forb = dict.fromkeys(
            ((i, j) for i in range(n) for j in range(n) if i != j), frozenset())
        for key, raw in dict(forbidden or {}).items():
            if key not in norm_forb:
                raise InstanceFormatError(f"bad forbidden-set index pair {key}")
            i, j = key
            norm_forb[i, j] = frozenset(_canonical(raw, p, f"forbidden set {i + 1},{j + 1}"))
        self.sets = tuple(norm_sets)
        self.forbidden = norm_forb

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def n(self) -> int:
        return len(self.sets)

    @property
    def sizes(self) -> tuple:
        return tuple(len(A) for A in self.sets)

    @property
    def uniform_size(self):
        """Common |A_j| when the sizes are all equal, else None."""
        sizes = set(self.sizes)
        return sizes.pop() if len(sizes) == 1 else None

    @property
    def uniform_m(self):
        """Common |S_ij| when all forbidden sets have equal size, else None.

        A single-set instance has no pairs; its m is 0.
        """
        if self.n == 1:
            return 0
        ms = {len(S) for S in self.forbidden.values()}
        return ms.pop() if len(ms) == 1 else None

    def __eq__(self, other):
        if not isinstance(other, SumsetInstance):
            return NotImplemented
        return (self.p == other.p and self.sets == other.sets
                and self.forbidden == other.forbidden)

    def __repr__(self):
        return (f"SumsetInstance(p={self.p}, sizes={self.sizes}, "
                f"m={self.uniform_m})")


def uniform_forbidden(n: int, s_set) -> dict:
    """The forbidden map with S_ij = s_set for every ordered pair.  The
    elements must be non-bool ints (InstanceFormatError otherwise), checked
    before repeats merge, so that True cannot merge into 1 unseen."""
    S = frozenset(_checked_ints(s_set, "S", InstanceFormatError))
    return {(i, j): S for i in range(n) for j in range(n) if i != j}


# ----------------------------------------------------------------------
# Enumeration
# ----------------------------------------------------------------------

def _count_text(count: int) -> str:
    """A count for a BudgetExceeded message: in full up to 2^64, beyond that
    as a power of two, so that a message stays short and never converts an
    integer of more digits than ``int`` allows to a string."""
    if count.bit_length() <= 64:
        return str(count)
    return f"more than 2^{count.bit_length() - 1}"


def _check_sum_budget(size: int, m: int, budget: int) -> int:
    """The summand count n of :func:`coverage_check` for a size-set and
    |S| = m, refused when size^n tuples exceed the budget.  n >= 1 needs
    size >= m + 1 >= 2, so size^n > budget once n > budget.bit_length();
    the power is then never computed."""
    n = (size - 1 + m) // (2 * m)
    if n and (n > budget.bit_length() or size ** n > budget):
        raise BudgetExceeded(
            f"sums of {n} elements of a {size}-subset exceed the enumeration "
            f"budget of {budget} tuples"
        )
    return n


def _pair_differences(S, T, p: int) -> frozenset:
    """D = S u -T mod p: a_i - a_j lies in D exactly when a_i - a_j is in
    S or a_j - a_i is in T, so one membership test checks a pair (i, j)
    in both orientations, S = S_ij and T = S_ji."""
    return frozenset(S).union([(-t) % p for t in T])


def enumerate_restricted_sumset(inst: SumsetInstance, budget: int = DEFAULT_BUDGET) -> set:
    """The exact restricted sumset C, as a set of canonical residues.

    Depth-first over A_1 x ... x A_n; each new coordinate a_d is checked
    against every earlier a_i before descending, which prunes hard when
    forbidden sets are dense.  Both orientations of a pair constraint are
    one test, a_i - a_d mod p outside D_id = S_id u -S_di, built once per
    unordered pair; a pair with D_id empty constrains nothing and is not
    tested at all.  The last coordinate adds its sums where it is chosen.
    The walk stops as soon as C is all of Z/pZ: C holds at most p
    residues, so no later tuple can change the returned set.  The tuple
    count prod |A_j| must stay within the budget.
    """
    total = prod(inst.sizes)
    if total > budget:
        raise BudgetExceeded(
            f"{_count_text(total)} tuples exceed the enumeration budget of {budget}"
        )
    p = inst.p
    n = inst.n
    sets = inst.sets
    forbidden = inst.forbidden
    checks = [
        [(i, D) for i in range(d)
         if (D := _pair_differences(forbidden[i, d], forbidden[d, i], p))]
        for d in range(n)
    ]
    out = set()
    chosen = [0] * n
    last = n - 1

    def walk(d, acc):
        """Add the sums below this node; True once C = Z/pZ."""
        tests = checks[d]
        for a in sets[d]:
            for i, D in tests:
                if (chosen[i] - a) % p in D:
                    break
            else:
                if d == last:
                    out.add((acc + a) % p)
                    if len(out) == p:
                        return True
                else:
                    chosen[d] = a
                    if walk(d + 1, acc + a):
                        return True
        return False

    walk(0, 0)
    del walk  # the recursive closure is a reference cycle; free it now
    return out


# ----------------------------------------------------------------------
# Bound formulas with hypothesis checking
# ----------------------------------------------------------------------

class BoundEntry(namedtuple("BoundEntry", "name formula value hypothesis_met reason")):
    """One bound formula evaluated on an instance; ``value`` is None when
    the shape prerequisites fail."""

    __slots__ = ()


class BoundReport(namedtuple("BoundReport", "thm1 thm2 thm3 old")):
    """The four :class:`BoundEntry` values of :func:`compute_bounds`."""

    __slots__ = ()

    def entries(self):
        return (self.thm1, self.thm2, self.thm3, self.old)


_F1 = "n*(k-1) - m*n*(n-1) + 1"
_F2 = "sum(|A_j| - 1) - m*n*(n-1) + 1"
_F3 = "min(p, n*(k-1) - m*n*(n-1) + 1)"
_FOLD = "n*floor((p-1)/n) + 1"


def compute_bounds(inst: SumsetInstance) -> BoundReport:
    """Evaluate every bound formula and flag each one's hypothesis.

    Bounds whose shape prerequisites fail (non-uniform sizes where a
    common k is required, non-uniform forbidden sets) get value None;
    a computable bound whose arithmetic hypothesis fails keeps its value
    but has hypothesis_met False.  Never raises: inapplicable bounds are
    flagged, not thrown.
    """
    return _shape_bounds(inst.p, inst.sizes, inst.uniform_m)


def _shape_bounds(p: int, sizes: tuple, m: int | None) -> BoundReport:
    """The bound report for sets of these sizes with every |S_ij| = m
    (None: the |S_ij| differ).  The one place each hypothesis is stated."""
    n = len(sizes)
    k = sizes[0] if len(set(sizes)) == 1 else None

    if m is None:
        why = "forbidden-set sizes are not uniform"
        return BoundReport(*(BoundEntry(name, formula, None, False, why) for name, formula
                             in (("thm1", _F1), ("thm2", _F2), ("thm3", _F3), ("old", _FOLD))))

    deg = m * n * (n - 1)

    if k is None:
        why = "set sizes are not uniform"
        thm1 = BoundEntry("thm1", _F1, None, False, why)
        thm3 = BoundEntry("thm3", _F3, None, False, why)
        old = BoundEntry("old", _FOLD, None, False, why)
    else:
        v1 = n * (k - 1) - deg + 1
        need = max(n * (k - 1) - deg, m * n)
        thm1 = BoundEntry(
            "thm1", _F1, v1, p > need,
            f"p={p} {'>' if p > need else '<='} max(n(k-1)-mn(n-1), mn)={need}",
        )
        thm3 = BoundEntry(
            "thm3", _F3, min(p, v1), p > m * n,
            f"p={p} {'>' if p > m * n else '<='} mn={m * n}",
        )
        in_shrink = p > m * n and p <= n * (k - 1) - deg
        old = BoundEntry(
            "old", _FOLD, n * ((p - 1) // n) + 1, in_shrink,
            "p > mn and p <= n(k-1)-mn(n-1)" if in_shrink
            else f"needs p > mn={m * n} and p <= n(k-1)-mn(n-1)={n * (k - 1) - deg}",
        )

    if max(sizes) - min(sizes) <= 1:
        v2 = sum(sz - 1 for sz in sizes) - deg + 1
        need2 = max(m * n, sum(sz - 1 for sz in sizes) - deg)
        thm2 = BoundEntry(
            "thm2", _F2, v2, p > need2,
            f"p={p} {'>' if p > need2 else '<='} max(mn, sum(|A_j|-1)-mn(n-1))={need2}",
        )
    else:
        thm2 = BoundEntry(
            "thm2", _F2, None, False,
            "set sizes must lie within {k, k+1} for a single k",
        )

    return BoundReport(thm1, thm2, thm3, old)


# ----------------------------------------------------------------------
# Coefficient certificates
# ----------------------------------------------------------------------

class CertificateReport(namedtuple(
        "CertificateReport",
        "method coefficient_integer coefficient_mod_p claimed_bound certificate_valid")):
    """A nonvanishing-coefficient certificate for a sumset lower bound.

    certificate_valid means the coefficient is nonzero mod p, which
    proves |C| >= claimed_bound; a vanishing coefficient proves nothing
    (the bound may still hold).  ``method`` is "leading-form" or
    "literal-product"; ``coefficient_mod_p`` is the canonical residue
    in [0, p).
    """

    __slots__ = ()


def certificate_check(inst: SumsetInstance) -> CertificateReport:
    """Certificate for |C| >= sum(|A_j| - 1) - deg P + 1.

    P = prod_{i != j} prod_{s in S_ij} (x_i - x_j - s) has degree
    deg P = sum |S_ij|, and the target monomial prod x_j^{|A_j| - 1} has
    total degree deg P + E, so only the top-degree part
    prod_{i != j} (x_i - x_j)^{|S_ij|} of P reaches it; a nonzero
    coefficient mod p proves the bound by the Combinatorial
    Nullstellensatz.  The certificate therefore depends on the sizes
    |S_ij| only, and ``method`` just records whether they are uniform.
    Raises DegreeInfeasible when E would be negative.

    The coefficient takes one of two routes.  With every |S_ij| = m and
    the sizes in {k, k+1}, s of them k+1, it is Prop. 2.1's closed form
    :func:`key_coefficient_closed_form`, a product of n factorial ratios
    proved for k > m(n-1).  That covers every such shape with E >= 0:
    as k = min(sizes), s < n and E = n(k-1-m(n-1)) + s, which is >= 0
    exactly when k > m(n-1).  The infeasible ones are refused first, with
    the text :func:`key_coefficient` gives them.  Every other shape goes
    through :func:`key_coefficient`, by expansion.
    """
    m = inst.uniform_m
    sizes = inst.sizes
    k = min(sizes)
    if m is not None and max(sizes) - k <= 1:
        _key_multiplicities(sizes, m)  # DegreeInfeasible when E < 0
        coefficient = key_coefficient_closed_form(len(sizes), m, k, sizes.count(k + 1))
    else:
        mults = m if m is not None else {pair: len(S) for pair, S in inst.forbidden.items()}
        coefficient = key_coefficient(sizes, mults)
    claimed = sum(sz - 1 for sz in sizes) - sum(map(len, inst.forbidden.values())) + 1
    residue = coefficient % inst.p
    method = "leading-form" if m is not None else "literal-product"
    return CertificateReport(method, coefficient, residue, claimed, residue != 0)


# ----------------------------------------------------------------------
# Shrink construction
# ----------------------------------------------------------------------

def shrink_sizes(p: int, n: int, m: int, k: int) -> tuple:
    """Subset sizes in {k', k'+1} whose summed bound lands exactly on p.

    With k' = floor((p-1)/n) + m(n-1) + 1 and (p-1) mod n entries raised
    to k'+1, the sizes satisfy sum(sizes_j - 1) - m*n*(n-1) = p - 1 and
    never exceed k, so sets of these sizes exist inside any uniform
    size-k instance.  Only defined in the regime where shrinking is the
    right move: p <= n(k-1) - mn(n-1) and p > mn.
    """
    if p < 2 or n < 1 or m < 0 or k < 1:
        raise ParameterOutOfRange(f"bad parameters p={p}, n={n}, m={m}, k={k}")
    old = _shape_bounds(p, (k,) * n, m).old
    if not old.hypothesis_met:
        raise NotInShrinkRegime(old.reason)
    kp = (p - 1) // n + m * (n - 1) + 1
    r = (p - 1) % n
    return (kp + 1,) * r + (kp,) * (n - r)


# ----------------------------------------------------------------------
# Coverage threshold (sums of n pairwise-unrelated elements hit all of Z/pZ)
# ----------------------------------------------------------------------

def coverage_threshold(p: int, m: int) -> int:
    """Least |A| with (|A| + m - 1)^2 >= 4mp + 4m(m-3) + 2.

    Pure integer comparison via isqrt — no floating point, so the value
    is bit-exact everywhere.
    """
    if m < 1:
        raise ParameterOutOfRange(f"m must be >= 1, got {m}")
    if p < 2:
        raise ParameterOutOfRange(f"p must be >= 2, got {p}")
    q = 4 * m * p + 4 * m * (m - 3) + 2
    u = isqrt(q - 1) + 1  # least u with u*u >= q (q >= 2 here)
    return u - m + 1  # >= m + 1, since q > (2m - 1)^2 gives u >= 2m


class CoverageReport(namedtuple(
        "CoverageReport", "subset n threshold hypothesis_met covered missing")):
    """Outcome of :func:`coverage_check` on one subset."""

    __slots__ = ()


def _uniform_sums(p: int, S: tuple, A: tuple, n: int) -> set:
    """C for n copies of the sorted residue tuple A with S_ij = S on every
    ordered pair, as a set of residues; stops once C = Z/pZ.

    Both orientations of the pair test are checked, so a pair is allowed
    when a_i - a_j lies outside D = S u -S, a relation that is symmetric,
    and the sum does not depend on the order of the summands: C over
    ordered tuples is C over nondecreasing index tuples.  comp[i] holds
    the bits of the indices j >= i with A[j] - A[i] outside D (j = i only
    when 0 is outside D, so repeats are allowed exactly then), and each
    level of the walk narrows the allowed indices by one AND.  At most
    C(|A| + n - 1, n) tuples are visited.
    """
    if n == 0:
        return {0}  # the empty sum
    D = _pair_differences(S, S, p)
    size = len(A)
    comp = [sum(1 << j for j in range(i, size) if (A[j] - A[i]) % p not in D)
            for i in range(size)]
    out = set()
    last = n - 1

    def walk(depth, allowed, acc):
        """Add the sums below this node; True once C = Z/pZ."""
        if depth == last:
            while allowed:
                low = allowed & -allowed
                out.add((acc + A[low.bit_length() - 1]) % p)
                allowed ^= low
            return len(out) == p
        while allowed:
            low = allowed & -allowed
            j = low.bit_length() - 1
            if walk(depth + 1, allowed & comp[j], acc + A[j]):
                return True
            allowed ^= low
        return False

    walk(0, (1 << size) - 1, 0)
    del walk  # the recursive closure is a reference cycle; free it now
    return out


def coverage_check(p, s_set, a_set, budget: int = DEFAULT_BUDGET) -> CoverageReport:
    """Test whether sums of n elements of A (pairwise differences outside
    S) cover all of Z/pZ, with n = floor((|A| - 1 + m) / (2m)).

    S and A must hold non-bool ints in [0, p), repeats merged
    (ParameterOutOfRange otherwise), whatever n is.  Raises
    BudgetExceeded, before any tuple is visited, when the |A|^n tuples
    exceed the budget, and after the walk when the residues missing from
    C exceed it, before they are listed.

    With S = {0}, sums of n = 2 distinct elements of {0, ..., 4} reach
    every residue mod 7:

    >>> report = coverage_check(7, [0], range(5))
    >>> report.n, report.hypothesis_met, report.covered, report.missing
    (2, True, True, ())
    """
    p = p.p if isinstance(p, PrimeField) else PrimeField(p).p
    S = _canonical(s_set, p, "S", ParameterOutOfRange, merge=True)
    A = _canonical(a_set, p, "A", ParameterOutOfRange, merge=True)
    m = len(S)
    if m < 1:
        raise ParameterOutOfRange("S must be nonempty")
    if not A:
        raise ParameterOutOfRange("A must be nonempty")
    size = len(A)
    n = _check_sum_budget(size, m, budget)
    threshold = coverage_threshold(p, m)
    sumset = _uniform_sums(p, S, A, n)
    if p - len(sumset) > budget:
        raise BudgetExceeded(
            f"{_count_text(p - len(sumset))} missing residues exceed the budget of {budget}"
        )
    missing = tuple(r for r in range(p) if r not in sumset)
    return CoverageReport(A, n, threshold, size >= threshold, not missing, missing)


class CoverageSweepResult(namedtuple(
        "CoverageSweepResult", "p m s_set subset_size threshold mode rows")):
    """Outcome of :func:`coverage_sweep`: one :class:`CoverageReport` per
    subset in ``rows``, a tuple in sample mode and an :class:`OrbitRows`
    in exhaustive mode."""

    __slots__ = ()

    def failures(self):
        """Rows that would falsify the implementation: hypothesis met, not covered."""
        def failing(row):
            return row.hypothesis_met and not row.covered
        # every row of an orbit shares its orbit's verdict
        if type(self.rows) is OrbitRows and not any(map(failing, self.rows.orbits)):
            return []
        return [row for row in self.rows if failing(row)]


class OrbitRows:
    """The rows of an exhaustive sweep, made as they are read.

    ``orbits`` holds the report of each orbit's least subset, and
    ``codes[r]`` names the orbit of the subset of lexicographic rank r
    and a map x -> eps*x + t that carries the orbit's least subset onto
    it, as 1 + (2*orbit + [eps = -1])*p + t.  Iterating walks the subsets
    again, in step with ``codes``, and derives each row through its map:
    missing(eps*A + t) = eps*missing(A) + n*t.  The rows are made anew on
    every pass, so only the codes and the orbits' reports stay alive.
    """

    __slots__ = ("p", "size", "orbits", "codes")

    def __init__(self, p, size, orbits, codes):
        self.p, self.size, self.orbits, self.codes = p, size, orbits, codes

    def __len__(self):
        return len(self.codes)

    def __iter__(self):
        p, orbits = self.p, self.orbits
        for code, B in zip(self.codes, itertools.combinations(range(p), self.size)):
            q, t = divmod(code - 1, p)
            base = orbits[q >> 1]
            missing = base.missing
            if missing:
                eps, shift = -1 if q & 1 else 1, base.n * t
                missing = tuple(sorted([(eps * y + shift) % p for y in missing]))
            yield CoverageReport(B, base.n, base.threshold, base.hypothesis_met,
                                 base.covered, missing)


def _check_listed(listed: int, budget: int) -> None:
    """Refuse a sweep whose rows list more missing residues than the budget."""
    if listed > budget:
        raise BudgetExceeded(
            f"more than {budget} missing residues over the rows exceed the budget"
        )


def _orbit_table(field, S, size: int, count: int, budget: int) -> OrbitRows:
    """The exhaustive sweep's rows, as an :class:`OrbitRows`: one
    coverage_check per orbit, the least subset of each, and the code of
    every subset's orbit and map.  Raises BudgetExceeded once the missing
    residues that the rows will list exceed the budget."""
    p = field.p
    # 8 zeroed bytes per subset, read as int64 codes; a memoryview, since
    # the array module would be one more import on every run
    codes = memoryview(bytearray(8 * count)).cast("q")
    top = count - 1
    # A sorted subset B has rank top - sum_i C(p-1-B[i], size-i), and
    # B[i] lies in [i, p-size+i]; tabs[i][B[i] - i] holds that term.
    tabs = [[comb(p - 1 - x, size - i) for x in range(i, p - size + i + 1)]
            for i in range(size)]
    orbits = []
    listed = 0  # missing residues over the rows of the orbits so far
    for rank, A in enumerate(itertools.combinations(range(p), size)):
        if codes[rank]:
            continue
        row = coverage_check(field, S, A, budget)
        code = 1 + 2 * len(orbits) * p
        orbits.append(row)
        rows = 0
        for image in (A, tuple(sorted(-a % p for a in A))):
            # image + u, sorted, is image[cut:] + u - p then image[:cut] + u,
            # cut being the count of elements below p - u, so its element
            # at position i reads tabs[i] at rot[cut + i] + u + cut
            rot = [x - i - p for i, x in enumerate(image)]
            rot += [x - i - size for i, x in enumerate(image)]
            for u in range(p):
                cut = bisect.bisect_left(image, p - u)
                w = u + cut
                r = top - sum(map(list.__getitem__, tabs,
                                  [d + w for d in rot[cut:cut + size]]))
                if not codes[r]:
                    codes[r] = code + u
                    rows += 1
            code += p
        listed += rows * len(row.missing)
        _check_listed(listed, budget)
    return OrbitRows(p, size, orbits, codes)


def coverage_sweep(p: int, m: int, mode: str = "exhaustive", count: int = 50,
                   seed: int = 0, size: int | None = None, s_set=None,
                   budget: int = DEFAULT_BUDGET) -> CoverageSweepResult:
    """Run :func:`coverage_check` over many subsets A of a fixed size.

    The default size is the coverage threshold and the default S is
    {0, ..., m-1}; m > p and m < 1 are refused before S is read, and S
    must hold residues in [0, p).  Exhaustive mode walks all C(p, size)
    subsets (budget permitting); sample mode draws ``count`` subsets from
    the seeded generator (repeats possible).
    Either mode refuses more than ``budget`` subsets, before any is drawn.
    Every subset's check walks at most C(size + n - 1, n) nondecreasing
    tuples, n its summand count, but the budget still counts
    the size^n ordered ones, so a sweep whose subsets each exceed the
    budget is refused before any subset is drawn or any tuple visited.

    Only one subset per orbit of x -> eps*x + t (eps = +-1, t in Z/pZ)
    is checked in exhaustive mode.  This is exact.  Every ordered pair
    has the same S and the pair test runs in both orientations, so the
    constraint reads a_i - a_j not in S u -S, a set that negation maps
    onto itself and translation leaves alone.  Hence
    C(eps*A + t) = eps*C(A) + n*t, the missing residues move the same
    way, and n, the threshold and the hypothesis depend only on |A|.
    The walk runs in lexicographic order and marks every image of each
    orbit it checks, so a subset that is still unmarked is the least of
    a new orbit: it is checked, and its 2p images eps*A + t are marked,
    each at its lexicographic rank, with the orbit and its (eps, t).
    Under a stabilizer several (eps, t) give one image; the first is
    kept, and any of them gives the same row.  The sweep keeps one
    report per orbit and one 8-byte code per subset, and the rows, an
    :class:`OrbitRows`, are derived from them as they are read, in the
    order of the subsets, so the output is the same as checking each
    one.  Sample mode checks every drawn subset and keeps its rows: a
    sweep that draws one orbit twice checks it twice, and at a large p
    it could not hold the 2p images of each orbit.

    Raises BudgetExceeded once the missing residues listed over all
    rows exceed the budget; in exhaustive mode each orbit's rows count
    when it is checked, so every refusal comes before a row is read.
    """
    field = PrimeField(p)
    if m > p:
        raise ParameterOutOfRange(f"m={m} exceeds p={p}: S holds at most p residues")
    threshold = coverage_threshold(p, m)  # refuses m < 1
    S = _canonical(range(m) if s_set is None else s_set, p, "S",
                   ParameterOutOfRange, merge=True)
    if len(S) != m:
        raise ParameterOutOfRange(f"S={S} does not have size m={m}")
    if size is None and threshold > p:
        raise ParameterOutOfRange(f"coverage threshold {threshold} exceeds p={p}")
    size = threshold if size is None else size
    if not 1 <= size <= p:
        raise ParameterOutOfRange(f"subset size {size} not in [1, {p}]")
    if mode == "exhaustive":
        # C(p, size) = C(p, low) >= 2^low, as low <= p/2, so it exceeds
        # the budget once low >= budget.bit_length(); it is then never computed
        low = min(size, p - size)
        if low >= budget.bit_length() or (n_subsets := comb(p, low)) > budget:
            raise BudgetExceeded(
                f"more than {budget} subsets of size {size} exceed the budget"
            )
    elif mode == "sample":
        if count < 0:
            raise ParameterOutOfRange(f"count must be >= 0, got {count}")
        if count > budget:
            raise BudgetExceeded(
                f"{_count_text(count)} subsets of size {size} exceed the budget of {budget}"
            )
        n_subsets = count
    else:
        raise ParameterOutOfRange(f"mode must be 'exhaustive' or 'sample', got {mode!r}")
    if n_subsets:
        _check_sum_budget(size, m, budget)
    if mode == "exhaustive":
        rows = _orbit_table(field, S, size, n_subsets, budget)
    else:
        rng = SplitMix64(seed)
        listed = 0  # missing residues in the rows so far
        rows = []
        for _ in range(count):
            row = coverage_check(field, S, rng.sample(p, size), budget)
            listed += len(row.missing)
            _check_listed(listed, budget)
            rows.append(row)
        rows = tuple(rows)
    return CoverageSweepResult(p, m, S, size, threshold, mode, rows)


# ----------------------------------------------------------------------
# Seeded instance generation
# ----------------------------------------------------------------------

class SplitMix64:
    """Deterministic 64-bit stream with a fixed, portable recurrence.

    state   = (state + 0x9E3779B97F4A7C15) mod 2^64
    z       = state
    z       = ((z >> 30) xor z) * 0xBF58476D1CE4E5B9 mod 2^64
    z       = ((z >> 27) xor z) * 0x94D049BB133111EB mod 2^64
    output  = (z >> 31) xor z

    Bounded draws reduce the 64-bit output modulo the bound; the bias is
    irrelevant at desk scale and the arithmetic reproduces everywhere.
    """

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        if bound < 1:
            raise ValueError(f"bound must be >= 1, got {bound}")
        return self.next64() % bound

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def sample(self, population_size: int, count: int) -> tuple:
        """``count`` distinct values from range(population_size), sorted.

        Partial Fisher-Yates: the first ``count`` slots of a shuffle of
        range(population_size).  Slot i is final once step i swaps it with
        slot j, so only the slots swapped forward are stored (a slot absent
        from ``moved`` still holds its own index): time and memory are
        O(count) whatever the population.
        """
        if not 0 <= count <= population_size:
            raise ValueError(
                f"cannot sample {count} from a population of {population_size}"
            )
        moved, picked = {}, []
        for i in range(count):
            j = i + self.below(population_size - i)
            picked.append(moved.get(j, j))
            moved[j] = moved.get(i, i)
        return tuple(sorted(picked))


def parameter_hypothesis_met(enforce: str, p: int, n: int, k: int, m: int) -> bool:
    """Hypothesis of the named bound for a uniform instance.

    These conditions depend only on (p, n, k, m) — never on which
    elements get sampled — so they can be decided before generation.
    """
    if enforce not in HYPOTHESIS_CHOICES:
        raise ValueError(f"enforce must be one of {HYPOTHESIS_CHOICES}, got {enforce!r}")
    if n < 1:
        raise ParameterOutOfRange(f"n must be >= 1, got {n}")
    return enforce == "none" or getattr(_shape_bounds(p, (k,) * n, m), enforce).hypothesis_met


def _draw_instance(rng: SplitMix64, field: PrimeField, n: int, k: int,
                   m: int) -> SumsetInstance:
    """Uniform instance drawn from ``rng``: A_1..A_n first (each a sorted
    k-subset of Z/pZ), then S_ij in ascending (i, j) order.  The caller
    has checked the parameters."""
    p = field.p
    sets = [rng.sample(p, k) for _ in range(n)]
    forbidden = {
        (i, j): rng.sample(p, m)
        for i in range(n) for j in range(n) if i != j
    }
    return SumsetInstance(field, sets, forbidden)


def random_instance(seed: int, p: int, n: int, k: int, m: int,
                    enforce: str = "none") -> SumsetInstance:
    """Deterministic uniform instance from a seed.

    All draws come from one SplitMix64 stream, so the same seed always
    yields the same instance.  Nothing is drawn unless p, n, k, m are in
    range and the enforced hypothesis holds.  Because the enforced
    hypotheses depend only on (p, n, k, m), an unsatisfiable request
    fails immediately — resampling the elements could never help.
    """
    field = PrimeField(p)
    if n < 1:
        raise ParameterOutOfRange(f"n must be >= 1, got {n}")
    if not 1 <= k <= p:
        raise ParameterOutOfRange(f"k must lie in [1, {p}], got {k}")
    if not 0 <= m <= p:
        raise ParameterOutOfRange(f"m must lie in [0, {p}], got {m}")
    if not parameter_hypothesis_met(enforce, p, n, k, m):
        raise CannotSatisfyHypothesis(
            f"hypothesis {enforce!r} fails for p={p}, n={n}, k={k}, m={m} "
            "and does not depend on the sampled elements"
        )
    return _draw_instance(SplitMix64(seed), field, n, k, m)


# ----------------------------------------------------------------------
# Per-instance pipeline and experiment harness
# ----------------------------------------------------------------------

class InstanceAnalysis(namedtuple(
        "InstanceAnalysis", "sumset bounds certificate degree_infeasible violations")):
    """Everything :func:`analyze` learns about one instance.

    ``sumset`` is C in ascending order; ``certificate`` is a
    :class:`CertificateReport`, or None when the certificate was
    skipped, and then ``degree_infeasible`` holds the DegreeInfeasible
    message (else None).
    """

    __slots__ = ()


def analyze(inst: SumsetInstance, budget: int = DEFAULT_BUDGET) -> InstanceAnalysis:
    """The per-instance pipeline: enumerate C, evaluate the bounds, try
    the certificate, and record every |C| < bound event as a violation.

    Only bounds whose hypothesis holds and certificates that are valid
    can be violated.  Raises BudgetExceeded from the enumeration.
    """
    sumset = tuple(sorted(enumerate_restricted_sumset(inst, budget)))
    cardinality = len(sumset)
    bounds = compute_bounds(inst)
    certificate = infeasible = None
    try:
        certificate = certificate_check(inst)
    except DegreeInfeasible as exc:
        infeasible = str(exc)
    violations = [
        f"cardinality {cardinality} < {entry.name} bound {entry.value}"
        for entry in bounds.entries()
        if entry.hypothesis_met and entry.value is not None and cardinality < entry.value
    ]
    if certificate is not None and certificate.certificate_valid \
            and cardinality < certificate.claimed_bound:
        violations.append(
            f"cardinality {cardinality} < certified bound {certificate.claimed_bound}"
        )
    return InstanceAnalysis(sumset, bounds, certificate, infeasible, tuple(violations))


class ExperimentTrial(namedtuple("ExperimentTrial", "index p n k m analysis")):
    """One trial of :func:`run_experiment` and its :class:`InstanceAnalysis`."""

    __slots__ = ()

    @property
    def sound(self) -> bool:
        return not self.analysis.violations


_MAX_RETRIES = 1000


def run_experiment(seed: int, trials: int, p_set, n_set, m_set, k_max: int,
                   enforce: str = "none", budget: int = DEFAULT_BUDGET) -> list:
    """Seeded soundness sweep; one ExperimentTrial per trial.

    Per trial the stream draws p, n, m, k in that order (k uniform on
    [1, min(k_max, p)]); parameter tuples failing the enforced hypothesis
    are redrawn (at most _MAX_RETRIES times), each redraw consuming
    stream output, so the whole run is a pure function of its arguments.
    Every accepted instance goes through :func:`analyze`.  The seed,
    trials, k_max and every listed p, n and m must be non-bool ints, and
    each listed value is checked before the first draw, each p once;
    m <= p is checked per draw, since it depends on the drawn p.
    """
    if enforce not in HYPOTHESIS_CHOICES:
        raise ValueError(f"enforce must be one of {HYPOTHESIS_CHOICES}, got {enforce!r}")
    _checked_ints((seed, trials, k_max), "seed, trials and k_max", ParameterOutOfRange)
    if trials < 0:
        raise ParameterOutOfRange(f"trials must be >= 0, got {trials}")
    if k_max < 1:
        raise ParameterOutOfRange(f"k_max must be >= 1, got {k_max}")
    p_choices = sorted(set(_checked_ints(p_set, "p_set", ParameterOutOfRange)))
    n_choices = sorted(set(_checked_ints(n_set, "n_set", ParameterOutOfRange)))
    m_choices = sorted(set(_checked_ints(m_set, "m_set", ParameterOutOfRange)))
    if not (p_choices and n_choices and m_choices):
        raise ParameterOutOfRange("parameter ranges must be nonempty")
    # OutOfRange or NotPrime, whether or not p is drawn
    fields = {p: PrimeField(p) for p in p_choices}
    if n_choices[0] < 1:
        raise ParameterOutOfRange(f"n must be >= 1, got {n_choices[0]}")
    if m_choices[0] < 0:
        raise ParameterOutOfRange(f"m must be >= 0, got {m_choices[0]}")
    rng = SplitMix64(seed)
    rows = []
    for t in range(trials):
        for _ in range(_MAX_RETRIES):
            p = rng.choice(p_choices)
            n = rng.choice(n_choices)
            m = rng.choice(m_choices)
            k = 1 + rng.below(min(k_max, p))
            if parameter_hypothesis_met(enforce, p, n, k, m):
                break
        else:
            raise CannotSatisfyHypothesis(
                f"no (p, n, k, m) draw satisfied {enforce!r} in {_MAX_RETRIES} tries"
            )
        if m > p:
            raise ParameterOutOfRange(f"m must lie in [0, {p}], got {m}")
        analysis = analyze(_draw_instance(rng, fields[p], n, k, m), budget)
        rows.append(ExperimentTrial(t, p, n, k, m, analysis))
    return rows


# ----------------------------------------------------------------------
# Instance documents
# ----------------------------------------------------------------------

def instance_to_dict(inst: SumsetInstance) -> dict:
    """Canonical document: sets sorted ascending, forbidden keyed "i,j"
    with 1-based indices, empty forbidden sets omitted."""
    forbidden = {}
    for (i, j) in sorted(inst.forbidden):
        S = inst.forbidden[i, j]
        if S:
            forbidden[f"{i + 1},{j + 1}"] = sorted(S)
    return {
        "p": inst.p,
        "sets": [list(A) for A in inst.sets],
        "forbidden": forbidden,
    }


def instance_from_dict(doc) -> SumsetInstance:
    """Parse and validate an instance document.

    Checks the document's shape (the object, its fields, the lists, and
    the spelling, range and uniqueness of the forbidden keys); the
    elements are left to :class:`SumsetInstance`.  Raises
    InstanceFormatError on either and NotPrime/OutOfRange on a bad modulus.
    """
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"expected an object, got {type(doc).__name__}")
    unknown = set(doc) - {"p", "sets", "forbidden"}
    if unknown:
        raise InstanceFormatError(f"unknown fields {sorted(unknown)}")
    if "p" not in doc or "sets" not in doc:
        raise InstanceFormatError("fields 'p' and 'sets' are required")
    p = doc["p"]
    if not isinstance(p, int) or isinstance(p, bool):
        raise InstanceFormatError(f"'p' must be an integer, got {p!r}")
    sets = doc["sets"]
    if not isinstance(sets, list) or not sets:
        raise InstanceFormatError("'sets' must be a nonempty list of integer lists")
    for idx, A in enumerate(sets):
        if not isinstance(A, list):
            raise InstanceFormatError(f"set {idx + 1} must be a list of integers")
    n = len(sets)
    forbidden = {}
    raw_forbidden = doc.get("forbidden", {})
    if not isinstance(raw_forbidden, dict):
        raise InstanceFormatError("'forbidden' must be an object keyed \"i,j\"")
    for key, S in raw_forbidden.items():
        parts = key.split(",") if isinstance(key, str) else []
        if len(parts) != 2 or not all(
            part.isascii() and part.strip().isdigit() for part in parts
        ):
            raise InstanceFormatError(f"bad forbidden key {key!r}, expected \"i,j\"")
        i, j = (int(part) for part in parts)
        if not (1 <= i <= n and 1 <= j <= n) or i == j:
            raise InstanceFormatError(
                f"forbidden key {key!r} must name two distinct sets in 1..{n}"
            )
        if (i - 1, j - 1) in forbidden:
            raise InstanceFormatError(f"forbidden key {key!r} repeats the pair {i},{j}")
        if not isinstance(S, list):
            raise InstanceFormatError(f"forbidden set {key!r} must be a list of integers")
        forbidden[(i - 1, j - 1)] = S
    return SumsetInstance(p, sets, forbidden)


def _unique_keys(pairs) -> dict:
    """``object_pairs_hook`` for json.load: a JSON object that names one key
    twice is malformed, rather than silently keeping the last value."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise InstanceFormatError(f"key {key!r} appears twice in one object")
        doc[key] = value
    return doc


def load_instance(path) -> SumsetInstance:
    """Read an instance document from a JSON file.

    Undecodable or malformed text, nesting too deep for the parser and an
    integer literal past the interpreter's digit limit all raise
    InstanceFormatError.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle, object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError) as exc:  # ValueError covers JSON and UTF-8 errors
            raise InstanceFormatError(f"not valid JSON: {exc}") from exc
    return instance_from_dict(doc)
