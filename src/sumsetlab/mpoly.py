"""Exact coefficients of products of variable differences.

Every polynomial coefficient the package needs has one shape: the
coefficient of a monomial x^t in

    prod (x_i - x_j)^e  *  (x_0 + x_1 + ... + x_{n-1})^E

over a list of ordered pairs (i, j) with multiplicities e, where the
balancing power E makes the product homogeneous of degree sum(t).  The
key coefficient of the Combinatorial Nullstellensatz certificate has
this shape, and the Dyson, Zeilberger and Aomoto constant terms reach
it after clearing denominators (see ``identities``).
:func:`difference_coeff` computes it in exact integer arithmetic:
coefficients are Python ints, so there is no overflow and no modular
shortcut; reduction mod p, when wanted, happens in the caller.

The engine never builds a polynomial.  It merges each ordered pair with
its reverse, expands one binomial per unordered pair, keeps only the
partial terms that can still reach the target, and contracts the power
of the variable sum with multinomial coefficients instead of expanding
it.
"""

from math import comb, factorial


def difference_coeff(nvars, mults, target) -> int:
    """[x^target] prod (x_i - x_j)^e (x_0 + ... + x_{nvars-1})^E

    over the entries ((i, j), e) of ``mults``, with the balancing
    exponent E = sum(target) - sum(e).  E < 0 raises ValueError, as do a
    negative multiplicity, a pair that is not two distinct indices in
    0..nvars-1 and a target of the wrong length; a target with a
    negative entry has coefficient 0.

    The steps, each exact:

    1. Merge.  (x_i - x_j)^a (x_j - x_i)^b = (-1)^b (x_i - x_j)^(a+b),
       so every ordered pair joins its reverse as one unordered pair
       i < j, and the signs of the reversed entries multiply into one
       global sign.
    2. Expand.  The merged pairs go in a stable sort by their lowest
       index, which closes one variable after another, and each is one
       binomial step: a partial term e times
       (x_i - x_j)^a = sum_k C(a, k) (-1)^(a-k) x_i^k x_j^(a-k).
    3. Prune.  For the product B of everything still to come (the power
       of the variable sum included), [x^t] A B = sum_e [x^e]A [x^(t-e)]B,
       and [x^d]B = 0 unless 0 <= d_v <= r_v at every variable v, with
       r_v the multiplicities of the pairs of B at v plus E.  So a term
       with e_v > t_v (the ceiling) or e_v < t_v - r_v (the floor) adds
       nothing.  A step moves only x_i and x_j, so for a partial term e
       the admissible powers k of x_i form one interval,

           max(0, floor_i - e_i, a - (t_j - e_j))
               <= k <= min(a, t_i - e_i, a - (floor_j - e_j)),

       and no candidate term outside it is ever built.
    4. Contract.  By the multinomial theorem the coefficient of x^d in
       (x_0 + ... + x_{n-1})^E is E!/prod d_v! for every d >= 0 with
       sum(d) = E.  Every surviving term e has degree sum(t) - E and
       e <= t, so the result is sum_e [x^e]A * E!/prod_v (t_v - e_v)!.

    >>> difference_coeff(2, [((0, 1), 2)], (2, 2))  # (x0-x1)^2 (x0+x1)^2
    -2
    >>> difference_coeff(2, [((0, 1), 1), ((1, 0), 1)], (1, 1))
    2
    >>> difference_coeff(3, [], (1, 1, 0))  # 2 x0 x1 in (x0+x1+x2)^2
    2
    """
    target = tuple(int(t) for t in target)
    if len(target) != nvars:
        raise ValueError(f"target {target} has length {len(target)}, expected {nvars}")
    merged = {}  # (i, j) with i < j -> multiplicity, in first-seen order
    negate = 0
    for (i, j), e in mults:
        i, j, e = int(i), int(j), int(e)
        if e < 0:
            raise ValueError(f"multiplicity must be >= 0, got {e} for pair {(i, j)}")
        if not (0 <= i < nvars and 0 <= j < nvars) or i == j:
            raise ValueError(f"pair {(i, j)} is not two distinct indices below {nvars}")
        if i > j:
            i, j = j, i
            negate ^= e & 1
        merged[i, j] = merged.get((i, j), 0) + e
    power = sum(target) - sum(merged.values())
    if power < 0:
        raise ValueError(
            f"the balancing exponent must be >= 0, got {power}: "
            f"sum(target) = {sum(target)} < sum of multiplicities"
        )
    if any(t < 0 for t in target):
        return 0
    pairs = sorted(((ij, a) for ij, a in merged.items() if a), key=lambda pair: pair[0][0])
    room = [power] * nvars  # r_v: the most the steps still to come add to x_v
    for (i, j), a in pairs:
        room[i] += a
        room[j] += a
    if any(r < t for r, t in zip(room, target)):
        return 0
    acc = {(0,) * nvars: 1}
    for (i, j), a in pairs:
        room[i] -= a
        room[j] -= a
        ti, tj = target[i], target[j]
        floor_i, floor_j = ti - room[i], tj - room[j]
        row = [comb(a, k) if (a - k) % 2 == 0 else -comb(a, k) for k in range(a + 1)]
        out = {}
        for e, c in acc.items():
            ei, ej = e[i], e[j]
            lo = max(0, floor_i - ei, a - tj + ej)
            hi = min(a, ti - ei, a - floor_j + ej)
            if lo > hi:
                continue
            head, mid, tail = e[:i], e[i + 1:j], e[j + 1:]
            for k in range(lo, hi + 1):
                key = head + (ei + k,) + mid + (ej + a - k,) + tail
                v = out.get(key, 0) + c * row[k]
                if v:
                    out[key] = v
                elif key in out:
                    del out[key]
        acc = out
        if not acc:
            return 0
    if power:
        numerator = factorial(power)
        facts = {}  # d -> d!, only for the gaps t_v - e_v that occur
        coefficient = 0
        for e, c in acc.items():
            denominator = 1
            for v, t in zip(e, target):
                f = facts.get(t - v)
                if f is None:
                    f = facts[t - v] = factorial(t - v)
                denominator *= f
            coefficient += c * (numerator // denominator)
    else:
        coefficient = acc.get(target, 0)
    return -coefficient if negate else coefficient
