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
partial terms that can still reach the target, and folds each variable
out as soon as its last pair is expanded, with one binomial coefficient
per term in place of the power of the variable sum.  It never expands
that power and never computes E!.
"""

from math import comb


def _checked_ints(values, name: str, error=ValueError) -> tuple:
    """``values`` as a tuple, each a non-bool int, else ``error`` with a
    text that names ``name``: the one type check of parameters and set
    elements, made before anything is hashed or sorted."""
    values = tuple(values)
    for x in values:
        if not isinstance(x, int) or isinstance(x, bool):
            raise error(f"{name} must hold integers, got {x!r}")
    return values


def difference_coeff(nvars, mults, target) -> int:
    """[x^target] prod (x_i - x_j)^e (x_0 + ... + x_{nvars-1})^E

    over the entries ((i, j), e) of ``mults``, with the balancing
    exponent E = sum(target) - sum(e).  E < 0 raises ValueError, as do an
    index, multiplicity or target entry that is not a non-bool int, a
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
    4. Fold.  By the multinomial theorem the coefficient of x^d in
       (x_0 + ... + x_{n-1})^E is E!/prod d_v! for every d >= 0 with
       sum(d) = E, and E!/prod_v d_v! = prod_v C(P_v + d_v, d_v) over
       the variables in any order, with P_v the sum of the d's before
       v.  Once the last pair at x_v is expanded, e_v is final, and so
       is d_v = t_v - e_v: the term is multiplied by C(P + d_v, d_v),
       with P the sum of the d's of the variables already closed, e_v
       is cleared and P grows by d_v.  A variable that no pair touches
       closes before the first step.  The exponents of a term add up
       to the multiplicities expanded so far, so P = sum of t_v over
       the closed variables - those multiplicities + the open
       exponents: terms with equal open exponents carry equal P, and
       the terms that coincide once e_v is cleared merge.  P only grows
       and ends at sum(d) = E, so a term with P > E is dropped.  When
       every variable is closed, one term is left, with P = E, and its
       coefficient is the answer.  With E = 0 no fold runs: the floors
       already force e_v = t_v as x_v closes, so every fold would
       multiply by C(0, 0) = 1 and merge nothing, and the answer is
       read at the key of t itself.
    5. Pack.  A partial term is one int: P in the lowest bits, then one
       field per variable wide enough for t_v.  No field leaves its
       range (e_v <= t_v, P <= E), so a step that gives x_i one more
       power and x_j one fewer adds one constant to the key.

    >>> difference_coeff(2, [((0, 1), 2)], (2, 2))  # (x0-x1)^2 (x0+x1)^2
    -2
    >>> difference_coeff(2, [((0, 1), 1), ((1, 0), 1)], (1, 1))
    2
    >>> difference_coeff(3, [], (1, 1, 0))  # 2 x0 x1 in (x0+x1+x2)^2
    2
    >>> difference_coeff(3, [((0, 1), 1)], (2, 1, 1))  # x2 is in no pair
    3
    """
    target = _checked_ints(target, "target")
    if len(target) != nvars:
        raise ValueError(f"target {target} has length {len(target)}, expected {nvars}")
    merged = {}  # (i, j) with i < j -> multiplicity, in first-seen order
    negate = 0
    for (i, j), e in mults:
        _checked_ints((i, j, e), "pairs and multiplicities")
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
    last = [-1] * nvars  # the step after which x_v closes; -1 for no pair
    for step, ((i, j), a) in enumerate(pairs):
        room[i] += a
        room[j] += a
        last[i] = last[j] = step
    if any(r < t for r, t in zip(room, target)):
        return 0
    shift = []  # the lowest bit of x_v's field; P fills the bits below the first
    width = power.bit_length()
    for t in target:
        shift.append(width)
        width += t.bit_length()
    acc = _fold({0: 1}, [v for v, step in enumerate(last) if step < 0], target, shift, power)
    for step, ((i, j), a) in enumerate(pairs):
        room[i] -= a
        room[j] -= a
        ti, tj = target[i], target[j]
        floor_i, floor_j = ti - room[i], tj - room[j]
        si, sj = shift[i], shift[j]
        mi, mj = (1 << ti.bit_length()) - 1, (1 << tj.bit_length()) - 1
        up_j = a << sj  # k = 0 gives x_j all a powers
        move = (1 << si) - (1 << sj)  # each k moves one power from x_j to x_i
        row = [comb(a, k) if (a - k) % 2 == 0 else -comb(a, k) for k in range(a + 1)]
        out = {}
        for key, c in acc.items():
            ei, ej = key >> si & mi, key >> sj & mj
            lo = max(0, floor_i - ei, a - tj + ej)
            hi = min(a, ti - ei, a - floor_j + ej)
            if lo > hi:
                continue
            key += up_j + lo * move
            for k in range(lo, hi + 1):
                v = out.get(key, 0) + c * row[k]
                if v:
                    out[key] = v
                elif key in out:
                    del out[key]
                key += move
        acc = _fold(out, [v for v in (i, j) if last[v] == step], target, shift, power)
        if not acc:
            return 0
    final = power if power else sum(t << s for t, s in zip(target, shift))
    coefficient = acc.get(final, 0)
    return -coefficient if negate else coefficient


def _fold(acc, closing, target, shift, power):
    """Step 4 of :func:`difference_coeff`: fold the variables ``closing``
    out of every packed term of ``acc``, one after another.  With E = 0
    a fold changes no coefficient and merges no terms, so none runs."""
    if not power:
        return acc
    pmask = (1 << power.bit_length()) - 1
    for v in closing:
        t, s = target[v], shift[v]
        mask = (1 << t.bit_length()) - 1
        out = {}
        for key, c in acc.items():
            e = key >> s & mask
            d = t - e
            p = (key & pmask) + d
            if p > power:
                continue
            key += d - (e << s)
            c = out.get(key, 0) + c * comb(p, d)
            if c:
                out[key] = c
            elif key in out:
                del out[key]
        acc = out
    return acc
