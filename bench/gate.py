"""Correctness gate for the outputs of one pass, run outside the timed region.

An item fails when its exit code is not 0, when a self-check field of its
doc output does not hold (``all_agree``, ``violations_total == 0``,
``failures == 0``, no violations, no budget skip), or when an independent
recheck of a seeded sample of its rows disagrees:

- |C| and the ``missing`` residues, by brute-force ``itertools.product``
  enumeration written here;
- experiment rows, against a replay of the CLI's seeded draws;
- certificates whose sizes lie within {k, k+1} with k > m(n-1), against
  ``key_coefficient_closed_form`` (a factorial formula, not an expansion);
- Dyson rows, against the multinomial coefficient computed here.
"""

import itertools
import json
from math import comb, factorial

from workloads import experiment_trials, stream

# rows rechecked per item; for ``sumset``, items rechecked per pass
RECHECK_ROWS = {"experiment": 1, "thm4-exhaustive": 20, "thm4-sample": 1, "sumset": 3}


class Miss(Exception):
    """One failed check; the message says which."""


def _require(condition, message):
    if not condition:
        raise Miss(message)


def _flags(argv):
    return {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}


# ----------------------------------------------------------------------
# brute force
# ----------------------------------------------------------------------

def brute_sumset(p, sets, forbidden):
    """{a_1 + ... + a_n : a_j in A_j, a_i - a_j not in S_ij} by full enumeration.

    ``forbidden`` maps 0-based ordered pairs (i, j) to residue collections.
    """
    n = len(sets)
    pairs = [(i, j, frozenset(forbidden[i, j])) for i in range(n) for j in range(n)
             if i != j and forbidden.get((i, j))]
    out = set()
    for tup in itertools.product(*sets):
        if all((tup[i] - tup[j]) % p not in S for i, j, S in pairs):
            out.add(sum(tup) % p)
    return out


def multinomial(avec):
    out = factorial(sum(avec))
    for a in avec:
        out //= factorial(a)
    return out


# ----------------------------------------------------------------------
# certificates
# ----------------------------------------------------------------------

def _check_certificate(p, sizes, msizes, cert, skip_reason, cardinality):
    n = len(sizes)
    balance = sum(k - 1 for k in sizes) - sum(msizes)
    if balance < 0:
        _require(cert is None, "certificate reported though deg P exceeds sum(|A_j|-1)")
        return
    _require(cert is not None, f"certificate skipped: {skip_reason}")
    uniform = len(set(msizes)) <= 1
    _require(cert["method"] == ("leading-form" if uniform else "literal-product"),
             f"unexpected certificate method {cert['method']}")
    _require(cert["claimed_bound"] == balance + 1,
             f"claimed bound {cert['claimed_bound']} != {balance + 1}")
    _require(cert["coefficient_mod_p"] == cert["coefficient"] % p,
             "coefficient_mod_p is not the coefficient reduced mod p")
    _require(cert["valid"] == (cert["coefficient_mod_p"] != 0),
             "valid flag does not match the coefficient mod p")
    if cert["valid"]:
        _require(cardinality >= cert["claimed_bound"],
                 f"|C| = {cardinality} below the certified bound {cert['claimed_bound']}")
    m = msizes[0] if msizes else 0
    k = min(sizes)
    if uniform and max(sizes) - k <= 1 and k > m * (n - 1):
        from sumsetlab.identities import key_coefficient_closed_form
        expected = key_coefficient_closed_form(n, m, k, sizes.count(k + 1))
        _require(cert["coefficient"] == expected,
                 f"coefficient {cert['coefficient']} != closed form {expected}")


# ----------------------------------------------------------------------
# per-command checks
# ----------------------------------------------------------------------

_IDENTITY_DEFAULTS = {
    "--max-vars": 4, "--max-entry": 2, "--max-n": 3, "--max-a": 2, "--max-b": 2,
    "--max-s": 2, "--fix-n": 2, "--min-n": 2, "--k-span": 4,
}


def identity_grid_size(argv):
    """Rows the CLI must report for an ``identities`` argv."""
    scope = argv[1]
    f = {key: int(_flags(argv).get(key, default)) for key, default in _IDENTITY_DEFAULTS.items()}
    max_m = int(_flags(argv).get("--max-m", 2 if scope == "prop21" else 1))
    if scope in ("dyson", "zeilberger"):
        return sum((f["--max-entry"] + 1) ** nv for nv in range(2, f["--max-vars"] + 1))
    if scope == "aomoto":
        return (sum(n + 1 for n in range(1, f["--max-n"] + 1))
                * (f["--max-a"] + 1) * (f["--max-b"] + 1) * (max_m + 1))
    if scope == "lemma22":
        return ((f["--max-b"] + 1) * (min(f["--max-s"], f["--fix-n"]) + 1) * (max_m + 1))
    return sum(max_m * f["--k-span"] * (n + 1)
               for n in range(f["--min-n"], f["--max-n"] + 1))


def _check_identities(argv, doc, rng, deep):
    _require(doc["all_agree"] is True, "all_agree is not true")
    _require(doc["first_failure"] is None, f"first_failure: {doc['first_failure']}")
    _require(len(doc["rows"]) == identity_grid_size(argv),
             f"{len(doc['rows'])} rows, expected {identity_grid_size(argv)}")
    for row in doc["rows"]:
        if "avec" in row:
            _require(row["constant_term"] == multinomial(row["avec"]),
                     f"Dyson constant term at {row['avec']} is not the multinomial")


def _check_thm4(argv, doc, rng, deep):
    f = _flags(argv)
    p, m = int(f["--p"]), int(f["--m"])
    cfg = doc["config"]
    S = frozenset(cfg["forbidden"])
    _require(doc["failures"] == 0, f"{doc['failures']} coverage failures")
    _require(cfg["p"] == p and cfg["m"] == m and len(S) == m, "config does not echo the argv")
    if "--forbidden" in f:
        _require(sorted(S) == sorted(int(x) for x in f["--forbidden"].split(",")),
                 "forbidden set does not echo the argv")
    size = cfg["subset_size"]
    sample = f.get("--mode") == "sample"
    expected = int(f["--count"]) if sample else comb(p, size)
    _require(doc["subsets_tested"] == len(doc["rows"]) == expected,
             f"{len(doc['rows'])} subsets tested, expected {expected}")
    for row in doc["rows"]:
        _require(len(row["subset"]) == size, f"subset {row['subset']} has the wrong size")
        _require(row["covered"] == (not row["missing"]), "covered flag contradicts missing")
    picks = RECHECK_ROWS["thm4-sample" if sample else "thm4-exhaustive"]
    for _ in range(picks):
        row = doc["rows"][rng.below(len(doc["rows"]))]
        A = row["subset"]
        n = (len(A) - 1 + m) // (2 * m)
        _require(row["n"] == n, f"n = {row['n']} for |A| = {len(A)}, expected {n}")
        if n == 0:
            sums = {0}
        else:
            sums = brute_sumset(p, [A] * n, {(i, j): S for i in range(n)
                                             for j in range(n) if i != j})
        missing = sorted(set(range(p)) - sums)
        _require(row["missing"] == missing,
                 f"subset {A}: missing {row['missing']}, brute force gives {missing}")


def _check_experiment(argv, doc, rng, deep):
    f = _flags(argv)
    trials = list(experiment_trials(
        int(f["--seed"]), int(f["--trials"]),
        [int(x) for x in f["--p-set"].split(",")], [int(x) for x in f["--n-set"].split(",")],
        [int(x) for x in f["--m-set"].split(",")], int(f["--k-max"])))
    rows = doc["rows"]
    _require(doc["violations_total"] == 0, f"violations_total = {doc['violations_total']}")
    _require(len(rows) == len(trials), f"{len(rows)} rows for {len(trials)} trials")
    for row, (p, n, m, k, sets, forbidden) in zip(rows, trials):
        _require((row["p"], row["n"], row["k"], row["m"]) == (p, n, k, m),
                 f"trial {row['trial']} is not the replayed draw {(p, n, k, m)}")
        _require(not row["violations"], f"trial {row['trial']}: {row['violations']}")
        _check_certificate(p, [k] * n, [m] * (n * (n - 1)), row["certificate"],
                           row["certificate_skip_reason"], row["cardinality"])
    for _ in range(min(RECHECK_ROWS["experiment"], len(rows))):
        idx = rng.below(len(rows))
        p, n, m, k, sets, forbidden = trials[idx]
        brute = len(brute_sumset(p, sets, forbidden))
        _require(rows[idx]["cardinality"] == brute,
                 f"trial {idx}: |C| = {rows[idx]['cardinality']}, brute force gives {brute}")


def _check_sumset(argv, doc, rng, deep):
    with open(argv[1], "r", encoding="utf-8") as handle:
        src = json.load(handle)
    p, sets = src["p"], src["sets"]
    n = len(sets)
    forbidden = {}
    for key, S in src["forbidden"].items():
        i, j = (int(x) - 1 for x in key.split(","))
        forbidden[i, j] = S
    inst = doc["instance"]
    _require(inst["p"] == p and inst["sets"] == [sorted(A) for A in sets]
             and inst["forbidden"] == {k: sorted(S) for k, S in src["forbidden"].items() if S},
             "instance in the report is not the file's")
    _require(not doc["violations"], f"violations: {doc['violations']}")
    _require(doc["cardinality"] == len(doc["sumset"]), "cardinality != len(sumset)")
    msizes = [len(forbidden.get((i, j), ())) for i in range(n) for j in range(n) if i != j]
    _check_certificate(p, [len(A) for A in sets], msizes, doc["certificate"],
                       doc["certificate_skip_reason"], doc["cardinality"])
    if deep:
        brute = sorted(brute_sumset(p, sets, forbidden))
        _require(doc["sumset"] == brute, "sumset differs from brute-force enumeration")


CHECKS = {
    "identities": _check_identities,
    "thm4": _check_thm4,
    "experiment": _check_experiment,
    "sumset": _check_sumset,
}


def check(items, codes, outputs, seed):
    """[(item index, reason)] for every item that fails; [] when all pass."""
    rng = stream(seed, "recheck")
    files = [idx for idx, argv in enumerate(items) if argv[0] == "sumset"]
    deep = set()
    while files and len(deep) < min(RECHECK_ROWS["sumset"], len(files)):
        deep.add(files[rng.below(len(files))])
    failures = []
    for idx, (argv, code, text) in enumerate(zip(items, codes, outputs)):
        try:
            _require(code == 0, f"exit code {code}")
            CHECKS[argv[0]](argv, json.loads(text), rng, idx in deep)
        except Miss as exc:
            failures.append((idx, str(exc)))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            failures.append((idx, f"malformed report: {type(exc).__name__}: {exc}"))
    return failures
