"""Seeded inputs for the four benchmark workloads.

Every input is made here, from the workload seed, by code of the
benchmark's own; nothing in this module imports sumsetlab.  A workload is
a list of items, and an item is one ``sumsetlab`` argv that a pass runs
through ``sumsetlab.cli.main``.

Workloads, one per layer that dominates it (see NOTES.md):

- ``experiment``: seeded ``experiment`` sweeps; the leading-form
  certificate (``key_coefficient`` -> ``targeted_coeff``) dominates.
- ``coverage``: ``thm4`` sweeps; enumeration dominates and no polynomial
  work runs, so every mpoly change is bypassed here.
- ``identities``: the five identity scopes; many small Laurent
  extractions and Fraction closed forms, no sumsets and no ffield.
- ``instances``: ``sumset FILE`` on instance files with primes of
  10^11..10^12; the only workload where trial-division primality,
  ``load_instance`` and the literal-product certificate do real work.

Costs vary a lot with the shape of an input (for ``experiment``, the
certificate for n=4, k=10 costs ~100x that for n=2), so every workload
fixes the multiset of shapes and lets the seed choose only what does not
change the amount of work much: residues, primes within a stratum, and
the seeds handed to the CLI.  That keeps a pass's cost nearly the same
from seed to seed.
"""

import hashlib
import json
import os

BUDGET = 10 ** 7
COMMON = ["--format", "doc", "--budget", str(BUDGET)]

EXPERIMENT_P = (17, 19, 23, 29, 31)
EXPERIMENT_GRIDS = 3          # each grid: every (n, m, k) with n in 2..4, m in 0..2, k in 1..10 once
EXPERIMENT_K_BLOCKS = ((5, (1, 2, 3, 4, 5)), (10, (6, 7, 8, 9, 10)))

COVERAGE_SAMPLES = ((29, 1, 6), (31, 1, 6), (29, 2, 10), (31, 2, 10))  # (p, m, count)

IDENTITY_ITEMS = (
    ["identities", "dyson", "--max-vars", "4", "--max-entry", "3"],
    ["identities", "zeilberger", "--max-vars", "4", "--max-entry", "3"],
    ["identities", "aomoto", "--max-n", "3", "--max-a", "3", "--max-b", "3"],
    ["identities", "lemma22", "--fix-n", "3", "--max-b", "3"],
    ["identities", "prop21", "--max-n", "4"],
)

# (sizes, |S_ij| for the ordered pairs (i, j), i != j, in ascending order)
INSTANCE_SHAPES = (
    ((8, 9, 9), (1, 2, 0, 1, 2, 1)),
    ((9, 9, 10), (2, 1, 1, 0, 2, 2)),
    ((10, 10, 10), (1, 1, 1, 1, 1, 1)),
    ((7, 8, 8, 8), (1, 0, 1, 1, 0, 1, 1, 1, 0, 1, 1, 0)),
    ((6, 7, 7, 7), (0, 1, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1)),
    ((6, 6, 6, 6), (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)),
)
INSTANCE_ROUNDS = 2
INSTANCE_P_RANGE = (10 ** 11, 10 ** 12)


class SplitMix64:
    """The SplitMix64 stream, written out again for the benchmark.

    ``sample`` is the same partial Fisher-Yates draw as the package's, so
    the benchmark can replay ``experiment`` trials without calling it.
    """

    MASK = (1 << 64) - 1

    def __init__(self, seed):
        self.state = seed & self.MASK

    def next64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def below(self, bound):
        return self.next64() % bound

    def skip(self, count):
        """Advance past ``count`` outputs; the state moves by a fixed step."""
        self.state = (self.state + count * 0x9E3779B97F4A7C15) & self.MASK

    def sample(self, population_size, count):
        pool = list(range(population_size))
        for i in range(count):
            j = i + self.below(population_size - i)
            pool[i], pool[j] = pool[j], pool[i]
        return tuple(sorted(pool[:count]))


def stream(seed, label):
    """An independent stream per (seed, label), stable across Python versions."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return SplitMix64(int.from_bytes(digest[:8], "big"))


# ----------------------------------------------------------------------
# experiment
# ----------------------------------------------------------------------

def experiment_trials(seed, trials, p_set, n_set, m_set, k_max):
    """Replay the trials of ``sumsetlab experiment`` (no --enforce).

    Per trial the CLI's stream draws p, n, m, k, then the n sets, then
    S_ij in ascending (i, j) order.  Yields (p, n, m, k, sets, forbidden).
    """
    p_choices, n_choices, m_choices = sorted(p_set), sorted(n_set), sorted(m_set)
    rng = SplitMix64(seed)
    for _ in range(trials):
        p = p_choices[rng.below(len(p_choices))]
        n = n_choices[rng.below(len(n_choices))]
        m = m_choices[rng.below(len(m_choices))]
        k = 1 + rng.below(min(k_max, p))
        sets = [rng.sample(p, k) for _ in range(n)]
        forbidden = {(i, j): rng.sample(p, m)
                     for i in range(n) for j in range(n) if i != j}
        yield p, n, m, k, sets, forbidden


def _seed_with_ks(start, p, n, m, k_max, ks):
    """First CLI seed >= start whose trials draw exactly the sizes ``ks``.

    Follows the draw order of :func:`experiment_trials` for singleton
    p, n and m choices, skipping the set draws instead of making them.
    """
    seed = start
    while True:
        rng = SplitMix64(seed)
        left = sorted(ks)
        for _ in ks:
            rng.skip(3)
            k = 1 + rng.below(min(k_max, p))
            if k not in left:
                break
            left.remove(k)
            rng.skip(n * k + n * (n - 1) * m)
        else:
            return seed
        seed += 1


def experiment_items(seed):
    rng = stream(seed, "experiment")
    items = []
    for _ in range(EXPERIMENT_GRIDS):
        for n in (2, 3, 4):
            for m in (0, 1, 2):
                p = EXPERIMENT_P[rng.below(len(EXPERIMENT_P))]
                for k_max, ks in EXPERIMENT_K_BLOCKS:
                    cli_seed = _seed_with_ks(rng.below(1 << 31), p, n, m, k_max, ks)
                    items.append([
                        "experiment", "--seed", str(cli_seed), "--trials", str(len(ks)),
                        "--p-set", str(p), "--n-set", str(n), "--m-set", str(m),
                        "--k-max", str(k_max),
                    ])
    return items


# ----------------------------------------------------------------------
# coverage
# ----------------------------------------------------------------------

def coverage_items(seed):
    rng = stream(seed, "coverage")
    items = [
        ["thm4", "--p", "13", "--m", "1", "--forbidden", str(rng.below(13))],
        ["thm4", "--p", "13", "--m", "2",
         "--forbidden", ",".join(map(str, rng.sample(13, 2)))],
    ]
    for p, m, count in COVERAGE_SAMPLES:
        items.append(["thm4", "--p", str(p), "--m", str(m), "--mode", "sample",
                      "--count", str(count), "--seed", str(rng.below(1 << 31))])
    return items


# ----------------------------------------------------------------------
# identities
# ----------------------------------------------------------------------

def identities_items(seed):
    return [list(argv) for argv in IDENTITY_ITEMS]


# ----------------------------------------------------------------------
# instances
# ----------------------------------------------------------------------

def is_probable_prime(n):
    """Deterministic Miller-Rabin for n < 3.3 * 10^24 (first 13 prime bases)."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for b in bases:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_at_least(n):
    while not is_probable_prime(n):
        n += 1
    return n


def _pairs(n):
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def instance_docs(seed):
    """Instance documents: fixed shapes, seeded residues and primes.

    Sets are drawn from a window of small residues so that sums collide
    and the forbidden differences (also small, of either sign) prune.
    The primes are stratified over the range, because trial division
    costs sqrt(p) and an unstratified draw would make the pass cost
    depend on the seed.
    """
    rng = stream(seed, "instances")
    shapes = [shape for _ in range(INSTANCE_ROUNDS) for shape in INSTANCE_SHAPES]
    lo, hi = INSTANCE_P_RANGE
    width = (hi - lo) // len(shapes)
    strata = list(range(len(shapes)))
    for i in range(len(strata) - 1, 0, -1):   # seeded pairing of shapes and strata
        j = rng.below(i + 1)
        strata[i], strata[j] = strata[j], strata[i]
    docs = []
    for (sizes, msizes), stratum in zip(shapes, strata):
        p = _prime_at_least(lo + stratum * width + rng.below(width // 2))
        window = 2 * max(sizes) + 2
        sets = [sorted(rng.sample(window, k)) for k in sizes]
        forbidden = {}
        for (i, j), m in zip(_pairs(len(sizes)), msizes):
            if m:
                diffs = rng.sample(2 * window + 1, m)
                forbidden[f"{i + 1},{j + 1}"] = sorted((d - window) % p for d in diffs)
        docs.append({"p": p, "sets": sets, "forbidden": forbidden})
    return docs


def instances_items(seed, workdir):
    items = []
    for idx, doc in enumerate(instance_docs(seed)):
        path = os.path.join(workdir, f"instance-{idx:02d}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, sort_keys=True)
        items.append(["sumset", path])
    return items


BUILDERS = {
    "experiment": lambda seed, workdir: experiment_items(seed),
    "coverage": lambda seed, workdir: coverage_items(seed),
    "identities": lambda seed, workdir: identities_items(seed),
    "instances": instances_items,
}
WORKLOADS = tuple(BUILDERS)


def build(workload, seed, workdir):
    """The workload's argv list, with the shared flags appended to each."""
    return [argv + COMMON for argv in BUILDERS[workload](seed, workdir)]
