"""Benchmark runner for sumsetlab.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of experiment, coverage, identities, instances, or ``all``
for each in turn.  A pass runs every item of the workload, one
``sumsetlab.cli.main`` call after the other (a closed loop with one
client), in a fresh interpreter: every CLI user pays interpreter start,
import and cold caches on every invocation.  The runner first runs one
untimed pass, whose outputs go through the correctness gate (gate.py) and
whose digest must match bench/expected.json for the default seed; then
it repeats passes for S seconds and reports medians.  Every later pass
must reproduce the first pass's outputs byte for byte.

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off.  With ``--trace 1`` traced and untraced passes alternate;
the metrics are the per-layer ones from the traced passes, plus the
tracing overhead (traced minus untraced wall time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the same numbers for a reader, with the environment.  An item
that fails any check counts in ``failed``; fail_ratio is failed over
attempted.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import gate
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
PASSRUN = os.path.join(HERE, "passrun.py")
EXPECTED = os.path.join(HERE, "expected.json")

MIN_PASSES = 3          # per kind of pass, whatever --seconds says
PASS_TIMEOUT_S = 150

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env():
    """The environment of a pass: no budget from outside, fixed hashing."""
    env = dict(os.environ)
    for var in ("SUMSETLAB_BUDGET", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE",
                "PYTHONSTARTUP", "PYTHONPROFILEIMPORTTIME"):
        env.pop(var, None)
    env["PYTHONHASHSEED"] = "0"
    return env


def environment():
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform()}


class Runner:
    """Starts passes, one process at a time, and reads back their results."""

    def __init__(self, src, workdir):
        self.src = src
        self.workdir = workdir
        self.env = _child_env()
        self.count = 0

    def run_pass(self, items, trace=False, keep=False):
        self.count += 1
        spec = os.path.join(self.workdir, f"pass-{self.count}.spec.json")
        result = os.path.join(self.workdir, f"pass-{self.count}.result.json")
        with open(spec, "w", encoding="utf-8") as handle:
            json.dump({"items": items, "trace": int(trace), "keep": int(keep)}, handle)
        start = _clock()
        proc = subprocess.run(
            [sys.executable, "-s", PASSRUN, self.src, repr(start), spec, result],
            env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"pass process exited with {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        with open(result, "r", encoding="utf-8") as handle:
            out = json.load(handle)
        if trace:
            header, spans = tracer.load(out["spans"])
            out["layers"] = tracer.aggregate(spans, header["budget_exceeded"],
                                             out["output_bytes"])
            out["sites"] = header["sites"]
        return out


def _quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _expected_digest(workload, seed):
    with open(EXPECTED, "r", encoding="utf-8") as handle:
        expected = json.load(handle)
    return expected["sha256"].get(workload) if seed == expected["seed"] else None


def measure(workload, seed, seconds, trace, root):
    """Run one workload; returns (result dict, report lines)."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "sumsetlab", "cli.py")):
        raise BenchError(f"no sumsetlab package under {src}; run from the root of a checkout")
    sys.path.insert(0, src)      # the gate's closed form comes from this checkout
    workdir = os.path.join(root, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return _measure(workload, seed, seconds, trace, src, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):      # left alone while another run uses it
            os.rmdir(os.path.dirname(workdir))


def _measure(workload, seed, seconds, trace, src, workdir):
    items = workloads.build(workload, seed, workdir)
    runner = Runner(src, workdir)
    lines = []

    # untimed first pass: writes bytecode, warms the file cache, and gives the
    # outputs that the gate checks and every later pass must reproduce
    first = runner.run_pass(items, keep=True)
    digest = hashlib.sha256("".join(first["outputs"]).encode()).hexdigest()
    reasons = dict(gate.check(items, first["codes"], first["outputs"], seed))
    bad = set(reasons)
    expected = _expected_digest(workload, seed)
    digest_ok = expected is None or expected == digest
    if not digest_ok:
        lines.append(f"FAIL output digest {digest} != expected {expected}")

    # set-up probes (passes with no items) are spread over the run, so that
    # their median does not hang on one moment's load
    plain, traced, setups = [], [], []
    deadline = _clock() + seconds
    while (len(plain) < MIN_PASSES or (trace and len(traced) < MIN_PASSES)
           or _clock() < deadline):
        plain.append(runner.run_pass(items))
        if trace:
            traced.append(runner.run_pass(items, trace=True))
        else:
            setups.append(runner.run_pass([])["setup_s"])

    attempted = failed = 0
    for run in plain + traced:
        wrong = set(bad) if digest_ok else set(range(len(items)))
        for idx, (code, dig) in enumerate(zip(run["codes"], run["digests"])):
            if code != first["codes"][idx] or dig != first["digests"][idx]:
                wrong.add(idx)
                reasons.setdefault(idx, "output differs from the first pass")
        attempted += len(items)
        failed += len(wrong)
    correct = failed == 0

    if trace:
        metrics, counts_ok = _layer_metrics(plain, traced)
        if not counts_ok:
            correct = False
            lines.append("FAIL deterministic counts differ between traced passes")
    else:
        metrics = {}
        for name, unit in END_TO_END:
            values = [run[name] for run in plain]
            if name == "setup_s":
                values += setups
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            q1, q3 = _quartiles(values)
            lines.append(f"{name:<12} {metrics[name]['value']:.6f} {unit:<5} "
                         f"median of {len(values)}, quartiles {q1:.6f} .. {q3:.6f}")
    fail_ratio = failed / attempted
    lines.append(f"{'fail_ratio':<12} {fail_ratio:.6f} ratio {failed} failed of "
                 f"{attempted} items attempted")
    for idx, reason in sorted(reasons.items())[:10]:
        lines.append(f"FAIL item {idx} ({' '.join(items[idx][:2])}): {reason}")
    env = environment()
    lines.insert(0, f"workload={workload} seed={seed} seconds={seconds} trace={int(trace)} "
                    f"items={len(items)} passes={len(plain)}+{len(traced)} traced "
                    f"python={env['python']} nproc={env['nproc']} "
                    f"platform={env['platform']} sha256={digest}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, lines


def _layer_metrics(plain, traced):
    """Per-layer metrics: medians of the traced passes' times, counts that
    must repeat exactly from one traced pass to the next, and the overhead."""
    first = traced[0]["layers"]
    counts_ok = all(run["layers"][key] == value
                    for run in traced[1:] for key, value in first.items()
                    if not key.endswith("_s"))
    metrics = {}
    for key, value in first.items():
        if key.endswith("_s"):
            value = statistics.median(run["layers"][key] for run in traced)
        metrics[key] = {"value": value, "unit": layer_unit(key)}
    # passes alternate, so each traced pass is compared with the untraced
    # one just before it, while the machine's speed has had little time to drift
    metrics["trace.wall_s"] = {"value": statistics.median(run["wall_s"] for run in traced),
                               "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced)),
        "unit": "s"}
    return metrics, counts_ok


def layer_unit(key):
    if key.endswith("_s"):
        return "s"
    if key.endswith(("_ratio", "_yield")):
        return "ratio"
    if key.endswith("_bytes"):
        return "bytes"
    return "count"


def _report_line(key, metric):
    value = metric["value"]
    text = f"{value:.6f}" if isinstance(value, float) else str(value)
    return f"{key:<44} {text} {metric['unit']}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    root = os.getcwd()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result, lines = measure(name, args.seed, args.seconds, bool(args.trace), root)
            for line in lines:
                print(line)
            if args.trace:
                for key, metric in result["metrics"].items():
                    print(_report_line(key, metric))
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            for key, metric in result["metrics"].items():
                combined["metrics"][prefix + key] = metric
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 2
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
