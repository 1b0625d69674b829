"""Tests of the benchmark itself, at smoke size.

Run from the root of the repository:  python3 -m pytest bench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import gate      # noqa: E402
import run       # noqa: E402
import tracer    # noqa: E402
import workloads  # noqa: E402


def smoke_items(workdir):
    """A few small items of every kind the workloads use."""
    items = (workloads.experiment_items(0)[:2]
             + workloads.coverage_items(0)[:2]
             + [["identities", "dyson", "--max-vars", "3"],
                ["identities", "prop21", "--max-n", "3", "--max-m", "1"]]
             + workloads.instances_items(0, workdir)[:2])
    return [argv + workloads.COMMON for argv in items]


@pytest.fixture(scope="module")
def traced_pair(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("traced"))
    items = smoke_items(workdir)
    runner = run.Runner(SRC, workdir)
    return items, runner.run_pass(items, trace=True), runner.run_pass(items, trace=True)


def test_deterministic_counts_repeat_across_traced_runs(traced_pair):
    items, first, second = traced_pair
    counts = {k: v for k, v in first["layers"].items() if not k.endswith("_s")}
    assert counts == {k: v for k, v in second["layers"].items() if not k.endswith("_s")}
    for key in ("mpoly.targeted_coeff.factor_steps", "sumsets.enumerate.tuple_bound",
                "sumsets.enumerate.residues", "ffield.is_prime.calls",
                "sumsets.certificate_literal.calls", "sumsets.coverage_check.calls",
                "identities.constant_term.calls", "identities.closed_form.calls",
                "cli.main.calls"):
        assert counts[key] > 0, key
    assert 0 < counts["sumsets.enumerate.residue_yield"] <= 1
    assert counts["cli.main.calls"] == len(items)


def test_wrappers_sit_at_every_binding_site(traced_pair):
    sites = set(traced_pair[1]["sites"])
    for site in ("sumsetlab.mpoly.targeted_coeff", "sumsetlab.identities.targeted_coeff",
                 "sumsetlab.sumsets.targeted_coeff", "sumsetlab.sumsets.key_coefficient",
                 "sumsetlab.cli.key_coefficient", "sumsetlab.cli.enumerate_restricted_sumset",
                 "sumsetlab.sumsets.enumerate_restricted_sumset", "sumsetlab.ffield.is_prime",
                 "sumsetlab.cli.load_instance", "sumsetlab.cli.main"):
        assert site in sites, site


def test_benchmark_json_names_every_reported_metric(traced_pair):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    layer_names = set(traced_pair[1]["layers"]) | {"trace.wall_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    for metric in spec["per_layer"]:
        assert metric["unit"] == run.layer_unit(metric["name"])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_smoke_outputs_pass_the_gate(traced_pair, tmp_path):
    items, _first, _second = traced_pair
    out = run.Runner(SRC, str(tmp_path)).run_pass(items, keep=True)
    assert gate.check(items, out["codes"], out["outputs"], seed=0) == []
    # tracing must not change a single output byte
    assert out["digests"] == traced_pair[1]["digests"]


def test_negative_control_aomoto_chi_side_b_is_a_failure(tmp_path):
    items = [["identities", "aomoto", "--max-n", "2", "--chi-side", "b"] + workloads.COMMON]
    out = run.Runner(SRC, str(tmp_path)).run_pass(items, keep=True)
    assert out["codes"] == [2]
    failures = gate.check(items, out["codes"], out["outputs"], seed=0)
    assert [idx for idx, _ in failures] == [0]
    assert "exit code 2" in failures[0][1]


def test_negative_control_flipped_residue_is_a_failure(tmp_path):
    items = [argv + workloads.COMMON
             for argv in workloads.instances_items(0, str(tmp_path))[:1]]
    out = run.Runner(SRC, str(tmp_path)).run_pass(items, keep=True)
    assert gate.check(items, out["codes"], out["outputs"], seed=0) == []
    doc = json.loads(out["outputs"][0])
    p = doc["instance"]["p"]
    present = set(doc["sumset"])
    flipped = next(r for r in range(p) if r not in present)
    doc["sumset"] = sorted(present - {doc["sumset"][0]} | {flipped})
    failures = gate.check(items, out["codes"], [json.dumps(doc)], seed=0)
    assert [idx for idx, _ in failures] == [0]
    assert "brute-force" in failures[0][1]


def test_same_seed_same_inputs():
    for name in ("experiment", "coverage", "identities"):
        assert workloads.build(name, 7, "") == workloads.build(name, 7, "")
    for name in ("experiment", "coverage"):
        assert workloads.build(name, 7, "") != workloads.build(name, 8, "")
    assert workloads.instance_docs(7) == workloads.instance_docs(7)
    assert workloads.instance_docs(7) != workloads.instance_docs(8)


def test_self_time_subtracts_child_spans():
    spans = [
        (0, -1, "cli.main", 0.0, 10.0, None),
        (1, 0, "sumsets.enumerate", 1.0, 4.0, None),
        (2, 0, "identities.key_coefficient", 5.0, 9.0, None),
        (3, 2, "mpoly.targeted_coeff", 5.5, 8.5, None),
    ]
    own = tracer.self_times(spans)
    assert own == {0: 3.0, 1: 3.0, 2: 1.0, 3: 3.0}


def test_experiment_seeds_draw_the_planned_sizes():
    for argv in workloads.experiment_items(3)[:6]:
        flags = dict(zip(argv[1::2], argv[2::2]))
        k_max = int(flags["--k-max"])
        ks = sorted(t[3] for t in workloads.experiment_trials(
            int(flags["--seed"]), int(flags["--trials"]), [int(flags["--p-set"])],
            [int(flags["--n-set"])], [int(flags["--m-set"])], k_max))
        assert ks == list(range(k_max - 4, k_max + 1))


def test_instance_primes_are_prime_and_in_range():
    for doc in workloads.instance_docs(5):
        assert 10 ** 11 <= doc["p"] < 10 ** 12
        assert all(doc["p"] % d for d in range(2, 2000))


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "identities", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_follows_the_format(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "instances", "--seed", "0",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    assert any(line.startswith("fail_ratio") for line in lines)
    assert "nproc=" in lines[0] and "python=" in lines[0]
