import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import sumsetlab
from oracles import (
    aomoto_laurent_factors,
    build_parser,
    naive_laurent_constant_term,
    whole_table,
)
from sumsetlab import (
    DEFAULT_BUDGET,
    AomotoParams,
    BudgetExceeded,
    NonIntegerResult,
    ParameterOutOfRange,
    SplitMix64,
    SumsetInstance,
    aomoto_constant_term,
    dyson_closed_form,
    dyson_constant_term,
    instance_to_dict,
    uniform_forbidden,
    zeilberger_coefficient,
)
from sumsetlab.cli import (
    _COMMANDS,
    _HANDLERS,
    _ID_OPTIONS,
    _REQUIRED,
    _ROW_BATCH,
    _SCOPE_LIMITS,
    _Help,
    _Rows,
    _UsageError,
    _doc_pieces,
    _doc_text,
    _flag,
    _int_list,
    _table_pieces,
    main,
    parse_args,
)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_process(argv, max_bytes=None):
    """Run the CLI in a fresh interpreter; returns (exit code, stderr).
    ``max_bytes`` caps the child's address space, so that a run that
    would exhaust memory fails with a MemoryError instead."""
    src = os.path.dirname(os.path.dirname(sumsetlab.__file__))
    env = {**os.environ, "PYTHONPATH": src}

    def cap():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (max_bytes, max_bytes))

    proc = subprocess.run([sys.executable, "-m", "sumsetlab.cli"] + argv,
                          capture_output=True, text=True, env=env,
                          preexec_fn=cap if max_bytes else None)
    return proc.returncode, proc.stderr


def run_doc(capsys, argv):
    code, out, err = run(capsys, argv + ["--format", "doc"])
    return code, (json.loads(out) if out else None), err


@pytest.fixture
def eh_file(tmp_path):
    inst = SumsetInstance(7, [(0, 1, 2, 3)] * 2, uniform_forbidden(2, {0}))
    path = tmp_path / "eh.json"
    path.write_text(json.dumps(instance_to_dict(inst)))
    return str(path)


# ----------------------------------------------------------------------
# identities
# ----------------------------------------------------------------------

def test_identities_dyson(capsys):
    code, rep, _ = run_doc(capsys, ["identities", "dyson", "--max-vars", "3"])
    assert code == 0
    assert rep["all_agree"] is True
    assert rep["first_failure"] is None
    assert len(rep["rows"]) == 9 + 27


def test_identities_zeilberger(capsys):
    code, rep, _ = run_doc(capsys, ["identities", "zeilberger", "--max-vars", "3"])
    assert code == 0
    assert all(r["constant_term"] == r["coefficient_form"] for r in rep["rows"])


@pytest.mark.parametrize("scope", ["dyson", "zeilberger"])
def test_identities_dyson_rows_equal_their_direct_values(capsys, scope):
    argv = ["identities", scope, "--max-vars", "4", "--max-entry", "3"]
    code, rep, _ = run_doc(capsys, argv)
    assert code == 0 and len(rep["rows"]) == 336
    for row in rep["rows"]:
        assert row["constant_term"] == dyson_constant_term(row["avec"])
        assert row["closed_form"] == dyson_closed_form(row["avec"])


def test_identities_zeilberger_rows_equal_the_direct_expansion(capsys):
    argv = ["identities", "zeilberger", "--max-vars", "4", "--max-entry", "3"]
    code, rep, _ = run_doc(capsys, argv)
    assert code == 0 and len(rep["rows"]) == 336
    for row in rep["rows"]:
        assert row["coefficient_form"] == zeilberger_coefficient(row["avec"]), row


def test_identities_aomoto_correct_orientation(capsys):
    code, rep, _ = run_doc(capsys, ["identities", "aomoto", "--max-n", "2"])
    assert code == 0
    assert rep["orientation"]["closed_form_paired_with"] == "ct_chi_a"
    assert rep["orientation"]["inverted_form_paired_with"] == "ct_chi_b"


@pytest.mark.parametrize("chi_side, expected_code", [("a", 0), ("b", 2)])
def test_identities_aomoto_off_grid_swap(capsys, chi_side, expected_code):
    # with b up to 3 and a up to 1, the swapped tuple of a row with b > 1
    # is off the grid and is computed on demand
    argv = ["identities", "aomoto", "--max-a", "1", "--max-b", "3", "--chi-side", chi_side]
    code, rep, _ = run_doc(capsys, argv)
    assert code == expected_code
    for row in rep["rows"]:
        params = AomotoParams(*(row[k] for k in "nsabm"))
        assert row["ct_chi_a"] == aomoto_constant_term(params)
        assert row["ct_chi_b"] == naive_laurent_constant_term(aomoto_laurent_factors(params, "b"))


def test_identities_aomoto_wrong_orientation(capsys):
    code, rep, _ = run_doc(
        capsys, ["identities", "aomoto", "--max-n", "2", "--chi-side", "b"]
    )
    assert code == 2
    assert rep["all_agree"] is False
    first = rep["first_failure"]
    assert first is not None
    # the pairing can only break where the shift is active and asymmetric
    assert first["s"] >= 1 and first["a"] != first["b"]


def test_identities_lemma22(capsys):
    code, rep, _ = run_doc(capsys, ["identities", "lemma22"])
    assert code == 0
    assert all(row["agree"] for row in rep["rows"])


def test_identities_prop21(capsys):
    code, rep, _ = run_doc(capsys, ["identities", "prop21"])
    assert code == 0
    pinned = {(r["n"], r["m"], r["k"], r["s"]): r["closed_form"] for r in rep["rows"]}
    assert pinned[(2, 1, 3, 0)] == 2
    assert pinned[(2, 1, 3, 2)] == 4


def test_identities_range_cap_is_usage_error(capsys):
    code, _, err = run(capsys, ["identities", "dyson", "--max-vars", "9"])
    assert code == 1
    assert "max-vars" in err


@pytest.mark.parametrize("argv", [
    ["dyson", "--max-a", "3"],
    ["zeilberger", "--slack", "1"],
    ["prop21", "--chi-side", "a"],
    ["lemma22", "--max-n", "2"],
    ["aomoto", "--fix-n", "2"],
])
def test_identities_unread_option_is_usage_error(capsys, argv):
    code, out, err = run(capsys, ["identities"] + argv)
    assert code == 1 and out == ""
    assert err.startswith("sumsetlab: error: ") and argv[1] in err


def test_identities_prop21_min_above_max(capsys):
    code, _, err = run(capsys, ["identities", "prop21", "--min-n", "3", "--max-n", "2"])
    assert code == 1 and "--min-n" in err


def test_identities_table_format(capsys):
    code, out, _ = run(capsys, ["identities", "dyson", "--max-vars", "2"])
    assert code == 0
    assert "all agree: True" in out


# ----------------------------------------------------------------------
# sumset
# ----------------------------------------------------------------------

def test_sumset_report(capsys, eh_file):
    code, rep, _ = run_doc(capsys, ["sumset", eh_file])
    assert code == 0
    assert rep["sumset"] == [1, 2, 3, 4, 5]
    assert rep["cardinality"] == 5
    assert rep["bounds"]["thm2"]["value"] == 5
    assert rep["bounds"]["thm2"]["hypothesis_met"] is True
    assert rep["certificate"]["valid"] is True
    assert rep["certificate"]["coefficient"] == 4
    assert rep["violations"] == []


def test_sumset_table(capsys, eh_file):
    code, out, _ = run(capsys, ["sumset", eh_file])
    assert code == 0
    assert "certificate [leading-form]" in out


def test_sumset_table_names_a_skipped_certificate(capsys, tmp_path):
    path = tmp_path / "infeasible.json"
    inst = SumsetInstance(7, [(0, 1), (0, 1, 2), (0, 1, 2)], uniform_forbidden(3, {0}))
    path.write_text(json.dumps(instance_to_dict(inst)))
    code, out, _ = run(capsys, ["sumset", str(path)])
    assert code == 0
    assert out.splitlines()[-1] == ("certificate: skipped (degree-infeasible: "
                                    "sum(sizes_j - 1) = 5 < m*n*(n-1) = 6)")


def test_sumset_literal_certificate(capsys, tmp_path):
    path = tmp_path / "asym.json"
    path.write_text(json.dumps(
        {"p": 5, "sets": [[0, 1], [0, 1, 2]], "forbidden": {"1,2": [0]}}
    ))
    code, rep, _ = run_doc(capsys, ["sumset", str(path)])
    assert code == 0
    assert rep["certificate"]["method"] == "literal-product"
    assert rep["certificate"]["claimed_bound"] == 3
    assert rep["cardinality"] == 3


def test_sumset_no_hypothesis_still_reports(capsys, tmp_path):
    # sizes too spread for any bound; enumeration must still be reported
    path = tmp_path / "spread.json"
    path.write_text(json.dumps({"p": 7, "sets": [[0], [0, 1, 2, 3]]}))
    code, rep, _ = run_doc(capsys, ["sumset", str(path)])
    assert code == 0
    assert rep["cardinality"] == 4
    assert rep["bounds"]["thm2"]["value"] is None


def test_sumset_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code, _, err = run(capsys, ["sumset", str(path)])
    assert code == 1 and "JSON" in err


def test_sumset_composite_modulus(capsys, tmp_path):
    path = tmp_path / "composite.json"
    path.write_text(json.dumps({"p": 6, "sets": [[0, 1]]}))
    code, _, err = run(capsys, ["sumset", str(path)])
    assert code == 1 and "composite" in err


def test_sumset_non_utf8_file(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"p": 7, "sets": [[0]], "note": "caf\xe9"}')
    code, err = run_process(["sumset", str(path)])
    assert code == 1
    assert err.startswith("sumsetlab: error: ") and "Traceback" not in err


@pytest.mark.parametrize("forbidden", [
    {"\u00b2,1": [0]},              # a non-ASCII digit passes str.isdigit
    {"1,2": [0], "01,2": [1]},     # two spellings of one pair
])
def test_sumset_bad_forbidden_keys(tmp_path, forbidden):
    path = tmp_path / "keys.json"
    path.write_text(json.dumps({"p": 7, "sets": [[0, 1], [0, 2]], "forbidden": forbidden}))
    code, err = run_process(["sumset", str(path)])
    assert code == 1
    assert err.startswith("sumsetlab: error: ") and "Traceback" not in err


def test_sumset_repeated_json_key(tmp_path):
    path = tmp_path / "twice.json"
    path.write_text('{"p": 7, "sets": [[0, 1], [0, 2]], "forbidden": {"1,2": [0], "1,2": [1]}}')
    code, err = run_process(["sumset", str(path)])
    assert code == 1
    assert err.startswith("sumsetlab: error: ") and "Traceback" not in err


@pytest.mark.parametrize("text", [
    "[" * 200_000 + "]" * 200_000,                   # deeper than the parser recurses
    '{"p": ' + "7" * 5_000 + ', "sets": [[0]]}',     # past the int digit limit
], ids=["deep-array", "long-int-literal"])
def test_sumset_unparseable_json_is_a_format_error(tmp_path, text):
    path = tmp_path / "unparseable.json"
    path.write_text(text)
    code, err = run_process(["sumset", str(path)])
    assert code == 1
    assert err.startswith("sumsetlab: error: not valid JSON: ") and "Traceback" not in err


def test_sumset_large_prime(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"p": 10 ** 18 + 3, "sets": [[0, 1], [0, 2]]}))
    code, rep, _ = run_doc(capsys, ["sumset", str(path)])
    assert code == 0 and rep["sumset"] == [0, 1, 2, 3]


def test_sumset_missing_file(capsys, tmp_path):
    code, _, _ = run(capsys, ["sumset", str(tmp_path / "absent.json")])
    assert code == 1


def test_sumset_budget_exceeded(capsys, eh_file):
    code, _, err = run(capsys, ["sumset", eh_file, "--budget", "3"])
    assert code == 3 and "budget" in err.lower()


def test_budget_env_var(capsys, eh_file, monkeypatch):
    monkeypatch.setenv("SUMSETLAB_BUDGET", "3")
    assert run(capsys, ["sumset", eh_file])[0] == 3
    # explicit flag wins over the environment
    assert run(capsys, ["sumset", eh_file, "--budget", "1000"])[0] == 0
    monkeypatch.setenv("SUMSETLAB_BUDGET", "zebra")
    assert run(capsys, ["sumset", eh_file])[0] == 1


def test_out_file_unwritable(tmp_path, eh_file):
    code, err = run_process(["sumset", eh_file, "--out", str(tmp_path / "absent" / "x")])
    assert code == 1
    assert err.startswith("sumsetlab: error: ") and "Traceback" not in err


def test_out_file(tmp_path, capsys, eh_file):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, ["sumset", eh_file, "--format", "doc", "--out", str(target)])
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["cardinality"] == 5


def test_out_file_with_an_empty_path_is_an_error(capsys):
    # --out= names no file: it fails to open like any unusable path, and
    # nothing is written to stdout
    code, out, err = run(capsys, ["thm4", "--p", "5", "--m", "1", "--out="])
    assert code == 1 and out == ""
    assert err.startswith("sumsetlab: error: ") and "Traceback" not in err


# ----------------------------------------------------------------------
# thm4
# ----------------------------------------------------------------------

def test_thm4_exhaustive(capsys):
    code, rep, _ = run_doc(capsys, ["thm4", "--p", "7", "--m", "1"])
    assert code == 0
    assert rep["subsets_tested"] == 21
    assert rep["failures"] == 0
    assert all(row["covered"] for row in rep["rows"])


def test_thm4_sampled(capsys):
    code, rep, _ = run_doc(
        capsys, ["thm4", "--p", "11", "--m", "1", "--mode", "sample",
                 "--count", "10", "--seed", "7"]
    )
    assert code == 0
    assert rep["subsets_tested"] == 10
    assert rep["config"]["threshold"] == 7


def test_thm4_tiny_sets_vacuous(capsys):
    code, rep, _ = run_doc(capsys, ["thm4", "--p", "7", "--m", "3", "--size", "3"])
    assert code == 0
    assert all(not row["hypothesis_met"] for row in rep["rows"])


def test_thm4_table(capsys):
    code, out, _ = run(capsys, ["thm4", "--p", "7", "--m", "1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[:4] == [
        "p = 7, m = 1, S = [0], subset size 5 (threshold 5), mode exhaustive",
        "subset           n  hypothesis  covered  missing",
        "---------------  -  ----------  -------  -------",
        "[0, 1, 2, 3, 4]  2  True        True     []",
    ]
    assert len(lines) == 3 + 21 + 1
    assert lines[-1] == "subsets tested: 21   failures: 0"


def test_thm4_budget(capsys):
    code, _, _ = run(capsys, ["thm4", "--p", "13", "--m", "1", "--budget", "100"])
    assert code == 3


def test_thm4_sample_budget_checked_before_drawing(capsys, monkeypatch):
    # threshold-size subsets at p = 1000003 need ~1000 summands each
    def no_draw(self, population_size, count):
        raise AssertionError("a subset was drawn")

    monkeypatch.setattr(SplitMix64, "sample", no_draw)
    argv = ["thm4", "--p", "1000003", "--m", "1", "--mode", "sample", "--budget", "1000"]
    code, out, err = run(capsys, argv + ["--count", "1"])
    assert code == 3 and out == "" and "budget" in err
    # a sweep of no subsets does no enumeration
    code, rep, _ = run_doc(capsys, argv + ["--count", "0"])
    assert code == 0 and rep["subsets_tested"] == 0


def test_thm4_sample_count_over_the_budget_is_refused(capsys, monkeypatch):
    # sample mode refuses more than --budget subsets, as exhaustive mode does
    def no_draw(self, population_size, count):
        raise AssertionError("a subset was drawn")

    monkeypatch.setattr(SplitMix64, "sample", no_draw)
    argv = ["thm4", "--p", "13", "--m", "1", "--mode", "sample", "--budget", "1000"]
    code, out, err = run(capsys, argv + ["--count", "20000", "--format", "doc"])
    assert code == 3 and out == ""
    assert "20000 subsets of size 7 exceed the budget of 1000" in err
    code, out, err = run(capsys, argv + ["--count", "9" * 400])
    assert code == 3 and out == "" and len(err) < 200
    monkeypatch.undo()
    code, rep, _ = run_doc(capsys, argv + ["--count", "1000"])
    assert code == 0 and rep["subsets_tested"] == 1000


def test_thm4_huge_subset_count_is_budget_exit(capsys):
    # C(10000019, 6325) has more digits than int allows to convert to str
    code, out, err = run(capsys, ["thm4", "--p", "10000019", "--m", "1"])
    assert code == 3 and out == "" and len(err) < 200


def test_thm4_subset_count_stops_at_the_budget(capsys):
    argv = ["thm4", "--p", "1000000007", "--m", "1", "--budget", "1000"]
    code, out, err = run(capsys, argv)
    assert code == 3 and out == ""
    assert "more than 1000 subsets of size 63246" in err


def test_thm4_missing_list_over_the_budget_is_budget_exit():
    # n = 1 summand passes the tuple check, but about 10^9 residues are
    # missing; they are refused before any p-sized object is built
    argv = ["thm4", "--p", "1000000007", "--m", "1", "--mode", "sample",
            "--count", "3", "--size", "3", "--format", "doc"]
    code, err = run_process(argv, max_bytes=1 << 30)
    assert code == 3 and "Traceback" not in err
    assert "missing residues exceed the budget" in err


def test_thm4_missing_residues_over_all_rows_are_budget_exit(capsys):
    # 101 rows of 100 missing residues each: listed at a budget of 10100
    argv = ["thm4", "--p", "101", "--m", "1", "--size", "1", "--budget"]
    code, rep, _ = run_doc(capsys, argv + ["10100"])
    assert code == 0 and sum(len(row["missing"]) for row in rep["rows"]) == 10100
    code, out, err = run(capsys, argv + ["10099"])
    assert code == 3 and out == "" and "missing residues over the rows" in err


def test_thm4_budget_exit_leaves_no_out_file(capsys, tmp_path):
    # the sweep's budget checks all run before --out is opened, although
    # its rows are made only as they are written: a refused sweep leaves
    # no file, not a partial one
    path = tmp_path / "report.txt"
    argv = ["thm4", "--p", "101", "--m", "1", "--size", "1", "--budget", "10099",
            "--out", str(path)]
    code, out, err = run(capsys, argv)
    assert code == 3 and out == "" and "missing residues over the rows" in err
    assert not path.exists()


def test_thm4_bad_size(capsys):
    code, _, _ = run(capsys, ["thm4", "--p", "7", "--m", "1", "--size", "9"])
    assert code == 1


def test_thm4_forbidden_residue_out_of_range(capsys):
    # size 1 means n = 0, so no instance is built that would catch the residue
    code, out, err = run(capsys, ["thm4", "--p", "13", "--m", "1", "--forbidden", "20",
                                  "--size", "1"])
    assert code == 1 and out == "" and "outside [0, 13)" in err


@pytest.mark.parametrize("argv", [
    ["thm4", "--p", "3", "--m", "5"],
    ["thm4", "--p", "3", "--m", "4", "--forbidden", "0,1,2"],
])
def test_thm4_m_above_p_is_refused_first(capsys, argv):
    # no S of m > p residues exists, whether S is the default or given
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    m = argv[argv.index("--m") + 1]
    assert err == f"sumsetlab: error: m={m} exceeds p=3: S holds at most p residues\n"


@pytest.mark.parametrize("argv", [
    ["thm4", "--p", "5", "--m", "-1"],
    ["thm4", "--p", "5", "--m", "0", "--forbidden", "1"],
])
def test_thm4_m_below_one_is_refused_first(capsys, argv):
    # m < 1 has no coverage threshold; it is refused before S is read
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    m = argv[argv.index("--m") + 1]
    assert err == f"sumsetlab: error: m must be >= 1, got {m}\n"


def test_thm4_threshold_above_p_is_named(capsys):
    # without --size the subset size is the threshold, and the error says so
    code, out, err = run(capsys, ["thm4", "--p", "2", "--m", "2"])
    assert code == 1 and out == ""
    assert err == "sumsetlab: error: coverage threshold 3 exceeds p=2\n"
    code, _, err = run(capsys, ["thm4", "--p", "2", "--m", "2", "--size", "3"])
    assert code == 1 and err == "sumsetlab: error: subset size 3 not in [1, 2]\n"


def test_package_runs_as_a_module():
    src = os.path.dirname(os.path.dirname(sumsetlab.__file__))
    proc = subprocess.run([sys.executable, "-m", "sumsetlab", "thm4", "--p", "7", "--m", "1"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert "subsets tested: 21" in proc.stdout


# ----------------------------------------------------------------------
# experiment
# ----------------------------------------------------------------------

def test_experiment_runs_clean(capsys):
    code, rep, _ = run_doc(
        capsys, ["experiment", "--trials", "20", "--seed", "11", "--enforce", "thm3"]
    )
    assert code == 0
    assert rep["violations_total"] == 0
    assert len(rep["rows"]) == 20


def test_experiment_byte_identical(capsys):
    argv = ["experiment", "--trials", "8", "--seed", "5", "--format", "doc"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_experiment_zero_trials(capsys):
    code, rep, _ = run_doc(capsys, ["experiment", "--trials", "0"])
    assert code == 0
    assert rep["rows"] == []


def test_experiment_unsatisfiable_enforce(capsys):
    code, _, err = run(capsys, ["experiment", "--trials", "1", "--p-set", "5",
                                "--n-set", "2", "--m-set", "3",
                                "--enforce", "thm3"])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["--k-max", "0"],
    ["--k-max", "-3"],
    ["--m-set", "-1"],
    ["--m-set", "9", "--p-set", "5"],
    ["--p-set", "0,5"],
    ["--n-set", "0", "--enforce", "thm1"],
])
def test_experiment_out_of_range_is_usage_error(capsys, argv):
    code, out, err = run(capsys, ["experiment", "--trials", "2"] + argv)
    assert code == 1 and out == ""
    assert err.startswith("sumsetlab: error: ")


@pytest.mark.parametrize("listed, message", [
    (["--p-set", "5,9"], "modulus 9 is composite"),
    (["--n-set", "0,2"], "n must be >= 1, got 0"),
    (["--m-set=-1,1"], "m must be >= 0, got -1"),
])
@pytest.mark.parametrize("trials, seed", [(1, 0), (1, 1), (1, 2), (1, 3), (0, 0)])
def test_experiment_checks_every_listed_value_before_drawing(capsys, listed, message,
                                                             trials, seed):
    # whether or not the seed draws the bad value, and with no draw at all
    code, out, err = run(capsys, ["experiment", "--trials", str(trials),
                                  "--seed", str(seed)] + listed)
    assert code == 1 and out == ""
    assert err == f"sumsetlab: error: {message}\n"


def test_experiment_huge_prime(capsys):
    # sampling costs O(k) per set, not O(p)
    code, rep, _ = run_doc(capsys, ["experiment", "--p-set", "10000019", "--trials", "3",
                                    "--k-max", "3", "--n-set", "2", "--m-set", "0"])
    assert code == 0 and len(rep["rows"]) == 3


def test_experiment_table(capsys):
    code, out, _ = run(capsys, ["experiment", "--trials", "3", "--seed", "2"])
    assert code == 0
    assert "violations total: 0" in out


# ----------------------------------------------------------------------
# the doc writer
# ----------------------------------------------------------------------

_doc_scalars = (st.none() | st.booleans() | st.integers()
                | st.integers(-10 ** 80, 10 ** 80) | st.text())
_docs = st.recursive(
    _doc_scalars,
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(st.text(), children)
                      | st.lists(st.integers() | st.booleans())),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_docs)
@example({"a": [1, True, 0, False], "b": [-1, 10 ** 50], "c": [True]})
@example({"": [[], {}, ()], "z": {"y": ([], ())}, "e": {}})
@example({"\u00e9\u2603": "\x00\x1f\"\\\ud7ff", "\x7f": ["\n", "\U0001f600"]})
# the list and dict shapes whose brackets are folded into an item's text
@example([{"a": 1, "b": [2]}])
@example([[1, 2], [[3]], [], ["x", None]])
@example({"rows": [{"x": [1]}, {"y": {"z": ()}}]})
@example([[], {}, (), [[]], [{}]])
@example(((1, (2, 3)), ({"t": (True,)},), ()))
# top-level lists, which the streamed writer cuts into batches of rows
# when they are given as _Rows
@example({"a": 0, "rows": [{"i": i, "t": (i, [])} for i in range(_ROW_BATCH + 1)]})
@example({"rows": [{"i": i} for i in range(2 * _ROW_BATCH)], "z": [{}]})
@example({"rows": [], "x": {"rows": [{"i": 0}]}})
@example({"rows": [1, 2, 3]})
@example({"rows": ["a", "b"]})
@example({1: [{"a": 1}]}).xfail(raises=TypeError)
def test_doc_writer_matches_json_dumps(doc):
    text = json.dumps(doc, sort_keys=True, indent=2)
    if isinstance(doc, dict):
        assert "".join(_doc_pieces(doc)) == text + "\n"
        streamed = {key: _Rows(item) if type(item) is list else item
                    for key, item in doc.items()}
        assert "".join(_doc_pieces(streamed)) == text + "\n"
    assert _doc_text(doc) == text


def _report(argv):
    args = parse_args(argv)
    return _HANDLERS[args.command](args, DEFAULT_BUDGET)[1]


def assert_doc_is_json_dumps_of_the_row_dicts(report):
    whole = {**report, "rows": list(report["rows"])}
    assert all(type(row) is dict for row in whole["rows"])
    text = json.dumps(whole, sort_keys=True, indent=2) + "\n"
    assert "".join(_doc_pieces(report)) == text


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 5, 7, 11, 13]).flatmap(lambda p: st.tuples(
    st.just(p), st.integers(1, min(3, p)), st.sampled_from(["exhaustive", "sample"]),
    st.integers(0, 2 * _ROW_BATCH + 1), st.integers(0, 2 ** 32),
    st.none() | st.integers(1, p))))
@example((13, 1, "exhaustive", 0, 0, None))
@example((7, 1, "sample", 0, 0, None))
@example((11, 2, "sample", _ROW_BATCH, 5, 4))
def test_thm4_doc_matches_json_dumps_of_its_row_dicts(params):
    # the report keeps the sweep's records and projects each to its row
    # dict only as its batch is written
    p, m, mode, count, seed, size = params
    argv = ["thm4", "--p", str(p), "--m", str(m), "--mode", mode,
            "--count", str(count), "--seed", str(seed)]
    try:
        report = _report(argv + ([] if size is None else ["--size", str(size)]))
    except (BudgetExceeded, ParameterOutOfRange):
        return  # a threshold above p, or sums over the budget: no report
    assert type(report["rows"]) is _Rows
    assert_doc_is_json_dumps_of_the_row_dicts(report)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, _ROW_BATCH + 1),
       st.lists(st.sampled_from([5, 7, 11, 13]), min_size=1, max_size=3),
       st.lists(st.sampled_from([2, 3]), min_size=1, max_size=2),
       st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=3),
       st.integers(1, 6))
@example(0, 0, [5], [2], [0], 1)
def test_experiment_doc_matches_json_dumps_of_its_row_dicts(seed, trials, p_set, n_set,
                                                            m_set, k_max):
    def listed(values):
        return ",".join(map(str, values))

    report = _report(["experiment", "--seed", str(seed), "--trials", str(trials),
                      "--p-set", listed(p_set), "--n-set", listed(n_set),
                      "--m-set", listed(m_set), "--k-max", str(k_max)])
    assert type(report["rows"]) is _Rows
    assert_doc_is_json_dumps_of_the_row_dicts(report)


_cells = st.none() | st.booleans() | st.integers() | st.text(max_size=12)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda width: st.tuples(
    st.lists(st.text(min_size=1, max_size=8), min_size=width, max_size=width),
    st.lists(st.lists(_cells, min_size=width, max_size=width),
             max_size=2 * _ROW_BATCH + 1))))
@example((["a", "b"], []))
@example((["x"], [[i] for i in range(_ROW_BATCH + 1)]))
@example((["subset", "n"], [["[0, 1]  ", 2], [" ", None]]))
def test_streamed_table_matches_the_whole_table(table):
    headers, rows = table
    streamed = list(_table_pieces(headers, rows, lambda row: row))
    assert "".join(streamed) == whole_table(headers, rows) + "\n"
    # the header and its rule, then one piece per batch of rows
    assert len(streamed) == 1 + -(-len(rows) // _ROW_BATCH)


@pytest.mark.parametrize("argv, table", [
    (["thm4", "--p", "29", "--m", "1", "--mode", "sample", "--count", "0"],
     ["p = 29, m = 1, S = [0], subset size 11 (threshold 11), mode sample",
      "subset  n  hypothesis  covered  missing",
      "------  -  ----------  -------  -------",
      "subsets tested: 0   failures: 0"]),
    (["experiment", "--trials", "0"],
     ["trial  p  n  k  m  |C|  thm1  thm2  thm3  old  certificate  violations",
      "-----  -  -  -  -  ---  ----  ----  ----  ---  -----------  ----------",
      "violations total: 0"]),
])
def test_report_without_rows_keeps_its_list_and_table_header(capsys, argv, table):
    code, out, _ = run(capsys, argv + ["--format", "doc"])
    assert code == 0 and '\n  "rows": [],\n' in out
    assert json.loads(out)["rows"] == []
    code, out, _ = run(capsys, argv)
    assert code == 0 and out == "\n".join(table) + "\n"


def test_doc_writer_peak_memory_is_one_copy_per_level():
    # A thm4-shaped document: its rows hold most of the text, which each
    # level copies once in its join, so at most two copies are alive.
    rows = [{"covered": False, "hypothesis_met": True, "missing": [i % 13, 12],
             "n": 2, "subset": [0, 1, i % 11 + 2, 12]} for i in range(1500)]
    doc = {"command": "thm4", "config": {"p": 13, "forbidden": [0]}, "rows": rows,
           "failures": 0, "subsets_tested": 1500}
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        text = _doc_text(doc)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert text == json.dumps(doc, sort_keys=True, indent=2)
    assert peak < 2.5 * len(text)


@pytest.mark.parametrize("fmt, copies", [("doc", 1.0), ("table", 3.0)])
def test_thm4_output_file_peak_memory_is_the_sweeps_own(capsys, tmp_path, fmt, copies):
    # The sweep keeps the reports of its 76 orbits and an 8-byte code per
    # row, and the report derives the 1716 rows, their dicts, cells and
    # lines one batch at a time: the peak is 0.20 times the doc file and
    # 0.73 times the smaller table file.  With the 1716 records and a dict
    # of orbit images held by the sweep, it was 0.76 and 2.94 times; with
    # a dict per row alive until the write ended, the doc peaked at 1.41
    # times its file; with every cell, padded line and their join alive
    # at once, the table peaked at 14.1 times.
    argv = ["thm4", "--p", "13", "--m", "1", "--format", fmt]
    code, out, _ = run(capsys, argv)
    path = tmp_path / "report.txt"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert main(argv + ["--out", str(path)]) == code == 0
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    data = path.read_bytes()
    assert data == out.encode()
    assert peak < copies * len(data)


@pytest.mark.parametrize("doc", [
    0.5, {"x": 0.5}, [1, 2.0], {"x": {1, 2}}, {1: "x"}, {"a": [{2: 3}]},
    {"rows": _Rows([object()])},
])
def test_doc_writer_refuses_what_has_no_document_form(doc):
    with pytest.raises(TypeError):
        _doc_text(doc)


# ----------------------------------------------------------------------
# usage
# ----------------------------------------------------------------------

@pytest.mark.parametrize("argv, message", [
    (["thm4", "--p", "7", "--m", "1", "--forbidden", ",,,"],
     "argument --forbidden: expected at least one integer"),
    (["experiment", "--p-set", "x"],
     "argument --p-set: expected comma-separated integers, got 'x'"),
])
def test_bad_integer_list_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err.endswith(f"sumsetlab {argv[0]}: error: {message}\n")


def test_budget_below_one_is_usage_error(capsys):
    code, out, err = run(capsys, ["thm4", "--p", "7", "--m", "1", "--budget", "0"])
    assert code == 1 and out == ""
    assert err == "sumsetlab: error: budget must be >= 1, got 0\n"


def test_no_command_is_usage_error(capsys):
    assert run(capsys, [])[0] == 1


def test_unknown_scope_is_usage_error(capsys):
    assert run(capsys, ["identities", "nonsense"])[0] == 1


def test_help_exits_zero(capsys):
    assert run(capsys, ["--help"])[0] == 0


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_help_of_each_command_exits_zero(capsys, command):
    code, out, err = run(capsys, [command, "--help"])
    assert code == 0 and err == ""
    assert out.startswith(f"usage: sumsetlab {command} [-h] ")


def test_identities_help_lists_each_scopes_default_and_range(capsys):
    code, out, _ = run(capsys, ["identities", "--help"])
    assert code == 0
    entries = {}  # flag -> its help text, the wrapped lines joined
    for line in out.split("\noptions:\n")[1].splitlines():
        words = line.split()
        if line.startswith("  -"):
            flag = words[0].rstrip(",")
            entries[flag] = " ".join(words[2:])
        else:
            entries[flag] += " " + " ".join(words)
    assert set(map(_flag, _ID_OPTIONS)) <= set(entries)
    for scope, limits in _SCOPE_LIMITS.items():
        for dest, (default, low, high) in limits.items():
            span = f"in [{low}, {high}]" if high is not None else f">= {low}"
            parts = entries[_flag(dest)].split("; ")[1:]
            assert any(scope in part.split(":")[0].split("/")
                       and part.endswith(f": default {default}, {span}")
                       for part in parts), (scope, dest)


def test_a_run_loads_no_argparse_gettext_or_locale(eh_file):
    # a fresh interpreter, as a user's run has; each command, a usage
    # error and a help text run through main
    argvs = [["identities", "lemma22", "--fix-n", "1"], ["sumset", eh_file],
             ["thm4", "--p", "5", "--m", "1"], ["experiment", "--trials", "1"],
             ["thm4", "--p", "x"], ["identities", "--help"]]
    script = ("import os, sys\n"
              "import sumsetlab.cli\n"
              f"for argv in {argvs!r}:\n"
              "    sumsetlab.cli.main(argv + ['--out', os.devnull])\n"
              "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n")
    src = os.path.dirname(os.path.dirname(sumsetlab.__file__))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert "sumsetlab thm4: error: argument --p: invalid int value: 'x'" in proc.stderr


# The draws of the parser's differential test: values and junk tokens
# that look like options, numbers or separators.  The draws leave out
# what argparse itself may read differently from one Python version to
# the next: a value attached to -h (3.13 reads -hx as -h), and a "--"
# first or last, which only the examples give.
_VALUES = ["7", "0", "-5", "-0", "-1.5", "-.5", "-5.", "-1,1", "-x", "-", "", " ", "5 6",
           "x", "1,2", ",,", "1,,2", "+5", " 7 ", "\u0663", "f.json", "-x.json"]
_JUNK = ["--", "---", "--=x", "--x", "-p", "--bogus=1", "--p 7", "-1 2", "--help=x",
         "-h", "--help", "--he", "bogus", *_COMMANDS]


def _values_of(kind, clean):
    if type(kind) is tuple:
        valid = st.sampled_from(kind)
    elif kind is _int_list:
        valid = st.lists(st.integers(-3, 20), min_size=1, max_size=3).map(
            lambda values: ",".join(map(str, values)))
    elif kind is int:
        valid = st.integers(-10, 10).map(str)
    else:
        valid = st.sampled_from(["f.json", "-", "-5", "a b"])
    return valid if clean else valid | st.sampled_from(_VALUES)


@st.composite
def _argvs(draw):
    """An argv of one command from the table: each flag none, one or two
    times, in full, as a prefix or with its value after "=", and the
    positionals among them.  A clean argv has valid values and unique
    prefixes only; any other may also have a flag without its value,
    values and prefixes of every kind, and junk tokens anywhere."""
    clean = draw(st.booleans())
    command = draw(st.sampled_from(list(_COMMANDS)))
    _, positionals, flags, options = _COMMANDS[command]
    words = [[draw(_values_of(kind, clean))] for _, _, kind, _ in positionals]
    for dest, (kind, default, _, _) in flags.items():
        string = _flag(dest)
        unique = min(n for n in range(3, len(string) + 1) if string[:n] == string
                     or [o for o in options if o.startswith(string[:n])] == [string])
        for _ in range(draw(st.integers(default is _REQUIRED, 1 if clean else 2))):
            prefix = string[:draw(st.just(len(string)) | st.integers(
                unique if clean else 3, len(string)))]
            value = draw(_values_of(kind, clean))
            forms = [[prefix, value], [f"{prefix}={value}"]] + ([] if clean else [[prefix]])
            words.append(draw(st.sampled_from(forms)))
    argv = [command] + [token for word in draw(st.permutations(words)) for token in word]
    for _ in range(0 if clean else draw(st.integers(0, 3))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_JUNK + _VALUES)))
    return argv


def _parse_outcome(argv):
    try:
        return "accepted", vars(parse_args(argv))
    except _Help:
        return "help", None
    except _UsageError:
        return "refused", None


def _argparse_outcome(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return "accepted", vars(build_parser().parse_args(argv))
        except SystemExit as exc:
            return {0: "help", 1: "refused"}[exc.code], None


@settings(max_examples=400, deadline=None)
@given(_argvs().filter(lambda argv: "--" not in (argv[0], argv[-1])))
@example(["experiment", "--m-set=-1,1"])
@example(["experiment", "--m-set", "-1,1"])
@example(["thm4", "--seed", "-5", "--p", "7", "--m=1", "--p", "11"])
@example(["sumset", "--", "-x.json"])
@example(["sumset", "f.json", "--"])
@example(["--he", "thm4"])
@example(["thm4", "-h", "--s", "1"])
def test_parser_agrees_with_argparse(argv):
    # the same values, or both refuse, or both print help; nothing else
    # escapes the parser
    assert _parse_outcome(argv) == _argparse_outcome(argv)


def test_internal_check_failure_exits_2(capsys, monkeypatch):
    def broken(avec):
        raise NonIntegerResult("expected an integer, got 1/2")

    monkeypatch.setattr(sumsetlab.identities, "dyson_closed_form", broken)
    code, out, err = run(capsys, ["identities", "dyson"])
    assert code == 2 and out == ""
    assert err == "sumsetlab: internal check failed: expected an integer, got 1/2\n"
