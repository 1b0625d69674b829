import contextlib
import enum
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import event, example, given, settings, strategies as st

import sumsetlab
from oracles import (
    build_parser,
    whole_table,
)
from sumsetlab import (
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
    _help_text,
    _int_list,
    _table_pieces,
    main,
    parse_args,
)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def child_env():
    """The environment of a fresh interpreter that imports this package."""
    return {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sumsetlab.__file__))}


def run_process(argv, max_bytes=None):
    """Run the CLI in a fresh interpreter; returns (exit code, stdout,
    stderr).  ``max_bytes`` caps the child's address space, so that a run
    that would exhaust memory fails with a MemoryError instead."""
    def cap():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (max_bytes, max_bytes))

    proc = subprocess.run([sys.executable, "-m", "sumsetlab.cli"] + argv,
                          capture_output=True, text=True, env=child_env(),
                          preexec_fn=cap if max_bytes else None)
    return proc.returncode, proc.stdout, proc.stderr


def run_doc(capsys, argv):
    code, out, err = run(capsys, argv + ["--format", "doc"])
    return code, (json.loads(out) if out else None), err


_EH = json.dumps(instance_to_dict(SumsetInstance(7, [(0, 1, 2, 3)] * 2,
                                                   uniform_forbidden(2, {0}))))


@pytest.fixture
def eh_file(tmp_path):
    path = tmp_path / "eh.json"
    path.write_text(_EH)
    return str(path)


# ----------------------------------------------------------------------
# identities
# ----------------------------------------------------------------------

def test_identities_dyson(capsys):
    code, rep, _ = run_doc(capsys, ["identities", "dyson", "--max-vars", "3"])
    assert code == 0 and rep["all_agree"] is True and rep["first_failure"] is None
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
        assert row["ct_chi_b"] == aomoto_constant_term(params._replace(a=params.b, b=params.a))


def test_identities_aomoto_wrong_orientation(capsys):
    code, rep, err = run_doc(capsys, ["identities", "aomoto", "--max-n", "2", "--chi-side", "b"])
    assert code == 2
    assert err == "sumsetlab: identities: disagreement, see the report\n"
    assert rep["all_agree"] is False
    orientation = rep["orientation"]
    assert orientation["closed_form_paired_with"] == "ct_chi_b"
    assert orientation["inverted_form_paired_with"] == "ct_chi_a"
    first = rep["first_failure"]
    assert first is not None
    # the pairing can only break where the shift is active and asymmetric
    assert first["s"] >= 1 and first["a"] != first["b"]


def test_identities_table_format(capsys):
    code, out, _ = run(capsys, ["identities", "dyson", "--max-vars", "2"])
    assert code == 0
    assert out.splitlines()[-1].endswith("all agree: True")
    # a disagreement: the agree column last, then the first failing row
    code, out, _ = run(capsys, ["identities", "aomoto", "--chi-side", "b", "--max-n", "1",
                                "--max-a", "1", "--max-b", "0", "--max-m", "0"])
    assert code == 2
    assert out == (
        "n  s  a  b  m  ct_chi_a  ct_chi_b  closed_form  inverted_form  agree\n"
        "-  -  -  -  -  --------  --------  -----------  -------------  -----\n"
        "1  0  0  0  0  1         1         1            1              True\n"
        "1  0  1  0  0  1         1         1            1              True\n"
        "1  1  0  0  0  1         1         1            1              True\n"
        "1  1  1  0  0  1         2         1            2              False\n"
        "points checked: 4   all agree: False\n"
        "FIRST FAILURE: {'n': 1, 's': 1, 'a': 1, 'b': 0, 'm': 0, 'ct_chi_a': 1, "
        "'ct_chi_b': 2, 'closed_form': 1, 'inverted_form': 2, 'agree': False}\n"
    )


# ----------------------------------------------------------------------
# sumset
# ----------------------------------------------------------------------

def test_sumset_table(capsys, eh_file):
    code, out, _ = run(capsys, ["sumset", eh_file])
    assert code == 0
    assert out == (
        "p = 7\n"
        "A_1 = [0, 1, 2, 3]\n"
        "A_2 = [0, 1, 2, 3]\n"
        "S_1,2 = [0]\n"
        "S_2,1 = [0]\n"
        "sumset (5 residues): [1, 2, 3, 4, 5]\n"
        "bound  value  hypothesis  reason\n"
        "-----  -----  ----------  ----------------------------------------\n"
        "thm1   5      True        p=7 > max(n(k-1)-mn(n-1), mn)=4\n"
        "thm2   5      True        p=7 > max(mn, sum(|A_j|-1)-mn(n-1))=4\n"
        "thm3   5      True        p=7 > mn=2\n"
        "old    7      False       needs p > mn=2 and p <= n(k-1)-mn(n-1)=4\n"
        "certificate [leading-form]: coefficient 4 = 4 mod p, claimed bound 5, valid: True\n"
    )


def test_sumset_table_names_a_skipped_certificate(capsys, tmp_path):
    path = tmp_path / "infeasible.json"
    inst = SumsetInstance(7, [(0, 1), (0, 1, 2), (0, 1, 2)], uniform_forbidden(3, {0}))
    path.write_text(json.dumps(instance_to_dict(inst)))
    code, out, _ = run(capsys, ["sumset", str(path)])
    assert code == 0
    assert out.splitlines()[-1] == ("certificate: skipped (degree-infeasible: "
                                    "sum(sizes_j - 1) = 5 < m*n*(n-1) = 6)")


def test_sumset_large_prime(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"p": 10 ** 18 + 3, "sets": [[0, 1], [0, 2]]}))
    code, rep, _ = run_doc(capsys, ["sumset", str(path)])
    assert code == 0 and rep["sumset"] == [0, 1, 2, 3]


def test_out_file(tmp_path, capsys, eh_file):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, ["sumset", eh_file, "--format", "doc", "--out", str(target)])
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["cardinality"] == 5


# ----------------------------------------------------------------------
# thm4
# ----------------------------------------------------------------------

def test_thm4_sampled(capsys):
    code, rep, _ = run_doc(capsys, ["thm4", "--p", "11", "--m", "1", "--mode", "sample",
                                    "--count", "10", "--seed", "7"])
    assert code == 0 and rep["subsets_tested"] == 10 and rep["config"]["threshold"] == 7


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


def test_thm4_missing_list_over_the_budget_is_budget_exit():
    # n = 1 summand passes the tuple check, but about 10^9 residues are
    # missing; they are refused before any p-sized object is built
    argv = ["thm4", "--p", "1000000007", "--m", "1", "--mode", "sample",
            "--count", "3", "--size", "3", "--format", "doc"]
    code, _, err = run_process(argv, max_bytes=1 << 30)
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


def test_package_runs_as_a_module():
    proc = subprocess.run([sys.executable, "-m", "sumsetlab", "thm4", "--p", "7", "--m", "1"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert "subsets tested: 21" in proc.stdout


@pytest.mark.parametrize("options", [["--format", "table"], ["--format", "doc"],
                                     ["--out", "/dev/stdout"]], ids=["table", "doc", "out"])
def test_a_closed_pipe_keeps_the_exit_code_and_says_nothing(options):
    # the report is larger than the pipe and the reader's buffer, so the
    # writer meets the closed pipe, also through a file that --out opens on it
    argv = [sys.executable, "-m", "sumsetlab", "thm4", "--p", "13", "--m", "1", *options]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=child_env()) as proc:
        proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0 and proc.stderr.read() == b""


def test_a_closed_pipe_on_stderr_keeps_the_exit_code():
    # stdout and stderr share one pipe whose reader is gone before the
    # run starts: the report and then the disagreement line meet it
    argv = [sys.executable, "-m", "sumsetlab", "identities", "aomoto", "--chi-side", "b",
            "--max-n", "4"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(argv, stdout=write_end, stderr=write_end, env=child_env())
    finally:
        os.close(write_end)
    assert proc.returncode == 2


# ----------------------------------------------------------------------
# experiment
# ----------------------------------------------------------------------

def test_experiment_runs_clean(capsys):
    code, rep, _ = run_doc(capsys, ["experiment", "--trials", "20", "--seed", "11",
                                    "--enforce", "thm3"])
    assert code == 0 and rep["violations_total"] == 0 and len(rep["rows"]) == 20


def test_experiment_zero_trials(capsys):
    code, rep, _ = run_doc(capsys, ["experiment", "--trials", "0"])
    assert code == 0 and rep["rows"] == []


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

class _Level(enum.IntEnum):
    LOW = -1
    HIGH = 10 ** 20


class _Name(str):
    pass


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
# a subclass of int or str is written as its base type
@example(_Level.HIGH)
@example(_Name("caf\u00e9"))
@example([_Level.LOW, _Level.HIGH])
@example([_Name("a"), "b", _Level.LOW, 2])
@example({"level": _Level.LOW, "name": _Name("x"), "rows": [_Name("y"), _Name("z")]})
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
    return _HANDLERS[args.command](args)[1]


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
# the exit contract
# ----------------------------------------------------------------------

# One refused run per row: (argv, files, exit code, stderr, fresh).  Each
# name in ``files`` is written with its text under TMP, which stands for
# the test's own directory in argv and in stderr.  A refusal comes before
# the first byte of a report, so stdout stays empty.  The stderr is exact,
# but "..." in it stands for any text, as in a doctest; a usage error from
# the parser prints its usage line first, which the help digests below
# pin.  A fresh row runs in a new interpreter, where no traceback escapes.
_REFUSALS = [
    (["identities", "dyson", "--max-vars", "9"], {}, 1,
     "sumsetlab: error: --max-vars must be in [2, 6]\n", False),
    (["identities", "prop21", "--min-n", "3", "--max-n", "2"], {}, 1,
     "sumsetlab: error: --min-n must not exceed --max-n\n", False),
    (["sumset", "TMP/bad.json"], {"bad.json": "{nope"}, 1,
     "sumsetlab: error: not valid JSON: Expecting property name enclosed in double quotes: "
     "line 1 column 2 (char 1)\n", False),
    (["sumset", "TMP/composite.json"], {"composite.json": '{"p": 6, "sets": [[0, 1]]}'}, 1,
     "sumsetlab: error: modulus 6 is composite\n", False),
    (["sumset", "TMP/latin1.json"], {"latin1.json": b'{"p": 7, "sets": [[0]], "note": "caf\xe9"}'},
     1, "sumsetlab: error: not valid JSON: 'utf-8' codec can't decode byte 0xe9 in position 36: "
        "invalid continuation byte\n", True),
    # a non-ASCII digit passes str.isdigit
    (["sumset", "TMP/digit.json"],
     {"digit.json": '{"p": 7, "sets": [[0, 1], [0, 2]], "forbidden": {"\\u00b2,1": [0]}}'}, 1,
     "sumsetlab: error: bad forbidden key '²,1', expected \"i,j\"\n", True),
    # two spellings of one pair, and one key twice
    (["sumset", "TMP/spelled.json"],
     {"spelled.json": '{"p": 7, "sets": [[0, 1], [0, 2]], "forbidden": {"1,2": [0], "01,2": [1]}}'},
     1, "sumsetlab: error: forbidden key '01,2' repeats the pair 1,2\n", True),
    (["sumset", "TMP/twice.json"],
     {"twice.json": '{"p": 7, "sets": [[0, 1], [0, 2]], "forbidden": {"1,2": [0], "1,2": [1]}}'},
     1, "sumsetlab: error: not valid JSON: key '1,2' appears twice in one object\n", True),
    # deeper than the parser recurses, and past the int digit limit
    (["sumset", "TMP/deep.json"], {"deep.json": "[" * 200_000 + "]" * 200_000}, 1,
     "sumsetlab: error: not valid JSON: ...\n", True),
    (["sumset", "TMP/long.json"], {"long.json": '{"p": ' + "7" * 5_000 + ', "sets": [[0]]}'}, 1,
     "sumsetlab: error: not valid JSON: ...\n", True),
    (["sumset", "TMP/absent.json"], {}, 1,
     "sumsetlab: error: [Errno 2] No such file or directory: 'TMP/absent.json'\n", False),
    (["sumset", "TMP/eh.json", "--budget", "3"], {"eh.json": _EH}, 3,
     "sumsetlab: budget exceeded: 16 tuples exceed the enumeration budget of 3\n", False),
    (["sumset", "TMP/eh.json", "--out", "TMP/absent/x"], {"eh.json": _EH}, 1,
     "sumsetlab: error: [Errno 2] No such file or directory: 'TMP/absent/x'\n", True),
    # --out= names no file: it fails to open like any unusable path
    (["thm4", "--p", "5", "--m", "1", "--out="], {}, 1,
     "sumsetlab: error: [Errno 2] No such file or directory: ''\n", False),
    (["thm4", "--p", "13", "--m", "1", "--budget", "100"], {}, 3,
     "sumsetlab: budget exceeded: more than 100 subsets of size 7 exceed the budget\n", False),
    # C(10000019, 6325) has more digits than int allows to convert to str
    (["thm4", "--p", "10000019", "--m", "1"], {}, 3,
     "sumsetlab: budget exceeded: more than 10000000 subsets of size 6325 exceed the budget\n",
     False),
    (["thm4", "--p", "1000000007", "--m", "1", "--budget", "1000"], {}, 3,
     "sumsetlab: budget exceeded: more than 1000 subsets of size 63246 exceed the budget\n",
     False),
    (["thm4", "--p", "7", "--m", "1", "--size", "9"], {}, 1,
     "sumsetlab: error: subset size 9 not in [1, 7]\n", False),
    # size 1 means n = 0, so no instance is built that would catch the residue
    (["thm4", "--p", "13", "--m", "1", "--forbidden", "20", "--size", "1"], {}, 1,
     "sumsetlab: error: S has elements outside [0, 13)\n", False),
    # no S of m > p residues exists, whether S is the default or given
    (["thm4", "--p", "3", "--m", "5"], {}, 1,
     "sumsetlab: error: m=5 exceeds p=3: S holds at most p residues\n", False),
    (["thm4", "--p", "3", "--m", "4", "--forbidden", "0,1,2"], {}, 1,
     "sumsetlab: error: m=4 exceeds p=3: S holds at most p residues\n", False),
    # m < 1 has no coverage threshold; it is refused before S is read
    (["thm4", "--p", "5", "--m", "-1"], {}, 1, "sumsetlab: error: m must be >= 1, got -1\n", False),
    (["thm4", "--p", "5", "--m", "0", "--forbidden", "1"], {}, 1,
     "sumsetlab: error: m must be >= 1, got 0\n", False),
    # without --size the subset size is the threshold, and the error says so
    (["thm4", "--p", "2", "--m", "2"], {}, 1,
     "sumsetlab: error: coverage threshold 3 exceeds p=2\n", False),
    (["thm4", "--p", "2", "--m", "2", "--size", "3"], {}, 1,
     "sumsetlab: error: subset size 3 not in [1, 2]\n", False),
    (["experiment", "--trials", "1", "--p-set", "5", "--n-set", "2", "--m-set", "3",
      "--enforce", "thm3"], {}, 1,
     "sumsetlab: error: no (p, n, k, m) draw satisfied 'thm3' in 1000 tries\n", False),
    (["thm4", "--p", "7", "--m", "1", "--forbidden", ",,,"], {}, 1,
     "...\nsumsetlab thm4: error: argument --forbidden: expected at least one integer\n", False),
    (["experiment", "--p-set", "x"], {}, 1,
     "...\nsumsetlab experiment: error: argument --p-set: expected comma-separated integers, "
     "got 'x'\n", False),
    (["thm4", "--p", "7", "--m", "1", "--budget", "0"], {}, 1,
     "sumsetlab: error: budget must be >= 1, got 0\n", False),
    # a budget of 1 is taken, and the sweep exceeds it
    (["thm4", "--p", "7", "--m", "1", "--budget", "1"], {}, 3,
     "sumsetlab: budget exceeded: more than 1 subsets of size 5 exceed the budget\n", False),
    ([], {}, 1, "...\nsumsetlab: error: the following arguments are required: command\n", False),
    (["identities", "nonsense"], {}, 1,
     "...\nsumsetlab identities: error: argument scope: invalid choice: 'nonsense' (choose from "
     "'dyson', 'zeilberger', 'aomoto', 'lemma22', 'prop21')\n", False),
]


@pytest.mark.parametrize("argv, files, code, err, fresh", _REFUSALS,
                         ids=[" ".join(row[0]) for row in _REFUSALS])
def test_refused_run(capsys, tmp_path, argv, files, code, err, fresh):
    for name, text in files.items():
        (tmp_path / name).write_bytes(text if type(text) is bytes else text.encode())
    argv = [token.replace("TMP", str(tmp_path)) for token in argv]
    pattern = ".*".join(map(re.escape, err.replace("TMP", str(tmp_path)).split("...")))
    got = run_process(argv) if fresh else run(capsys, argv)
    assert got[:2] == (code, "") and "Traceback" not in got[2]
    assert re.fullmatch(pattern, got[2], re.DOTALL), got[2]


# Three groups of refusals keep their own names; like a table row, each
# case asserts its exit code, an empty stdout and its exact stderr line.
@pytest.mark.parametrize("argv", [["dyson", "--max-a", "3"], ["zeilberger", "--slack", "1"],
                                  ["prop21", "--chi-side", "a"], ["lemma22", "--max-n", "2"],
                                  ["aomoto", "--fix-n", "2"]])
def test_identities_unread_option_is_usage_error(capsys, argv):
    assert run(capsys, ["identities"] + argv) == (
        1, "", f"sumsetlab: error: identities {argv[0]} does not read {argv[1]}\n")


@pytest.mark.parametrize("argv, message", [
    (["--k-max", "0"], "k_max must be >= 1, got 0"),
    (["--k-max", "-3"], "k_max must be >= 1, got -3"),
    (["--m-set", "-1"], "m must be >= 0, got -1"),
    (["--m-set", "9", "--p-set", "5"], "m must lie in [0, 5], got 9"),
    (["--p-set", "0,5"], "modulus must be an integer >= 2, got 0"),
    (["--n-set", "0", "--enforce", "thm1"], "n must be >= 1, got 0"),
], ids=[f"argv{i}" for i in range(6)])
def test_experiment_out_of_range_is_usage_error(capsys, argv, message):
    assert run(capsys, ["experiment", "--trials", "2"] + argv) == (
        1, "", f"sumsetlab: error: {message}\n")


@pytest.mark.parametrize("listed, message", [(["--p-set", "5,9"], "modulus 9 is composite"),
                                             (["--n-set", "0,2"], "n must be >= 1, got 0"),
                                             (["--m-set=-1,1"], "m must be >= 0, got -1")])
@pytest.mark.parametrize("trials, seed", [(1, 0), (1, 1), (1, 2), (1, 3), (0, 0)])
def test_experiment_checks_every_listed_value_before_drawing(capsys, listed, message,
                                                             trials, seed):
    # whether or not the seed draws the bad value, and with no draw at all
    assert run(capsys, ["experiment", "--trials", str(trials), "--seed", str(seed)]
               + listed) == (1, "", f"sumsetlab: error: {message}\n")


# ----------------------------------------------------------------------
# usage
# ----------------------------------------------------------------------

# SHA-256 of each -h/--help text, "" for the top level's.  The texts hold
# the usage lines that usage errors print too.  The digests pin the bytes
# on every Python version; on 3.11 each command's text is also checked to
# equal that of the argparse parser built from the same table, at 80
# columns.  The top level's lists the commands in a section of its own.
_HELP_DIGESTS = {
    "": "05bd03f43da2a53aa564c6e1ca1c064e4d697ad6d7b735816495e707a9692d0c",
    "identities": "5a6a1b783e4d1399378fbbf089dc42cf21c16f4c0cf70552897e297cc8d72681",
    "sumset": "6a096be0617b06a30b6e743129efc2b5de602214235ffde41813af9926d022b7",
    "thm4": "c20a0acfd68d4674d3456c5deace11fd4f337a280db6798c7d98f3b3ea1cdcfd",
    "experiment": "0a905c82b625ba7d36700fd7c0bd640dba94e334e633e0a2ca5d32182de90fa7",
}


def test_help_exits_zero(capsys):
    code, out, err = run(capsys, ["--help"])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == _HELP_DIGESTS[""], out


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_help_of_each_command_exits_zero(capsys, command):
    code, out, err = run(capsys, [command, "--help"])
    assert code == 0 and err == ""
    assert out.startswith(f"usage: sumsetlab {command} [-h] ")
    assert hashlib.sha256(out.encode()).hexdigest() == _HELP_DIGESTS[command], out
    if _ARGPARSE_TEXTS:
        assert _argparse_outcome([command, "--help"]) == ("help", out)


@pytest.mark.parametrize("argv, refused", [
    (["-hh"], None),                 # -h given twice
    (["thm4", "-hh"], None),
    (["thm4", "-hx"], "'x'"),
    (["thm4", "-hhx"], "'x'"),       # -h twice, then the value
    (["--help=hx"], "'hx'"),
])
def test_help_with_a_value_attached(capsys, argv, refused):
    code, out, err = run(capsys, argv)
    if refused is None:
        assert code == 0 and err == "" and out.startswith("usage: ")
    else:
        assert code == 1 and out == ""
        assert err.endswith(f"error: argument -h/--help: ignored explicit argument {refused}\n")


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
    # error and a help text run through main.  The identities run, a help
    # text and a usage error come first and leave sumsets unloaded; the
    # sumset run loads it.
    argvs = [["identities", "lemma22", "--fix-n", "1"], ["identities", "--help"],
             ["thm4", "--p", "x"], ["sumset", eh_file],
             ["thm4", "--p", "5", "--m", "1"], ["experiment", "--trials", "1"]]
    script = ("import os, sys\n"
              "import sumsetlab.cli\n"
              "loaded = []\n"
              f"for argv in {argvs!r}:\n"
              "    sumsetlab.cli.main(argv + ['--out', os.devnull])\n"
              "    loaded.append('sumsetlab.sumsets' in sys.modules)\n"
              "print(loaded)\n"
              "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == [str([False] * 3 + [True] * 3), "[]"]
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


# argparse's texts are compared on Python 3.11, whose readings
# test_parser_reads_double_dash_and_a_last_flag pins; other versions word
# or wrap some of them differently.
_ARGPARSE_TEXTS = sys.version_info[:2] == (3, 11)


def _parse_outcome(argv):
    """("accepted", the values), ("help", the help text) or ("refused",
    the stderr of the usage error)."""
    try:
        return "accepted", vars(parse_args(argv))
    except _Help as exc:
        return "help", str(exc)
    except _UsageError as exc:
        return "refused", f"{exc.usage}{exc.prog}: error: {exc}\n"


def _argparse_outcome(argv):
    """_parse_outcome of argparse's reading, wrapped at 80 columns."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return "accepted", vars(build_parser().parse_args(argv))
        except SystemExit as exc:
            kind = {0: "help", 1: "refused"}[exc.code]
    return kind, (out if kind == "help" else err).getvalue()


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
    # escapes the parser.  On 3.11 a refusal's stderr and a command's help
    # are the same texts too, but the top level's help is our own.
    ours, theirs = _parse_outcome(argv), _argparse_outcome(argv)
    if ours[0] != "accepted" and (not _ARGPARSE_TEXTS or ours[1] == _help_text("")):
        ours, theirs = ours[0], theirs[0]
    assert ours == theirs


@pytest.mark.parametrize("argv, outcome", [
    # "--" ends the options: the token after it is the positional, and a
    # token past the positionals is not recognized
    (["sumset", "--", "f.json"], "f.json"),
    (["sumset", "--", "f.json", "x"], "unrecognized arguments: x"),
    (["sumset", "f.json", "--", "x"], "unrecognized arguments: x"),
    (["sumset", "--"], "the following arguments are required: FILE"),
    # "--" where the command goes is read as its name, unless it is last
    (["--", "thm4"], "argument command: invalid choice: '--' (choose from "
                     "'identities', 'sumset', 'thm4', 'experiment')"),
    (["--"], "the following arguments are required: command"),
    (["thm4", "--p", "7", "--m"], "argument --m: expected one argument"),
])
def test_parser_reads_double_dash_and_a_last_flag(argv, outcome):
    # argparse's readings (Python 3.11) of what the differential test
    # leaves out or draws seldom; later Pythons read a "--" first or last
    # differently, so these are pinned here
    if outcome.endswith(".json"):
        assert parse_args(argv).instance == outcome
    else:
        with pytest.raises(_UsageError) as info:
            parse_args(argv)
        assert str(info.value) == outcome


# The draws of the exit-contract fuzz, small so that a run is short: p
# and the primes of --p-set up to 31, --budget up to 10^4, a few trials
# and subsets, and identity options from the highest floor to the lowest
# default over the scopes that read them.  An int's (low, high): a clean
# draw stays in it, any other may also go one below low.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
_SMALL_INTS = {"m": (1, 3), "budget": (1, 10 ** 4), "count": (0, 5), "seed": (0, 2 ** 70),
               "size": (1, 6), "trials": (0, 3), "k_max": (1, 10), "n_set": (1, 4),
               "m_set": (0, 2), "forbidden": (0, 4)}


def _small_ints(dest, clean):
    if dest in ("p", "p_set"):
        primes = st.sampled_from(_SMALL_PRIMES)
        return primes if clean else primes | st.integers(-1, 31)
    if dest in _ID_OPTIONS:
        limits = [scope[dest] for scope in _SCOPE_LIMITS.values() if dest in scope]
        low, high = max(low for _, low, _ in limits), min(d for d, _, _ in limits)
    else:
        low, high = _SMALL_INTS[dest]
    return st.integers(low if clean else low - 1, high)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Per path argument, the paths a clean draw takes and those only any
    other draw takes.  FILE: a valid instance; a broken one, a missing
    file and a directory.  --out: the file it writes and os.devnull; two
    it cannot open.  So a run writes nowhere else."""
    root = tmp_path_factory.mktemp("fuzz")
    inst = SumsetInstance(7, [(0, 1, 2), (0, 1, 3)], uniform_forbidden(2, {1}))
    (root / "valid.json").write_text(json.dumps(instance_to_dict(inst)))
    (root / "broken.json").write_text('{"p": 7, "sets": [[0, 1], [0, 7]], "forbidden": {"1,2"')
    return {"instance": ([str(root / "valid.json")],
                         [str(root / "broken.json"), str(root / "missing.json"), str(root)]),
            "out": ([str(root / "out.txt"), os.devnull], [str(root / "absent" / "x"), ""])}


def _small_values(dest, kind, files, clean):
    """A value of flag or positional ``dest``: a small one of its kind; not
    ``clean``, also a bad path or a junk value."""
    if dest in files:
        good, bad = files[dest]
        return st.sampled_from(good if clean else good + bad)
    if type(kind) is tuple:
        valid = st.sampled_from(kind)
    elif kind is _int_list:
        valid = st.lists(_small_ints(dest, clean), min_size=1, max_size=3).map(
            lambda values: ",".join(map(str, values)))
    else:
        valid = _small_ints(dest, clean).map(str)
    return valid if clean else valid | st.sampled_from(_VALUES)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_exit_contract_holds_for_small_argvs(fuzz_files, data):
    # every run ends in 0, 1, 2 or 3 with no exception, a refusal says why
    # on stderr, and a refused run writes nothing on stdout and leaves no
    # --out file behind.  A clean argv gives an identities scope only the
    # options it reads.  A small --budget comes last, where it overrides
    # any drawn before it, so that no run has the default budget of 10^7.
    clean = data.draw(st.booleans())
    command = data.draw(st.sampled_from(list(_COMMANDS)))
    _, positionals, flags, _ = _COMMANDS[command]
    argv = [command] + [data.draw(_small_values(dest, kind, fuzz_files, clean))
                        for dest, _, kind, _ in positionals]
    for dest, (kind, default, _, _) in flags.items():
        unread = clean and dest in _ID_OPTIONS and dest not in _SCOPE_LIMITS[argv[1]]
        if default is _REQUIRED or not unread and data.draw(st.booleans()):
            argv.append(f"{_flag(dest)}={data.draw(_small_values(dest, kind, fuzz_files, clean))}")
    argv.append(f"--budget={data.draw(_small_ints('budget', clean))}")
    out_file = fuzz_files["out"][0][0]
    if os.path.exists(out_file):
        os.unlink(out_file)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    event(f"exit {code}")
    if code:
        assert err.getvalue().endswith("\n") and err.getvalue().strip(), argv
    if code in (1, 3):
        assert out.getvalue() == "" and not os.path.exists(out_file), argv


def test_internal_check_failure_exits_2(capsys, monkeypatch):
    def broken(avec):
        raise NonIntegerResult("expected an integer, got 1/2")

    monkeypatch.setattr(sumsetlab.identities, "dyson_closed_form", broken)
    code, out, err = run(capsys, ["identities", "dyson"])
    assert code == 2 and out == ""
    assert err == "sumsetlab: internal check failed: expected an integer, got 1/2\n"
