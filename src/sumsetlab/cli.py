"""Command-line front end.

Subcommands: identities, sumset, thm4, experiment.  Every run is fully
determined by its arguments (plus the SUMSETLAB_BUDGET environment
variable when --budget is absent); structured output is canonical JSON.

Exit codes:
  0  everything verified / nothing to disagree with
  1  usage error or malformed input
  2  mathematical disagreement, soundness violation or a failed
     internal consistency check (an ArithmeticError)
  3  budget exceeded
"""

import argparse
import functools
import itertools
import os
import sys
from json.encoder import encode_basestring_ascii as _encode_str

from .ffield import NotPrime, OutOfRange
from .identities import ParameterOutOfRange, sweep
from .sumsets import (
    BUDGET_ENV_VAR,
    BudgetExceeded,
    CannotSatisfyHypothesis,
    DEFAULT_BUDGET,
    HYPOTHESIS_CHOICES,
    InstanceFormatError,
    analyze,
    coverage_sweep,
    instance_to_dict,
    load_instance,
    run_experiment,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISAGREEMENT = 2
EXIT_BUDGET = 3

# enumeration covers Z/pZ only; the identity suite over the integers is
# what stands in for characteristic 0
_CHAR0_NOTE = ("characteristic 0: identity-level verification only "
               "(enumeration runs over Z/pZ)")


# What each identities option means, and per scope its (default, low,
# high), high None meaning unbounded.  The help text, the range checks
# and the rejection of options a scope does not read all come from here.
_ID_OPTIONS = {
    "max_vars": "largest variable count",
    "max_entry": "largest exponent entry",
    "min_n": "smallest n",
    "max_n": "largest n",
    "fix_n": "the fixed n",
    "max_a": "largest a",
    "max_b": "largest b",
    "max_m": "largest symmetric exponent m",
    "max_s": "largest shift count s",
    "k_span": "k sweeps m(n-1)+1 .. m(n-1)+k-span",
    "slack": "extra interpolation samples",
    "chi_side": "which product orientation the closed form is paired with "
                "('b' is a deliberate negative control)",
}
_DYSON_LIMITS = {"max_vars": (4, 2, 6), "max_entry": (2, 0, 4)}
_SCOPE_LIMITS = {
    "dyson": _DYSON_LIMITS,
    "zeilberger": _DYSON_LIMITS,
    "aomoto": {"max_n": (3, 1, 4), "max_a": (2, 0, 3), "max_b": (2, 0, 3),
               "max_m": (1, 0, 2), "chi_side": ("a", "a", "b")},
    "lemma22": {"fix_n": (2, 1, 4), "max_b": (2, 0, 3), "max_s": (2, 0, None),
                "max_m": (1, 0, 2), "slack": (2, 0, 4)},
    "prop21": {"min_n": (2, 1, 4), "max_n": (3, 1, 4), "max_m": (2, 1, 3),
               "k_span": (4, 1, 6)},
}


def _flag(dest):
    return "--" + dest.replace("_", "-")


def _span(low, high):
    return f"in [{low}, {high}]" if high is not None else f">= {low}"


def _option_help(dest):
    by_limits = {}
    for scope, limits in _SCOPE_LIMITS.items():
        if dest in limits:
            by_limits.setdefault(limits[dest], []).append(scope)
    return f"{_ID_OPTIONS[dest]}; " + "; ".join(
        f"{'/'.join(scopes)}: default {default}, {_span(low, high)}"
        for (default, low, high), scopes in by_limits.items()
    )


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _int_list(text):
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by every main() call."""
    parser = _Parser(
        prog="sumsetlab",
        description="Exact verification of restricted-sumset bounds over Z/pZ "
                    "and the constant-term identities behind them.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "doc"), default="table",
                        help="human table or structured JSON document (default: table)")
    common.add_argument("--out", metavar="PATH", default=None,
                        help="write the report to PATH instead of stdout")
    common.add_argument("--budget", type=int, default=None, metavar="N",
                        help=f"enumeration budget (default: ${BUDGET_ENV_VAR} "
                             f"or {DEFAULT_BUDGET})")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_id = sub.add_parser(
        "identities", parents=[common],
        help="brute-force vs closed-form sweeps of the constant-term identities",
    )
    p_id.add_argument("scope", choices=("dyson", "zeilberger", "aomoto", "lemma22", "prop21"),
                      help="which identity family to sweep")
    for dest in _ID_OPTIONS:
        kind = ({"choices": _SCOPE_LIMITS["aomoto"]["chi_side"][1:]} if dest == "chi_side"
                else {"type": int, "metavar": "N"})
        p_id.add_argument(_flag(dest), default=None, help=_option_help(dest), **kind)

    p_sum = sub.add_parser(
        "sumset", parents=[common],
        help="enumerate one instance file and report bounds and certificate",
    )
    p_sum.add_argument("instance", metavar="FILE",
                       help="JSON instance document (fields p, sets, forbidden)")

    p_t4 = sub.add_parser(
        "thm4", parents=[common],
        help="coverage sweep: do restricted n-fold sums of threshold-size sets "
             "hit every residue",
    )
    p_t4.add_argument("--p", type=int, required=True, help="prime modulus")
    p_t4.add_argument("--m", type=int, required=True, help="forbidden-set size")
    p_t4.add_argument("--mode", choices=("exhaustive", "sample"), default="exhaustive")
    p_t4.add_argument("--count", type=int, default=50,
                      help="sample mode: number of seeded subsets (default 50)")
    p_t4.add_argument("--seed", type=int, default=0, help="sample mode seed")
    p_t4.add_argument("--size", type=int, default=None,
                      help="subset size to test (default: the coverage threshold)")
    p_t4.add_argument("--forbidden", type=_int_list, default=None, metavar="LIST",
                      help="comma-separated forbidden differences "
                           "(default: 0,..,m-1)")

    p_exp = sub.add_parser(
        "experiment", parents=[common],
        help="seeded random soundness sweep over instances",
    )
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--trials", type=int, default=100)
    p_exp.add_argument("--p-set", type=_int_list, default=[5, 7, 11, 13], metavar="LIST")
    p_exp.add_argument("--n-set", type=_int_list, default=[2, 3], metavar="LIST")
    p_exp.add_argument("--m-set", type=_int_list, default=[0, 1], metavar="LIST")
    p_exp.add_argument("--k-max", type=int, default=6)
    p_exp.add_argument("--enforce", choices=HYPOTHESIS_CHOICES, default="none",
                       help="resample parameter tuples until this bound's "
                            "hypothesis holds")
    return parser


def _require(condition, message):
    if not condition:
        raise _UsageError(message)


class _Rows:
    """The rows of a report: the library's records and the projection that
    makes one record's row dict.  Iterating projects one record at a time,
    so a writer holds the row dicts of one batch at most, never all."""

    __slots__ = ("records", "project")

    def __init__(self, records, project=lambda row: row):
        self.records = records
        self.project = project

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return map(self.project, self.records)


# ----------------------------------------------------------------------
# identities
# ----------------------------------------------------------------------

def _scope_config(args):
    """The options of the chosen identities scope, defaulted and range
    checked; an option the scope does not read is a usage error."""
    limits = _SCOPE_LIMITS[args.scope]
    unread = [dest for dest in _ID_OPTIONS
              if dest not in limits and getattr(args, dest) is not None]
    _require(not unread, f"identities {args.scope} does not read "
             + ", ".join(map(_flag, unread)))
    config = {}
    for dest, (default, low, high) in limits.items():
        value = default if getattr(args, dest) is None else getattr(args, dest)
        _require(low <= value and (high is None or value <= high),
                 f"{_flag(dest)} must be {_span(low, high)}")
        config[dest] = value
    return config


def _cmd_identities(args, budget):
    scope = args.scope
    config = _scope_config(args)
    if scope == "prop21":
        _require(config["min_n"] <= config["max_n"], "--min-n must not exceed --max-n")
    if scope == "lemma22":
        config["n"] = config.pop("fix_n")  # reported as "n"
    rows = sweep(scope, **config)
    all_agree = all(row["agree"] for row in rows)
    first_failure = next((row for row in rows if not row["agree"]), None)
    report = {
        "command": "identities",
        "config": {"scope": scope, **config},
        "rows": _Rows(rows),
        "all_agree": all_agree,
        "first_failure": first_failure,
    }
    if scope == "aomoto":
        side = config["chi_side"]
        report["orientation"] = {
            "closed_form": "chi shift on the a-side factorials",
            "inverted_form": "chi shift on the b-side factorials",
            "closed_form_paired_with": f"ct_chi_{side}",
            "inverted_form_paired_with": "ct_chi_b" if side == "a" else "ct_chi_a",
        }
    return (EXIT_OK if all_agree else EXIT_DISAGREEMENT), report


# ----------------------------------------------------------------------
# sumset
# ----------------------------------------------------------------------

def _analysis_dict(result, skip_prefix=""):
    """The report fields of one :class:`InstanceAnalysis`, shared by the
    sumset report and the experiment rows."""
    cert = result.certificate
    skip = result.degree_infeasible
    return {
        "cardinality": len(result.sumset),
        "bounds": {
            entry.name: {"formula": entry.formula, "value": entry.value,
                         "hypothesis_met": entry.hypothesis_met, "reason": entry.reason}
            for entry in result.bounds.entries()
        },
        "certificate": None if cert is None else {
            "method": cert.method,
            "coefficient": cert.coefficient_integer,
            "coefficient_mod_p": cert.coefficient_mod_p,
            "claimed_bound": cert.claimed_bound,
            "valid": cert.certificate_valid,
        },
        "certificate_skip_reason": None if skip is None else skip_prefix + skip,
        "violations": list(result.violations),
    }


def _cmd_sumset(args, budget):
    inst = load_instance(args.instance)
    result = analyze(inst, budget)
    report = {
        "command": "sumset",
        "instance": instance_to_dict(inst),
        "sumset": list(result.sumset),
        **_analysis_dict(result, skip_prefix="degree-infeasible: "),
        "notes": [_CHAR0_NOTE],
    }
    return (EXIT_DISAGREEMENT if result.violations else EXIT_OK), report


# ----------------------------------------------------------------------
# thm4
# ----------------------------------------------------------------------

def _coverage_row(row):
    """The report row of one :class:`CoverageReport`; the subset and the
    missing residues stay the sweep's tuples, which the writers print as
    lists."""
    return {"subset": row.subset, "n": row.n, "hypothesis_met": row.hypothesis_met,
            "covered": row.covered, "missing": row.missing}


def _cmd_thm4(args, budget):
    sweep = coverage_sweep(
        args.p, args.m, mode=args.mode, count=args.count, seed=args.seed,
        size=args.size, s_set=args.forbidden, budget=budget,
    )
    failures = sweep.failures()
    report = {
        "command": "thm4",
        "config": {
            "p": sweep.p, "m": sweep.m, "forbidden": list(sweep.s_set),
            "subset_size": sweep.subset_size, "threshold": sweep.threshold,
            "mode": sweep.mode, "count": args.count, "seed": args.seed,
        },
        "rows": _Rows(sweep.rows, _coverage_row),
        "subsets_tested": len(sweep.rows),
        "failures": len(failures),
    }
    return (EXIT_DISAGREEMENT if failures else EXIT_OK), report


# ----------------------------------------------------------------------
# experiment
# ----------------------------------------------------------------------

def _trial_row(trial):
    """The report row of one :class:`ExperimentTrial`."""
    return {"trial": trial.index, "p": trial.p, "n": trial.n, "k": trial.k,
            "m": trial.m, **_analysis_dict(trial.analysis)}


def _cmd_experiment(args, budget):
    trials = run_experiment(
        args.seed, args.trials, args.p_set, args.n_set, args.m_set,
        args.k_max, enforce=args.enforce, budget=budget,
    )
    total = sum(len(t.analysis.violations) for t in trials)
    report = {
        "command": "experiment",
        "config": {
            "seed": args.seed, "trials": args.trials,
            "p_set": sorted(set(args.p_set)), "n_set": sorted(set(args.n_set)),
            "m_set": sorted(set(args.m_set)), "k_max": args.k_max,
            "enforce": args.enforce, "budget": budget,
        },
        "rows": _Rows(trials, _trial_row),
        "violations_total": total,
        "notes": [_CHAR0_NOTE],
    }
    return (EXIT_DISAGREEMENT if total else EXIT_OK), report


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

# Rows per streamed piece.  Not one: an io.StringIO sink, such as the
# captured stdout of bench/passrun.py, keeps every piece written to it
# as a str of its own until getvalue, at about 57 bytes a piece.
_ROW_BATCH = 64


def _batches(items):
    """The items of an iterable in lists of _ROW_BATCH."""
    items = iter(items)
    while batch := list(itertools.islice(items, _ROW_BATCH)):
        yield batch


def _table_pieces(headers, rows, cells):
    """The lines of a table, each ending in a newline: the headers, a rule,
    then one line per row, _ROW_BATCH rows to a piece.  ``cells`` maps a
    row to its cell values, printed with str; a first pass over the cells
    sets the column widths, so the lines of one batch at most are alive."""
    widths = list(map(len, headers))
    for batch in _batches(map(cells, rows)):
        widths = [max(width, *map(len, map(str, column)))
                  for width, column in zip(widths, zip(*batch))]

    def line(values):
        return "  ".join(map(str.ljust, values, widths)).rstrip() + "\n"

    yield line(headers) + "  ".join("-" * w for w in widths) + "\n"
    for batch in _batches(rows):
        yield "".join([line(map(str, cells(row))) for row in batch])


_BOUND_NAMES = ("thm1", "thm2", "thm3", "old")


def _bound_value(entry):
    return "n/a" if entry["value"] is None else entry["value"]


def _trial_cells(row):
    cert = row["certificate"]
    return [
        row["trial"], row["p"], row["n"], row["k"], row["m"], row["cardinality"],
        *(_bound_value(row["bounds"][name]) for name in _BOUND_NAMES),
        "skipped" if cert is None else ("valid" if cert["valid"] else "vanishes"),
        ";".join(row["violations"]) or "-",
    ]


def _render(report):
    """The table form of ``report``, in pieces that each end a line."""
    command = report["command"]
    if command == "identities":
        rows = report["rows"]
        if len(rows):
            headers = [k for k in next(iter(rows)) if k != "agree"] + ["agree"]
            yield from _table_pieces(headers, rows,
                                     lambda row: [row.get(h, "") for h in headers])
        yield f"points checked: {len(rows)}   all agree: {report['all_agree']}\n"
        if report["first_failure"] is not None:
            yield f"FIRST FAILURE: {report['first_failure']}\n"
    elif command == "sumset":
        inst = report["instance"]
        yield f"p = {inst['p']}\n"
        for idx, A in enumerate(inst["sets"]):
            yield f"A_{idx + 1} = {A}\n"
        for key, S in inst["forbidden"].items():
            yield f"S_{key} = {S}\n"
        yield f"sumset ({report['cardinality']} residues): {report['sumset']}\n"
        bounds = report["bounds"]
        yield from _table_pieces(
            ["bound", "value", "hypothesis", "reason"], _BOUND_NAMES,
            lambda name: [name, _bound_value(bounds[name]), bounds[name]["hypothesis_met"],
                          bounds[name]["reason"]],
        )
        cert = report["certificate"]
        if cert:
            yield (
                f"certificate [{cert['method']}]: coefficient {cert['coefficient']} "
                f"= {cert['coefficient_mod_p']} mod p, claimed bound "
                f"{cert['claimed_bound']}, valid: {cert['valid']}\n"
            )
        else:
            yield f"certificate: skipped ({report['certificate_skip_reason']})\n"
        if report["violations"]:
            yield f"VIOLATIONS: {report['violations']}\n"
    elif command == "thm4":
        cfg = report["config"]
        yield (
            f"p = {cfg['p']}, m = {cfg['m']}, S = {cfg['forbidden']}, "
            f"subset size {cfg['subset_size']} (threshold {cfg['threshold']}), "
            f"mode {cfg['mode']}\n"
        )
        # the rows hold the sweep's tuples; a cell prints them as lists
        yield from _table_pieces(
            ["subset", "n", "hypothesis", "covered", "missing"], report["rows"],
            lambda row: [list(row["subset"]), row["n"], row["hypothesis_met"],
                         row["covered"], list(row["missing"])],
        )
        yield (
            f"subsets tested: {report['subsets_tested']}   "
            f"failures: {report['failures']}\n"
        )
    elif command == "experiment":
        yield from _table_pieces(
            ["trial", "p", "n", "k", "m", "|C|", *_BOUND_NAMES, "certificate", "violations"],
            report["rows"], _trial_cells,
        )
        yield f"violations total: {report['violations_total']}\n"


_INT_ONLY = frozenset({int})


def _doc_text(value, pad="\n"):
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte, for
    documents of dicts with str keys, lists, tuples, str, int, bool and
    None; anything else raises TypeError.

    ``pad`` is a newline and the indentation of the line ``value`` starts
    on.  A dict writes its scalar values inline (see :func:`_dict_parts`)
    and a list of plain ints is joined in one call, the two shapes that
    make up most of a report; bools, a subclass of int, take the general
    path.

    Each container's text is made by one join, and a child's text is
    never copied again by ``+`` or a format string.  A dict hands the
    text of a container value to its join as a piece of its own.  A list
    folds its brackets into the text of its first and last items, which
    in a report are single rows, and joins with the separator.  So the
    largest text is copied once per level it rises.
    """
    if isinstance(value, dict):
        return "".join(_dict_parts(value, pad, _doc_text))
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        if set(map(type, value)) == _INT_ONLY:
            texts = list(map(int.__repr__, value))
        else:
            texts = [_doc_text(item, inner) for item in value]
        texts[0] = "[" + inner + texts[0]
        texts[-1] += pad + "]"
        return ("," + inner).join(texts)
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"{type(value).__name__} values have no document form")


def _dict_parts(value, pad, render):
    """The parts whose join is the document form of dict ``value``: keys
    sorted and checked to be str, scalar values inline with their keys,
    and a container value as the part ``render(item, pad + "  ")``."""
    if not value:
        return ["{}"]
    inner = pad + "  "
    parts = []
    sep = "{" + inner
    for key, item in sorted(value.items()):
        if type(key) is not str:
            raise TypeError(f"document keys must be str, not {type(key).__name__}")
        head = sep + _encode_str(key) + ": "
        sep = "," + inner
        kind = type(item)
        if kind is str:
            parts.append(head + _encode_str(item))
        elif kind is int:
            parts.append(head + int.__repr__(item))
        elif item is None:
            parts.append(head + "null")
        elif item is True:
            parts.append(head + "true")
        elif item is False:
            parts.append(head + "false")
        else:
            parts.append(head)
            parts.append(render(item, inner))
    parts.append(pad + "}")
    return parts


def _rows_or_text(item, pad):
    """A report entry: _Rows stay as they are, for _doc_pieces to write in
    batches; anything else becomes its text."""
    return item if type(item) is _Rows else _doc_text(item, pad)


def _doc_pieces(report):
    """``_doc_text`` of ``report``, with its _Rows as lists of row dicts,
    plus a newline, in pieces: the rows _ROW_BATCH at a time, each batch
    projected and written when it is asked for, and the text between two
    batches as one piece."""
    text = []
    for part in _dict_parts(report, "\n", _rows_or_text):
        if type(part) is str:
            text.append(part)
            continue
        sep = "[\n    "
        for batch in _batches(part):
            text.append(sep)
            yield "".join(text)
            text, sep = [], ",\n    "
            yield sep.join([_doc_text(row, "\n    ") for row in batch])
        text.append("\n  ]" if len(part) else "[]")
    text.append("\n")
    yield "".join(text)


def _emit(report, args):
    pieces = (_doc_pieces if args.format == "doc" else _render)(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


_HANDLERS = {
    "identities": _cmd_identities,
    "sumset": _cmd_sumset,
    "thm4": _cmd_thm4,
    "experiment": _cmd_experiment,
}


def _resolve_budget(args) -> int:
    if args.budget is not None:
        budget = args.budget
    elif os.environ.get(BUDGET_ENV_VAR):
        try:
            budget = int(os.environ[BUDGET_ENV_VAR])
        except ValueError:
            raise _UsageError(
                f"${BUDGET_ENV_VAR}={os.environ[BUDGET_ENV_VAR]!r} is not an integer"
            )
    else:
        budget = DEFAULT_BUDGET
    if budget < 1:
        raise _UsageError(f"budget must be >= 1, got {budget}")
    return budget


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse help exits 0; usage errors exit 1
        return int(exc.code or 0)
    try:
        budget = _resolve_budget(args)
        code, report = _HANDLERS[args.command](args, budget)
        _emit(report, args)
    except _UsageError as exc:
        sys.stderr.write(f"sumsetlab: error: {exc}\n")
        return EXIT_USAGE
    except BudgetExceeded as exc:
        sys.stderr.write(f"sumsetlab: budget exceeded: {exc}\n")
        return EXIT_BUDGET
    except (InstanceFormatError, NotPrime, OutOfRange, ParameterOutOfRange,
            CannotSatisfyHypothesis, OSError) as exc:
        sys.stderr.write(f"sumsetlab: error: {exc}\n")
        return EXIT_USAGE
    except ArithmeticError as exc:  # NonIntegerResult and the consistency checks
        sys.stderr.write(f"sumsetlab: internal check failed: {exc}\n")
        return EXIT_DISAGREEMENT
    return code


if __name__ == "__main__":
    sys.exit(main())
