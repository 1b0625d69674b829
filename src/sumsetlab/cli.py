"""Command-line front end.

Subcommands: identities, sumset, thm4, experiment.  Every run is fully
determined by its arguments alone; structured output is canonical JSON.

Exit codes:
  0  everything verified / nothing to disagree with
  1  usage error or malformed input
  2  mathematical disagreement, soundness violation or a failed
     internal consistency check (an ArithmeticError)
  3  budget exceeded
Every exit but 0 writes a line on stderr.
"""

import functools
import itertools
import os
import re
import sys
import types
from json.encoder import encode_basestring_ascii as _encode_str

# the sumset, thm4 and experiment handlers import sumsets themselves, so
# that an identities run does not load it
from .contract import (
    DEFAULT_BUDGET,
    HYPOTHESIS_CHOICES,
    BudgetExceeded,
    CannotSatisfyHypothesis,
    InstanceFormatError,
)
from .ffield import NotPrime, OutOfRange
from .identities import ParameterOutOfRange, sweep

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
    """A usage error, exit 1, printed as ``{usage}{prog}: error: {message}``.
    An error in argv carries the usage line and prog of its command."""

    def __init__(self, message, prog="sumsetlab", usage=""):
        super().__init__(message)
        self.prog = prog
        self.usage = usage


class _Help(Exception):
    """-h/--help was given; the help text is the exception's message."""


def _int_list(text):
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise _UsageError(f"expected comma-separated integers, got {text!r}")
    if not values:
        raise _UsageError("expected at least one integer")
    return values


# The command line, as tables.  A flag is dest: (kind, default, metavar,
# help), where kind is the converter of its value or the tuple of its
# choices, and the default _REQUIRED makes the flag required.  A
# positional is (dest, name, kind, help).  The parser, the usage lines
# and the help text all read these tables.
_REQUIRED = object()
_COMMON_FLAGS = {
    "format": (("table", "doc"), "table", None,
               "human table or structured JSON document (default: table)"),
    "out": (str, None, "PATH", "write the report to PATH instead of stdout"),
    "budget": (int, DEFAULT_BUDGET, "N", f"enumeration budget (default: {DEFAULT_BUDGET})"),
}
_HELP_OPTIONS = {"-h": "help", "--help": "help"}
_DESCRIPTION = ("Exact verification of restricted-sumset bounds over Z/pZ "
                "and the constant-term identities behind them.")


def _command(help_text, positionals, **flags):
    """A command's entry: its help, positionals and flags, and the map of
    its option strings to their dests, in argparse's order."""
    flags = {**_COMMON_FLAGS, **flags}
    options = {**_HELP_OPTIONS, **{_flag(dest): dest for dest in flags}}
    return help_text, positionals, flags, options


_COMMANDS = {
    "identities": _command(
        "brute-force vs closed-form sweeps of the constant-term identities",
        [("scope", "scope", tuple(_SCOPE_LIMITS), "which identity family to sweep")],
        **{dest: (_SCOPE_LIMITS["aomoto"]["chi_side"][1:], None, None, _option_help(dest))
           if dest == "chi_side" else (int, None, "N", _option_help(dest))
           for dest in _ID_OPTIONS},
    ),
    "sumset": _command(
        "enumerate one instance file and report bounds and certificate",
        [("instance", "FILE", str, "JSON instance document (fields p, sets, forbidden)")],
    ),
    "thm4": _command(
        "coverage sweep: do restricted n-fold sums of threshold-size sets "
        "hit every residue",
        [],
        p=(int, _REQUIRED, "P", "prime modulus"),
        m=(int, _REQUIRED, "M", "forbidden-set size"),
        mode=(("exhaustive", "sample"), "exhaustive", None,
              "every subset of the size, or --count seeded ones (default: exhaustive)"),
        count=(int, 50, "COUNT", "sample mode: number of seeded subsets (default 50)"),
        seed=(int, 0, "SEED", "sample mode seed (default 0)"),
        size=(int, None, "SIZE", "subset size to test (default: the coverage threshold)"),
        forbidden=(_int_list, None, "LIST",
                   "comma-separated forbidden differences (default: 0,..,m-1)"),
    ),
    "experiment": _command(
        "seeded random soundness sweep over instances",
        [],
        seed=(int, 0, "SEED", "seed of the draws (default 0)"),
        trials=(int, 100, "TRIALS", "number of instances (default 100)"),
        p_set=(_int_list, [5, 7, 11, 13], "LIST",
               "the primes p is drawn from (default 5,7,11,13)"),
        n_set=(_int_list, [2, 3], "LIST", "the set counts n is drawn from (default 2,3)"),
        m_set=(_int_list, [0, 1], "LIST",
               "the forbidden-set sizes m is drawn from (default 0,1)"),
        k_max=(int, 6, "K_MAX", "largest set size k (default 6)"),
        enforce=(HYPOTHESIS_CHOICES, "none", None,
                 "resample parameter tuples until this bound's hypothesis holds"),
    ),
}


def _metavar(kind, metavar):
    return "{" + ",".join(kind) + "}" if type(kind) is tuple else metavar


def _usage(command):
    """The usage line of ``command``, "" for the top level, wrapped at 78
    columns as argparse wraps it."""
    head = f"usage: sumsetlab {command}".rstrip()
    parts = ["[-h]"]
    if command:
        _, positionals, flags, _ = _COMMANDS[command]
        for dest, (kind, default, metavar, _) in flags.items():
            part = f"{_flag(dest)} {_metavar(kind, metavar)}"
            parts.append(part if default is _REQUIRED else f"[{part}]")
        parts += [_metavar(kind, name) for _, name, kind, _ in positionals]
    else:
        parts += [_metavar(tuple(_COMMANDS), None), "..."]
    lines, line = [], head
    for part in parts:
        if len(line) + 1 + len(part) > 78 and len(line) > len(head):
            lines.append(line)
            line = " " * len(head)
        line += " " + part
    return "\n".join(lines + [line]) + "\n"


def _help_text(command):
    """The -h/--help text of ``command``, "" for the top level."""
    import textwrap  # only a help run pays for it

    fill = functools.partial(textwrap.fill, width=78, subsequent_indent=" " * 24,
                             break_long_words=False, break_on_hyphens=False)

    def entry(invocation, text):
        if len(invocation) > 20:
            return f"  {invocation}\n" + fill(text, initial_indent=" " * 24)
        return fill(text, initial_indent=f"  {invocation:<20}  ")

    options = [entry("-h, --help", "show this help message and exit")]
    if command:
        description, positionals, flags, _ = _COMMANDS[command]
        sections = [("positional arguments", [
            entry(_metavar(kind, name), text) for _, name, kind, text in positionals])]
        options += [entry(f"{_flag(dest)} {_metavar(kind, metavar)}", text)
                    for dest, (kind, _, metavar, text) in flags.items()]
    else:
        description = _DESCRIPTION
        sections = [("commands", [entry(name, spec[0]) for name, spec in _COMMANDS.items()])]
    sections.append(("options", options))
    return _usage(command) + f"\n{textwrap.fill(description, 78)}\n" + "".join(
        f"\n{title}:\n" + "\n".join(lines) + "\n" for title, lines in sections if lines)


def _argv_error(command, message):
    """The usage error ``message`` in the argv of ``command``, "" for the
    top level, with its usage line and prog as argparse printed them."""
    return _UsageError(message, f"sumsetlab {command}".rstrip(), _usage(command))


_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _read_option(token, options, command):
    """What argparse makes of ``token`` in the argv of ``command``, whose
    option strings map to their dests in ``options``: None for a
    positional, else (dest, option string, attached value or None), with
    dest None for an option the command does not have.  A unique prefix
    of a long option is that option; a negative number, or a token with a
    space, is a positional."""
    if not token.startswith("-"):
        return None
    if token in options:
        return options[token], token, None
    if len(token) == 1:
        return None
    head, equals, value = token.partition("=")
    if equals and head in options:
        return options[head], head, value
    if token[1] == "-":
        matches = [string for string in options if string.startswith(head)]
        attached = value if equals else None
    else:  # a short option with its value attached, as in -hx
        matches = [string for string in options if string == token[:2]]
        attached = token[2:]
    if len(matches) > 1:
        raise _argv_error(command, f"ambiguous option: {token} could match "
                                   + ", ".join(matches))
    if matches:
        return options[matches[0]], matches[0], attached
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return None, token, None


def _take_help(string, attached, command):
    """-h/--help as ``string`` with value ``attached``: raises _Help, or
    refuses the value; -hh.. is -h given again."""
    if attached is None or (string == "-h" and attached and not attached.strip("h")):
        raise _Help(_help_text(command))
    if string == "-h":
        attached = attached.lstrip("h")
    raise _argv_error(command, f"argument -h/--help: ignored explicit argument {attached!r}")


def _convert(kind, text, name, command):
    """``text`` as the value of argument ``name``: one of the choices when
    ``kind`` is a tuple, else ``kind(text)``."""
    if type(kind) is tuple:
        if text in kind:
            return text
        message = f"invalid choice: {text!r} (choose from {', '.join(map(repr, kind))})"
    else:
        try:
            return kind(text)
        except _UsageError as exc:  # _int_list's own message
            message = str(exc)
        except ValueError:
            message = f"invalid {kind.__name__} value: {text!r}"
    raise _argv_error(command, f"argument {name}: {message}")


def _parse_command(command, tokens, extras):
    """The values of ``command``'s arguments in ``tokens``; a token it does
    not know goes to ``extras``."""
    _, positionals, flags, options = _COMMANDS[command]
    # every token is read before any is taken, so an ambiguous prefix is
    # refused even after -h; the first "--" makes every later token positional
    found = []
    for token in tokens:
        if token == "--":
            found += ["--"] + [None] * (len(tokens) - len(found) - 1)
            break
        found.append(_read_option(token, options, command))
    values = {dest: spec[1] for dest, spec in flags.items()}
    pending = list(positionals)
    index = 0
    while index < len(tokens):
        item = found[index]
        if type(item) is tuple:
            dest, string, attached = item
            if dest is None:
                extras.append(tokens[index])
            elif dest == "help":
                _take_help(string, attached, command)
            else:
                if attached is None:
                    if index + 1 == len(tokens) or found[index + 1] is not None:
                        raise _argv_error(command, f"argument {string}: expected one argument")
                    index += 1
                    attached = tokens[index]
                values[dest] = _convert(flags[dest][0], attached, string, command)
        elif pending and (item is None or index + 1 < len(tokens)):
            # a positional takes the "--" just before or after it
            if item == "--":
                index += 1
            dest, name, kind, _ = pending.pop(0)
            values[dest] = _convert(kind, tokens[index], name, command)
            if index + 1 < len(tokens) and found[index + 1] == "--":
                index += 1
        else:
            extras.append(tokens[index])
        index += 1
    missing = [_flag(dest) for dest, value in values.items() if value is _REQUIRED]
    missing += [name for _, name, _, _ in pending]
    if missing:
        raise _argv_error(command, "the following arguments are required: "
                                   + ", ".join(missing))
    return types.SimpleNamespace(command=command, **values)


def parse_args(argv):
    """The command named in ``argv`` and the values of its arguments, read
    as argparse read them: ``--flag value`` or ``--flag=value``, a unique
    prefix for a long flag, the last of a repeated flag, positionals
    anywhere and after ``--``, and a negative number as a value.  Raises
    _Help for -h/--help, and _UsageError with argparse's texts for a
    usage error."""
    extras = []
    for index, token in enumerate(argv):
        if token == "--":  # the command's name, unless no token follows it
            found = None if index + 1 < len(argv) else (None, token, None)
        else:
            found = _read_option(token, _HELP_OPTIONS, "")
        if found is None:
            break
        dest, string, attached = found
        if dest is None:
            extras.append(token)
        else:
            _take_help(string, attached, "")
    else:
        raise _argv_error("", "the following arguments are required: command")
    command = _convert(tuple(_COMMANDS), argv[index], "command", "")
    args = _parse_command(command, argv[index + 1:], extras)
    if extras:
        raise _argv_error("", "unrecognized arguments: " + " ".join(extras))
    return args


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


def _cmd_identities(args):
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


def _cmd_sumset(args):
    from .sumsets import analyze, instance_to_dict, load_instance

    inst = load_instance(args.instance)
    result = analyze(inst, args.budget)
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


def _cmd_thm4(args):
    from .sumsets import coverage_sweep

    sweep = coverage_sweep(
        args.p, args.m, mode=args.mode, count=args.count, seed=args.seed,
        size=args.size, s_set=args.forbidden, budget=args.budget,
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


def _cmd_experiment(args):
    from .sumsets import run_experiment

    trials = run_experiment(
        args.seed, args.trials, args.p_set, args.n_set, args.m_set,
        args.k_max, enforce=args.enforce, budget=args.budget,
    )
    total = sum(len(t.analysis.violations) for t in trials)
    report = {
        "command": "experiment",
        "config": {
            "seed": args.seed, "trials": args.trials,
            "p_set": sorted(set(args.p_set)), "n_set": sorted(set(args.n_set)),
            "m_set": sorted(set(args.m_set)), "k_max": args.k_max,
            "enforce": args.enforce, "budget": args.budget,
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


# The document text of each scalar type.  json.dumps writes a subclass of
# str or int as its base type; _doc_text finds that base only after a miss.
_SCALARS = {str: _encode_str, int: int.__repr__,
            bool: {False: "false", True: "true"}.__getitem__,
            types.NoneType: {None: "null"}.__getitem__}


def _doc_text(value, pad="\n"):
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte, for
    documents of dicts with str keys, lists, tuples, str, int, bool and
    None; anything else raises TypeError.

    ``pad`` is a newline and the indentation of the line ``value`` starts
    on.  A scalar's text is its type's entry in _SCALARS.  A dict writes
    its scalar values inline (see :func:`_dict_parts`), and a list whose
    items all have one scalar type is mapped through that entry in one
    call, the two shapes that make up most of a report.

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
        kind, *others = set(map(type, value))
        text = None if others else _SCALARS.get(kind)
        texts = list(map(text or functools.partial(_doc_text, pad=inner), value))
        texts[0] = "[" + inner + texts[0]
        texts[-1] += pad + "]"
        return ("," + inner).join(texts)
    text = _SCALARS.get(type(value)) or next(
        (text for kind, text in _SCALARS.items() if isinstance(value, kind)), None)
    if text is None:
        raise TypeError(f"{type(value).__name__} values have no document form")
    return text(value)


def _dict_parts(value, pad, render):
    """The parts whose join is the document form of dict ``value``: keys
    sorted and checked to be str, scalar values inline with their keys,
    and any other value as the part ``render(item, pad + "  ")``."""
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
        text = _SCALARS.get(type(item))
        if text is None:
            parts += (head, render(item, inner))
        else:
            parts.append(head + text(item))
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


def _write(stream, pieces):
    """Write ``pieces`` to ``stream`` and flush it.  If the reader closed
    the pipe, keep the exit code, and send what is still buffered to
    devnull, so the flush at exit cannot fail."""
    try:
        stream.writelines(pieces)
        stream.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _emit(report, args):
    pieces = (_doc_pieces if args.format == "doc" else _render)(report)
    if args.out is not None:  # --out= names no file, and fails to open
        with open(args.out, "w", encoding="utf-8") as handle:
            _write(handle, pieces)
    else:
        _write(sys.stdout, pieces)


_HANDLERS = {
    "identities": _cmd_identities,
    "sumset": _cmd_sumset,
    "thm4": _cmd_thm4,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        _require(args.budget >= 1, f"budget must be >= 1, got {args.budget}")
        code, report = _HANDLERS[args.command](args)
        _emit(report, args)
    except _Help as exc:
        _write(sys.stdout, [str(exc)])
        return EXIT_OK
    except _UsageError as exc:
        _write(sys.stderr, [f"{exc.usage}{exc.prog}: error: {exc}\n"])
        return EXIT_USAGE
    except BudgetExceeded as exc:
        _write(sys.stderr, [f"sumsetlab: budget exceeded: {exc}\n"])
        return EXIT_BUDGET
    except (InstanceFormatError, NotPrime, OutOfRange, ParameterOutOfRange,
            CannotSatisfyHypothesis, OSError) as exc:
        _write(sys.stderr, [f"sumsetlab: error: {exc}\n"])
        return EXIT_USAGE
    except ArithmeticError as exc:  # NonIntegerResult and the consistency checks
        _write(sys.stderr, [f"sumsetlab: internal check failed: {exc}\n"])
        return EXIT_DISAGREEMENT
    if code != EXIT_OK:  # the report holds the disagreement; stderr says so
        _write(sys.stderr, [f"sumsetlab: {args.command}: disagreement, see the report\n"])
    return code


if __name__ == "__main__":
    sys.exit(main())
