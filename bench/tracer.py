"""Spans around the public functions of each sumsetlab layer.

The tracer wraps functions from the benchmark's side, so the package is
traced without any change to it.  A module that does
``from .mpoly import targeted_coeff`` holds its own reference to the
function, so the wrapper is installed at every binding site: each
``sumsetlab`` module attribute that is the original function object.

A span is (id, parent id, name, start, end, counts).  Spans stay in
memory while a pass runs and are written out when it ends; self time is
computed afterwards by :func:`aggregate`.  A traced function that the
package no longer has is skipped, and its span reports 0 calls.
"""

import functools
import json
import sys
import time
from collections import Counter
from math import prod

# span name -> (defining module, function names)
TRACED = {
    "ffield.is_prime": ("sumsetlab.ffield", ("is_prime",)),
    "mpoly.targeted_coeff": ("sumsetlab.mpoly", ("targeted_coeff",)),
    "mpoly.constant_term_laurent": ("sumsetlab.mpoly", ("constant_term_laurent",)),
    "identities.key_coefficient": ("sumsetlab.identities", ("key_coefficient",)),
    "identities.constant_term": ("sumsetlab.identities", (
        "dyson_constant_term", "zeilberger_coefficient",
        "aomoto_constant_term", "leading_coefficient_check")),
    "identities.closed_form": ("sumsetlab.identities", (
        "dyson_closed_form", "aomoto_closed_form",
        "aomoto_inverted_closed_form", "key_coefficient_closed_form")),
    "sumsets.enumerate": ("sumsetlab.sumsets", ("enumerate_restricted_sumset",)),
    "sumsets.certificate_leading": ("sumsetlab.sumsets", ("certificate_check",)),
    "sumsets.certificate_literal": ("sumsetlab.sumsets", ("certificate_check_literal",)),
    "sumsets.coverage_check": ("sumsetlab.sumsets", ("coverage_check",)),
    "sumsets.load_instance": ("sumsetlab.sumsets", ("load_instance",)),
    "cli.main": ("sumsetlab.cli", ("main",)),
}


def _factor_steps(args, kwargs, result):
    factors = args[0] if args else kwargs["factors"]
    steps = sum(1 if hasattr(item, "terms") else int(item[1]) for item in factors)
    return {"factor_steps": steps, "nonzero": int(result != 0)}


def _enumerate_counts(args, kwargs, result):
    inst = args[0] if args else kwargs["inst"]
    return {"tuple_bound": prod(len(A) for A in inst.sets), "residues": len(result)}


def _valid(args, kwargs, result):
    return {"valid": int(result.certificate_valid)}


def _covered(args, kwargs, result):
    return {"covered": int(result.covered)}


COUNTERS = {
    "mpoly.targeted_coeff": _factor_steps,
    "sumsets.enumerate": _enumerate_counts,
    "sumsets.certificate_leading": _valid,
    "sumsets.certificate_literal": _valid,
    "sumsets.coverage_check": _covered,
}

_clock = time.perf_counter


class Tracer:
    """Records spans for one pass; install once, after sumsetlab is imported."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.sites = []          # "module.attribute" names that were rebound
        self.budget_exceeded = 0

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "sumsetlab" or name.startswith("sumsetlab.")}
        for span, (home, names) in TRACED.items():
            if home not in modules:
                continue
            for fname in names:
                original = getattr(modules[home], fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(span, original, COUNTERS.get(span))
                for mname, mod in sorted(modules.items()):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self.sites.append(f"{mname}.{attr}")

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)   # reserve the id; filled in when the call ends
            stack.append(sid)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = _clock()
                stack.pop()
                self._note_exception(exc)
                spans[sid] = (sid, parent, name, start, end, {"error": type(exc).__name__})
                raise
            end = _clock()
            stack.pop()
            counts = counter(args, kwargs, result) if counter else None
            spans[sid] = (sid, parent, name, start, end, counts)
            return result

        return wrapper

    def _note_exception(self, exc):
        # counted once, where it is first raised, though it crosses several spans
        if type(exc).__name__ == "BudgetExceeded" and not getattr(exc, "_bench_seen", False):
            exc._bench_seen = True
            self.budget_exceeded += 1

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"sites": self.sites,
                                     "budget_exceeded": self.budget_exceeded}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def load(path):
    with open(path, "r", encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        spans = [json.loads(line) for line in handle]
    return header, spans


def _covered_time(start, end, intervals):
    """Length of [start, end] covered by the union of ``intervals``."""
    covered, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def self_times(spans):
    """Span id -> duration minus the part of it its child spans cover."""
    children = {}
    for sid, parent, _name, start, end, _counts in spans:
        children.setdefault(parent, []).append((start, end))
    return {sid: (end - start) - _covered_time(start, end, children.get(sid, ()))
            for sid, _parent, _name, start, end, _counts in spans}


def aggregate(spans, budget_exceeded, output_bytes):
    """Per-layer metrics of one traced pass, keyed as in BENCHMARK.json."""
    own = self_times(spans)
    out = {}
    for span in TRACED:
        out.update({f"{span}.calls": 0, f"{span}.total_s": 0.0, f"{span}.self_s": 0.0})
    sums = Counter()
    for sid, _parent, name, start, end, counts in spans:
        out[f"{name}.calls"] += 1
        out[f"{name}.total_s"] += end - start
        out[f"{name}.self_s"] += own[sid]
        for key, value in (counts or {}).items():
            if key != "error":
                sums[f"{name}.{key}"] += value

    def share(count, span):
        """Ratio of a summed count to its base, the span's calls; 0 without calls."""
        calls = out[f"{span}.calls"]
        return sums[f"{span}.{count}"] / calls if calls else 0.0

    tuples = sums["sumsets.enumerate.tuple_bound"]
    residues = sums["sumsets.enumerate.residues"]
    out.update({
        "mpoly.targeted_coeff.factor_steps": sums["mpoly.targeted_coeff.factor_steps"],
        "mpoly.targeted_coeff.nonzero_ratio": share("nonzero", "mpoly.targeted_coeff"),
        "sumsets.enumerate.tuple_bound": tuples,
        "sumsets.enumerate.residues": residues,
        "sumsets.enumerate.residue_yield": residues / tuples if tuples else 0.0,
        "sumsets.certificate_leading.valid_ratio": share("valid", "sumsets.certificate_leading"),
        "sumsets.certificate_literal.valid_ratio": share("valid", "sumsets.certificate_literal"),
        "sumsets.coverage_check.covered_ratio": share("covered", "sumsets.coverage_check"),
        "sumsets.budget_exceeded.count": budget_exceeded,
        "cli.output_bytes": output_bytes,
    })
    return out
