"""A mutation runner for one module of the package, run by hand.

    python tests/mutants.py src/sumsetlab/mpoly.py \\
        --functions difference_coeff _fold \\
        --tests tests/test_mpoly.py tests/test_doctests.py \\
        --out /tmp/mpoly-kills.json

Each mutant changes one operator or constant of one named top-level
function (every top-level function when ``--functions`` is left out):

- a comparison is negated (``<`` and ``>=``, ``>`` and ``<=``, ``==``
  and ``!=``, ``in`` and ``not in``, ``is`` and ``is not``);
- ``+`` and ``-``, ``<<`` and ``>>``, ``&`` and ``|`` are swapped, in
  an expression or an augmented assignment;
- an integer constant becomes one more or one less.

Every mutant runs in a fresh copy of the tree, with its module rewritten
there, under ``python -m pytest -x -q -p no:cacheprovider
--hypothesis-seed=0`` and the given test files.  So the tree itself is
never edited, and no Hypothesis example database carries over from one
mutant to the next.  The unmutated module, rewritten the same way, runs
first and must pass.  A mutant is killed when pytest fails or runs ten
times as long as that, and survives when every test passes.  The
result, ``{mutant id: "killed" | "survived"}``, is written as JSON to
``--out``; a mutant id is ``module.function:line:column:change``, with
the line and column of the original source.

Only the standard library is used, and nothing needs the network.  A
mutant takes a few seconds; a whole module takes minutes.
"""

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
}
_NEGATIONS = {
    ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
_IGNORED = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__")


def _edits(node):
    """The (label, edit) pairs of one node, each edit changing it in place."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAPS:
        new = _SWAPS[type(node.op)]
        yield f"{type(node.op).__name__}->{new.__name__}", lambda n: setattr(n, "op", new())
    elif isinstance(node, ast.Compare):
        for k, op in enumerate(node.ops):
            new = _NEGATIONS[type(op)]
            yield (f"{type(op).__name__}->{new.__name__}@{k}",
                   lambda n, k=k, new=new: n.ops.__setitem__(k, new()))
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        for d in (1, -1):
            yield (f"{node.value}->{node.value + d}",
                   lambda n, d=d: setattr(n, "value", n.value + d))


def mutants(source, module, functions=None):
    """Yield (mutant id, mutated source of the whole module) for every
    edit in the top-level functions of ``source`` named in ``functions``
    (all of them when it is None)."""
    tree = ast.parse(source)
    for index, func in enumerate(tree.body):
        if not isinstance(func, ast.FunctionDef):
            continue
        if functions is not None and func.name not in functions:
            continue
        # ast.walk visits in a fixed order, so the pos-th node of a fresh
        # parse of the same source is the same node
        for pos, node in enumerate(ast.walk(func)):
            for label, edit in _edits(node):
                copy = ast.parse(source)
                edit(list(ast.walk(copy.body[index]))[pos])
                yield f"{module}.{func.name}:{node.lineno}:{node.col_offset}:{label}", ast.unparse(copy)


def _passes(relpath, source, tests, timeout=None):
    """Whether the test files pass within ``timeout`` seconds on a fresh
    copy of the tree whose file ``relpath`` holds ``source``."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_IGNORED)
        (tree / relpath).write_text(source)
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                "--hypothesis-seed=0", *tests]
        try:
            run = subprocess.run(argv, cwd=tree, env=env, timeout=timeout,
                                 stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            return False
        return run.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="the module's path from the repository root")
    parser.add_argument("--functions", nargs="+", default=None,
                        help="top-level functions to mutate (default: all)")
    parser.add_argument("--tests", nargs="+", required=True,
                        help="test files, from the repository root")
    parser.add_argument("--out", required=True, help="JSON file to write the results to")
    args = parser.parse_args()

    relpath = Path(args.module)
    source = (ROOT / relpath).read_text()
    start = time.monotonic()
    if not _passes(relpath, ast.unparse(ast.parse(source)), args.tests):
        sys.exit("the unmutated module fails these tests; no mutant was run")
    # a mutant that runs ten times as long as the unmutated module loops
    timeout = 10 * (time.monotonic() - start)
    results = {}
    for ident, mutated in mutants(source, relpath.stem, args.functions):
        passed = _passes(relpath, mutated, args.tests, timeout)
        results[ident] = "survived" if passed else "killed"
        print(ident, results[ident], flush=True)
    Path(args.out).write_text(json.dumps(results, indent=2) + "\n")
    killed = sum(r == "killed" for r in results.values())
    print(f"{killed}/{len(results)} killed")


if __name__ == "__main__":
    main()
