"""The mutant generator of tests/mutants.py, with no mutant run."""

import ast

from mutants import mutants

SOURCE = '''
LIMIT = 7  # outside every function: never mutated


def clip(x, lo=0):
    """Nor is a docstring: 1 < 2."""
    if x < lo or x in (3,):
        return lo + (x << 1 & 2 | 4)
    return x - 1


def other(y):
    return y + 1
'''


def test_each_mutant_compiles_and_changes_one_named_function():
    original = ast.parse(SOURCE).body
    found = list(mutants(SOURCE, "demo", ["clip"]))
    # two comparisons; +, <<, &, | and -; the six constants 0, 3, 1, 2, 4, 1 each +-1
    assert len(found) == 2 + 5 + 6 * 2
    assert len({ident for ident, _ in found}) == len(found)
    for ident, text in found:
        assert ident.startswith("demo.clip:")
        body = ast.parse(text).body
        compile(text, ident, "exec")
        changed = [ast.dump(old) != ast.dump(new) for old, new in zip(original, body)]
        assert changed == [False, True, False], ident
    labels = {ident.split(":", 3)[3] for ident, _ in found}
    assert {"Lt->GtE@0", "In->NotIn@0", "Add->Sub", "LShift->RShift", "BitAnd->BitOr",
            "BitOr->BitAnd", "Sub->Add", "0->-1", "4->5"} <= labels


def test_every_function_is_mutated_when_none_is_named():
    names = {ident.split(":")[0] for ident, _ in mutants(SOURCE, "demo")}
    assert names == {"demo.clip", "demo.other"}
