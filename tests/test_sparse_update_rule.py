"""`tower.add_scaled` is the one update rule for sparse {key: coeff} vectors.

An ast scan of the package looks for the hand-rolled form of that rule, a
sum or difference with a `.get(key, 0)` in it, reduced by `%`, such as
`(acc.get(k, 0) + c * x) % p`, and allows it only inside `add_scaled`.
"""

import ast
from pathlib import Path

import unstable_e2

SRC = Path(unstable_e2.__file__).resolve().parent


def _is_get_or_zero(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get" and len(node.args) == 2
            and isinstance(node.args[1], ast.Constant) and node.args[1].value == 0)


def _accumulates(node):
    # x % m where x is a sum or difference that reads a .get(key, 0)
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
            and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, (ast.Add, ast.Sub))
            and any(_is_get_or_zero(n) for n in ast.walk(node.left)))


def _hand_rolled_accumulates(source, filename):
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif _accumulates(child):
                found.append((filename, ".".join(scope)))
            visit(child, inner)

    visit(ast.parse(source), ())
    return found


def test_the_scan_finds_a_hand_rolled_accumulate():
    source = "def f(out, k, c, p):\n    out[k] = (out.get(k, 0) - c) % p\n"
    assert _hand_rolled_accumulates(source, "m.py") == [("m.py", "f")]
    assert _hand_rolled_accumulates("n = d.get(k, 0) + 1\n", "m.py") == []


def test_sparse_vectors_are_added_up_mod_p_only_by_add_scaled():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _hand_rolled_accumulates(path.read_text(), path.name)
    assert found == [("tower.py", "add_scaled")]
