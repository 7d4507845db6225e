"""No nested function refers to its own name, unless its enclosing function dels it.

A recursive closure holds itself through its closure cell, so every call of
the enclosing function leaves a reference cycle that only the cycle
collector frees.  An ast scan of the package lists each such closure by its
qualified name; one whose enclosing function `del`s it breaks the cycle.
"""

import ast
from pathlib import Path

import unstable_e2

SRC = Path(unstable_e2.__file__).resolve().parent


def _loads(node, name):
    return any(isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)
               for n in ast.walk(node))


def _deletes(node, name):
    return any(isinstance(n, ast.Delete) and any(isinstance(t, ast.Name) and t.id == name for t in n.targets)
               for n in ast.walk(node))


def _self_referencing_closures(source):
    found = []

    def visit(node, qualname, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = qualname + (("<locals>",) if enclosing else ()) + (child.name,)
                if isinstance(child, ast.ClassDef):
                    visit(child, inner, None)
                    continue
                if enclosing and _loads(child, child.name) and not _deletes(enclosing, child.name):
                    found.append(".".join(inner))
                visit(child, inner, child)
            else:
                visit(child, qualname, enclosing)

    visit(ast.parse(source), (), None)
    return found


def test_the_scan_finds_a_self_referencing_closure():
    source = (
        "def f():\n"
        "    def rec(k):\n"
        "        return rec(k - 1) if k else 0\n"
        "    return rec(3)\n"
        "class C:\n"
        "    def g(self):\n"
        "        def rec(k):\n"
        "            return rec(k - 1) if k else 0\n"
        "        n = rec(3)\n"
        "        del rec\n"
        "        return n\n"
        "    def h(self):\n"
        "        def step(k):\n"
        "            return k + 1\n"
        "        return self.h, step(1)\n"
    )
    assert _self_referencing_closures(source) == ["f.<locals>.rec"]


def test_no_nested_function_refers_to_itself():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [f"{path.name}: {q}" for q in _self_referencing_closures(path.read_text())]
    assert found == []
