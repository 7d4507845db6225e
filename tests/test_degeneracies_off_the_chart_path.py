"""No chart reads the degeneracies of a cotriple resolution.

`CotripleResolution.G` and `degen_full` are built on first use, for the tests
and the tracer.  An ast scan of the package allows a read of `.G` only inside
`CotripleResolution.degen_full`, and no read of `.degen_full` at all, so the
chart path never builds them.
"""

import ast
from pathlib import Path

import unstable_e2

SRC = Path(unstable_e2.__file__).resolve().parent
ALLOWED = {"G": {"CotripleResolution.degen_full"}, "degen_full": set()}


def _degeneracy_reads(source, filename):
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif (isinstance(child, ast.Attribute) and child.attr in ALLOWED
                  and ".".join(scope) not in ALLOWED[child.attr]):
                found.append((filename, ".".join(scope), child.attr))
            visit(child, inner)

    visit(ast.parse(source), ())
    return found


def test_the_scan_finds_a_degeneracy_read():
    source = ("class CotripleResolution:\n"
              "    def degen_full(self):\n        return self.G\n"
              "    def der_cochain_complex(self, d):\n        return self.G[d]\n"
              "def chart(res):\n    return res.degen_full\n")
    assert _degeneracy_reads(source, "m.py") == [
        ("m.py", "CotripleResolution.der_cochain_complex", "G"),
        ("m.py", "chart", "degen_full"),
    ]


def test_only_degen_full_reads_the_degeneracies():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _degeneracy_reads(path.read_text(), path.name)
    assert found == []
