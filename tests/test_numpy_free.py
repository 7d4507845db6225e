"""Every `ue2` subcommand and every algebra-core library call runs without numpy.

A fresh interpreter puts None in sys.modules["numpy"], so that any import of
numpy raises ImportError.  It runs each `ue2` command of the README and one
small call of each algebra-core kind (an Adem sweep, exactness_report,
descent_verify, bar_homology_check, a Hilbert series); this process checks
the exit codes (0, or the one a trailing `# exit N` states), the outputs
against the same commands run here, and the library results against known
values.
"""

import ast
import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import unstable_e2
from unstable_e2 import steenrod as st
from unstable_e2.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(unstable_e2.__file__).resolve().parents[1]

SWEEP = [(p, ((0, a), (0, b))) for p in (2, 3) for a in range(1, 5) for b in range(1, 5)]

SCRIPT = r"""
import contextlib, io, json, sys

sys.modules["numpy"] = None
import unstable_e2  # noqa: F401
from unstable_e2 import steenrod as st
from unstable_e2.cli import main
from unstable_e2.derivations import bar_homology_check, descent_verify
from unstable_e2.unstable_algebras import FreeUnstableAlgebra
from unstable_e2.unstable_modules import GradedVS, ModWindow, exactness_report

commands, sweep = json.loads(sys.argv[1]), json.loads(sys.argv[2])
out = {"commands": []}
for argv in commands:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    out["commands"].append([code, buf.getvalue()])
out["sweep"] = [
    st.format_element(st.adem_rewrite(st.OpElement(p, st.FLAVOR_A, {tuple(map(tuple, w)): 1})))
    for p, w in sweep
]
ex = exactness_report(GradedVS.single(2, 1), ModWindow(D=4, L=4, K=4))
out["exactness"] = [ex["pass"]] + [ex["degrees"][d]["stabilized_coker"] for d in (1, 2, 3, 4)]
out["descent"] = [
    (rep["pass"], sorted({w["death_level"] for w in rep["witnesses"]}))
    for rep in (
        descent_verify(GradedVS.single(p, 4), GradedVS.single(p, 4), p=p, max_level=3)
        for p in (2, 3)
    )
]
bar = bar_homology_check(2, 5, s_max=3, L=2)
out["bar"] = [bar["pass"]] + [bar["cells"][(0, d)]["dim"] for d in range(6)]
out["hilbert"] = list(FreeUnstableAlgebra(2, [("i", 2)], 7).hilbert())
print(json.dumps(out))
"""


def _readme_commands():
    """Each README `ue2` line's argv, and the exit code a trailing `# exit N` states (else 0)."""
    cmds, codes = [], []
    for line in README.read_text().splitlines():
        if line.startswith("ue2 "):
            cmd, _, comment = line.partition("#")
            stated = re.fullmatch(r" *exit (\d+) *", comment)
            cmds.append(shlex.split(cmd)[1:])
            codes.append(int(stated[1]) if stated else 0)
    assert len(cmds) >= 11
    return cmds, codes


def _run_here(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return [code, buf.getvalue()]


def test_commands_and_library_calls_run_without_numpy(tmp_path, monkeypatch):
    cmds, codes = _readme_commands()
    blocked, here = tmp_path / "blocked", tmp_path / "here"
    blocked.mkdir()
    here.mkdir()
    r = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(cmds), json.dumps(SWEEP)],
        cwd=blocked, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert r.returncode == 0, r.stderr
    got = json.loads(r.stdout)

    monkeypatch.chdir(here)
    want = [_run_here(argv) for argv in cmds]
    assert [code for code, _ in got["commands"]] == codes
    assert got["commands"] == want
    files = sorted(f.name for f in blocked.iterdir())
    assert files == sorted(f.name for f in here.iterdir()) and {"a.json", "g.json"} <= set(files)
    for name in files:
        assert (blocked / name).read_bytes() == (here / name).read_bytes(), name
    assert got["commands"][0][1] == "Sq[3,1]\n"

    assert got["sweep"] == [
        st.format_element(st.adem_rewrite(st.OpElement(p, st.FLAVOR_A, {w: 1}))) for p, w in SWEEP
    ]
    assert got["sweep"][SWEEP.index((2, ((0, 2), (0, 2))))] == "Sq[3,1]"
    assert got["sweep"][SWEEP.index((3, ((0, 1), (0, 1))))] == "2*P[2]"
    assert got["exactness"] == [True, 1, 1, 0, 1]
    assert got["descent"] == [[True, [2]], [True, [3]]]
    assert got["bar"] == [True, 1, 0, 1, 1, 1, 2]
    assert got["hilbert"] == [1, 0, 1, 1, 1, 2, 2, 2]


def test_numpy_is_imported_only_by_the_count_nonzero_hook():
    # an ast scan of the package: the one numpy import sits in the hook that
    # answers np.count_nonzero on a SparseMap, which runs only under numpy
    found = []

    def visit(node, scope, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,), name)
                continue
            modules = ([a.name for a in child.names] if isinstance(child, ast.Import)
                       else [child.module or ""] if isinstance(child, ast.ImportFrom) else [])
            if any(m.split(".")[0] == "numpy" for m in modules):
                found.append((name, ".".join(scope)))
            visit(child, scope, name)

    for path in sorted((SRC / "unstable_e2").glob("*.py")):
        visit(ast.parse(path.read_text()), (), path.name)
    assert found == [("tower.py", "SparseMap.__array_function__")]
