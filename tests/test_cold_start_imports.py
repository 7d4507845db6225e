"""Importing the package loads no dataclasses, inspect or inspect's parsers.

`import dataclasses` pulls in inspect, ast, dis and tokenize, and together
they take several milliseconds of every `ue2` process's start-up.  A fresh
interpreter notes sys.modules, imports unstable_e2 and unstable_e2.cli, and
reports which modules the imports added; none of the five may be among them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import unstable_e2

SRC = Path(unstable_e2.__file__).resolve().parents[1]

HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")

SCRIPT = r"""
import json, sys

before = set(sys.modules)
import unstable_e2  # noqa: F401
import unstable_e2.cli  # noqa: F401
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_package_import_adds_no_dataclasses_or_inspect():
    r = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert r.returncode == 0, r.stderr
    added = json.loads(r.stdout)
    assert "unstable_e2.cli" in added
    assert [m for m in HEAVY if m in added] == []
