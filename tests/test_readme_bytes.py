"""Every README `ue2` command prints frozen bytes and exits with its frozen code.

`tests/readme_digests.json` holds, for each README line that starts with
`ue2 `, the exit code and the sha256 of the stdout it gave when the digests
were taken, plus the sha256 of the two chart files the README writes
(`a.json`, `g.json`).  The commands run in this process, in a fresh
directory, in README order (`compare` reads the files the chart lines
wrote).  A change to a README line, to an output, or to an exit code has to
update the digests in the same commit, so CI's interpreter matrix checks
that the bytes do not depend on the interpreter.
"""

import contextlib
import hashlib
import io
import json
import shlex
from pathlib import Path

from unstable_e2.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
DIGESTS = Path(__file__).resolve().parent / "readme_digests.json"
FILES = ("a.json", "g.json")


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def readme_outputs():
    """{README line: [exit code, stdout sha256]} and {file: sha256}, run in the cwd."""
    commands = {}
    for line in README.read_text().splitlines():
        if line.startswith("ue2 "):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(shlex.split(line.partition("#")[0])[1:])
            commands[line] = [code, _sha256(buf.getvalue().encode())]
    files = {name: _sha256(Path(name).read_bytes()) for name in FILES}
    return commands, files


def test_readme_commands_print_frozen_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    want = json.loads(DIGESTS.read_text())
    commands, files = readme_outputs()
    assert list(commands) == list(want["commands"])
    for line, got in commands.items():
        assert got == want["commands"][line], line
    assert files == want["files"]
