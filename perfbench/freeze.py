"""Freeze the outputs the benchmark checks into perfbench/reference.json.

Usage (from the repository root): python3 perfbench/freeze.py

Runs one untraced pass of every workload with seed 0 and records the exit
code and sha256 of every CLI output, and the digest of every algebra-core
call that has a seed-independent output.  Refuses to write when any step
fails its own checks.  Run it only at a commit whose outputs are trusted:
the reference is what later commits are compared against.
"""

import json
import os
import sys
import time

import run
import workloads as wl


def main():
    os.makedirs(run.OUT, exist_ok=True)
    blank = {name: {s["name"]: {"exit_code": 0, "sha256": None, "ops": 1, "digests": {}}
                    for s in w["steps"]} for name, w in wl.WORKLOADS.items()}
    reference = {}
    for name, w in wl.WORKLOADS.items():
        out = run.run_pass(name, 0, False, "freeze", time.perf_counter() + 600, blank)
        reference[name] = {}
        for step in w["steps"]:
            res = out["steps"].get(step["name"])
            if res is None or res["exit_code"] != 0:
                sys.exit(f"{name}/{step['name']}: no clean result; nothing written")
            if step["kind"] == "core":
                bad = [op["name"] for op in res["ops"] if not op["ok"]] + res["errors"]
                if bad:
                    sys.exit(f"{name}: failing calls {bad}; nothing written")
                reference[name][step["name"]] = {
                    "exit_code": 0,
                    "ops": len(res["ops"]),
                    "digests": {op["name"]: op["digest"] for op in res["ops"] if op["digest"]},
                }
            else:
                reference[name][step["name"]] = {
                    "exit_code": 0, "sha256": run._sha256_file(run._fmt(step["output"])),
                }
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
