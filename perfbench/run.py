"""Benchmark of unstable_e2: end-to-end metrics per workload, and a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is pipelines-s2s1, adams-deep, algebra-core, or all.  One client runs
closed-loop: passes of the workload run back to back, one process at a
time, until S seconds have passed (at least one pass).  Every step of a
pass runs in a fresh interpreter (perfbench/child.py) from src/.

With --trace 0 the last line of standard output is a JSON object whose
metrics are the end-to-end ones:
    wall_s       median over passes of one pass's wall time, without
                 interpreter start and imports
    setup_s      median over processes of importing unstable_e2 and
                 building the step's inputs
    peak_rss_mb  median over passes of the largest ru_maxrss of a pass's
                 processes
fail_ratio (failed / attempted operations) is printed above that line and
carried by its "attempted" and "failed" fields.  A failure is an
exception, an unexpected exit code, a check that reports failure, or an
output whose digest differs from perfbench/reference.json.

With --trace 1 untraced and traced passes alternate; the metrics are the
per-layer ones (medians over traced passes, see layer_metrics), plus
trace.overhead_s.  The two known-failure probes then run, after all timed
passes; they are reported and never gated.

A run exits 1 when any operation failed, and 2 when the checkout holds no
src/unstable_e2 (nothing to measure).  Per-run records (provenance, every
pass, probes) go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

RUN_LIMIT_S = 130.0  # measured passes of one workload stop by then
PROBE_LIMIT_S = 30.0  # so a traced run, probes included, ends inside 180 s


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _quartiles(xs):
    if len(xs) < 2:
        return (xs[0], xs[0]) if xs else (0.0, 0.0)
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def _sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count of numpy's OpenBLAS, read (never set) through numpy's own extension."""
    import ctypes

    try:
        from numpy._core import _multiarray_umath as ext
    except ImportError:
        return None
    try:
        lib = ctypes.CDLL(ext.__file__)
    except OSError:
        return None
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            fn.argtypes = []
            return fn()
    return None


def provenance(seed):
    import platform

    import numpy as np

    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        git_sha = r.stdout.strip() or None
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "unstable_e2")
    for dirpath, dirnames, files in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for f in sorted(files):
            if f.endswith((".py", ".txt")):
                path = os.path.join(dirpath, f)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    env = {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS") if k in os.environ}
    return {
        "git_sha": git_sha,
        "src_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "blas_env": env,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# one step, one pass
# ---------------------------------------------------------------------------

def run_child(spec, deadline):
    """Run one step in a fresh interpreter; returns (result dict or None, returncode, stderr tail)."""
    for f in (spec["result"], spec.get("spans")):
        if f and os.path.exists(f):
            os.remove(f)
    timeout = max(1.0, deadline - time.perf_counter())
    try:
        r = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, None, [f"timed out after {timeout:.0f} s"]
    res = None
    if os.path.exists(spec["result"]):
        with open(spec["result"]) as fh:
            res = json.load(fh)
    return res, r.returncode, r.stderr.strip().splitlines()[-1:] if r.stderr.strip() else []


def _fmt(x):
    return x.replace("{out}", OUT)


def run_pass(name, seed, trace, tag, deadline, reference):
    """One pass of a workload.  Returns its measurements and its failures."""
    w = wl.WORKLOADS[name]
    ref = reference[name]
    out = {"wall_s": 0.0, "setups": [], "peak_kb": 0, "attempted": 0, "failed": 0,
           "failures": [], "steps": {}, "step_s": {}, "emit_bytes": 0}
    for step in w["steps"]:
        sref = ref[step["name"]]
        run_id = f"{name}-{tag}-{step['name']}"
        spec = {
            "kind": step["kind"],
            "argv": [_fmt(a) for a in step.get("argv", [])],
            "space": step.get("space"),
            "seed": seed,
            "trace": trace,
            "run_id": run_id,
            "result": os.path.join(OUT, f"step-{run_id}.json"),
            "spans": os.path.join(OUT, f"spans-{name}-{step['name']}.jsonl") if trace else None,
            "rlimit_as": None,
        }
        if step.get("output") and os.path.exists(_fmt(step["output"])):
            os.remove(_fmt(step["output"]))
        res, rc, err = run_child(spec, deadline)
        expected_ops = sref.get("ops", 1)
        if res is None:
            out["attempted"] += expected_ops
            out["failed"] += expected_ops
            out["failures"].append(f"{step['name']}: no result (exit {rc}) {' '.join(err)}")
            continue
        out["steps"][step["name"]] = res
        out["step_s"][step["name"]] = (res["op_s"], res["op_cpu_s"])
        out["wall_s"] += res["op_s"]
        out["setups"].append(res["setup_s"])
        out["peak_kb"] = max(out["peak_kb"], res["maxrss_kb"])
        if step["kind"] == "core":
            bad = check_core(res, sref)
            out["attempted"] += max(expected_ops, len(res["ops"]) + len(res["errors"]))
        else:
            bad = check_cli(step, res, rc, sref)
            out["attempted"] += 1
            path = _fmt(step["output"])
            if os.path.exists(path):
                out["emit_bytes"] += os.path.getsize(path)
        out["failed"] += len(bad)
        out["failures"] += [f"{step['name']}: {b}" for b in bad]
    return out


def check_cli(step, res, rc, sref):
    """A CLI step fails on a wrong exit code, an error, or output bytes that differ."""
    if rc != sref["exit_code"] or res["exit_code"] != sref["exit_code"]:
        return [f"exit code {rc}, expected {sref['exit_code']} ({res.get('error_type')})"]
    path = _fmt(step["output"])
    if not os.path.exists(path):
        return ["no output file"]
    if _sha256_file(path) != sref["sha256"]:
        return ["output differs from the reference"]
    if step["name"] == "compare":
        with open(path) as fh:
            if fh.read().splitlines()[-1:] != ["PASS"]:
                return ["compare did not report PASS"]
    return []


def check_core(res, sref):
    """Each library call fails on an exception, its own failed check, or a changed digest."""
    bad = [f"{e['op']} raised {e['type']}: {e['message']}" for e in res["errors"]]
    seen = {op["name"] for op in res["ops"]} | {e["op"] for e in res["errors"]}
    bad += [f"{name} did not run" for name in sorted(set(sref["digests"]) - seen)]
    for op in res["ops"]:
        want = sref["digests"].get(op["name"])
        if not op["ok"]:
            bad.append(f"{op['name']} reported failure")
        elif op["digest"] is not None and op["digest"] != want:
            bad.append(f"{op['name']} differs from the reference")
    return bad


# ---------------------------------------------------------------------------
# per-layer metrics from a traced pass
# ---------------------------------------------------------------------------

def _merge(steps):
    summ, calls, sizes = {}, {}, {}
    for res in steps.values():
        for k, v in res.get("summary", {}).items():
            row = summ.setdefault(k, {"spans": 0, "incl_s": 0.0, "self_s": 0.0})
            for f in row:
                row[f] += v[f]
        for k, v in res.get("calls", {}).items():
            calls[k] = calls.get(k, 0) + v
        for k, v in res.get("sizes", {}).items():
            sizes[k] = sizes.get(k, 0) + v
    return summ, calls, sizes


def layer_metrics(pass_out):
    """Per-layer metrics of one traced pass: name -> (value, unit).

    Names ending in _s are self times (span minus child spans), except
    adams.resolution_s, goerss_hopkins.gh_s and cli.*_s, which are whole
    spans; counts are all calls, folded ones included.
    """
    summ, calls, sizes = _merge(pass_out["steps"])

    def self_s(n):
        return summ.get(n, {}).get("self_s", 0.0)

    def incl_s(n):
        return summ.get(n, {}).get("incl_s", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    c = calls.get
    z = sizes.get
    m = {
        "tower.rank_calls": (c("tower.rank", 0), "count"),
        "tower.rank_s": (self_s("tower.rank"), "s"),
        "tower.rank_entries": (z("tower.rank_entries", 0), "count"),
        "tower.gf2_share": (ratio(c("tower.gf2_rank", 0), c("tower.rank", 0)), "ratio"),
        "tower.matmul_s": (self_s("tower.matmul"), "s"),
        "tower.matmul_flops": (z("tower.matmul_flops", 0), "flop"),
        "tower.matmul_bytes": (z("tower.matmul_bytes", 0), "B"),
        "tower.kernel_s": (self_s("tower.kernel"), "s"),
        "tower.solve_calls": (c("tower.solve", 0), "count"),
        "tower.as_solve_calls": (c("tower.as_solve", 0), "count"),
        "steenrod.rewrite_calls": (summ.get("steenrod.rewrite", {}).get("spans", 0), "count"),
        "steenrod.rewrite_s": (self_s("steenrod.rewrite"), "s"),
        "steenrod.memo_entries": (z("steenrod.memo_entries", 0), "count"),
        "steenrod.memo_hit_ratio": (ratio(z("steenrod.memo_hits", 0), z("steenrod.memo_lookups", 0)), "ratio"),
        "unstable_modules.words_calls": (c("unstable_modules.words", 0), "count"),
        "unstable_modules.words_cache_hit_ratio": (
            ratio(z("unstable_modules.words_hits", 0), z("unstable_modules.words_lookups", 0)), "ratio"),
        "unstable_modules.window_s": (self_s("unstable_modules.window"), "s"),
        "unstable_modules.window_entries": (z("unstable_modules.window_entries", 0), "count"),
        "unstable_modules.exactness_s": (self_s("unstable_modules.exactness"), "s"),
        "unstable_algebras.build_count": (c("unstable_algebras.build", 0), "count"),
        "unstable_algebras.build_s": (self_s("unstable_algebras.build"), "s"),
        "unstable_algebras.basis_monomials": (z("unstable_algebras.basis_monomials", 0), "count"),
        "unstable_algebras.extend_calls": (c("unstable_algebras.extend", 0), "count"),
        "unstable_algebras.extend_s": (self_s("unstable_algebras.extend"), "s"),
        "unstable_algebras.mul_calls": (c("unstable_algebras.mul", 0), "count"),
        "unstable_algebras.mul_s": (self_s("unstable_algebras.mul"), "s"),
        "derivations.complex_count": (c("derivations.complex", 0), "count"),
        "derivations.complex_s": (self_s("derivations.complex"), "s"),
        "derivations.cochain_dim_total": (z("derivations.cochain_dim_total", 0), "count"),
        "derivations.cohomology_s": (self_s("derivations.cohomology"), "s"),
        "derivations.bar_s": (self_s("derivations.bar"), "s"),
        "derivations.descent_s": (self_s("derivations.descent"), "s"),
        "adams.resolution_s": (incl_s("adams.resolution"), "s"),
        "adams.resolution_self_s": (self_s("adams.resolution"), "s"),
        "adams.resolution_basis_total": (z("adams.resolution_basis_total", 0), "count"),
        "adams.face_bytes": (z("adams.face_bytes", 0), "B"),
        "adams.face_density": (ratio(z("adams.face_nonzeros", 0), z("adams.face_entries", 0)), "ratio"),
        "adams.cochain_s": (self_s("adams.cochain"), "s"),
        "adams.chart_s": (self_s("adams.chart"), "s"),
        "goerss_hopkins.gh_s": (incl_s("goerss_hopkins.gh"), "s"),
        "goerss_hopkins.gh_self_s": (self_s("goerss_hopkins.gh"), "s"),
        "goerss_hopkins.compare_s": (self_s("goerss_hopkins.compare"), "s"),
        "cli.adams-chart_s": (incl_s("cli.adams-chart"), "s"),
        "cli.gh-chart_s": (incl_s("cli.gh-chart"), "s"),
        "cli.compare_s": (incl_s("cli.compare"), "s"),
        "cli.emit_bytes": (pass_out["emit_bytes"], "B"),
    }
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = (
            sum(v["self_s"] for k, v in summ.items() if k.split(".", 1)[0] == layer), "s")
    m["trace.unattributed_s"] = (
        sum(v["self_s"] for k, v in summ.items() if k.startswith("bench.")), "s")
    m["trace.hook_s"] = (self_s("trace.hook"), "s")
    return m


# ---------------------------------------------------------------------------
# probes of known defects
# ---------------------------------------------------------------------------

def run_probes(deadline):
    rows = []
    for probe in wl.PROBES:
        for L in probe.get("window_L", (None,)):
            argv = [a.replace("{L}", str(L)) for a in probe["argv"]]
            run_id = f"probe-{probe['name']}" + (f"-L{L}" if L is not None else "")
            spec = {"kind": "cli", "argv": argv, "space": None, "seed": 0, "trace": False,
                    "run_id": run_id, "result": os.path.join(OUT, f"step-{run_id}.json"),
                    "spans": None, "rlimit_as": probe["rlimit_as"]}
            t = time.perf_counter()
            res, rc, err = run_child(spec, deadline)
            rows.append({
                "probe": run_id,
                "argv": argv,
                "exit_code": rc,
                "error_type": (res or {}).get("error_type"),
                "memory_error": (res or {}).get("error_is_memory", False),
                "time_to_failure_s": (res or {}).get("op_s"),
                "process_s": time.perf_counter() - t,
                "rlimit_as": probe["rlimit_as"],
                "stderr_tail": err,
                "expected": probe["expect"],
            })
    return rows


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run_workload(name, seed, seconds, trace, reference, deadline):
    passes, traced = [], []
    t0 = time.perf_counter()
    i = 0
    while True:
        t_pass = time.perf_counter()
        passes.append(run_pass(name, seed, False, f"p{i}", deadline, reference))
        if trace:
            traced.append(run_pass(name, seed, True, f"t{i}", deadline, reference))
        i += 1
        now = time.perf_counter()
        # another pass only if it would end closer to `seconds` than stopping now
        if now + (now - t_pass) / 2 >= t0 + seconds or now >= deadline - 1:
            break
    return passes, traced


def summarize(name, passes, traced, trace):
    walls = [p["wall_s"] for p in passes]
    setups = [s for p in passes for s in p["setups"]]
    peaks = [p["peak_kb"] / 1024.0 for p in passes]

    def stat(xs, unit):
        return {"value": _median(xs), "unit": unit, "n": len(xs), "q1_q3": _quartiles(xs)}

    all_passes = passes + traced
    attempted = sum(p["attempted"] for p in all_passes)
    failed = sum(p["failed"] for p in all_passes)
    e2e = {
        "wall_s": stat(walls, "s"),
        "setup_s": stat(setups, "s"),
        "peak_rss_mb": stat(peaks, "MB"),
    }
    per_layer, shares = {}, {}
    if trace and traced:
        rows = [layer_metrics(p) for p in traced]
        for k, (_, unit) in rows[0].items():
            per_layer[k] = {"value": _median([r[k][0] for r in rows]), "unit": unit, "n": len(rows)}
        per_layer["trace.overhead_s"] = {
            "value": _median([p["wall_s"] for p in traced]) - _median(walls),
            "unit": "s", "n": len(traced),
        }
        parts = {k.split(".")[0]: v["value"] for k, v in per_layer.items()
                 if k.endswith(".self_s")}
        parts["unattributed"] = per_layer["trace.unattributed_s"]["value"]
        parts["hook"] = per_layer["trace.hook_s"]["value"]
        total = sum(parts.values()) or 1.0
        shares = {k: round(v / total, 3) for k, v in parts.items() if v}
    return {"workload": name, "attempted": attempted, "failed": failed,
            "fail_ratio": failed / attempted if attempted else 1.0,
            "end_to_end": e2e, "per_layer": per_layer, "self_shares": shares,
            "failures": sorted({f for p in all_passes for f in p["failures"]})}


def main(argv=None):
    # SIGTERM raises SystemExit, so subprocess.run kills and reaps a running step
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "unstable_e2", "__init__.py")):
        sys.stderr.write(f"error: no src/unstable_e2 under {ROOT}; nothing to benchmark\n")
        return 2
    ref_path = os.path.join(HERE, "reference.json")
    if not os.path.isfile(ref_path):
        sys.stderr.write(f"error: missing {ref_path}\n")
        return 2
    with open(ref_path) as fh:
        reference = json.load(fh)
    os.makedirs(OUT, exist_ok=True)

    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    prov = provenance(args.seed)
    results = []
    for name in names:
        deadline = time.perf_counter() + RUN_LIMIT_S
        passes, traced = run_workload(name, args.seed, args.seconds, bool(args.trace), reference,
                                      deadline)
        summary = summarize(name, passes, traced, bool(args.trace))
        summary["why"] = wl.WORKLOADS[name]["why"]
        summary["predicted_self_shares"] = wl.WORKLOADS[name]["predicted_self_shares"]
        summary["passes"] = [{k: v for k, v in p.items() if k != "steps"} for p in passes + traced]
        results.append(summary)
    probes = run_probes(time.perf_counter() + PROBE_LIMIT_S) if args.trace else []

    record = {"provenance": prov, "args": vars(args), "results": results, "probes": probes}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(f"# provenance: {json.dumps(prov)}")
    for r in results:
        print(f"# workload {r['workload']}: {r['why']}")
        for k, v in r["end_to_end"].items():
            q1, q3 = v["q1_q3"]
            print(f"{r['workload']} {k} = {v['value']:.6g} {v['unit']} (n={v['n']}, q1..q3 "
                  f"{q1:.6g}..{q3:.6g})")
        print(f"{r['workload']} fail_ratio = {r['fail_ratio']:.6g} ({r['failed']} of "
              f"{r['attempted']} operations)")
        for k, v in r["per_layer"].items():
            print(f"{r['workload']} {k} = {v['value']:.6g} {v['unit']} (n={v['n']})")
        if r["per_layer"]:
            print(f"# {r['workload']} self-time shares: measured {json.dumps(r['self_shares'])}, "
                  f"predicted {json.dumps(r['predicted_self_shares'])}")
        for f in r["failures"]:
            print(f"{r['workload']} FAILED {f}")
    for p in probes:
        print(f"probe {p['probe']}: exit {p['exit_code']} {p['error_type']} "
              f"after {p['time_to_failure_s']} s (expected: {p['expected']})")

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    key = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else f"{r['workload']}."
        for k, v in r[key].items():
            metrics[prefix + k] = {"value": v["value"], "unit": v["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
