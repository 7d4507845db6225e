"""One benchmark step in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC_JSON

SPEC_JSON holds: kind ("cli" or "core"), argv (cli), space ([p, X, Y, D]
or null), seed (core), trace (bool), run_id, result (path of the result
file to write), spans (path for the span log, traced runs only) and
rlimit_as (bytes or null: an address-space limit on this process).

The result file records setup_s (importing unstable_e2 and building the
step's inputs), op_s (the timed calls, without interpreter start and
imports), ru_maxrss, the exit code the command gave, the exception type if
one was raised, per-operation outcomes, and, when traced, the span summary
and size counters.  A CLI exception that escapes `main` is re-raised after
the result file is written, so the process exits as `ue2` would.
"""

import hashlib
import itertools
import json
import os
import random
import resource
import sys
import time

T0 = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# algebra-core
# ---------------------------------------------------------------------------

def _core_inputs(seed):
    import workloads as wl
    from unstable_e2.unstable_modules import GradedVS, ModWindow

    words = [
        tuple((0, s) for s in idx)
        for L in range(1, wl.SWEEP_MAX_LENGTH + 1)
        for idx in itertools.product(range(1, wl.SWEEP_MAX_INDEX + 1), repeat=L)
    ]
    exact = [
        (p, n, GradedVS.single(p, n), ModWindow(D=D, L=L, K=K))
        for p, n, (D, L, K) in wl.EXACTNESS
    ]
    rng = random.Random(seed)
    descent = []
    for p in wl.SWEEP_PRIMES:
        for _ in range(wl.DESCENT_INSTANCES):
            vdim = rng.randint(1, 5)
            mdim = rng.randint(1, 6 - vdim)
            pair = []
            for tag, k in (("v", vdim), ("m", mdim)):
                basis = {}
                for i in range(k):
                    basis.setdefault(rng.randint(1, 6), []).append(f"{tag}{i}")
                pair.append(GradedVS(p, {d: tuple(v) for d, v in basis.items()}))
            descent.append((p, pair[0], pair[1]))
    # the oracle acts on every monomial of F_2[x, y] in degrees deg(w)..deg(w)+4,
    # where words of degree <= 20 act nontrivially about half the time
    small = [i for i, w in enumerate(words) if sum(s for _, s in w) <= 20]
    oracle = [rng.choice(small) for _ in range(wl.ORACLE_SAMPLES)]
    return {"words": words, "exact": exact, "descent": descent, "oracle": oracle}


def _exactness_text(rep):
    lines = []
    for d in sorted(rep["degrees"]):
        c = rep["degrees"][d]
        lines.append(f"{d} " + " ".join(f"{k}={c[k]}" for k in sorted(c)))
    return "\n".join(lines)


def _run_core(inputs, timed):
    """Every library call of one algebra-core pass.  Returns the op list."""
    import workloads as wl
    from unstable_e2 import steenrod as st
    from unstable_e2.derivations import bar_homology_check, descent_verify
    from unstable_e2.unstable_algebras import FreeUnstableAlgebra
    from unstable_e2.unstable_modules import exactness_report

    ops = []
    sweeps = {}
    for p in wl.SWEEP_PRIMES:
        def sweep(p=p):
            return [st.adem_rewrite(st.OpElement(p, st.FLAVOR_A, {w: 1})) for w in inputs["words"]]

        forms = timed(f"adem-sweep-p{p}", sweep)
        sweeps[p] = forms
        if forms is not None:
            text = "\n".join(st.format_element(x) for x in forms)
            ops.append({"name": f"adem-sweep-p{p}", "ok": True, "digest": _digest(text)})
    for i, w_idx in enumerate(inputs["oracle"]):
        # independent check: the rewritten form acts like the word on F_2[x, y]
        forms = sweeps.get(2)
        if forms is None:
            break
        word = inputs["words"][w_idx]
        x = st.OpElement(2, st.FLAVOR_A, {word: 1})
        wd = st.word_degree(word, 2)
        ok = all(
            st.act_polynomial(x, {(a, d - a): 1}) == st.act_polynomial(forms[w_idx], {(a, d - a): 1})
            for d in range(wd, wd + 5)
            for a in range(d + 1)
        )
        ops.append({"name": f"oracle-{i}", "ok": ok, "digest": None})
    for p, n, V, window in inputs["exact"]:
        name = f"exactness-p{p}-n{n}"
        rep = timed(name, lambda: exactness_report(V, window, p))
        if rep is not None:
            ops.append({"name": name, "ok": rep["pass"], "digest": _digest(_exactness_text(rep))})
    for i, (p, V0, M0) in enumerate(inputs["descent"]):
        name = f"descent-p{p}-{i}"
        rep = timed(name, lambda: descent_verify(V0, M0, p=p, start_level=1,
                                                 max_level=wl.DESCENT_MAX_LEVEL))
        if rep is not None:
            ops.append({"name": name, "ok": rep["pass"], "digest": None})
    for n, d in wl.BAR:
        name = f"bar-n{n}-d{d}"
        rep = timed(name, lambda: bar_homology_check(n, d, s_max=3, L=wl.BAR_L))
        if rep is not None:
            cells = "\n".join(f"{k} {v['dim']} {v['saturated']}" for k, v in sorted(rep["cells"].items()))
            ops.append({"name": name, "ok": rep["pass"], "digest": _digest(cells)})
    for p, n, D in wl.HILBERT:
        name = f"hilbert-p{p}-n{n}-D{D}"
        dims = timed(name, lambda: FreeUnstableAlgebra(p, [("i", n)], D).hilbert())
        if dims is not None:
            ops.append({"name": name, "ok": True, "digest": _digest(repr(dims))})
    return ops


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main():
    spec = json.loads(sys.argv[1])
    if spec.get("rlimit_as"):
        resource.setrlimit(resource.RLIMIT_AS, (spec["rlimit_as"], spec["rlimit_as"]))
    result = {"run_id": spec["run_id"], "ops": [], "errors": []}

    import unstable_e2

    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(unstable_e2.__file__).startswith(src):
        raise SystemExit(f"unstable_e2 imported from {unstable_e2.__file__}, not from {src}")
    from unstable_e2 import cli
    from unstable_e2.adams import builtin_space

    if spec["kind"] == "core":
        inputs = _core_inputs(spec["seed"])
    elif spec.get("space"):
        p, X, Y, D = spec["space"]
        builtin_space(X, p, D)
        builtin_space(Y, p, D)
    result["setup_s"] = time.perf_counter() - T0

    tracer = None
    if spec["trace"]:
        import tracing as tr_mod

        tracer = tr_mod.install(tr_mod.Tracer(spec["run_id"]))

    op_total = [0.0, 0.0]  # wall, cpu (user + sys)
    escaped = None

    def timed(name, fn):
        t, c = time.perf_counter(), time.process_time()
        try:
            if tracer is not None:
                return tracer.span(f"bench.{name}", fn)
            return fn()
        except Exception as e:  # an operation that raises is a failed operation
            result["errors"].append({"op": name, "type": type(e).__name__, "message": str(e)[:300]})
            return None
        finally:
            op_total[0] += time.perf_counter() - t
            op_total[1] += time.process_time() - c

    if spec["kind"] == "core":
        result["ops"] = _run_core(inputs, timed)
        result["exit_code"] = 0
    else:
        # record the type of an exception the CLI handler turns into an exit code
        for attr in [a for a in vars(cli) if a.startswith("cmd_")]:
            fn = getattr(cli, attr)

            def recording(*a, _fn=fn, **kw):
                try:
                    return _fn(*a, **kw)
                except BaseException as e:
                    result["error_type"] = type(e).__name__
                    result["error_is_memory"] = isinstance(e, MemoryError)
                    raise

            setattr(cli, attr, recording)
        t, c = time.perf_counter(), time.process_time()
        try:
            if tracer is not None:
                rc = tracer.span(f"cli.{spec['argv'][0]}", cli.main, spec["argv"])
            else:
                rc = cli.main(spec["argv"])
        except Exception as e:
            escaped = e
            rc = 1  # what the interpreter exits with on an uncaught exception
            result.setdefault("error_type", type(e).__name__)
        op_total[0] += time.perf_counter() - t
        op_total[1] += time.process_time() - c
        result["exit_code"] = rc
    result["op_s"], result["op_cpu_s"] = op_total
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tr_mod.memo_sizes(tracer)
        result["summary"] = tracer.summary()
        result["calls"] = dict(tracer.calls)
        result["sizes"] = dict(tracer.sizes)
        with open(spec["spans"], "w") as fh:
            tracer.write_spans(fh)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    if escaped is not None:
        raise escaped
    return result["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
