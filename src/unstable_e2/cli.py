"""Command-line surface: every computation behind one deterministic entry point.

Exit codes: 0 = pass, 1 = a check reported failure, 2 = error or an
inconclusive schedule.  Configuration (a RunConfig, whose FIELDS are the
config keys and the flags' dests) comes from defaults, then an optional JSON
config file, then flags (flags win).  Outputs are byte-identical across runs
with the same configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import steenrod as st
from . import tower
from .adams import (
    BudgetExceeded,
    ChartError,
    adams_chart,
    builtin_space,
    chart_emit,
    chart_from_json,
)
from .derivations import DEFAULT_BUDGET, bar_homology_check, descent_verify
from .goerss_hopkins import compare_charts, d1_saturation_report, gh_chart
from .unstable_modules import GradedVS, ModWindow, exactness_report, free_a_basis, free_b_basis_window


class RunConfig:
    FIELDS = ("p", "D", "s_max", "t_max", "window_L", "window_K", "tower_max", "budget",
              "format", "out")

    def __init__(self, p=2, D=10, s_max=2, t_max=6, window_L=8, window_K=8, tower_max=3,
                 budget=DEFAULT_BUDGET, format="json", out=None):
        self.p, self.D, self.s_max, self.t_max = p, D, s_max, t_max
        self.window_L, self.window_K, self.tower_max = window_L, window_K, tower_max
        self.budget, self.format, self.out = budget, format, out

    def validate(self):
        for f in ("p", "D", "s_max", "t_max", "window_L", "window_K", "tower_max", "budget"):
            v = getattr(self, f)
            if type(v) is not int:
                raise ValueError(f"config field {f} must be an integer, not {v!r}")
            if v < 0:
                raise ValueError(f"config field {f} must be nonnegative")
        if self.p < 2 or any(self.p % q == 0 for q in range(2, math.isqrt(self.p) + 1)):
            raise ValueError(f"p must be a prime >= 2, not {self.p}")
        if self.format not in ("json", "svg", "ascii"):
            raise ValueError(f"config field format must be json, svg or ascii, not {self.format!r}")
        if self.out is not None and type(self.out) is not str:
            raise ValueError(f"config field out must be a string, not {self.out!r}")


def _load_config(args):
    cfg = RunConfig()
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"config file must hold a JSON object, not {type(data).__name__}")
        unknown = sorted(set(data) - set(RunConfig.FIELDS))
        if unknown:
            raise ValueError(f"unknown config keys {unknown}; the keys are {' '.join(RunConfig.FIELDS)}")
        for k, v in data.items():
            setattr(cfg, k, v)
    for name in RunConfig.FIELDS:  # each flag's dest is its field's name
        v = getattr(args, name)
        if v is not None:
            setattr(cfg, name, v)
    cfg.validate()
    return cfg


def _emit(data: bytes, cfg: RunConfig):
    if cfg.out:
        with open(cfg.out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data.decode())


def cmd_adem(args, cfg):
    elem, p = st.parse_word_text(args.word, p=cfg.p)
    window = None
    if elem.flavor == st.FLAVOR_B:
        window = st.BWindow(K=cfg.window_K * 8 + 64, L=cfg.window_L + 8)
    out = st.format_element(st.adem_rewrite(elem, window))
    _emit((out + "\n").encode(), cfg)
    return 0


def cmd_basis(args, cfg):
    gens = [("x", args.gen_degree)]
    lines = []
    if args.flavor.upper() == "A":
        basis = free_a_basis(gens, args.d, cfg.p)
    else:
        basis = free_b_basis_window(
            gens, args.d, ModWindow(D=cfg.D, L=cfg.window_L, K=cfg.window_K), cfg.p
        )
    for w, g in basis:
        lines.append(f"{st.format_word(w, cfg.p)}.{g}" if w else g)
    _emit(("\n".join(lines) + "\n" if lines else "(empty)\n").encode(), cfg)
    return 0


def cmd_kn_dims(args, cfg):
    from .unstable_algebras import FreeUnstableAlgebra

    A = FreeUnstableAlgebra(cfg.p, [(f"i{args.n}", args.n)], cfg.D)
    dims = A.hilbert()
    _emit((",".join(str(d) for d in dims) + "\n").encode(), cfg)
    return 0


def cmd_exactness(args, cfg):
    V = GradedVS.single(cfg.p, args.n)
    window = ModWindow(D=cfg.D, L=cfg.window_L, K=cfg.window_K)
    rep = exactness_report(V, window, cfg.p)
    lines = [f"exactness report: p={cfg.p} generator degree {args.n} window L={window.L} K={window.K} D={window.D}"]
    for d in sorted(rep["degrees"]):
        c = rep["degrees"][d]
        lines.append(
            f"  degree {d}: injective={c['injective']} q_comp_zero={c['q_composite_zero']} "
            f"coker_raw={c['raw_coker']} coker_stable={c['stabilized_coker']} "
            f"classical={c['free_classical_dim']} saturated={c['saturated']} "
            f"{'PASS' if c['pass'] else 'FAIL'}"
        )
    lines.append("PASS" if rep["pass"] else "FAIL")
    _emit(("\n".join(lines) + "\n").encode(), cfg)
    return 0 if rep["pass"] else 1


def cmd_descent(args, cfg):
    if args.instances < 1:
        raise ValueError(f"descent needs --instances >= 1, not {args.instances}")
    if cfg.tower_max < 2:
        _emit(b"inconclusive: saturation witnesses need a schedule of >= 2 levels\n", cfg)
        return 2
    import random

    rng = random.Random(args.seed)
    lines = []
    failed = inconclusive = False
    for i in range(args.instances):
        V0, M0 = _random_graded_pair(rng, cfg.p, args.total_dim)
        rep = descent_verify(V0, M0, p=cfg.p, start_level=1, max_level=cfg.tower_max)
        inconclusive = inconclusive or rep["inconclusive"]
        failed = failed or not (rep["pass"] or rep["inconclusive"])
        witnesses = "ok" if rep["pass_witnesses"] else (
            "INCONCLUSIVE" if rep["inconclusive"] else "FAIL")
        lines.append(
            f"instance {i}: classical={rep['classical_dim']} "
            f"dims={'ok' if rep['pass_dims'] else 'FAIL'} "
            f"inverse_pair={'ok' if rep['pass_inverse_pair'] else 'FAIL'} "
            f"witnesses={witnesses}"
        )
    # a reported failure outweighs an inconclusive instance
    lines.append("FAIL" if failed else "INCONCLUSIVE" if inconclusive else "PASS")
    _emit(("\n".join(lines) + "\n").encode(), cfg)
    return 1 if failed else 2 if inconclusive else 0


def _random_graded_pair(rng, p, total_dim):
    def rand_vs(tag):
        n = rng.randint(1, max(1, total_dim // 2))
        basis = {}
        for i in range(n):
            d = rng.randint(1, 6)
            basis.setdefault(d, []).append(f"{tag}{i}")
        return GradedVS(p, {d: tuple(v) for d, v in basis.items()})

    return rand_vs("v"), rand_vs("m")


def cmd_adams_chart(args, cfg):
    X = builtin_space(args.X, cfg.p, cfg.D)
    Y = builtin_space(args.Y, cfg.p, cfg.D)
    chart = adams_chart(X, Y, cfg.s_max, cfg.t_max, cfg.D, budget=cfg.budget)
    _emit(chart_emit(chart, cfg.format), cfg)
    return 0


def cmd_gh_chart(args, cfg):
    X = builtin_space(args.X, cfg.p, cfg.D)
    Y = builtin_space(args.Y, cfg.p, cfg.D)
    if cfg.tower_max < 2:
        _emit(b"inconclusive: chain schedule must allow at least level 2\n", cfg)
        return 2
    chart = gh_chart(
        X, Y, cfg.s_max, cfg.t_max, cfg.D,
        level=max(1, min(2, cfg.tower_max - 1)), budget=cfg.budget,
    )
    _emit(chart_emit(chart, cfg.format), cfg)
    return 0


def cmd_compare(args, cfg):
    with open(args.left, "rb") as fh:
        a = chart_from_json(fh.read())
    with open(args.right, "rb") as fh:
        b = chart_from_json(fh.read())
    try:
        rep = compare_charts(a, b)
    except ChartError as e:
        _emit((f"error: {e}\n").encode(), cfg)
        return 2
    lines = [f"cells checked: {rep['cells_checked']}"]
    for d in rep["diffs"]:
        lines.append(f"  differ at (s={d['s']}, t={d['t']}): {d['left']} vs {d['right']}")
    lines.append("PASS" if rep["pass"] else "FAIL")
    _emit(("\n".join(lines) + "\n").encode(), cfg)
    return 0 if rep["pass"] else 1


def cmd_bar_check(args, cfg):
    rep = bar_homology_check(args.n, args.d_max, s_max=args.smax_bar, L=args.bar_L, p=cfg.p,
                             budget=cfg.budget)
    lines = []
    for (s, d), c in sorted(rep["cells"].items()):
        lines.append(
            f"  s={s} degree={d}: dim={c['dim']} expected={c['expected']} "
            f"saturated={c['saturated']} {'PASS' if c['pass'] else 'FAIL'}"
        )
    lines.append("PASS" if rep["pass"] else "FAIL")
    _emit(("\n".join(lines) + "\n").encode(), cfg)
    return 0 if rep["pass"] else 1


def cmd_d1_saturation(args, cfg):
    X = builtin_space(args.X, cfg.p, cfg.D)
    Y = builtin_space(args.Y, cfg.p, cfg.D)
    rep = d1_saturation_report(
        X, Y, cfg.s_max, cfg.t_max, cfg.D, schedule_max=cfg.tower_max, budget=cfg.budget
    )
    lines = []
    for e in rep["entries"]:
        lines.append(
            f"  (s={e['s']}, t={e['t']}) rep {e['rep']}: death at level {e['death_level']}"
        )
    lines.append("PASS" if rep["pass"] else ("INCONCLUSIVE" if rep["inconclusive"] else "FAIL"))
    _emit(("\n".join(lines) + "\n").encode(), cfg)
    if rep["inconclusive"]:
        return 2
    return 0 if rep["pass"] else 1


def build_parser():
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file (flags override it)")
    shared.add_argument("--p", type=int)
    shared.add_argument("--D", type=int)
    shared.add_argument("--smax", type=int, dest="s_max", metavar="SMAX")
    shared.add_argument("--tmax", type=int, dest="t_max", metavar="TMAX")
    shared.add_argument("--window-L", type=int, dest="window_L")
    shared.add_argument("--window-K", type=int, dest="window_K")
    shared.add_argument("--tower-max", type=int, dest="tower_max")
    shared.add_argument("--budget", type=int)
    shared.add_argument("--format", choices=["json", "svg", "ascii"])
    shared.add_argument("--out")
    ap = argparse.ArgumentParser(
        prog="ue2",
        parents=[shared],
        description="Unstable-algebra E2 charts: admissible bases, windowed exactness, "
        "descent verification, and the two spectral-sequence pipelines.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        return sub.add_parser(name, parents=[shared], **kw)

    s = add("adem", help="admissible normal form of an operation word")
    s.add_argument("word", help="e.g. A:Sq[2,2] or B:Sq[0,-1] or A:P[b2,1]")
    s.set_defaults(func=cmd_adem)

    s = add("basis", help="free-module basis in one degree")
    s.add_argument("--gen-degree", type=int, required=True)
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--flavor", default="A", choices=["A", "B", "a", "b"])
    s.set_defaults(func=cmd_basis)

    s = add("kn-dims", help="free unstable algebra dimensions on one generator")
    s.add_argument("--n", type=int, required=True)
    s.set_defaults(func=cmd_kn_dims)

    s = add("exactness", help="windowed exact-sequence report")
    s.add_argument("--n", type=int, required=True, help="generator degree")
    s.set_defaults(func=cmd_exactness)

    s = add("descent", help="descent-theorem verification on random instances")
    s.add_argument("--instances", type=int, default=20)
    s.add_argument("--total-dim", type=int, default=6)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_descent)

    s = add("adams-chart", help="unstable Adams E2 chart")
    s.add_argument("--X", required=True)
    s.add_argument("--Y", required=True)
    s.set_defaults(func=cmd_adams_chart)

    s = add("gh-chart", help="second-pipeline E2 chart over the field chain")
    s.add_argument("--X", required=True)
    s.add_argument("--Y", required=True)
    s.set_defaults(func=cmd_gh_chart)

    s = add("compare", help="cellwise comparison of two chart JSON files")
    s.add_argument("left")
    s.add_argument("right")
    s.set_defaults(func=cmd_compare)

    s = add("bar-check", help="windowed bar-construction homology check")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--d-max", type=int, default=5)
    s.add_argument("--smax-bar", type=int, default=3)
    s.add_argument("--bar-L", type=int, default=2)
    s.set_defaults(func=cmd_bar_check)

    s = add("d1-saturation", help="obstruction death witnesses over the chain")
    s.add_argument("--X", required=True)
    s.add_argument("--Y", required=True)
    s.set_defaults(func=cmd_d1_saturation)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = _load_config(args)
        return args.func(args, cfg)
    except (ChartError, tower.TowerExhausted, st.WindowExhausted, BudgetExceeded) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except MemoryError as e:
        sys.stderr.write(f"error: out of memory: {e}\n")
        return 2
    except (ValueError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
