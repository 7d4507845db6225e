"""Run-time span tracing of unstable_e2, installed from outside the package.

The tracer replaces public functions and methods of each module with
wrappers that record one span per outermost call: (name, start, end,
parent).  Spans stay in memory until the process ends.  A call whose name
already has an open span (recursion, or a thin public alias of the same
operation) is folded into that span; helpers marked ``inner`` fold into any
open span of their own layer.  Every call, folded or not, is counted.

Size counters are read after a call returns (matrix shapes, face bytes,
memo and cache sizes).  A post hook that has to scan large arrays runs in a
``trace.hook`` span, so that its cost lands in the ``trace`` layer and not
in the layer that made the call.

The layer of a span is the part of its name before the first dot.  The
benchmark's own root spans are in the ``bench`` layer; their self time is
the time no instrumented call covers (``trace.unattributed_s``).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

import numpy as np

LAYERS = (
    "tower",
    "steenrod",
    "unstable_modules",
    "unstable_algebras",
    "derivations",
    "adams",
    "goerss_hopkins",
    "cli",
)


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self._name_ids = {}
        self.spans = []  # [name_id, start, end, parent_index]
        self.stack = []
        self.open = Counter()
        self.calls = Counter()
        self.sizes = Counter()

    def _nid(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([self._nid(name), time.perf_counter(), 0.0, parent])
        self.stack.append(len(self.spans) - 1)
        self.open[name] += 1

    def end(self, name):
        idx = self.stack.pop()
        self.spans[idx][2] = time.perf_counter()
        self.open[name] -= 1

    def span(self, name, fn, *args, **kw):
        self.calls[name] += 1
        self.begin(name)
        try:
            return fn(*args, **kw)
        finally:
            self.end(name)

    def _folds(self, name, inner):
        if self.open[name]:
            return True
        if inner and self.stack:
            top = self.names[self.spans[self.stack[-1]][0]]
            return top.split(".", 1)[0] == name.split(".", 1)[0]
        return False

    def make_wrapper(self, fn, name, inner=False, pre=None, post=None, heavy_post=False):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            tr.calls[name] += 1
            outer = not tr._folds(name, inner)
            state = pre(tr, args, kw, outer) if pre else None
            if not outer:
                result = fn(*args, **kw)
                if post:
                    post(tr, args, kw, result, outer, state)
                return result
            tr.begin(name)
            try:
                result = fn(*args, **kw)
            finally:
                tr.end(name)
            if post:
                if heavy_post:
                    tr.span("trace.hook", post, tr, args, kw, result, outer, state)
                else:
                    post(tr, args, kw, result, outer, state)
            return result

        return wrapper

    def summary(self):
        """Per span name: count, inclusive seconds and self seconds."""
        n = len(self.spans)
        dur = [s[2] - s[1] for s in self.spans]
        child = [0.0] * n
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        out = {}
        for i, s in enumerate(self.spans):
            name = self.names[s[0]]
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return {k: {"spans": v[0], "incl_s": v[1], "self_s": v[2]} for k, v in out.items()}

    def write_spans(self, fh):
        """One JSON array per line: run id, name, start, end, parent index."""
        for s in self.spans:
            fh.write(f'["{self.run_id}","{self.names[s[0]]}",{s[1]:.9f},{s[2]:.9f},{s[3]}]\n')


# ---------------------------------------------------------------------------
# size hooks
# ---------------------------------------------------------------------------

def _shape2(M):
    M = np.asarray(M)
    if M.ndim == 2:
        return M.shape
    return (M.shape[0], 1) if M.ndim == 1 else (1, 1)


def _pre_rank(tr, args, kw, outer):
    if outer:
        r, c = _shape2(args[0])
        tr.sizes["tower.rank_entries"] += r * c


def _pre_matmul(tr, args, kw, outer):
    if outer:
        (m, k), (_, n) = _shape2(args[0]), _shape2(args[1])
        tr.sizes["tower.matmul_flops"] += 2 * m * k * n
        tr.sizes["tower.matmul_bytes"] += 8 * (m * k + k * n + m * n)


def _pre_rewrite(tr, args, kw, outer):
    ctx, word = args[0], args[1]
    tr.sizes["steenrod.memo_lookups"] += 1
    if tuple(word) in ctx._memo:
        tr.sizes["steenrod.memo_hits"] += 1


def _words_hooks(fn):
    """Hit = the enumerator's cache (a default argument) did not grow."""
    cache = fn.__defaults__[-1]

    def pre(tr, args, kw, outer):
        return len(cache)

    def post(tr, args, kw, result, outer, state):
        tr.sizes["unstable_modules.words_lookups"] += 1
        if len(cache) == state:
            tr.sizes["unstable_modules.words_hits"] += 1

    return dict(pre=pre, post=post)


def _post_window(tr, args, kw, result, outer, state):
    if outer:
        r, c = _shape2(result[0])
        tr.sizes["unstable_modules.window_entries"] += r * c


def _post_build(tr, args, kw, result, outer, state):
    if outer:
        alg = args[0]
        tr.sizes["unstable_algebras.basis_monomials"] += sum(
            len(alg.basis(d)) for d in range(0, alg.D + 1)
        )


def _post_complex(tr, args, kw, result, outer, state):
    if outer:
        tr.sizes["derivations.cochain_dim_total"] += sum(args[0].dims)


def _post_resolution(tr, args, kw, result, outer, state):
    if not outer:
        return
    res = args[0]
    tr.sizes["adams.resolution_basis_total"] += sum(len(v) for v in res.V)
    for mats in list(res.face_full) + list(res.degen_full):
        for M in mats:
            tr.sizes["adams.face_bytes"] += M.nbytes
            tr.sizes["adams.face_entries"] += M.size
            tr.sizes["adams.face_nonzeros"] += int(np.count_nonzero(M))


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------

def _alias_modules():
    return [m for k, m in list(sys.modules.items()) if k == "unstable_e2" or k.startswith("unstable_e2.")]


def _patch_function(module, attr, wrapper, original):
    """Replace a module function, and every module-level alias of it."""
    for mod in _alias_modules():
        for k, v in list(vars(mod).items()):
            if v is original:
                setattr(mod, k, wrapper)
    setattr(module, attr, wrapper)


def install(tr):
    """Wrap the public operations of every layer.  Returns the tracer."""
    from unstable_e2 import (  # noqa: F401  (cli: patch its imported names too)
        adams,
        cli,
        derivations,
        goerss_hopkins,
        steenrod,
        tower,
        unstable_algebras,
        unstable_modules,
    )

    functions = [
        (tower, "rank", "tower.rank", dict(pre=_pre_rank)),
        (tower, "gf2_rank", "tower.gf2_rank", dict(inner=True)),
        (tower, "rref", "tower.rref", dict(inner=True)),
        (tower, "kernel_basis", "tower.kernel", {}),
        (tower, "cokernel_basis", "tower.cokernel", {}),
        (tower, "solve", "tower.solve", {}),
        (tower, "matmul_mod", "tower.matmul", dict(pre=_pre_matmul)),
        (tower, "semilinear_kernel_cokernel", "tower.semilinear", {}),
        (unstable_modules, "admissible_words_a", "unstable_modules.words",
         _words_hooks(unstable_modules.admissible_words_a)),
        (unstable_modules, "admissible_words_b", "unstable_modules.words",
         _words_hooks(unstable_modules.admissible_words_b)),
        (unstable_modules, "one_minus_p0_window", "unstable_modules.window", dict(post=_post_window)),
        (unstable_modules, "quotient_q_window", "unstable_modules.window", dict(post=_post_window)),
        (unstable_modules, "exactness_report", "unstable_modules.exactness", {}),
        (unstable_algebras, "extend_algebra_map", "unstable_algebras.extend", {}),
        (derivations, "bar_homology_check", "derivations.bar", {}),
        (derivations, "descent_verify", "derivations.descent", {}),
        (adams, "builtin_space", "adams.space", {}),
        (adams, "adams_chart", "adams.chart", {}),
        (adams, "chart_emit", "adams.emit", {}),
        (goerss_hopkins, "gh_chart", "goerss_hopkins.gh", {}),
        (goerss_hopkins, "compare_charts", "goerss_hopkins.compare", {}),
    ]
    methods = [
        (tower.FieldTower, "artin_schreier_solve", "tower.as_solve", {}),
        (steenrod.AdemContext, "rewrite", "steenrod.rewrite", dict(pre=_pre_rewrite)),
        (unstable_algebras.FreeUnstableAlgebra, "__init__", "unstable_algebras.build",
         dict(post=_post_build)),
        (unstable_algebras.MonomialBasis, "mul", "unstable_algebras.mul", {}),
        (derivations.CochainComplex, "__init__", "derivations.complex", dict(post=_post_complex)),
        (derivations.CochainComplex, "cohomology_dims", "derivations.cohomology", {}),
        (adams.CotripleResolution, "__init__", "adams.resolution",
         dict(post=_post_resolution, heavy_post=True)),
        (adams.CotripleResolution, "der_cochain_complex", "adams.cochain", {}),
    ]
    for module, attr, name, opts in functions:
        original = getattr(module, attr)
        _patch_function(module, attr, tr.make_wrapper(original, name, **opts), original)
    for cls, attr, name, opts in methods:
        setattr(cls, attr, tr.make_wrapper(vars(cls)[attr], name, **opts))
    return tr


def memo_sizes(tr):
    """Sizes of the module-level memo tables, read at the end of a process."""
    from unstable_e2 import steenrod

    tr.sizes["steenrod.memo_entries"] += sum(len(c._memo) for c in steenrod._contexts.values())
