"""The field-chain pipeline: levelwise descent and the second E2 chart.

This pipeline shares the cotriple resolution and its cochain complex with
the classical one (``adams.adams_chart``); it is not an independent
computation.  Levels of the resolution, base-changed to a chain level, carry
the index-0 operation as a frobenius-semilinear map fixing the base-field
form, and the cochain group at that level is the kernel of 1 - frobenius.
What this module adds is:

* the verified base-form kernel: at chain levels 1, level and level + 1 the
  kernel of 1 - frobenius on one coordinate is computed exactly and checked
  to be the base-field slot, so the restricted complex is the classical one
  at all three levels and is built and ranked once per t;
* the death witnesses: every positive-degree two-term cokernel class is an
  obstruction that must die deeper in the chain, and its Artin-Schreier
  solution is recorded, never assumed.

A check that shares no code with the classical pipeline is the unstable
Lambda-algebra (ROADMAP item 3).
"""

from __future__ import annotations

import numpy as np

from . import tower
from .adams import (
    Chart,
    ChartError,
    SpaceModel,
    cotriple_resolution,
    hom_set_count,
    suspension_has_trivial_action,
    suspension_target,
)
from .derivations import CochainComplex
from .tower import SemilinearEndo, semilinear_kernel_cokernel


# ---------------------------------------------------------------------------
# the chart
# ---------------------------------------------------------------------------

def _verified_base_block(tw, level):
    """The kernel of 1 - frobenius on one coordinate, checked to be the base slot.

    Coordinatewise 1 - frobenius on (F_{p^{k!}})^n is block-diagonal, so this
    one m x m block fixes the kernel of every cochain group at the level: the
    base-field slot of each coordinate.  Raises AssertionError otherwise.
    """
    bker, _ = semilinear_kernel_cokernel(
        SemilinearEndo(tw, level, 1, twist=True, subtract_from_identity=True)
    )
    base = np.zeros((1, tw.field(level).degree), dtype=np.int64)
    base[0, 0] = 1
    if not np.array_equal(bker % tw.p, base):
        raise AssertionError(
            f"kernel of 1 - frobenius at chain level {level} is not the base-field slot"
        )
    return bker


def gh_chart(X: SpaceModel, Y: SpaceModel, s_max, t_max, D, level=2, budget=500_000,
             resolution=None, with_certificate=False):
    """The second-pipeline E2 chart, computed at a chain level and re-checked one deeper.

    Per construction level, the cochain group is the kernel of the two-term
    frobenius-semilinear complex against the suspension target.  That kernel
    is verified once per level (1, level, level + 1) on a single coordinate
    block; it is the base-field slot, so the restricted complex carries the
    classical differentials at every one of the three levels and is built
    once per t.  The chart records the highest verified level.
    """
    if not suspension_has_trivial_action(Y):
        raise ChartError(
            "second pipeline needs a trivially-acting suspension target; "
            f"{Y.name} has nontrivial operations"
        )
    d_needed = t_max + Y.top_degree()
    if D < d_needed:
        raise ChartError(
            f"truncation D={D} below the sufficiency bound t_max + top(H*Y) = {d_needed}"
        )
    if level + 1 > tower.MAX_LEVEL:
        raise tower.TowerExhausted(f"level {level}+1 beyond the chain")
    tw = tower.get_tower(X.p)
    blocks = {k: _verified_base_block(tw, k) for k in (1, level, level + 1)}
    res = resolution or cotriple_resolution(X, s_max + 1, d_needed, budget)
    entries = {}
    certificate = {"t": {}}
    for t in range(1, t_max + 1):
        M = suspension_target(Y, t)
        acc = res.der_cochain_complex(M, s_max + 1)
        # on base-slot kernels the differentials act by the classical matrices,
        # so one restricted complex serves all verified levels
        restricted = CochainComplex(X.p, acc.dims, [Dm % X.p for Dm in acc.maps])
        for s, dim in enumerate(restricted.cohomology_dims(s_max)):
            if dim:
                entries[(s, t)] = dim
        if with_certificate:
            bker = blocks[level]
            kernels = [np.kron(np.eye(n, dtype=np.int64), bker) for n in acc.dims[:2]]
            extractions = [ker[:, :: bker.shape[1]].T for ker in kernels]
            certificate["t"][t] = _s0_certificate(
                acc, restricted, kernels, extractions, X.p, level
            )
    count = hom_set_count(X, Y)
    r = 0
    while X.p ** r < count:
        r += 1
    if X.p ** r != count:
        raise ChartError(f"hom-set cardinality {count} is not a p-power")
    entries[(0, 0)] = r
    chart = Chart(X.p, "gh", s_max, t_max, D, entries, fringe_set_size=count,
                  tower_level=level + 1)
    if with_certificate:
        return chart, certificate
    return chart


def _s0_certificate(adams_cc, gh_cc, kernels, extractions, p, level):
    """Explicit cochain comparison at the s = 0 column.

    Produces the inverse pair between the level-0 kernel and the classical
    cochain group and checks the extraction intertwines the differentials.
    """
    tw = tower.get_tower(p)
    m = tw.field(level).degree
    n0 = adams_cc.dims[0]
    ker0 = kernels[0]
    ext0 = extractions[0]  # n0 x dim(ker0)
    # inclusion: classical basis vector -> base-field-form kernel coordinates
    inc = np.zeros((ker0.shape[0], n0), dtype=np.int64) if ker0.size else np.zeros((0, n0), dtype=np.int64)
    ok_pair = True
    if n0:
        incl_vectors = np.zeros((n0, n0 * m), dtype=np.int64)
        for c in range(n0):
            incl_vectors[c, c * m] = 1
        for c in range(n0):
            sol = tower.solve(ker0.T % p, incl_vectors[c], p) if ker0.size else None
            if sol is None:
                ok_pair = False
                break
            inc[:, c] = sol
        if ok_pair:
            comp1 = (ext0 @ inc) % p
            comp2 = (inc @ ext0) % p
            ok_pair = np.array_equal(comp1, np.eye(n0, dtype=np.int64)) and np.array_equal(
                comp2, np.eye(inc.shape[0], dtype=np.int64)
            )
    # cochain-map condition at the first differential
    ok_cochain = True
    if adams_cc.maps:
        lhs = (extractions[1] @ gh_cc.maps[0]) % p if extractions[1].size else np.zeros(
            (adams_cc.dims[1], gh_cc.dims[0]), dtype=np.int64
        )
        rhs = (adams_cc.maps[0] @ ext0) % p if ext0.size else lhs
        ok_cochain = np.array_equal(lhs % p, rhs % p)
    return {"inverse_pair": bool(ok_pair), "cochain_s0": bool(ok_cochain)}


# ---------------------------------------------------------------------------
# comparison and obstruction saturation
# ---------------------------------------------------------------------------

def compare_charts(a: Chart, b: Chart, certificate=None):
    """Cellwise dimension comparison; windows must match exactly."""
    if (a.p, a.s_max, a.t_max) != (b.p, b.s_max, b.t_max):
        raise ChartError(
            f"window mismatch: ({a.p},{a.s_max},{a.t_max}) vs ({b.p},{b.s_max},{b.t_max})"
        )
    cells = sorted(set(a.entries) | set(b.entries))
    diffs = []
    for cell in cells:
        da, db = a.entries.get(cell, 0), b.entries.get(cell, 0)
        if da != db:
            diffs.append({"s": cell[0], "t": cell[1], "left": da, "right": db})
    report = {
        "pass": not diffs,
        "diffs": diffs,
        "cells_checked": len(cells),
        "fringe_match": a.fringe_set_size == b.fringe_set_size,
    }
    if certificate is not None:
        report["s0_certificates"] = {
            t: dict(c) for t, c in sorted(certificate["t"].items())
        }
        report["pass"] = report["pass"] and all(
            c["inverse_pair"] and c["cochain_s0"] for c in certificate["t"].values()
        )
    else:
        report["dims_only"] = True
    return report


def d1_saturation_report(X: SpaceModel, Y: SpaceModel, s_max, t_max, D,
                         schedule_max=3, start_level=1, budget=500_000, resolution=None):
    """Death witnesses for every positive two-term cokernel class, per level and t.

    For each resolution level s and each t, the cokernel of the two-term
    complex at the starting chain level is nonzero; each representative must
    become a boundary at some level within the schedule, witnessed by an
    Artin-Schreier solution.  An exhausted schedule is inconclusive, not a
    pass.
    """
    tw = tower.get_tower(X.p)
    d_needed = t_max + Y.top_degree()
    if D < d_needed:
        raise ChartError(f"truncation D={D} below sufficiency bound {d_needed}")
    res = resolution or cotriple_resolution(X, s_max + 1, d_needed, budget)
    report = {"entries": [], "pass": True, "inconclusive": False}
    if schedule_max <= start_level:
        report["inconclusive"] = True
        report["pass"] = False
        report["reason"] = (
            f"schedule max {schedule_max} cannot witness deaths from level {start_level}"
        )
        return report
    # the block cokernel and its witnesses depend only on the starting level
    _, cok = semilinear_kernel_cokernel(
        SemilinearEndo(tw, start_level, 1, twist=True, subtract_from_identity=True)
    )
    witnesses = []
    for row in cok:
        b = tower.TowerElem(tw, start_level, tuple(int(x) for x in row))
        try:
            x, lvl = tw.artin_schreier_solve(b)
            witnesses.append((lvl, x.coords))
        except tower.TowerExhausted:
            witnesses.append((None, None))
    for t in range(1, t_max + 1):
        M = suspension_target(Y, t)
        for s in range(0, s_max + 1):
            n = sum(
                len(M.basis.get(d, ())) for d, _ in res.V[s]
            )
            if n == 0:
                continue
            # one representative family per coordinate; witnesses coincide
            for ri, (lvl, coords) in enumerate(witnesses):
                entry = {
                    "s": s,
                    "t": t,
                    "coords": n,
                    "rep": ri,
                    "death_level": lvl,
                    "witness": coords,
                }
                report["entries"].append(entry)
                if lvl is None or lvl > schedule_max:
                    report["pass"] = False
                    if lvl is None:
                        report["inconclusive"] = True
    return report
