"""The field-chain pipeline: levelwise descent and the second E2 chart.

This pipeline shares the cotriple resolution and its cochain complex with
the classical one (``adams.adams_chart``); it is not an independent
computation.  Levels of the resolution, base-changed to a chain level, carry
the index-0 operation as a frobenius-semilinear map fixing the base-field
form, and the cochain group at that level is the kernel of 1 - frobenius.
What this module adds is:

* the verified base-form kernel: at chain levels 1, level and level + 1 the
  kernel of 1 - frobenius on one coordinate is checked to be the base-field
  slot by the inverse-pair check ``tower.base_slot_inverse_pair`` (the one
  ``derivations.descent_verify`` runs), so the classical complex is the
  restricted one at all three levels and the chart's entries are
  ``adams_chart``'s on the same resolution, relabelled with the highest
  verified level;
* the death witnesses: every positive-degree two-term cokernel class is an
  obstruction that must die deeper in the chain, and its Artin-Schreier
  solution is recorded, never assumed.

The 1 - frobenius block, its kernel and cokernel and its witnesses are
computed once per (p, level) in ``tower`` as tuples of row tuples.

Agreement of the two charts holds by construction, so it is a consistency
check, not a proof.  The check that can fail, sharing no code with either
pipeline, is the unstable Lambda-algebra oracle of the test suite
(``tests/oracles.py``), run against ``adams_chart`` by acceptance
criterion 10.
"""

from __future__ import annotations

from . import tower
from .adams import (
    Chart,
    ChartError,
    CotripleResolution,
    SpaceModel,
    _chart_window,
    adams_chart,
    suspension_has_trivial_action,
    suspension_target,
)
from .derivations import DEFAULT_BUDGET


# ---------------------------------------------------------------------------
# the chart
# ---------------------------------------------------------------------------

def gh_chart(X: SpaceModel, Y: SpaceModel, s_max, t_max, D, level=2, budget=DEFAULT_BUDGET):
    """The second-pipeline E2 chart, computed at a chain level and re-checked one deeper.

    Per construction level, the cochain group is the kernel of the two-term
    frobenius-semilinear complex against the suspension target.  That kernel
    is verified once per level (1, level, level + 1) on a single coordinate
    block by ``tower.base_slot_inverse_pair``, the check ``descent_verify``
    runs: the kernel and the base-field slot are inverse, so the restricted
    complex is the classical one at every one of the three levels, and the
    entries are ``adams_chart``'s, on the resolution that it builds (none at
    t_max = 0).  The chart records the highest verified level; a failed check
    raises AssertionError naming the level.
    """
    if not suspension_has_trivial_action(Y):
        raise ChartError(
            "second pipeline needs a trivially-acting suspension target; "
            f"{Y.name} has nontrivial operations"
        )
    if level + 1 > tower.MAX_LEVEL:
        raise tower.TowerExhausted(f"level {level}+1 beyond the chain")
    for k in (1, level, level + 1):
        if not tower.base_slot_inverse_pair(X.p, k):
            raise AssertionError(
                f"kernel of 1 - frobenius at chain level {k} is not the base-field slot"
            )
    a = adams_chart(X, Y, s_max, t_max, D, budget)
    return Chart(a.p, "gh", a.s_max, a.t_max, a.D, a.entries, a.fringe_set_size, level + 1)


# ---------------------------------------------------------------------------
# comparison and obstruction saturation
# ---------------------------------------------------------------------------

def compare_charts(a: Chart, b: Chart):
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
    return {
        "pass": not diffs,
        "diffs": diffs,
        "cells_checked": len(cells),
        "fringe_match": a.fringe_set_size == b.fringe_set_size,
        "dims_only": True,
    }


def d1_saturation_report(X: SpaceModel, Y: SpaceModel, s_max, t_max, D,
                         schedule_max=3, budget=DEFAULT_BUDGET):
    """Death witnesses for every positive two-term cokernel class, per level and t.

    For each resolution level s and each t whose cochain group is nonzero
    (on the nondegenerate generators, as in the chart's complex), the
    cokernel of the two-term complex at chain level 1 is nonzero;
    each representative must become a boundary at some level within the
    schedule, witnessed by an Artin-Schreier solution.  An exhausted
    schedule is inconclusive, not a pass, and a schedule of one level or
    less is reported so before the resolution is built, as is the empty
    pass of t_max = 0.  Like ``adams_chart``, it builds levels 0..s_max to
    degree t_max + top(H*Y) and refuses a target with nontrivial operations
    when t_max >= 1.
    """
    d_needed = _chart_window(Y, t_max, D)
    if schedule_max <= 1:
        reason = f"schedule max {schedule_max} cannot witness deaths from level 1"
        return {"entries": [], "pass": False, "inconclusive": True, "reason": reason}
    report = {"entries": [], "pass": True, "inconclusive": False}
    if t_max < 1:  # no target degree, so nothing to witness
        return report
    res = CotripleResolution(X, s_max, d_needed, budget)
    witnesses = tower.cokernel_witnesses(X.p, 1)
    for t in range(1, t_max + 1):
        M = suspension_target(Y, t)
        for s in range(0, s_max + 1):
            n = sum(len(M.basis.get(res.V[s][vi][0], ())) for vi in res.nondegenerate[s])
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
