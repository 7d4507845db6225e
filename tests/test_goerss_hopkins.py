import numpy as np
import pytest

from unstable_e2 import adams, tower
from unstable_e2.adams import (
    Chart,
    ChartError,
    adams_chart,
    builtin_space,
    cotriple_resolution,
    suspension_target,
)
from unstable_e2.goerss_hopkins import compare_charts, d1_saturation_report, gh_chart
from unstable_e2.tower import get_tower


def test_gh_equals_adams_on_spheres():
    S2 = builtin_space("S2", 2, 8)
    S1 = builtin_space("S1", 2, 8)
    res = cotriple_resolution(S2, 2, 5, budget=500_000)
    a = adams_chart(S2, S1, 1, 4, D=8, resolution=res)
    for level in (1, 2):
        g = gh_chart(S2, S1, 1, 4, D=8, level=level, resolution=res)
        assert a.entries == g.entries
        rep = compare_charts(a, g)
        assert rep["pass"] and not rep["diffs"]


def test_gh_fails_loudly_on_non_base_form_kernel(monkeypatch):
    # a one-coordinate kernel off the base slot must stop the chart, naming the
    # level; level 1 has one slot, so the first level that can fail is 2
    def shifted_kernel(p, level):
        m = get_tower(p).field(level).degree
        ker = np.zeros((1, m), dtype=np.int64)
        ker[0, m - 1] = 1
        return ker, np.zeros((0, m), dtype=np.int64)

    # the pair is cached per (p, level); run it uncached on the patched kernel
    monkeypatch.setattr(tower, "base_slot_inverse_pair", tower.base_slot_inverse_pair.__wrapped__)
    monkeypatch.setattr(tower, "semilinear_kernel_cokernel", shifted_kernel)
    S2 = builtin_space("S2", 2, 6)
    S1 = builtin_space("S1", 2, 6)
    with pytest.raises(AssertionError, match="chain level 2"):
        gh_chart(S2, S1, 1, 3, D=6, level=2)


def test_gh_free_source_collapse():
    K1 = builtin_space("K1", 2, 5)
    S1 = builtin_space("S1", 2, 5)
    g = gh_chart(K1, S1, 1, 3, D=5, level=2)
    for (s, t), d in g.entries.items():
        if s > 0:
            assert d == 0


def test_gh_refuses_nontrivial_target():
    S2 = builtin_space("S2", 2, 8)
    K1 = builtin_space("K1", 2, 8)
    with pytest.raises(ChartError):
        gh_chart(S2, K1, 1, 3, D=8, level=2)


def test_compare_detects_single_cell_difference():
    a = Chart(2, "adams", 1, 3, 8, {(0, 0): 0, (0, 2): 1})
    b = Chart(2, "gh", 1, 3, 8, {(0, 0): 0, (0, 2): 1, (1, 3): 1})
    rep = compare_charts(a, b)
    assert not rep["pass"]
    assert rep["diffs"] == [{"s": 1, "t": 3, "left": 0, "right": 1}]
    ident = compare_charts(a, a)
    assert ident["pass"] and ident["diffs"] == []


def test_compare_rejects_window_mismatch():
    a = Chart(2, "adams", 1, 3, 8, {})
    b = Chart(2, "gh", 2, 3, 8, {})
    with pytest.raises(ChartError):
        compare_charts(a, b)


def test_saturation_witnesses_within_schedule():
    S2 = builtin_space("S2", 2, 6)
    S1 = builtin_space("S1", 2, 6)
    rep = d1_saturation_report(S2, S1, 2, 4, D=6, schedule_max=3)
    assert rep["pass"] and not rep["inconclusive"]
    assert rep["entries"]
    assert all(e["death_level"] == 2 for e in rep["entries"])
    assert all(e["witness"] is not None for e in rep["entries"])


def test_saturation_entries_are_the_nonzero_cochain_groups():
    # one entry per nonzero cochain group of the chart's complex, sized as it
    # is; the degenerate generators of V[s] are not cochains
    S2 = builtin_space("S2", 2, 10)
    S1 = builtin_space("S1", 2, 10)
    res = cotriple_resolution(S2, 2, 10)
    rep = d1_saturation_report(S2, S1, 2, 6, D=10, schedule_max=3, resolution=res)
    # the targets' degrees are 1..7; each target is a sum of degree-d copies
    dims = {d: res.der_cochain_complex(d, 2).dims for d in range(1, 8)}
    groups = {}
    for t in range(1, 7):
        M = suspension_target(S1, t)
        for s in range(0, 3):
            n = sum(M.dim(d) * dims[d][s] for d in M.degrees())
            if n:
                groups[(s, t)] = n
    assert all(e["coords"] for e in rep["entries"])
    assert {(e["s"], e["t"]): e["coords"] for e in rep["entries"]} == groups
    assert len(rep["entries"]) == len(groups) == 11 and sum(groups.values()) == 56


def test_saturation_inconclusive_when_schedule_short(monkeypatch):
    # a schedule of one level witnesses nothing: it is refused before the
    # resolution is built
    def no_resolution(*args):
        raise AssertionError("built a resolution for a schedule that witnesses nothing")

    monkeypatch.setattr(adams, "cotriple_resolution", no_resolution)
    S2 = builtin_space("S2", 2, 6)
    S1 = builtin_space("S1", 2, 6)
    rep = d1_saturation_report(S2, S1, 1, 2, D=6, schedule_max=1)
    assert rep["inconclusive"] and not rep["pass"]


def test_gh_chart_tower_level_recorded():
    S2 = builtin_space("S2", 2, 6)
    S1 = builtin_space("S1", 2, 6)
    g = gh_chart(S2, S1, 1, 3, D=6, level=2)
    assert g.kind == "gh" and g.tower_level == 3


def test_product_space_odd_p_kunneth_sign():
    T = builtin_space("S1*S3", 3, 6)
    a = [n for n in T.basis(1)][0]
    b = [n for n in T.basis(3) if n != a][0]
    ab = T.mul_names(a, b)
    ba = T.mul_names(b, a)
    # odd-degree classes anticommute at p = 3
    assert ab and ba
    (n1, c1), = ab.items()
    (n2, c2), = ba.items()
    assert n1 == n2 and (c1 + c2) % 3 == 0


def test_pipelines_agree_on_torus_target():
    # the comparison holds for every catalog pair with a trivially-acting
    # suspension target; the torus is the nontrivial-product example
    from unstable_e2.adams import adams_chart

    S2 = builtin_space("S2", 2, 7)
    T = builtin_space("S1*S1", 2, 7)
    a = adams_chart(S2, T, 1, 4, D=7)
    g = gh_chart(S2, T, 1, 4, D=7, level=2)
    assert compare_charts(a, g)["pass"]
