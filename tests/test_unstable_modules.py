import gc
import random

import pytest

from unstable_e2 import steenrod as st
from unstable_e2 import tower, unstable_modules
from unstable_e2.adams import SpaceModel
from unstable_e2.unstable_modules import (
    GradedVS,
    ModWindow,
    act_free,
    admissible_words_a,
    admissible_words_b,
    exactness_report,
    free_a_basis,
    free_b_basis_window,
    one_minus_p0_window,
    quotient_q_window,
)

from oracles import brute_force_admissible, brute_force_admissible_b, table_law_violations


def test_free_a_basis_examples():
    g = [("x", 1)]
    assert free_a_basis(g, 2) == ((((0, 1),), "x"),)
    assert free_a_basis(g, 3) == ()
    assert free_a_basis(g, 4) == ((((0, 2), (0, 1)), "x"),)


def test_free_a_dims_against_brute_force():
    for n in (1, 2, 3):
        for d in range(n, 13):
            fast = free_a_basis([("x", n)], d)
            slow = brute_force_admissible(2, d - n, n)
            assert len(fast) == len(slow), (n, d)
            assert sorted(w for w, _ in fast) == slow


@pytest.mark.parametrize(
    "p,word_deg,excess_cap,L,K",
    [
        (2, 0, 0, 0, 2),
        (2, 3, 0, 0, 2),
        (2, 0, 4, 4, 3),
        (2, 2, 5, 4, 3),
        (2, -3, 6, 4, 4),
        (2, 6, 6, 4, 2),
        (2, 7, 5, 5, 2),
        (3, 0, 0, 0, 1),
        (3, 0, 6, 3, 2),
        (3, 1, 5, 3, 2),
        (3, 4, 8, 3, 2),
        (3, -4, 9, 3, 2),
        (3, 9, 9, 3, 1),
        (3, -8, 14, 4, 3),
    ],
)
def test_admissible_words_b_against_brute_force(p, word_deg, excess_cap, L, K):
    fast = admissible_words_b(p, word_deg, excess_cap, L, K)
    assert list(fast) == brute_force_admissible_b(p, word_deg, excess_cap, L, K)


@pytest.mark.parametrize("p,d_max", [(3, 12), (5, 16)])
def test_admissible_words_a_odd_prime_against_brute_force(p, d_max):
    # a flavor-A word is a flavor-B word with indices >= 0 and no P^0; at most
    # its last letter is the bare Bockstein, every other has degree >= 2(p - 1)
    for d in range(0, d_max + 1):
        L = (d - 1) // (2 * (p - 1)) + 1
        for cap in range(0, 4):
            slow = [w for w in brute_force_admissible_b(p, d, cap, L, 0) if (0, 0) not in w]
            assert list(admissible_words_a(p, d, cap)) == slow, (p, d, cap)


def test_exactness_report_leaves_no_reference_cycles():
    # with the cycle collector off, anything left in a reference cycle (a
    # recursive closure that refers to itself, say) outlives the call; no other
    # test asks for this window's word keys, so the enumerators run cold
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        exactness_report(GradedVS.single(2, 2), ModWindow(D=6, L=3, K=7))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_free_b_window_examples():
    w = ModWindow(D=8, L=2, K=2)
    b = free_b_basis_window([("x", 3)], 3, w)
    names = [wd for wd, _ in b]
    assert () in names and ((0, 0),) in names and ((0, 0), (0, 0)) in names
    assert free_b_basis_window([], 5, w) == ()
    w0 = ModWindow(D=8, L=0, K=2)
    assert free_b_basis_window([("x", 3)], 3, w0) == (((), "x"),)


def test_mod_window_is_an_immutable_value():
    w = ModWindow(K=7, D=6, L=3)
    assert (w.D, w.L, w.K) == (6, 3, 7) and w == ModWindow(6, 3, 7)
    assert repr(w) == "ModWindow(D=6, L=3, K=7)"
    with pytest.raises(AttributeError):
        w.L = 4
    assert w.rewrite_window() == st.BWindow(K=2 * 7 + 2 * 6 + 16, L=2 * 3 + 4)


def test_exactness_report_leaves_the_callers_window_unchanged():
    # the report reads longer and shorter copies of the window, never edits it
    w = ModWindow(D=4, L=2, K=4)
    rep = exactness_report(GradedVS.single(2, 1), w)
    assert w == ModWindow(D=4, L=2, K=4) and rep["window"] is w


def test_window_monotone():
    # enlarging the window only adds basis elements
    small = set(admissible_words_b(2, 0, 2, 3, 2))
    for L, K in ((4, 2), (3, 3), (4, 4)):
        big = set(admissible_words_b(2, 0, 2, L, K))
        assert small <= big


def test_act_free_examples():
    ctx, gd = st.get_context(2, st.FLAVOR_A), {"x": 1}
    elt = {(((0, 1),), "x"): 1}
    assert act_free(ctx, st.OpElement.from_word([1], 2).terms, elt, gd) == {}
    assert act_free(ctx, st.OpElement.from_word([2], 2).terms, {((), "x"): 1}, gd) == {}
    assert act_free(ctx, st.OpElement.unit(2).terms, elt, gd) == elt


def test_act_composition():
    # act(a, act(b, e)) = act(multiply(a, b), e)
    random.seed(31)
    ctx, gd = st.get_context(2, st.FLAVOR_A), {"x": 3}
    for _ in range(40):
        a = st.OpElement.from_word([random.randint(1, 4)], 2)
        b = st.OpElement.from_word([random.randint(1, 4)], 2)
        e = {((), "x"): 1}
        inner = act_free(ctx, b.terms, e, gd)
        lhs = act_free(ctx, a.terms, inner, gd)
        rhs = act_free(ctx, st.multiply(a, b).terms, e, gd)
        assert lhs == rhs


def test_one_minus_p0_generator_row():
    w = ModWindow(D=4, L=4, K=4)
    V = GradedVS.single(2, 1)
    M, src, tgt = one_minus_p0_window(V, w, 1)
    jx = src.index(((), "x"))
    assert M.cols[jx] == {tgt.index(((), "x")): 1, tgt.index((((0, 0),), "x")): 1}  # -1 mod 2


def test_one_minus_p0_empty():
    w = ModWindow(D=4, L=4, K=4)
    M, src, tgt = one_minus_p0_window(GradedVS(2, {}), w, 2)
    assert M.shape == (0, 0)


def test_q_examples():
    w = ModWindow(D=4, L=4, K=4)
    V = GradedVS.single(2, 1)
    Q, src, f0 = quotient_q_window(V, w, 1, length_cap=5)
    # x -> x and Sq0 x -> x
    jx = src.index(((), "x"))
    j0x = src.index((((0, 0),), "x"))
    ix = f0.index(((), "x"))
    assert Q.cols[jx] == {ix: 1} and Q.cols[j0x] == {ix: 1}
    # negative-index words die
    Q2, src2, f02 = quotient_q_window(GradedVS.single(2, 2), w, 2, length_cap=4)
    for j, (wd, g) in enumerate(src2):
        if any(s < 0 for _, s in wd):
            assert not Q2.cols[j]


def test_q_after_one_minus_p0_is_zero():
    w = ModWindow(D=5, L=4, K=4)
    V = GradedVS.single(2, 2)
    for d in range(0, 6):
        M, src, tgt = one_minus_p0_window(V, w, d)
        Q, srcq, f0 = quotient_q_window(V, w, d, length_cap=w.L + 1)
        assert srcq == tgt
        assert Q.shape == (len(f0), len(tgt)) and M.shape == (len(tgt), len(src))
        assert not any((Q @ M).cols), d


def test_exactness_report_example():
    V = GradedVS.single(2, 1)
    rep = exactness_report(V, ModWindow(D=4, L=4, K=4))
    assert rep["pass"]
    assert [rep["degrees"][d]["stabilized_coker"] for d in (1, 2, 3, 4)] == [1, 1, 0, 1]


def test_exactness_q_composite_check_is_live(monkeypatch):
    # a q that keeps only the bare generator no longer kills x - x.P^0
    real = unstable_modules.quotient_q_window

    def generator_only_q(V, window, d, p=2, length_cap=None):
        Q, src, f0 = real(V, window, d, p, length_cap)
        cols = [col if not w else {} for col, (w, _) in zip(Q.cols, src)]
        return tower.SparseMap(len(f0), cols, p), src, f0

    monkeypatch.setattr(unstable_modules, "quotient_q_window", generator_only_q)
    rep = exactness_report(GradedVS.single(2, 1), ModWindow(D=2, L=2, K=2))
    assert not rep["degrees"][1]["q_composite_zero"] and not rep["pass"]
    assert rep["degrees"][0]["q_composite_zero"] and rep["degrees"][2]["q_composite_zero"]


def test_exactness_vacuous_for_zero_module():
    rep = exactness_report(GradedVS(2, {}), ModWindow(D=3, L=3, K=3))
    assert rep["pass"]


def test_exactness_degenerate_window():
    rep = exactness_report(GradedVS.single(2, 1), ModWindow(D=2, L=0, K=2))
    for d, cell in rep["degrees"].items():
        assert cell["injective"] and cell["q_composite_zero"]
        assert not cell["saturated"]


def _table(p, D, basis, action):
    """A space's tables with no products and no atoms, as table_law_violations reads them."""
    return SpaceModel("table", p, D, (), GradedVS(p, basis), action, {})


def _sample_module():
    return _table(
        2, 4,
        {1: ("x",), 2: ("x2",), 3: ("x3",), 4: ("x4",)},
        {
            (0, 1): {"x": {"x2": 1}, "x2": {}, "x3": {"x4": 1}},
            (0, 2): {"x2": {"x4": 1}},
        },
    )


def test_ft_module_validate_catches_adem_violation():
    good = _sample_module()
    assert table_law_violations(good) == []
    bad = _table(
        2, 4,
        {1: ("x",), 2: ("x2",), 3: ("x3",)},
        {(0, 1): {"x": {"x2": 1}, "x2": {"x3": 1}}},  # Sq1 Sq1 x != 0
    )
    assert any(kind == "adem" for kind, *_ in table_law_violations(bad))


def test_ft_module_validate_catches_instability():
    bad = _table(2, 4, {1: ("x",), 4: ("y",)}, {(0, 3): {"x": {"y": 1}}})
    assert any(kind == "instability" for kind, *_ in table_law_violations(bad))


def test_window_matrix_entries_stable():
    # enlarging the window appends rows/columns without rewriting old entries
    V = GradedVS.single(2, 2)
    w = ModWindow(D=5, L=3, K=3)
    M1, src1, tgt1 = one_minus_p0_window(V, w, 2, length_cap=3)
    M2, src2, tgt2 = one_minus_p0_window(V, w, 2, length_cap=4)
    rows2 = {b: i for i, b in enumerate(tgt2)}
    cols2 = {b: i for i, b in enumerate(src2)}
    for j, b in enumerate(src1):
        for i, t in enumerate(tgt1):
            assert M1.cols[j].get(i, 0) == M2.cols[cols2[b]].get(rows2[t], 0)


def test_act_free_flavor_b():
    gd = {"x": 2}
    ctx = st.get_context(2, st.FLAVOR_B, ModWindow(D=6, L=3, K=3).rewrite_window())
    p0 = st.OpElement(2, st.FLAVOR_B, {((0, 0),): 1})
    out = act_free(ctx, p0.terms, {((), "x"): 1}, gd)
    assert out == {(((0, 0),), "x"): 1}
    # negative operation below the excess cap acts as a basis shift
    m1 = st.OpElement(2, st.FLAVOR_B, {((0, -1),): 1})
    out = act_free(ctx, m1.terms, {((), "x"): 1}, gd)
    assert out == {(((0, -1),), "x"): 1}


def test_module_classes():
    gens = [("x", 1)]
    assert free_a_basis(gens, 4, 2) == ((((0, 2), (0, 1)), "x"),)
    sq1 = st.OpElement.from_word([1], 2)
    assert act_free(st.get_context(2, st.FLAVOR_A), sq1.terms, {(((0, 1),), "x"): 1}, {"x": 1}) == {}
    window = ModWindow(D=6, L=2, K=2)
    names = [w for w, _ in free_b_basis_window([("x", 2)], 2, window, 2)]
    assert ((0, 0),) in names
    p0 = st.OpElement(2, st.FLAVOR_B, {((0, 0),): 1})
    ctx = st.get_context(2, st.FLAVOR_B, window.rewrite_window())
    out = act_free(ctx, p0.terms, {((), "x"): 1}, {"x": 2})
    assert out == {(((0, 0),), "x"): 1}


def test_saturation_reached_within_l_equals_d_plus_two():
    # empirical bound: single-generator windows saturate by L = D + 2 at p = 2
    for n in (1, 2):
        for D in (4, 6):
            rep = exactness_report(GradedVS.single(2, n), ModWindow(D=D, L=D + 2, K=D))
            assert rep["pass"], (n, D)
            assert all(c["saturated"] for c in rep["degrees"].values()), (n, D)


def test_exactness_odd_prime():
    for n in (1, 2):
        rep = exactness_report(GradedVS.single(3, n), ModWindow(D=5, L=5, K=4), p=3)
        assert rep["pass"], n


@pytest.mark.parametrize("p,n,L", [(2, 3, 4), (2, 4, 2), (2, 3, 8), (3, 3, 4)])
def test_exactness_stabilizer_stays_inside_the_rewrite_window(p, n, L):
    # the stabilizer builds windows up to length 2L + 3 and appends P^0, so
    # the rewrite window must allow length 2L + 4
    rep = exactness_report(GradedVS.single(p, n), ModWindow(D=10, L=L, K=8), p=p)
    assert rep["pass"], [d for d, c in rep["degrees"].items() if not c["pass"]]
