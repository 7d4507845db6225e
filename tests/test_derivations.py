import gc
import itertools
import random
import weakref

import numpy as np
import pytest

from unstable_e2 import steenrod as st
from unstable_e2 import tower
from unstable_e2.derivations import (
    BarWindow,
    BudgetExceeded,
    CochainComplex,
    bar_homology_check,
    descent_verify,
)
from unstable_e2.unstable_algebras import FreeUnstableAlgebra, MonomialBasis
from unstable_e2.unstable_modules import GradedVS, ModWindow, exactness_report

from oracles import boundary_matrix, sparse, two_term_bar_der_cohomology


def test_cochain_complex_rejects_bad_differential():
    S = sparse(np.eye(2, dtype=np.int64), 2)
    with pytest.raises(ValueError):
        CochainComplex(2, [2, 2, 2], [S, S])
    # d.d is taken mod p: twice the identity is zero at p = 2 but not at p = 3
    two = sparse(2 * np.eye(2, dtype=np.int64), 3)
    with pytest.raises(ValueError):
        CochainComplex(3, [2, 2, 2], [two, two])


def test_constant_cosimplicial_cohomology():
    # alternating 0, id, 0, id pattern: D^0 everything, nothing above
    n = 3
    Z = sparse(np.zeros((n, n), dtype=np.int64), 2)
    I = sparse(np.eye(n, dtype=np.int64), 2)
    cc = CochainComplex(2, [n, n, n, n], [Z, I, Z])
    assert cc.cohomology_dims(2) == (n, 0, 0)


def test_two_term_on_isomorphism_is_contractible():
    # dual two-term with invertible structure map: everything dies
    n = 2
    cc = CochainComplex(2, [n, n], [sparse(np.eye(n, dtype=np.int64), 2)])
    assert cc.cohomology_dims(0) == (0,)


def test_der_free_dimensions():
    # derivations out of a free algebra are free on matching-degree pairs
    W = GradedVS.single(2, 3, "w")
    assert descent_verify(W, GradedVS.single(2, 3, "m"), max_level=1)["classical_dim"] == 1
    assert descent_verify(W, GradedVS.single(2, 5, "m"), max_level=1)["classical_dim"] == 0
    # several generators, shifted target
    W2 = GradedVS(2, {1: ("a",), 2: ("b",)})
    M = GradedVS(2, {1: ("m1",), 2: ("m2", "m2x")})
    assert descent_verify(W2, M, max_level=1)["classical_dim"] == 3


def test_descent_two_term_examples():
    V0 = GradedVS.single(2, 3, "v")
    M0 = GradedVS.single(2, 3, "m")
    levels = descent_verify(V0, M0, max_level=3)["levels"]
    for k in (1, 2, 3):
        assert levels[k]["D0"] == 1 and levels[k]["D1"] == 1
    empty = descent_verify(GradedVS(2, {}), M0, max_level=1)["levels"]
    assert empty[1]["D0"] == 0 and empty[1]["D1"] == 0


def _check_against_bar(V0, M0, levels, p=2):
    rep = descent_verify(V0, M0, p=p, max_level=max(levels))
    for lvl in levels:
        dims = two_term_bar_der_cohomology(V0, M0, lvl, 3, p)
        assert dims[0] == rep["levels"][lvl]["D0"]
        assert dims[1] == rep["levels"][lvl]["D1"]
        assert dims[2] == dims[3] == 0


def test_descent_two_term_no_higher_terms():
    # the complex has two terms: D^s for s >= 2 vanishes structurally;
    # the bar-assembled version must agree
    _check_against_bar(GradedVS.single(2, 2), GradedVS.single(2, 2), (1, 2))


@pytest.mark.parametrize("p, V0, M0, levels", [
    (3, GradedVS.single(3, 4), GradedVS.single(3, 4), (1, 2, 3)),
    # two coordinates: D^0 and D^1 are two copies of the block's
    (2, GradedVS(2, {2: ("a", "b")}), GradedVS.single(2, 2), (1, 2)),
    (3, GradedVS(3, {1: ("a",), 4: ("b",)}), GradedVS(3, {1: ("m",), 4: ("n",)}), (1, 2)),
], ids=["p3-n1", "p2-n2", "p3-n2"])
def test_descent_matches_the_bar_assembled_complex(p, V0, M0, levels):
    _check_against_bar(V0, M0, levels, p)


def test_descent_verify_single_classes():
    v = descent_verify(GradedVS.single(2, 4), GradedVS.single(2, 4), p=2, max_level=2)
    assert v["pass"]
    assert v["witnesses"] and all(w["death_level"] == 2 for w in v["witnesses"])


def test_descent_verify_mismatched_degrees():
    v = descent_verify(GradedVS.single(2, 2), GradedVS.single(2, 5), p=2, max_level=2)
    assert v["classical_dim"] == 0 and v["pass"]


def test_descent_verify_refuses_an_empty_level_range():
    # start_level 3 past max_level 2 used to pass with levels == {}, having checked nothing
    V0 = M0 = GradedVS.single(2, 4)
    with pytest.raises(ValueError, match="levels 3..2 hold no level"):
        descent_verify(V0, M0, p=2, start_level=3, max_level=2)
    assert list(descent_verify(V0, M0, p=2, start_level=2, max_level=2)["levels"]) == [2]


def test_descent_verify_random_instances():
    random.seed(77)
    for _ in range(25):
        def rand_vs(tag):
            basis = {}
            for i in range(random.randint(1, 3)):
                basis.setdefault(random.randint(1, 6), []).append(f"{tag}{i}")
            return GradedVS(2, {d: tuple(v) for d, v in basis.items()})

        V0, M0 = rand_vs("v"), rand_vs("m")
        classical = sum(1 for d, _ in V0.items() for _ in M0.basis.get(d, ()))
        rep = descent_verify(V0, M0, p=2, max_level=2)
        assert rep["pass"], (dict(V0.basis), dict(M0.basis))
        assert rep["classical_dim"] == classical


def test_descent_dims_check_is_live(monkeypatch):
    # a block kernel of rank 2 doubles D^0 past the classical dimension;
    # with no coordinate there is nothing to mismatch
    V0 = M0 = GradedVS.single(2, 4)
    real = tower.semilinear_kernel_cokernel
    monkeypatch.setattr(tower, "semilinear_kernel_cokernel", lambda p, level: (
        real(p, level)[0] * 2, real(p, level)[1]))
    rep = descent_verify(V0, M0, p=2, max_level=2)
    assert [rep["levels"][k]["D0"] for k in (1, 2)] == [2, 2]
    assert not rep["levels"][1]["dims_ok"] and not rep["pass_dims"] and not rep["pass"]
    assert descent_verify(GradedVS(2, {}), M0, p=2, max_level=2)["pass_dims"]


def test_descent_inverse_pair_check_is_live(monkeypatch):
    # a block kernel off the base slot keeps D0 = classical but breaks the pair
    V0 = M0 = GradedVS.single(2, 4)
    assert descent_verify(V0, M0, p=2, start_level=2, max_level=3)["pass_inverse_pair"]
    real = tower.semilinear_kernel_cokernel

    def shifted_kernel(p, level):
        ker, cok = real(p, level)
        shifted = np.zeros_like(ker)
        shifted[:, -1] = 1
        return shifted, cok

    # the pair is cached per (p, level); run it uncached on the patched kernel
    monkeypatch.setattr(tower, "base_slot_inverse_pair", tower.base_slot_inverse_pair.__wrapped__)
    monkeypatch.setattr(tower, "semilinear_kernel_cokernel", shifted_kernel)
    rep = descent_verify(V0, M0, p=2, start_level=2, max_level=3)
    assert rep["pass_dims"] and not rep["pass_inverse_pair"] and not rep["pass"]
    # a doubled kernel row passes both solves; only the composites catch it
    monkeypatch.setattr(tower, "semilinear_kernel_cokernel", lambda p, level: (
        real(p, level)[0] * 2, real(p, level)[1]))
    assert not tower.base_slot_inverse_pair(2, 2)


def _reference_death_level(tw, level, ncoords, row, max_level):
    """First level above `level` where every nonzero coordinate of the row has
    an Artin-Schreier solution, solved coordinate by coordinate."""
    m = tw.field(level).degree
    solved = []
    for c in range(ncoords):
        x = row[c * m : (c + 1) * m]
        if not any(x):
            continue
        try:
            solved.append(tw.artin_schreier_solve(level, x)[1])
        except tower.TowerExhausted:
            return None
    for k in range(level + 1, max_level + 1):
        if all(lvl <= k for lvl in solved):
            return k
    return None


def _tiled_cokernel(p, level, n):
    """Cokernel rows of 1 - frobenius on n coordinates: n copies of the block's, in order."""
    block = np.array(tower.semilinear_kernel_cokernel(p, level)[1], dtype=np.int64)
    return np.kron(np.eye(n, dtype=np.int64), block).tolist()


def test_descent_witnesses_match_per_coordinate_reference():
    rng = random.Random(2024)

    def rand_vs(p, tag):
        basis = {}
        for i in range(rng.randint(1, 3)):
            basis.setdefault(rng.randint(1, 4), []).append(f"{tag}{i}")
        return GradedVS(p, {d: tuple(v) for d, v in basis.items()})

    for p in (2, 3):
        tw = tower.get_tower(p)
        for start in (1, 2, 3):
            for _ in range(3):
                V0, M0 = rand_vs(p, "v"), rand_vs(p, "m")
                max_level = rng.randint(start, tower.MAX_LEVEL)
                rep = descent_verify(V0, M0, p=p, start_level=start, max_level=max_level)
                want = []
                for d in sorted(set(V0.degrees()) & set(M0.degrees())):
                    n = V0.dim(d) * M0.dim(d)
                    for ri, row in enumerate(_tiled_cokernel(p, start, n)):
                        death = _reference_death_level(tw, start, n, row, max_level)
                        want.append({"degree": d, "rep": ri, "death_level": death})
                assert rep["witnesses"] == want


def test_bar_homology_n1():
    r = bar_homology_check(1, 4, s_max=3, L=2)
    assert r["pass"]
    assert [r["cells"][(0, d)]["dim"] for d in range(5)] == [1, 1, 1, 1, 1]


def test_bar_homology_n2():
    r = bar_homology_check(2, 5, s_max=3, L=2)
    assert r["pass"]
    assert [r["cells"][(0, d)]["dim"] for d in range(6)] == [1, 0, 1, 1, 1, 2]
    for (s, d), c in r["cells"].items():
        if s > 0:
            assert c["dim"] == 0


def test_bar_zero_module():
    # degree window entirely below the generator: everything vanishes
    r = bar_homology_check(3, 2, s_max=2, L=1)
    for (s, d), c in r["cells"].items():
        if d > 0:
            assert c["dim"] == (1 if (s, d) == (0, 0) else 0) or d == 0


def test_bar_window_boundary_squares_to_zero():
    bw = BarWindow(2, 2, 5, 2)
    for d in range(0, 6):
        for s in range(2, 5):
            M1, _, _ = boundary_matrix(bw, s - 1, d) if s >= 2 else (None, None, None)
            M2, _, _ = boundary_matrix(bw, s, d)
            if M1 is not None:
                assert not any((M1 @ M2).cols), (s, d)


@pytest.mark.parametrize("p, D, s_top", [(2, 5, 4), (3, 4, 4), (3, 6, 4), (3, 8, 3), (5, 9, 3)])
def test_bar_window_boundary_squares_to_zero_at_every_prime(p, D, s_top):
    # at odd p the last face moves phi(f_s) past f_1..f_(s-1): without its
    # Koszul sign the composite is nonzero from degree 2 on.  The two larger
    # windows stop at level 3 (level 4 of BarWindow(5, 1, 9, 2) has 203,424
    # basis elements in degree 9)
    bw = BarWindow(p, 1, D, 2)
    for d in range(D + 1):
        bounds = [boundary_matrix(bw, s, d)[0] for s in range(1, s_top + 1)]
        for lower, upper in zip(bounds, bounds[1:]):
            assert not any(tower.matmul_mod(lower, upper, p).cols), (d, upper.shape)


def test_bar_window_and_bases_die_with_their_last_reference():
    # with the cycle collector off, an object held by a reference cycle (a
    # recursive closure that refers to itself, say) would outlive its owner
    enabled = gc.isenabled()
    gc.disable()
    try:
        bw = BarWindow(2, 1, 5, 2)
        boundary_matrix(bw, 2, 4)
        basis = MonomialBasis(2, (1, 2, 3), 6)
        refs = [weakref.ref(bw), weakref.ref(bw.target), weakref.ref(basis)]
        del bw, basis
        assert [r() for r in refs] == [None, None, None]
    finally:
        if enabled:
            gc.enable()


def test_bar_window_holds_the_bases_of_one_degree():
    bw = BarWindow(2, 1, 5, 2)
    for s in range(4):
        bw.bar_basis(s, 4)
    assert {d for _, d in bw._bases} == {4}
    boundary_matrix(bw, 2, 3)
    assert sorted(bw._bases) == [(1, 3), (2, 3)]


@pytest.mark.parametrize("p, n, D, L", [(2, 1, 5, 2), (2, 1, 5, 3), (3, 2, 7, 2), (5, 1, 7, 2)])
def test_bar_basis_size_counts_the_enumerated_bases(p, n, D, L):
    bw = BarWindow(p, n, D, L)
    assert bw.basis_size(4) == sum(len(bw.bar_basis(s, d)) for s in range(5) for d in range(D + 1))


def test_bar_budget_is_checked_before_any_boundary(monkeypatch):
    # both windows (L = 2 and 3) of the n = 1, D = 5 check hold 5,199 + 17,298
    # elements of bar levels 0..4
    monkeypatch.setattr(BarWindow, "bar_basis", None)
    with pytest.raises(BudgetExceeded, match="hold 22497 basis elements, past 22496"):
        bar_homology_check(1, 5, s_max=3, L=2, budget=22_496)


@pytest.mark.parametrize("n, D", [(1, 4), (2, 7)])
def test_bar_homology_odd_prime(n, D):
    # n = 2 needs its letters in degree order: word order puts two degree-7
    # letters before three of degree 3, and the basis lost monomials
    r = bar_homology_check(n, D, s_max=3, L=2, p=3)
    assert r["pass"]
    assert [r["cells"][(0, d)]["dim"] for d in range(D + 1)] == list(
        FreeUnstableAlgebra(3, [("i", n)], D).hilbert()
    )


def test_kernel_tables_give_the_same_results_warm_and_cold(monkeypatch):
    # Adem pair terms, monomial products and bar factor images are tabulated
    # on first use: a run that reads the filled tables must match a fresh one
    words = [tuple((0, s) for s in w) for n in (2, 3) for w in itertools.product(range(1, 8), repeat=n)]

    def run():
        sweep = [st.adem_rewrite(st.OpElement(p, st.FLAVOR_A, {w: 1})) for p in (2, 3) for w in words]
        bar = bar_homology_check(1, 5, s_max=3, L=2)
        exact = exactness_report(GradedVS.single(2, 2), ModWindow(D=12, L=6, K=8), 2)
        return sweep, bar, exact

    first = run()
    assert first[1]["pass"] and first[2]["pass"]
    assert run() == first
    # the last-face table is shared across degrees and levels, and its
    # entries leave out the degree-dependent sign: one window that builds
    # every boundary must match a fresh window per boundary
    for p, D in ((2, 5), (3, 6)):
        bw = BarWindow(p, 1, D, 2)
        warm = [[boundary_matrix(bw, s, d)[0].cols for s in range(1, 5)] for d in range(D + 1)]
        assert bw._last and bw._phi
        assert [[boundary_matrix(bw, s, d)[0].cols for s in range(1, 5)] for d in range(D + 1)] == warm
        cold = [[boundary_matrix(BarWindow(p, 1, D, 2), s, d)[0].cols for s in range(1, 5)]
                for d in range(D + 1)]
        assert cold == warm
    monkeypatch.setattr(st, "_contexts", {})
    assert run() == first
