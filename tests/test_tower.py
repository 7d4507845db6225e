import hashlib
import itertools
import random

import numpy as np
import pytest

from unstable_e2 import tower
from unstable_e2.tower import (
    TowerExhausted,
    cokernel_basis,
    get_tower,
    kernel_basis,
    rank,
    rref,
    semilinear_kernel_cokernel,
    solve,
)

from oracles import F16, dense, sparse, trace_rule_death_level


def _unit(m, i=0):
    """Coordinate vector i at a level of degree m: 1 for i = 0, x for i = 1 (0 at level 1)."""
    return tuple(int(j == i) for j in range(m))


def _add(u, v, p, c=1):
    """u + c v over F_p."""
    return tuple((a + c * b) % p for a, b in zip(u, v))


def _apply(M, v, p):
    """The matrix M (rows) on the coordinates v: frobenius, or an embedding."""
    return tuple(sum(a * x for a, x in zip(row, v)) % p for row in M)


def _up(tw, j, k, v):
    """The coordinates v of level j moved to level k >= j."""
    return v if j == k else _apply(tw.embedding_matrix(j, k), v, tw.p)


def _as_residual(fl, x):
    """x - x^p at the level fl, by the level's own multiplication."""
    return _add(x, fl.pow_coords(x, fl.p), fl.p, -1)


def _solves(tw, level, b, x, lvl):
    """Whether x at level lvl solves x - x^p = b for b at level, compared at the higher one."""
    top = max(level, lvl)
    return _up(tw, lvl, top, _as_residual(tw.field(lvl), x)) == _up(tw, level, top, b)


def test_frobenius_fixes_prime_field():
    tw = get_tower(2)
    for k in (1, 2, 3):
        fl = tw.field(k)
        one, zero = _unit(fl.degree), (0,) * fl.degree
        assert _apply(fl.frobenius_matrix, one, 2) == one
        assert _apply(fl.frobenius_matrix, zero, 2) == zero


def test_frobenius_omega():
    fl = get_tower(2).field(2)
    w, one = _unit(2, 1), _unit(2)
    assert _add(_add(fl.mul_coords(w, w), w, 2), one, 2) == (0, 0)
    assert _apply(fl.frobenius_matrix, w, 2) == _add(w, one, 2)


def test_frobenius_order_exhaustive_level2():
    F = get_tower(2).field(2).frobenius_matrix
    for x in itertools.product(range(2), repeat=2):
        assert _apply(F, _apply(F, x, 2), 2) == x


def test_frobenius_order_level3():
    F = get_tower(2).field(3).frobenius_matrix
    x = _unit(6, 1)
    orbit = [x]
    for _ in range(6):
        orbit.append(_apply(F, orbit[-1], 2))
    assert orbit[6] == x
    # no smaller power of frobenius fixes the generator
    assert x not in orbit[1:6]


def test_frobenius_is_pth_power():
    for p in (2, 3):
        tw = get_tower(p)
        rng = random.Random(p)
        for k in (1, 2, 3):
            fl = tw.field(k)
            for _ in range(20):
                lam = tuple(rng.randrange(p) for _ in range(fl.degree))
                assert _apply(fl.frobenius_matrix, lam, p) == fl.pow_coords(lam, p)


def test_embed_commutes_with_frobenius():
    for p in (2, 3):
        tw = get_tower(p)
        for k in (1, 2, 3):
            lo, hi = tw.field(k), tw.field(k + 1)
            x = _add(_unit(lo.degree, 1), _unit(lo.degree), p)
            assert _apply(hi.frobenius_matrix, _up(tw, k, k + 1, x), p) == _up(
                tw, k, k + 1, _apply(lo.frobenius_matrix, x, p))


def test_embed_composes():
    tw = get_tower(2)
    x = _unit(2, 1)
    assert _up(tw, 2, 4, x) == _up(tw, 3, 4, _up(tw, 2, 3, x))
    # field operations preserved
    y = _add(tw.field(2).mul_coords(x, x), _unit(2), 2)
    x3 = _up(tw, 2, 3, x)
    assert _add(tw.field(3).mul_coords(x3, x3), _unit(6), 2) == _up(tw, 2, 3, y)


def test_artin_schreier_zero():
    x, lvl = get_tower(2).artin_schreier_solve(1, (0,))
    assert lvl == 1 and not any(x)


def test_artin_schreier_b_one():
    tw = get_tower(2)
    x, lvl = tw.artin_schreier_solve(1, (1,))
    assert lvl == 2
    assert _as_residual(tw.field(2), x) == _unit(2)
    # x is omega or omega + 1
    w = _unit(2, 1)
    assert x in (w, _add(w, _unit(2), 2))


def test_artin_schreier_omega_lands_at_level_four():
    # b = omega: solvable in F_16, which embeds in no chain level below 4.
    # The independent F_16 model pins the expectation.
    f4 = F16.f4_subfield()
    omega16 = [x for x in f4 if x not in (0, 1)][0]
    assert F16.artin_schreier_solutions(omega16)  # solvable in F_16
    tw = get_tower(2)
    w = _unit(2, 1)
    x, lvl = tw.artin_schreier_solve(2, w)
    assert lvl == 4
    assert _as_residual(tw.field(4), x) == _up(tw, 2, 4, w)


def test_artin_schreier_random_substitution():
    # the stated invariant: 1000 random right-hand sides per level <= 3
    random.seed(20240801)
    tw = get_tower(2)
    for level in (1, 2, 3):
        m = tw.field(level).degree
        for _ in range(1000):
            b = tuple(random.randrange(2) for _ in range(m))
            x, lvl = tw.artin_schreier_solve(level, b)
            assert _solves(tw, level, b, x, lvl)


def _as_level(tw, level, b):
    """The level artin_schreier_solve returns for b at the given level, or None."""
    try:
        x, lvl = tw.artin_schreier_solve(level, b)
    except TowerExhausted:
        return None
    assert _solves(tw, level, b, x, lvl)
    return lvl


@pytest.mark.parametrize("p", [2, 3])
def test_artin_schreier_level_does_not_depend_on_where_b_is_given(p):
    # b is rewritten at the lowest level holding it before the search starts
    tw = get_tower(p)
    if p == 2:  # 1 given at level 3 dies at level 2, as it does given at level 1
        assert _as_level(tw, 3, _up(tw, 1, 3, (1,))) == 2
    rng = random.Random(p)
    for j in (1, 2, 3):
        m = tw.field(j).degree
        rand = [tuple(rng.randrange(p) for _ in range(m)) for _ in range(4)]
        for b in [_unit(m), _unit(m, 1), *rand]:
            want = _as_level(tw, j, b)
            for k in range(j + 1, tower.MAX_LEVEL + 1):
                assert _as_level(tw, k, _up(tw, j, k, b)) == want, (p, j, k, b)


def test_kernel_of_one_minus_frobenius_every_level():
    for p in (2, 3):
        for k in range(1, 5):
            ker, cok = semilinear_kernel_cokernel(p, k)
            assert len(ker) == 1
            assert len(cok) == 1


def test_cached_block_arrays_are_read_only():
    for p, k in ((2, 1), (2, 3), (3, 2)):
        ker, cok = semilinear_kernel_cokernel(p, k)
        assert semilinear_kernel_cokernel(p, k)[0] is ker
        for a in (ker, cok, get_tower(p).field(k).one_minus_frobenius):
            with pytest.raises(TypeError):
                a[0] = a[0]
            with pytest.raises(TypeError):
                a[0][0] = 1


def test_cokernel_saturation_from_level_one():
    # a level-1 cokernel class dies at level 2 (p | 2!/1!)
    x, lvl = get_tower(2).artin_schreier_solve(1, (1,))
    assert lvl == 2


def test_cokernel_death_levels_follow_the_trace_rule():
    # p = 7 waits for a root finder: its level-4 embedding scan takes seconds
    for p in (2, 3, 5):
        for level in range(1, tower.MAX_LEVEL + 1):
            want = trace_rule_death_level(p, level, tower.MAX_LEVEL)
            got = [lvl for lvl, _ in tower.cokernel_witnesses(p, level)]
            assert got == [want], (p, level)


def test_semilinear_examples():
    ker, cok = semilinear_kernel_cokernel(2, 2)
    assert len(ker) == 1 and list(ker[0]) == [1, 0]
    assert len(cok) == 1


def test_tower_exhausted():
    tw = get_tower(2)
    with pytest.raises(TowerExhausted):
        tw.field(5)


def test_rref_rank_examples():
    assert rank(sparse(np.eye(4, dtype=np.int64), 2), 2) == 4
    K = kernel_basis(np.array([[1, 1]]), 2)
    assert K == ((1, 1),)
    R, piv = rref(np.array([[2, 4], [1, 2]]), 5)
    assert len(piv) == 1
    # zero matrices: every vector is in the kernel, nothing is in the span
    assert kernel_basis(((0, 0, 0),), 2) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert cokernel_basis(((), ()), 3) == ((1, 0), (0, 1))


def test_rank_equals_rank_of_rref_and_solve():
    random.seed(7)
    for p in (2, 3):
        for _ in range(25):
            M = np.array([[random.randrange(p) for _ in range(5)] for _ in range(4)])
            R, piv = rref(M, p)
            assert rank(sparse(M, p), p) == len(piv) == rank(sparse(R, p), p)
            v = np.array([random.randrange(p) for _ in range(5)])
            b = (M @ v) % p
            sol = solve(M, b, p)
            assert sol is not None
            assert np.array_equal((M @ sol) % p, b)
            K = np.array(kernel_basis(M, p), dtype=np.int64).reshape(-1, 5)
            assert len(K) == 5 - len(piv) == rank(sparse(K, p), p)
            assert not ((M @ K.T) % p).any()
            C = np.array(cokernel_basis(M, p), dtype=np.int64).reshape(-1, 4)
            assert len(C) == 4 - len(piv)
            assert rank(sparse(np.concatenate([M, C.T], axis=1), p), p) == 4


def test_gf2_rank_matches_generic():
    random.seed(9)
    for _ in range(10):
        M = np.array([[random.randrange(2) for _ in range(70)] for _ in range(40)])
        assert tower.gf2_rank(sparse(M, 2)) == len(rref(M, 2)[1])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_matches_rref_on_random_matrices(p):
    rng = np.random.default_rng(11 + p)
    shapes = [(0, 4), (4, 0), (0, 0), (5, 5), (6, 3), (3, 9), (40, 25), (25, 60)]
    for rows, cols in shapes:
        for density in (0.0, 0.05, 0.3, 1.0):
            M = rng.integers(0, p, size=(rows, cols)) * (rng.random((rows, cols)) < density)
            want = len(rref(M, p)[1])
            assert rank(sparse(M, p), p) == want, (rows, cols, density)
    # low-rank products, where elimination has to cancel whole columns
    for _ in range(10):
        A, B = rng.integers(0, p, size=(30, 4)), rng.integers(0, p, size=(4, 30))
        M = (A @ B) % p
        assert rank(sparse(M, p), p) == len(rref(M, p)[1]) <= 4


def test_sparse_map_round_trip_and_product():
    rng = np.random.default_rng(5)
    for p in (2, 3):
        A = rng.integers(0, p, size=(7, 5)) * (rng.random((7, 5)) < 0.4)
        B = rng.integers(0, p, size=(5, 6)) * (rng.random((5, 6)) < 0.4)
        sa, sb = sparse(A, p), sparse(B, p)
        assert np.array_equal(dense(sa), A % p)
        assert sa.size == np.count_nonzero(sa) == np.count_nonzero(A % p)
        assert all(all(c % p for c in col.values()) for col in sa.cols)
        assert np.array_equal(dense(tower.matmul_mod(sa, sb, p)), (A @ B) % p)


def test_add_scaled_keeps_only_nonzero_residues():
    p = 5
    acc = {"a": 1, "b": 2}
    tower.add_scaled(acc, {"a": 4, "c": 3}, 1, p)  # a cancels: its key goes
    assert acc == {"b": 2, "c": 3}
    tower.add_scaled(acc, {"b": 1, "d": 2}, 10, p)  # c = 10 is 0 mod p
    assert acc == {"b": 2, "c": 3}
    tower.add_scaled(acc, {"b": 1, "c": 1, "g": 2}, -1, p)  # negative c
    assert acc == {"b": 1, "c": 2, "g": 3}
    tower.add_scaled(acc, {"b": 3, "e": 0, "f": 5}, 3, p)  # b cancels; 0 and 5 are zero
    assert acc == {"c": 2, "g": 3}


def test_level_two_class_dies_at_level_four_not_three():
    # the trace obstruction: a level-2 class with nonzero trace survives the
    # odd-degree step to level 3 and only dies at level 4
    tw = get_tower(2)
    w = _unit(2, 1)  # trace 1 over F_2
    x, lvl = tw.artin_schreier_solve(2, w)
    assert lvl == 4
    # explicit: no solution at level 3
    M = (np.eye(6, dtype=np.int64) - tw.field(3).frobenius_matrix) % 2
    assert solve(M, np.array(_up(tw, 2, 3, w)), 2) is None


def _mobius(n):
    m, out, q = n, 1, 2
    while q * q <= m:
        if m % q == 0:
            m //= q
            if m % q == 0:
                return 0
            out = -out
        q += 1
    return -out if m > 1 else out


@pytest.mark.parametrize("p,level", [(2, 2), (3, 2), (5, 2), (7, 2), (2, 3), (3, 3)])
def test_field_level_accepts_exactly_the_irreducible_table_entries(monkeypatch, p, level):
    # every monic polynomial of the level's degree, put in the table in turn;
    # Gauss: (1/n) sum_{d | n} mu(d) p^(n/d) of them are irreducible
    n = tower._FACTORIAL[level]
    accepted = []
    for low in itertools.product(range(p), repeat=n):
        f = low + (1,)
        monkeypatch.setitem(tower._POLY_TABLE, (p, n), f)
        try:
            tower.FieldLevel(p, level)
        except AssertionError:
            continue
        accepted.append(f)
    gauss = sum(_mobius(d) * p ** (n // d) for d in range(1, n + 1) if n % d == 0) // n
    assert len(accepted) == gauss
    if (p, n) == (2, 6):
        # (x^3+x+1)^2: one fixed line, but frobenius^6 moves x;
        # (x^3+x+1)(x^3+x^2+1): frobenius^6 fixes x, but the fixed space is a plane
        assert (1, 0, 1, 0, 0, 0, 1) not in accepted
        assert (1,) * 7 not in accepted


_EMBEDDING_SHA256 = {
    (1, 2): "fae298c070f048107204c1de59eae61fcca5aebd9055ba848555f48182dbc154",
    (1, 3): "8a1ae2671434fd6445a43afec55c3ae33181600e3b94177057d73484dfa88b01",
    (1, 4): "debff236ae54572953e964b5f9cb9cc6e8ee240c25257403a820496732d44688",
    (2, 2, 3): "b18476e5a430bf28c9002f7540988ef5bf0b8233b8372a754d4fa086ba37c554",
    (2, 2, 4): "f571113633c8f81e1b6f483a3852ca2b4ded5c29d5175ad11402dea29cf6b757",
    (2, 3, 4): "cb0b2e827f816aef4e31d2daf7a97b1a1ee9cf8ce39dad374520b9742430f6a8",
    (3, 2, 3): "1cb9ecf5718f4f682330ee68d5e3e1e38e5aca27f006610e820e284183639b33",
    (3, 2, 4): "78d9b5335121433f07383ef8cf7f1839c1cfa12a76bccece94830d210f216f9a",
    (3, 3, 4): "ca9362e37a52528ca9f6586fffb2b8d7b8afc0df1375bd96b1111b8cb66a45a9",
    (5, 2, 3): "36f6d05425a520fbe96818630e55136f32bf3c99f802cdecc347c007966ae949",
    (5, 2, 4): "60009b4c66bfe5376e4be189780a58a09cb26fe45ce1a67148c260248cb017fd",
    (5, 3, 4): "caca4fd28024c900cee7473ce34b0803ff2b8647e0200bceb8f1870a29b5264d",
}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_embedding_matrices_are_frozen(p):
    # which root of the lower polynomial the scan picks fixes every embedding,
    # and with it every witness coordinate; level 1 embeds as the prime field
    tw = get_tower(p)
    for j in range(1, 4):
        for k in range(j + 1, 5):
            want = _EMBEDDING_SHA256[(j, k) if j == 1 else (p, j, k)]
            got = hashlib.sha256(repr(tw.embedding_matrix(j, k)).encode()).hexdigest()
            assert got == want, (p, j, k)
