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


def test_frobenius_fixes_prime_field():
    tw = get_tower(2)
    for k in (1, 2, 3):
        one = tw.one(k)
        assert tw.frobenius(one) == one
        assert tw.frobenius(tw.zero(k)) == tw.zero(k)


def test_frobenius_omega():
    tw = get_tower(2)
    w = tw.gen(2)
    assert (w * w + w + tw.one(2)).is_zero()
    assert tw.frobenius(w) == w + tw.one(2)


def test_frobenius_order_exhaustive_level2():
    tw = get_tower(2)
    for x in tw.elements(2):
        y = x
        for _ in range(2):
            y = tw.frobenius(y)
        assert y == x


def test_frobenius_order_level3():
    tw = get_tower(2)
    x = tw.gen(3)
    y = x
    for _ in range(6):
        y = tw.frobenius(y)
    assert y == x
    # no smaller power of frobenius fixes the generator
    y = x
    fixed_early = False
    for i in range(1, 6):
        y = tw.frobenius(y)
        if y == x:
            fixed_early = True
    assert not fixed_early


def test_frobenius_is_pth_power():
    for p in (2, 3):
        tw = get_tower(p)
        rng = random.Random(p)
        for k in (1, 2, 3):
            m = tw.field(k).degree
            for _ in range(20):
                lam = tower.TowerElem(tw, k, tuple(rng.randrange(p) for _ in range(m)))
                assert tw.frobenius(lam) == lam ** p


def test_embed_commutes_with_frobenius():
    for p in (2, 3):
        tw = get_tower(p)
        for k in (1, 2, 3):
            x = tw.gen(k) + tw.one(k)
            assert tw.frobenius(tw.embed(x, k + 1)) == tw.embed(tw.frobenius(x), k + 1)


def test_embed_composes():
    tw = get_tower(2)
    x = tw.gen(2)
    assert tw.embed(x, 4) == tw.embed(tw.embed(x, 3), 4)
    # field operations preserved
    y = x * x + tw.one(2)
    assert tw.embed(x, 3) * tw.embed(x, 3) + tw.one(3) == tw.embed(y, 3)


def test_artin_schreier_zero():
    tw = get_tower(2)
    x, lvl = tw.artin_schreier_solve(tw.zero(1))
    assert lvl == 1 and x.is_zero()


def test_artin_schreier_b_one():
    tw = get_tower(2)
    x, lvl = tw.artin_schreier_solve(tw.one(1))
    assert lvl == 2
    assert x - x * x == tw.one(2)
    # x is omega or omega + 1
    w = tw.gen(2)
    assert x in (w, w + tw.one(2))


def test_artin_schreier_omega_lands_at_level_four():
    # b = omega: solvable in F_16, which embeds in no chain level below 4.
    # The independent F_16 model pins the expectation.
    f4 = F16.f4_subfield()
    omega16 = [x for x in f4 if x not in (0, 1)][0]
    assert F16.artin_schreier_solutions(omega16)  # solvable in F_16
    tw = get_tower(2)
    w = tw.gen(2)
    x, lvl = tw.artin_schreier_solve(w)
    assert lvl == 4
    assert x - x * x == tw.embed(w, 4)


def test_artin_schreier_random_substitution():
    # the stated invariant: 1000 random right-hand sides per level <= 3
    random.seed(20240801)
    tw = get_tower(2)
    for level in (1, 2, 3):
        m = tw.field(level).degree
        for _ in range(1000):
            b = tower.TowerElem(tw, level, tuple(random.randrange(2) for _ in range(m)))
            x, lvl = tw.artin_schreier_solve(b)
            assert x - x ** 2 == tw.embed(b, lvl)


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
    tw = get_tower(2)
    b = tw.one(1)
    x, lvl = tw.artin_schreier_solve(b)
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
    w = tw.gen(2)  # trace 1 over F_2
    x, lvl = tw.artin_schreier_solve(w)
    assert lvl == 4
    # explicit: no solution at level 3
    from unstable_e2.tower import solve
    import numpy as np

    fl = tw.field(3)
    M = (np.eye(6, dtype=np.int64) - fl.frobenius_matrix) % 2
    b3 = tw.embed(w, 3)
    assert solve(M, np.array(b3.coords), 2) is None


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
