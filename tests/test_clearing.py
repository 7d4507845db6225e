"""Clearing gives the ranks that plain elimination gives, and skips the columns it should.

`tower.complex_ranks` leaves out each column of a map that the previous
map's pivot rows clear.  Its ranks are compared with the dense elimination
of `tests/oracles.py` (`_rref_mod_p`, numpy, sharing no code with `tower`)
at p = 2 and p = 3: on random sparse complexes whose d.d = 0 holds by
construction, on the chart complexes of S2 -> S1 and of S3 -> S1 at p = 3,
and on both windows of a bar check.  The bar check is also shown to build
only the boundary columns that clearing keeps.
"""

import functools

import numpy as np
import pytest

from unstable_e2 import tower
from unstable_e2.adams import CotripleResolution, builtin_space, suspension_target
from unstable_e2.derivations import BarWindow, CochainComplex, bar_homology_check

from oracles import _rref_mod_p, boundary_matrix, dense, sparse


def _dense_rank(M, p):
    return len(_rref_mod_p(dense(M), p)[1])


def _base_change(rng, n, p):
    """A random invertible n x n matrix mod p and its inverse: a permutation, then a few transvections."""
    perm = rng.permutation(n)
    U, Ui = np.eye(n, dtype=np.int64)[perm], np.eye(n, dtype=np.int64)[:, perm]
    for _ in range(n // 2 + 1):
        if n < 2:
            break
        i, j = rng.choice(n, 2, replace=False)
        c = int(rng.integers(1, p))
        U[i] = (U[i] + c * U[j]) % p  # U <- (1 + c e_ij) U
        Ui[:, j] = (Ui[:, j] - c * Ui[:, i]) % p  # Ui <- Ui (1 - c e_ij)
    return U, Ui


def _random_complex(rng, p, length):
    """A complex C^0 -> ... -> C^length with known ranks and cohomology.

    C^k is H^k + B^k + X^k, and the standard differential maps X^k onto
    B^(k+1) by the identity; each C^k is then moved by a random change of
    basis, which keeps d.d = 0, the ranks (dim X^k) and the cohomology
    (dim H^k).
    """
    h = [int(x) for x in rng.integers(0, 3, length + 1)]
    x = [int(v) for v in rng.integers(0, 6, length)] + [0]
    b = [0] + x[:-1]
    dims = [h[k] + b[k] + x[k] for k in range(length + 1)]
    bases = [_base_change(rng, n, p) for n in dims]
    maps = []
    for k in range(length):
        E = np.zeros((dims[k + 1], dims[k]), dtype=np.int64)
        for i in range(x[k]):  # X^k sits last in C^k, B^(k+1) first in C^(k+1)
            E[i, dims[k] - x[k] + i] = 1
        maps.append(bases[k + 1][0] @ E @ bases[k][1] % p)
    return dims, maps, x[:length], h


@pytest.mark.parametrize("p", [2, 3])
def test_complex_ranks_on_random_complexes(p):
    rng = np.random.default_rng(25 + p)
    cleared = 0
    for _ in range(300):
        dims, maps, ranks, h = _random_complex(rng, p, int(rng.integers(1, 6)))
        for lower, upper in zip(maps, maps[1:]):
            assert not (upper @ lower % p).any()
        S = [sparse(M, p) for M in maps]
        want = [_dense_rank(M, p) for M in S]
        assert want == ranks
        assert tower.complex_ranks([M.columns for M in S], p) == want
        assert [tower.rank(M, p) for M in S] == want
        assert CochainComplex(p, dims, S).cohomology_dims() == tuple(h[:-1])
        cleared += sum(ranks[:-1])
    assert cleared > 1000


@pytest.mark.parametrize("p, X, Y, s_max, t_max, D", [
    (2, "S2", "S1", 3, 8, 10),
    (3, "S3", "S1", 3, 12, 14),
])
def test_complex_ranks_on_chart_complexes(p, X, Y, s_max, t_max, D):
    res = CotripleResolution(builtin_space(X, p, D), s_max, D)
    target = builtin_space(Y, p, D)
    degrees = sorted({d for t in range(1, t_max + 1) for d in suspension_target(target, t).degrees()})
    entries = 0
    for d in degrees:
        cx = res.der_cochain_complex(d, s_max + 1)
        want = [_dense_rank(M, p) for M in cx.maps]
        assert tower.complex_ranks([M.columns for M in cx.maps], p) == want, d
        entries += sum(M.size for M in cx.maps)
    assert entries > 1000


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("L", [2, 3])
def test_complex_ranks_on_bar_windows(p, L):
    # the two windows of bar_homology_check(1, 4, s_max=3, L=2), ranked from the top boundary down
    bw = BarWindow(p, 1, 4, L)
    for d in range(5):
        boundaries = [functools.partial(bw.boundary_columns, s, d) for s in range(4, 0, -1)]
        want = [_dense_rank(boundary_matrix(bw, s, d)[0], p) for s in range(4, 0, -1)]
        assert tower.complex_ranks(boundaries, p) == want, d


def test_bar_check_builds_only_the_columns_clearing_keeps(monkeypatch):
    # every column boundary_columns builds reads its last face once.  Per
    # window and degree the top boundary is built whole, and below it
    # boundary s keeps |B_s| - rank d_(s+1) columns, which is rank d_s since
    # the check finds no homology above level 0.  Without clearing the two
    # windows' boundaries have 22,119 columns
    n, D, s_max, L, p = 1, 5, 3, 2, 2
    want = 0
    for cap in (L, L + 1):
        bw = BarWindow(p, n, D, cap)
        for d in range(D + 1):
            want += len(bw.bar_basis(s_max + 1, d))
            want += sum(tower.rank(boundary_matrix(bw, s, d)[0], p) for s in range(1, s_max + 1))
    built = []
    last_face = BarWindow._last_face
    monkeypatch.setattr(BarWindow, "_last_face", lambda bw, m0, f: built.append(1) or last_face(bw, m0, f))
    report = bar_homology_check(n, D, s_max=s_max, L=L, p=p)
    assert report["pass"]
    assert len(built) == want == 11_876
