import gc
import hashlib
import itertools
import math
import time

import numpy as np
import pytest

from unstable_e2 import adams, goerss_hopkins
from unstable_e2.adams import (
    BudgetExceeded,
    Chart,
    ChartError,
    CotripleResolution,
    adams_chart,
    builtin_space,
    chart_emit,
    chart_from_json,
    hom_set_count,
    suspension_target,
)
from unstable_e2.derivations import BarWindow
from unstable_e2.goerss_hopkins import d1_saturation_report, gh_chart
from unstable_e2.tower import SparseMap
from unstable_e2.unstable_algebras import FreeUnstableAlgebra

from oracles import (
    boundary_matrix,
    completed_faces,
    dense,
    extra_degeneracy,
    full_degeneracies,
    full_faces,
    hom_set_assignments,
    hom_set_brute_force,
    kernel_normalized_dims,
    level_sizes,
    simplicial_identity_violations,
    table_law_violations,
)


def test_sphere_space():
    S2 = builtin_space("S2", 2, 6)
    assert dict(S2.vs.basis) == {2: ("s2",)}
    # all positive operations vanish, the square vanishes
    assert S2.action == {}
    assert S2.mul_names("s2", "s2") == {}
    assert table_law_violations(S2) == []


def test_k_space_tables():
    K1 = builtin_space("K1", 2, 6)
    assert [len(K1.basis(d)) for d in range(1, 7)] == [1] * 6
    (x,), (x2,) = K1.basis(1), K1.basis(2)
    assert K1.act_word(((0, 1),), {x: 1}) == {x2: 1}
    assert table_law_violations(K1) == []
    K2 = builtin_space("K2", 2, 7)
    dims = [len(K2.basis(d)) for d in range(0, 8)]
    assert dims == [0, 0, 1, 1, 1, 2, 2, 2]
    assert table_law_violations(K2) == []


@pytest.mark.parametrize("p,n,D", [(3, 1, 12), (3, 2, 14), (3, 3, 15), (5, 1, 20)])
def test_k_space_beta_power_matches_free_algebra(p, n, D):
    # the tables hold beta and the P^i; beta P^i on K(F_p, n) must be the
    # free algebra's, read through the names the tables give its monomials
    K = builtin_space(f"K{n}", p, D)
    A = FreeUnstableAlgebra(p, [(f"i{n}", n)], D)
    names, count = {}, {}
    for d, m in A.reduced_basis_items():
        names[m] = f"k{d}_{count.get(d, 0)}"
        count[d] = count.get(d, 0) + 1
    nonzero = 0
    for d, m in A.reduced_basis_items():
        for i in range(1, (D - d - 1) // (2 * (p - 1)) + 1):
            want = {names[x]: c for x, c in A.act_letter(1, i, {m: 1}).items()}
            assert K.act_letter((1, i), names[m]) == want, (names[m], i)
            nonzero += bool(want)
    assert nonzero


def test_product_space_kunneth():
    T = builtin_space("S1*S1", 2, 6)
    assert [len(T.basis(d)) for d in (1, 2)] == [2, 1]
    a, b = T.basis(1)
    assert T.mul_names(a, b) == {T.basis(2)[0]: 1}
    assert T.mul_names(a, a) == {}
    assert table_law_violations(T) == []


@pytest.mark.parametrize("name", ["K1*K1", "K1*S1"])
def test_product_space_bockstein_at_odd_prime(name):
    # beta acts on a tensor by the Koszul-signed Leibniz rule; a wrong sign on
    # the a (x) beta b term makes beta beta (x (x) x) nonzero on K1*K1
    space = builtin_space(name, 3, 6)
    assert space.action[(1, 0)]
    assert table_law_violations(space) == []


CATALOG_ATOMS = ("S1", "S2", "S3", "S4", "K1", "K2", "K3", "point")


def _canonical(x):
    """Dicts as sorted item lists, so a digest reads contents and not insertion order."""
    if isinstance(x, dict):
        return sorted((_canonical(k), _canonical(v)) for k, v in x.items())
    if isinstance(x, tuple):
        return tuple(map(_canonical, x))
    return x


TABLE_DIGESTS = {
    (2, 10): "6469f33364bfedaa88a76c29b56f4d0785973dd1a824fa4a1da4c1abf343272d",
    (3, 14): "aa053cc82b391aff1af09c539524b41c777d44cf9f2faf811c5d71eaa3aa7812",
    (5, 20): "c4241cde7909943e86f89dea0662aa41c8a1aa5e214d2b9af67964f32fd466ad",
}


@pytest.mark.parametrize("p,D", sorted(TABLE_DIGESTS))
def test_catalog_tables_are_frozen(p, D):
    # the basis (in order), action and product tables of every atom and every
    # two-atom product, frozen as one sha256 per (p, D)
    pairs = itertools.combinations_with_replacement(CATALOG_ATOMS, 2)
    h = hashlib.sha256()
    for name in CATALOG_ATOMS + tuple(f"{a}*{b}" for a, b in pairs):
        space = builtin_space(name, p, D)
        h.update(repr(_canonical((space.vs.basis, space.action, space.products))).encode())
    assert h.hexdigest() == TABLE_DIGESTS[(p, D)]


@pytest.mark.parametrize("p,D", sorted(TABLE_DIGESTS))
def test_catalog_tables_obey_the_algebra_laws(p, D):
    # the Cartan formula, the Koszul-signed Bockstein Leibniz rule, graded
    # commutativity, associativity, instability and the Adem relations, read
    # off the tables of every atom and two-atom product of the frozen catalog
    pairs = itertools.combinations_with_replacement(CATALOG_ATOMS, 2)
    for name in CATALOG_ATOMS + tuple(f"{a}*{b}" for a, b in pairs):
        assert table_law_violations(builtin_space(name, p, D)) == [], name


def _tables(space):
    return space.p, space.D, space.vs.basis, space.action, space.products


def test_unknown_space():
    # a malformed atom is an unknown space, never a bare int() error
    for name in ("T3", "sphere(x)", "K(F_x,1)", "k(f_2,)", "K(F_2,1)*", "S1*S1*S1", "S1*T3"):
        with pytest.raises(ValueError, match=r"^unknown space '"):
            builtin_space(name, 2, 6)


def test_k_space_field_must_match_p():
    K1 = builtin_space("K1", 2, 6)
    for spelling in ("K(F_2,1)", "K(F2,1)", "K(F_p,1)"):
        K = builtin_space(spelling, 2, 6)
        assert _tables(K) == _tables(K1)
        assert (K.name, K.atoms) == (K1.name, K1.atoms)
    # a K(F_p,n) factor is spelled either way inside a product, on either side
    for spelling, name in [("K(F_2,1)*S1", "K1*S1"), ("K(F_2,1)xS1", "K1*S1"),
                           ("S1*K(F_p,1)", "S1*K1"), ("K(F_2,1)*K(F_2,1)", "K1*K1")]:
        X, Y = builtin_space(spelling, 2, 6), builtin_space(name, 2, 6)
        assert _tables(X) == _tables(Y) and X.atoms == Y.atoms, spelling
    with pytest.raises(ValueError, match="p = 3"):
        builtin_space("K(F_3,1)", 2, 6)
    with pytest.raises(ValueError, match="p = 2"):
        builtin_space("K(F_2,2)", 3, 8)
    with pytest.raises(ValueError, match="p = 3"):
        builtin_space("S1*K(F_3,1)", 2, 6)


def test_simplicial_identities_smax3():
    # levels 0..3 in full: the top level keeps only its nondegenerate monomials
    S2 = builtin_space("S2", 2, 6)
    res = CotripleResolution(S2, 4, 6)
    assert "G" not in vars(res) and "degen_full" not in vars(res)  # built on first use
    assert simplicial_identity_violations(res) == []
    assert [len(maps) for maps in res.degen_full] == [1, 2, 3]


def test_simplicial_check_catches_a_corrupted_face():
    S2 = builtin_space("S2", 2, 6)
    res = CotripleResolution(S2, 3, 6)
    col = next(c for c in res.face_full[1][0].cols if c)
    r = next(iter(col))
    col[r] = (col[r] + 1) % res.p
    if not col[r]:
        del col[r]
    bad = simplicial_identity_violations(res)
    # caught by a composite equality, not only by an identity check
    assert any(kind == "dd" for kind, *_ in bad)


# S2's composites never cancel at p = 2; K1's do, which exercises the mod-p sum
@pytest.mark.parametrize("name,D", [("S2", 6), ("K1", 5)])
def test_sparse_composites_match_dense_products(monkeypatch, name, D):
    res = CotripleResolution(builtin_space(name, 2, D), 3, D)
    seen = []
    compose = SparseMap.__matmul__

    def recording(a, b):
        out = compose(a, b)
        seen.append((a, b, out))
        return out

    monkeypatch.setattr(SparseMap, "__matmul__", recording)
    assert simplicial_identity_violations(res) == []
    assert seen
    for a, b, out in seen:
        assert np.array_equal(dense(out), (dense(a) @ dense(b)) % res.p)


def test_structure_maps_stay_sparse():
    S2 = builtin_space("S2", 2, 6)
    res = CotripleResolution(S2, 3, 6)
    maps = [M for mats in res.face_full + res.degen_full for M in mats]
    assert maps
    composable = False
    # the cochain differentials and the bar boundaries are sparse too; against
    # Sigma^5 S1 (degrees 5 and 6) two consecutive coboundaries are nonzero
    S1 = builtin_space("S1", 2, 6)
    for d in suspension_target(S1, 5).degrees():
        cx = res.der_cochain_complex(d, 3).maps
        maps += cx
        composable = composable or any(M.size and N.size for M, N in zip(cx, cx[1:]))
    assert composable
    bw = BarWindow(2, 2, 5, 2)
    maps += [boundary_matrix(bw, s, d)[0] for s in (1, 2, 3) for d in range(6)]
    for M in maps:
        assert not isinstance(M, np.ndarray)
        assert np.count_nonzero(M) == M.size


def test_extra_degeneracy_contracts_free_base():
    # levels 0..2 of a resolution one level deeper, which holds them in full
    K1 = builtin_space("K1", 2, 5)
    res = CotripleResolution(K1, 3, 5)
    h = extra_degeneracy(res)
    faces = completed_faces(res)
    p = 2
    # last face collapses the inserted layer: d_last . h = id
    for s in range(0, res.s_max):
        last = dense(faces[s][s])
        comp = (last @ dense(h[s])) % p
        n = comp.shape[1]
        assert np.array_equal(comp, np.eye(n, dtype=np.int64)), s
    # earlier faces commute with the homotopy: d_i . h_{s} = h_{s-1} . d_i
    for s in range(1, res.s_max):
        for i in range(0, s):
            lhs = (dense(faces[s][i]) @ dense(h[s])) % p
            rhs = (dense(h[s - 1]) @ dense(faces[s - 1][i])) % p
            assert np.array_equal(lhs, rhs), (s, i)


def test_budget_exceeded():
    K1 = builtin_space("K1", 2, 8)
    with pytest.raises(BudgetExceeded):
        CotripleResolution(K1, 3, 8, budget=40)


def test_refused_level_basis_is_never_enumerated(monkeypatch):
    # the budget is read off the level's Hilbert series, before its basis is built
    levels = []

    class Recorded(FreeUnstableAlgebra):
        def __init__(self, *args):
            super().__init__(*args)
            levels.append(self)

    monkeypatch.setattr(adams, "FreeUnstableAlgebra", Recorded)
    with pytest.raises(BudgetExceeded, match="level 4"):
        CotripleResolution(builtin_space("S3", 2, 12), 5, 12, budget=5_000)
    assert len(levels) == 4
    assert levels[-1]._basis is None
    assert all(level._basis is not None for level in levels[:-1])


def test_top_level_basis_is_released_after_the_build():
    # the top level is enumerated only to keep its nondegenerate monomials,
    # whose faces are extended by name, so its basis goes after the build
    X, Y = builtin_space("S3", 2, 10), builtin_space("S1", 2, 10)
    res, deeper = CotripleResolution(X, 3, 10), CotripleResolution(X, 4, 10)
    assert res.levels[-1]._basis is None
    assert all(level._basis is not None for level in res.levels[:-1])
    assert deeper.levels[3]._basis is not None
    # the s_max = 3 chart, whose top level is released, has the rows of the
    # s_max = 4 chart, whose level 3 is held in full
    chart, deeper_chart = adams_chart(X, Y, 3, 7, 10), adams_chart(X, Y, 4, 7, 10)
    assert chart.entries == {c: v for c, v in deeper_chart.entries.items() if c[0] <= 3}
    assert any(t for s, t in chart.entries if s == 3)


def test_chart_refuses_small_truncation():
    S2 = builtin_space("S2", 2, 10)
    S1 = builtin_space("S1", 2, 10)
    with pytest.raises(ChartError):
        adams_chart(S2, S1, 2, 6, D=5)


@pytest.mark.parametrize("p,X,s_max,t_max,D", [(2, "S2", 3, 8, 10), (3, "S3", 2, 12, 13)])
def test_chart_builds_only_the_levels_it_reads(monkeypatch, p, X, s_max, t_max, D):
    built = _record_builds(monkeypatch)
    Xs, S1 = builtin_space(X, p, D), builtin_space("S1", p, D)
    chart = adams_chart(Xs, S1, s_max, t_max, D)
    gh_chart(Xs, S1, s_max, t_max, D)
    d1_saturation_report(Xs, S1, s_max, t_max, D)
    assert len(built) == 3
    for res in built:
        assert res.s_max == s_max and len(res.levels) == s_max + 1 and res.D == t_max + 1
        # no chart reads the degeneracies, so none builds them
        assert "G" not in vars(res) and "degen_full" not in vars(res)
    deeper = adams_chart(Xs, S1, s_max + 1, t_max, D).entries
    assert {c: v for c, v in deeper.items() if c[0] <= s_max} == chart.entries


def _record_builds(monkeypatch):
    """The list of every CotripleResolution built, patched where each chart looks it up."""
    built = []

    class Recording(CotripleResolution):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(adams, "CotripleResolution", Recording)
    monkeypatch.setattr(goerss_hopkins, "CotripleResolution", Recording)
    return built


def test_hom_set_cell_builds_no_resolution(monkeypatch):
    # at t_max = 0 a chart reads the (0, 0) cell alone; S3 at s <= 6, D 14
    # would take seconds and pass the default budget
    built = _record_builds(monkeypatch)
    S3, K1, S1 = (builtin_space(name, 2, 14) for name in ("S3", "K1", "S1"))
    chart = adams_chart(S3, K1, 6, 0, 14)
    assert (chart.entries, chart.fringe_set_size) == ({(0, 0): 0}, 1)
    gh = gh_chart(S3, S1, 6, 0, 14)
    assert (gh.entries, gh.fringe_set_size, gh.tower_level) == ({(0, 0): 0}, 1, 3)
    # a class that S1 may hit: two maps, dimension 1
    assert adams_chart(S1, S1, 6, 0, 14).entries == {(0, 0): 1}
    rep = d1_saturation_report(S3, S1, 6, 0, 14)
    assert rep == {"entries": [], "pass": True, "inconclusive": False}
    assert built == []


def test_chart_builds_each_degree_complex_once(monkeypatch):
    # the targets Sigma^t H*S1, t = 1..8, span degrees 1..9, each shared by two t
    degrees = []
    build = adams.CotripleResolution.der_cochain_complex

    def counting(self, d, top_s):
        degrees.append(d)
        return build(self, d, top_s)

    monkeypatch.setattr(adams.CotripleResolution, "der_cochain_complex", counting)
    adams_chart(builtin_space("S2", 2, 10), builtin_space("S1", 2, 10), 3, 8, 10)
    assert sorted(degrees) == list(range(1, 10))


def test_chart_resolution_depth_guard(monkeypatch):
    # a resolution of another space, cut below t_max + top(H*Y) or with too
    # few levels would give a wrong chart without an error; a chart takes no
    # resolution, and the one it builds is of X, at that degree, s_max + 1 deep
    S2, S1 = builtin_space("S2", 2, 10), builtin_space("S1", 2, 10)
    with pytest.raises(TypeError, match="resolution"):
        adams_chart(S2, S1, 2, 6, 10, resolution=CotripleResolution(S2, 2, 7))
    built = _record_builds(monkeypatch)
    adams_chart(S2, S1, 2, 6, 10)
    (res,) = built
    assert res.space is S2 and res.D == 6 + S1.top_degree() == 7
    assert res.s_max == 2 and len(res.levels) == 3


def test_sphere_chart_hom_column():
    S2 = builtin_space("S2", 2, 8)
    pt = builtin_space("point", 2, 8)
    ch = adams_chart(S2, pt, s_max=1, t_max=4, D=8)
    assert ch.dim(0, 2) == 1
    assert ch.dim(0, 1) == 0 and ch.dim(0, 3) == 0
    assert ch.entries[(0, 0)] == 0 and ch.fringe_set_size == 1


def test_free_source_collapse_small():
    K1 = builtin_space("K1", 2, 6)
    S1 = builtin_space("S1", 2, 6)
    ch = adams_chart(K1, S1, s_max=2, t_max=3, D=6)
    for (s, t), d in ch.entries.items():
        if s > 0:
            assert d == 0


@pytest.mark.parametrize("p,X,D,s_max,ts", [(2, "S2", 6, 3, (1, 2, 3, 4)), (3, "S3", 12, 3, (10, 11))])
def test_restricted_complex_matches_kernel_of_codegeneracies(p, X, D, s_max, ts):
    # the complex on nondegenerate generators against the common kernel of
    # the codegeneracies of the full complex, at every cochain degree; the
    # full complex needs level s_max + 1 complete, so the resolution is one deeper
    res = CotripleResolution(builtin_space(X, p, D), s_max + 1, D)
    S1 = builtin_space("S1", p, D)
    # against a trivially-acting target the complex is the sum over its
    # degrees d of dim M_d copies of the degree-d complex; the oracle builds
    # the full complex on all of M, delta^0 included
    for t in ts:
        M = suspension_target(S1, t)
        parts = []
        for d in M.degrees():
            cc = res.der_cochain_complex(d, s_max + 1)
            parts.append((M.dim(d), cc.dims, cc.cohomology_dims(s_max)))
        dims = [sum(n * c[s] for n, c, _ in parts) for s in range(s_max + 2)]
        coh = [sum(n * h[s] for n, _, h in parts) for s in range(s_max + 1)]
        assert (dims, coh) == kernel_normalized_dims(res, M, s_max + 1), t


@pytest.mark.parametrize(
    "p,X,s_max,D", [(2, "S2", 3, 8), (2, "K2", 3, 8), (3, "S3", 3, 12), (3, "K1", 2, 6)]
)
def test_degenerate_sets_are_the_degeneracy_images(p, X, s_max, D):
    # G[t][0] is the insertion and G[t][j], j >= 1, is degen[t - 1][j - 1],
    # the degeneracies extended through the algebra, with its sign: every
    # degeneracy column is one entry, +-1 (at odd p a re-sort of odd-degree
    # polygens gives -1, as on K1).  Deg_0 is the insertion's image and
    # Deg_j, j >= 1, that of degen[s - 2][j - 1]; nondegenerate[s] is the rest.
    # Checked through level s_max + 1 of a resolution one level deeper
    res = CotripleResolution(builtin_space(X, p, D), s_max + 1, D)
    degen = full_degeneracies(res)
    for t in range(0, s_max + 1):
        assert res.G[t][0] == [(res._insertion_index(t, key), 1) for _, key in res.V[t]]
        for j in range(1, t + 1):
            assert [{r: c} for r, c in res.G[t][j]] == degen[t - 1][j - 1].cols, (t, j)
    assert res.degen_full == degen
    for s in range(1, s_max + 2):
        images = [{res._insertion_index(s - 1, key) for _, key in res.V[s - 1]}]
        for j in range(1, s):
            images.append({r for col in degen[s - 2][j - 1].cols for r in col})
        assert res.nondegenerate[s] == sorted(set(range(len(res.V[s]))).difference(*images))
    assert res.nondegenerate[0] == list(range(len(res.V[0])))


@pytest.mark.parametrize("p,X,s_max,D", [
    (2, "S3", 4, 10), (2, "S2", 3, 9), (2, "S1*S1", 2, 7),
    (3, "S3", 2, 13), (3, "S1*S3", 2, 9), (3, "K1", 1, 8),
])
def test_nondegenerate_counts_match_the_eilenberg_zilber_count(p, X, s_max, D):
    # up to sign the levels and their degeneracies (the insertion included)
    # form a simplicial set, so each monomial of V[n] is s_I(y) for one
    # nondegenerate y in N[k] and one surjection I: [n] -> [k]; inverted,
    # |N[n]_d| = sum_k (-1)^(n - k) C(n, k) |V[k]_d|, with |V| counted by
    # the oracle's own words and series, not by the mask rule or hilbert()
    res = CotripleResolution(builtin_space(X, p, D), s_max, D)
    V = level_sizes(res.space, s_max, D)

    def by_degree(indices, n):
        counts = [0] * (D + 1)
        for vi in indices:
            counts[res.V[n][vi][0]] += 1
        return counts

    for n in range(0, s_max + 2):
        want = [sum((-1) ** (n - k) * math.comb(n, k) * V[k][d] for k in range(n + 1))
                for d in range(D + 1)]
        assert by_degree(res.nondegenerate[n], n) == want, n
        if n <= s_max:  # the top level keeps its nondegenerate monomials only
            assert by_degree(range(len(res.V[n])), n) == V[n], n


@pytest.mark.parametrize("p,X,s_max,D", [(2, "S3", 3, 10), (3, "K1", 2, 8)])
def test_levels_are_enumerated_in_basis_order(p, X, s_max, D):
    # V[s + 1] is taken as the level's basis as enumerated, so that order
    # must be the sorted (degree, monomial) order the indices refer to; the
    # top level keeps a sublist, so levels 0..s_max are read one level deeper
    res = CotripleResolution(builtin_space(X, p, D), s_max + 1, D)
    for s, level in enumerate(res.levels[:-1]):
        assert res.V[s + 1] == list(level.reduced_basis_items()) == sorted(res.V[s + 1]), s
        assert res._vidx[s + 1] == {key: i for i, (_, key) in enumerate(res.V[s + 1])}, s
        assert list(level.gens) == sorted(level.gens), s


@pytest.mark.parametrize(
    "p,X,s_max,D",
    [(2, "S2", 3, 8), (2, "K2", 3, 8), (3, "S3", 3, 12), (3, "K1", 3, 6), (3, "K1", 2, 8)],
)
def test_faces_match_full_extension(p, X, s_max, D):
    # the resolution holds the columns a chart reads and None elsewhere; the
    # reference extends every column through the algebra.  At p = 3, K1
    # has degeneracy columns of coefficient -1, and at D = 8 its face 0
    # evaluates beta P^1 on the base tables.  Levels 0..s_max are complete in
    # a resolution one level deeper
    res = CotripleResolution(builtin_space(X, p, D), s_max + 1, D)
    assert simplicial_identity_violations(res) == []
    full = full_faces(res)
    held = 0
    for s, maps in enumerate(full):
        for i, F in enumerate(maps):
            assert res.face_full[s][i].shape == F.shape, (s, i)
            for m, col in enumerate(F.cols):
                mine = res.face_full[s][i].cols[m]
                assert mine is None or mine == col, (s, i, res.V[s + 1][m])
                held += mine is not None
    assert 0 < held < sum(len(F.cols) for maps in full for F in maps)


@pytest.mark.parametrize("p,X,s_max,D", [(2, "S2", 3, 10), (3, "S3", 2, 12)])
def test_level_memos_are_released_after_the_build(p, X, s_max, D):
    # once level s's faces exist no later face targets level s - 1, so the
    # build empties every level's tables; each entry is a pure function of
    # its key, and faces rebuilt through the algebra refill them on demand
    res = CotripleResolution(builtin_space(X, p, D), s_max, D)
    for level in res.levels:
        assert not (level._op_memo or level._power_memo or level._products)
    held = 0
    for maps, full in zip(res.face_full, full_faces(res)):
        for F, ref in zip(maps, full):
            for col, ref_col in zip(F.cols, ref.cols):
                assert col is None or col == ref_col
                held += col is not None
    assert held and any(level._power_memo and level._products for level in res.levels)


def _read_sets(res):
    """Per level s, the face columns a chart reads, found without _build_faces.

    From the top down: the nondegenerate monomials of V[s + 1], and the
    generators of the monomials read one level up.
    """
    reads, needed = [], set()
    for s in range(res.s_max, -1, -1):
        read = set(res.nondegenerate[s + 1]) | needed
        polygens = res.levels[s].polygens
        needed = {res._vidx[s][polygens[k][1]] for vi in read for k, _ in res.V[s + 1][vi][1]}
        reads.append(read)
    return reads[::-1]


@pytest.mark.parametrize(
    "p,X,s_max,D,counts",
    [(2, "S3", 5, 12, [30, 277, 885, 1_330, 1_067, 438]),
     (3, "S3", 3, 12, None), (3, "K1", 2, 8, None)],
)
def test_held_face_columns_are_exactly_the_read_set(p, X, s_max, D, counts):
    res = CotripleResolution(builtin_space(X, p, D), s_max, D)
    reads = _read_sets(res)
    for s, read in enumerate(reads):
        for i, F in enumerate(res.face_full[s]):
            assert {vi for vi, col in enumerate(F.cols) if col is not None} == read, (s, i)
    if counts is not None:
        assert [len(read) for read in reads] == counts
    assert any(len(read) < len(res.V[s + 1]) for s, read in enumerate(reads))


@pytest.mark.parametrize(
    "p,X,s_max,D",
    [(2, "S2", 3, 8), (2, "K2", 3, 8), (2, "S1*S1", 2, 6), (3, "S3", 3, 12), (3, "K1", 2, 8)],
)
def test_top_level_keeps_its_nondegenerate_monomials(p, X, s_max, D):
    # the top level is filtered from the letters of its monomials, with no
    # G[s_max]; one level deeper the same level is filtered by the images of
    # G[s_max].  K1 at p = 3 has degeneracies of coefficient -1
    space = builtin_space(X, p, D)
    res, deeper = CotripleResolution(space, s_max, D), CotripleResolution(space, s_max + 1, D)
    kept = deeper.nondegenerate[s_max + 1]
    assert 0 < len(kept) < len(deeper.V[s_max + 1])
    assert res.V[s_max + 1] == [deeper.V[s_max + 1][vi] for vi in kept]
    assert res.nondegenerate[s_max + 1] == list(range(len(kept)))
    for F, full in zip(res.face_full[s_max], deeper.face_full[s_max], strict=True):
        assert F.shape == (full.shape[0], len(kept))
        assert F.cols == [full.cols[vi] for vi in kept]


def test_frontier_top_level_holds_only_its_nondegenerate_monomials():
    # S3 -> point at s <= 5, t <= 12, whose chart test_lambda_oracle matches
    # against Lambda: level 5 enumerates 44,324 monomials and the resolution
    # keeps the 438 that no degeneracy hits (the budget counts all of them)
    res = CotripleResolution(builtin_space("S3", 2, 12), 5, 12)
    assert sum(res.levels[5].hilbert()[1:]) == 44_324
    assert [len(v) for v in res.V] == [1, 30, 319, 1_674, 6_096, 17_742, 438]
    assert [len(n) for n in res.nondegenerate] == [1, 29, 260, 806, 1_195, 961, 438]
    with pytest.raises(BudgetExceeded):
        CotripleResolution(builtin_space("S3", 2, 12), 5, 12, budget=70_000)


def test_chart_stable_under_deeper_truncation():
    S2 = builtin_space("S2", 2, 12)
    S1 = builtin_space("S1", 2, 12)
    a = adams_chart(S2, S1, s_max=1, t_max=4, D=10)
    b = adams_chart(S2, S1, s_max=1, t_max=4, D=12)
    assert a.entries == b.entries


def test_hom_set_counts():
    p = 2
    S2 = builtin_space("S2", p, 8)
    S1 = builtin_space("S1", p, 8)
    K1 = builtin_space("K1", p, 8)
    assert hom_set_count(S2, S1) == 1
    assert hom_set_count(S1, S1) == 2
    assert hom_set_count(K1, S1) == 2  # x -> 0 and x -> the degree-1 class
    assert hom_set_count(S2, builtin_space("point", p, 8)) == 1
    # P^1 beta i2 != 0 in H^7 K(F_3, 2), so the degree-3 class maps only to 0
    assert hom_set_count(builtin_space("S3", 3, 12), builtin_space("K2", 3, 12)) == 1
    # Sq^1 (s1 x) = s1 x^2 and Sq^2 x^2 = x^4 kill every nonzero degree-2 image
    assert hom_set_count(S2, builtin_space("S1*K1", p, 8)) == 1
    # one free class of degree 3 and dim H^3 (K1*K1) = 4: 2^4 maps, counted
    # without trying the 2^63 assignments of the table generators
    K3, KK = builtin_space("K3", p, 12), builtin_space("K1*K1", p, 12)
    start = time.perf_counter()
    assert hom_set_count(K3, KK) == 16
    assert time.perf_counter() - start < 1.0


def test_non_p_power_hom_set_is_refused_before_the_build(monkeypatch):
    # y = a s + b t in H^2 (S2*S2) at p = 3 squares to 2ab st, so 2p - 1 = 5
    # maps: a set, not a vector space, refused before any resolution exists
    def build(*args, **kw):
        raise AssertionError("CotripleResolution called")

    monkeypatch.setattr(adams, "CotripleResolution", build)
    X, Y = builtin_space("S2", 3, 8), builtin_space("S2*S2", 3, 8)
    # t_max = 0 builds no resolution in any case; t_max = 2 would build one
    for t_max in (0, 2):
        with pytest.raises(ChartError, match=r"cardinality 5 of S2 -> S2\*S2 at p = 3 is not a p-power"):
            adams_chart(X, Y, 1, t_max, 8)
    # the target and truncation checks still come first
    with pytest.raises(ChartError, match="truncation D=3"):
        adams_chart(X, Y, 1, 0, 3)


@pytest.mark.parametrize("p,D", [(2, 6), (2, 8), (3, 9), (3, 12)])
def test_hom_set_count_matches_brute_force(p, D):
    # every pair of catalog spaces built from S1-S4, K1, K2 and the point, and
    # their two-atom products, whose brute force tries at most 3,000 assignments;
    # the oracle reads atoms, not names, so other spellings of K1*S1 count too
    atoms = ("S1", "S2", "S3", "S4", "K1", "K2", "point")
    pairs = itertools.combinations_with_replacement(atoms, 2)
    k1 = "K(F_2,1)" if p == 2 else "K(F_p,1)"
    spellings = (f"{k1}*S1", f"S1*{k1}", "K1xS1", "sphere(1)*K1")
    names = atoms + tuple(f"{a}*{b}" for a, b in pairs) + spellings
    spaces = [builtin_space(name, p, D) for name in names]
    checked = 0
    for X in spaces:
        for Y in spaces:
            if hom_set_assignments(X, Y) <= 3_000:
                assert hom_set_count(X, Y) == hom_set_brute_force(X, Y), (X.name, Y.name)
                checked += 1
    assert checked > 1_000


def test_chart_emit_json_roundtrip_and_determinism():
    entries = {(0, 0): 0, (0, 2): 1, (1, 3): 2}
    ch = Chart(2, "adams", 2, 6, 10, dict(entries), fringe_set_size=1)
    blob = chart_emit(ch, "json")
    again = chart_from_json(blob)
    assert again.entries == {k: v for k, v in entries.items() if v or k == (0, 0)}
    assert chart_emit(again, "json") == blob
    assert chart_emit(ch, "json") == blob  # repeated emission is byte-identical


def test_chart_value_equality_and_repr():
    ch = Chart(2, "adams", 1, 2, 5, {(0, 0): 0, (0, 2): 1}, fringe_set_size=1)
    assert ch == Chart(2, "adams", 1, 2, 5, {(0, 0): 0, (0, 2): 1}, 1)
    assert ch == chart_from_json(chart_emit(ch, "json"))
    assert ch != Chart(2, "gh", 1, 2, 5, {(0, 0): 0, (0, 2): 1}, 1, tower_level=3)
    assert repr(ch) == ("Chart(p=2, kind='adams', s_max=1, t_max=2, D=5, "
                        "entries={(0, 0): 0, (0, 2): 1}, fringe_set_size=1, tower_level=None)")
    with pytest.raises(TypeError):
        hash(ch)  # a chart holds a dict: it is a mutable value, not a key


def test_chart_emit_empty_and_single_dot():
    ch = Chart(2, "adams", 1, 2, 5, {})
    for fmt in ("json", "svg", "ascii"):
        assert chart_emit(ch, fmt)
    one = Chart(2, "adams", 1, 2, 5, {(0, 2): 1})
    svg = chart_emit(one, "svg").decode()
    assert svg.count("<circle") == 1


def test_chart_emit_rejects_unknown_format():
    ch = Chart(2, "adams", 1, 2, 5, {})
    with pytest.raises(ValueError):
        chart_emit(ch, "png")


def test_circle_chart_is_exactly_the_degree_one_tower():
    # pi_1 of the circle is Z (one completed tower); everything above vanishes
    S1 = builtin_space("S1", 2, 7)
    pt = builtin_space("point", 2, 7)
    ch = adams_chart(S1, pt, s_max=3, t_max=6, D=7)
    expected = {(0, 0): 0, (0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1}
    assert ch.entries == expected


def test_three_sphere_chart_matches_classical_homotopy():
    # frozen against the classical low-stem homotopy of the 3-sphere:
    # stem 3 a completed-integer tower, stem 4 one class in filtration 1
    # (the Hopf class), stem 5 one class in filtration 2 (its square); the
    # stem-6 pair sits at (2,8) and (3,9), the latter beyond this window
    S3 = builtin_space("S3", 2, 9)
    pt = builtin_space("point", 2, 9)
    ch = adams_chart(S3, pt, s_max=3, t_max=8, D=9)
    expected = {
        (0, 0): 0,
        (0, 3): 1, (1, 4): 1, (2, 5): 1, (3, 6): 1,
        (1, 5): 1,
        (2, 7): 1,
        (2, 8): 1,
    }
    assert ch.entries == expected


def test_resolution_level_zero_matches_free_algebra():
    S2 = builtin_space("S2", 2, 7)
    res = CotripleResolution(S2, 1, 7)
    expected = FreeUnstableAlgebra(2, [("i", 2)], 7)
    assert res.levels[0].hilbert() == expected.hilbert()


def test_resolution_build_leaves_no_reference_cycles():
    # with the cycle collector off, anything a build leaves in a reference
    # cycle (a recursive closure that refers to itself, say) outlives it
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        res = CotripleResolution(builtin_space("S3", 2, 10), 4, 10)
        del res
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def _all_algebra_maps_brute(level, M_vs, p=2):
    """Every linear map on the FULL basis of a free-algebra level into the
    square-zero target, kept only when multiplicative and operation-compatible.
    An independent semantic for the cochain groups: no freeness shortcut."""
    import itertools as it

    basis = [(d, m) for d, m in level.reduced_basis_items()]
    targets = []
    for d, m in basis:
        targets.append(list(M_vs.basis.get(d, ())))
    choices = []
    for opts in targets:
        vecs = [{}]
        for nm in opts:
            vecs = [dict(v, **({nm: c} if c else {})) for v in vecs for c in range(p)]
        choices.append(vecs)
    maps = []
    for assign in it.product(*choices):
        f = {m: dict(v) for (d, m), v in zip(basis, assign)}
        ok = True
        # multiplicativity: products of basis monomials map to 0 (square-zero)
        for i, (d1, m1) in enumerate(basis):
            for d2, m2 in basis[i:]:
                r = level.mul_monomials(m1, m2) if d1 + d2 <= level.D else None
                if r is None:
                    continue
                c, mm = r
                if c and f.get(mm):
                    ok = False
                    break
            if not ok:
                break
        # operation compatibility: positive operations act trivially on M
        if ok:
            for d, m in basis:
                for s in range(1, level.D - d + 1):
                    img = level.act_letter(0, s, {m: 1})
                    val = {}
                    for m2, c in img.items():
                        for nm, c2 in f.get(m2, {}).items():
                            val[nm] = (val.get(nm, 0) + c * c2) % p
                    if any(val.values()):
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            maps.append(f)
    return maps


def test_cochain_group_against_brute_force_maps():
    # the freeness shortcut says algebra maps into the square-zero target
    # biject with linear maps on generators; check by raw enumeration
    S2 = builtin_space("S2", 2, 4)
    res = CotripleResolution(S2, 1, 4)
    M = suspension_target(builtin_space("point", 2, 4), 2)
    level = res.levels[0]
    maps = _all_algebra_maps_brute(level, M)
    gen_dim = sum(
        len(M.basis.get(d, ())) for d, _ in res.V[0]
    )
    assert len(maps) == 2 ** gen_dim
    # and each surviving map is determined by its generator values
    seen = set()
    for f in maps:
        key = []
        for d, g in res.V[0]:
            mono = ((level.pg_index[((), g)], 1),)
            key.append(tuple(sorted(f.get(mono, {}).items())))
        seen.add(tuple(key))
    assert len(seen) == len(maps)


def test_product_chart_does_not_depend_on_truncation():
    # K1*S1 -> S1 at D = 6, 7 and 8: the product's action is cut at D, and
    # every D at or above t_max + top(H*Y) gives the same window
    charts = [
        adams_chart(builtin_space("K1*S1", 2, D), builtin_space("S1", 2, D), 1, 3, D=D)
        for D in (6, 7, 8)
    ]
    assert charts[0].entries == {(0, 0): 2, (0, 1): 2, (1, 1): 1, (1, 2): 1}
    assert all(c.entries == charts[0].entries for c in charts)
    assert all(c.fringe_set_size == 4 for c in charts)
