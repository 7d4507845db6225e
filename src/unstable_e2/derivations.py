"""Derivation spaces, cochain complexes, and Andre-Quillen cohomology.

Derivations out of a free unstable algebra into a square-zero module are
free on the module generators, so every cochain group here is a plain Hom
of graded vector spaces; the structure maps carry all the content.  Two
computations of the same cohomology live side by side: the levelwise
two-term complex induced by x -> x - P^0 x (whose kernel and cokernel are
frobenius-semilinear data over the field chain), and honest cochain
complexes of simplicial resolutions.  The two-term route renders the
descent isomorphism checkable: kernels match classical derivation spaces
with an explicit inverse pair of maps, and every finite-level cokernel
class acquires an Artin-Schreier death witness at a deeper chain level.
The 1 - frobenius block, its kernel and cokernel and its witnesses are
computed once per (p, level) in ``tower``, which also checks the inverse
pair on the block; this module tiles them across the coordinates of each
degree.

Every differential here is a ``tower.SparseMap``, ranked once.
"""

from __future__ import annotations

from . import steenrod as st
from . import tower
from .unstable_algebras import FreeUnstableAlgebra, MonomialBasis
from .unstable_modules import GradedVS, admissible_words_b


class CochainComplex:
    """Finite cochain complex of F_p vector spaces; d.d = 0 checked at build.

    Differentials are SparseMaps; a dense matrix is converted on entry.
    """

    def __init__(self, p, dims, maps):
        self.p = p
        self.dims = list(dims)
        self.maps = [
            M if isinstance(M, tower.SparseMap) else tower.SparseMap.from_dense(M, p)
            for M in maps
        ]
        assert len(self.maps) == len(self.dims) - 1
        for s, M in enumerate(self.maps):
            assert M.shape == (self.dims[s + 1], self.dims[s]), (s, M.shape)
        for s in range(len(self.maps) - 1):
            if any(tower.matmul_mod(self.maps[s + 1], self.maps[s], p).cols):
                raise ValueError(f"d.d != 0 between cochain degrees {s} and {s+2}")

    def cohomology_dims(self, s_max=None):
        """H^s for s = 0..s_max (default: all degrees with both maps available)."""
        top = len(self.dims) - 2 if s_max is None else s_max
        if top > len(self.maps) - 1:
            raise ValueError(
                f"H^{top} needs the outgoing differential; complex stops at C^{len(self.dims) - 1}"
            )
        ranks = [tower.rank(M, self.p) for M in self.maps[: top + 1]]
        return tuple(
            self.dims[s] - ranks[s] - (ranks[s - 1] if s else 0) for s in range(top + 1)
        )


# ---------------------------------------------------------------------------
# square-zero extensions and derivation spaces
# ---------------------------------------------------------------------------

class SquareZero:
    """B + M with M.M = 0: pairs (b, m) with (b,m)(b',m') = (bb', b m' + b' m).

    b-components are dict-vectors over the base algebra's basis (the unit is
    the key ()); m-components are dict-vectors over the module basis.
    """

    def __init__(self, base, module_vs: GradedVS, action=None):
        self.base = base
        self.p = base.p
        self.module_vs = module_vs
        # action: (base name, module name) -> dict module name -> coeff
        self.action = action or {}

    def mul(self, x, y):
        (b1, m1), (b2, m2) = x, y
        bb = self.base.mul(b1, b2)
        mm = {}
        for part, other in ((b1, m2), (b2, m1)):
            for bn, c1 in part.items():
                for mn, c2 in other.items():
                    if bn == ():
                        mm[mn] = (mm.get(mn, 0) + c1 * c2) % self.p
                        continue
                    for mn2, c3 in self.action.get((bn, mn), {}).items():
                        mm[mn2] = (mm.get(mn2, 0) + c1 * c2 * c3) % self.p
        return bb, {k: v for k, v in mm.items() if v}


def der_free_basis(W: GradedVS, M: GradedVS):
    """Basis of derivations out of the free algebra on W into M: matching-degree pairs."""
    out = []
    for d, w in W.items():
        for m in M.basis.get(d, ()):
            out.append((d, w, m))
    return tuple(out)


class DerSpace:
    """Derivations from a free unstable algebra into a trivial-action module."""

    def __init__(self, A: FreeUnstableAlgebra, M: GradedVS, check_trivial_action=None):
        if check_trivial_action is not None and not check_trivial_action:
            raise ValueError("derivation target must carry the trivial operation action")
        self.basis = der_free_basis(GradedVS(A.p, _gens_by_degree(A)), M)

    def dim(self):
        return len(self.basis)


def _gens_by_degree(A: FreeUnstableAlgebra):
    by_deg = {}
    for name, d in A.gens:
        by_deg.setdefault(d, []).append(name)
    return {d: tuple(sorted(v)) for d, v in by_deg.items()}


def induced_on_der(f, M: GradedVS, augmentation=None, square_zero: SquareZero | None = None):
    """Matrix of precomposition with f on derivation spaces.

    f: AlgebraMap between free algebras (value_on_monomial available);
    augmentation, when given, is {"base": algebra, "gens": {target gen:
    base vector}} and feeds the Leibniz cross terms; the default null
    augmentation kills every decomposable contribution.  Rows are indexed
    by the source derivation basis, columns by the target's: the entry is
    the ms-coefficient of the target derivation evaluated on f(generator).
    """
    import numpy as np

    src_space = DerSpace(f.source, M)
    tgt_space = DerSpace(f.target, M)
    p = f.source.p
    out = np.zeros((len(src_space.basis), len(tgt_space.basis)), dtype=np.int64)
    fvals = {
        ws: f.value_on_monomial(_gen_monomial(f.source, ws))
        for ws in {ws for _, ws, _ in src_space.basis}
    }
    for j, (dt, wt, mt) in enumerate(tgt_space.basis):
        for i, (ds, ws, ms) in enumerate(src_space.basis):
            val = _derivation_on_vector(
                f.target, fvals[ws], wt, mt, augmentation, square_zero, p
            )
            c = val.get(ms, 0)
            if c:
                out[i, j] = c % p
    return out, src_space, tgt_space


def _gen_monomial(A: FreeUnstableAlgebra, name):
    return ((A.pg_index[((), name)], 1),)


def _derivation_on_vector(A, vec, wname, mname, augmentation, square_zero, p):
    """Evaluate the (wname -> mname) dual derivation on an algebra vector.

    Extends by the Leibniz rule: on a monomial y1^e1...yr^er the value is
    sum_j e_j phi(m / y_j) . g(y_j), where g vanishes on every polygen with
    a nonempty word (trivial action) and phi is the augmentation.
    """
    out = {}
    target_idx = A.pg_index[((), wname)]
    for m, c in vec.items():
        for k, (i, e) in enumerate(m):
            if i != target_idx:
                continue
            rest = m[:k] + ((i, e - 1),) * (e > 1) + m[k + 1 :]
            if rest and augmentation is None:
                continue  # null augmentation kills decomposable cross terms
            if not rest:
                out[mname] = (out.get(mname, 0) + e * c) % p
            else:
                phi = _augment_monomial(A, rest, augmentation)
                for bn, cb in phi.items():
                    if bn == ():
                        out[mname] = (out.get(mname, 0) + e * c * cb) % p
                    elif square_zero is not None:
                        for mn2, c3 in square_zero.action.get((bn, mname), {}).items():
                            out[mn2] = (out.get(mn2, 0) + e * c * cb * c3) % p
    return {k: v for k, v in out.items() if v}


def _augment_monomial(A, m, augmentation):
    base = augmentation["base"]
    vec = None
    for i, e in m:
        w, g = A.polygens[i]
        img = augmentation["gens"].get(g, {})
        img = base.act_word(w, img) if w else dict(img)
        for _ in range(e):
            vec = dict(img) if vec is None else base.mul(vec, img)
    return {(): 1} if vec is None else vec


# ---------------------------------------------------------------------------
# the two-term descent complex
# ---------------------------------------------------------------------------

def descent_two_term(V0: GradedVS, M0: GradedVS, level, p=2):
    """Kernel/cokernel F_p data of the frobenius-twisted endomorphism on Hom(V, M).

    This is the two-term complex computing the derived derivations of the
    algebra-side free object after base change to the chain level: the map
    induced by x -> x - P^0 x acts on a derivation's coordinates as
    1 - frobenius.  Returns per-degree D^0/D^1 dimensions plus the raw
    kernel/cokernel bases per degree.
    """
    report = {"p": p, "level": level, "degrees": {}, "D0_total": 0, "D1_total": 0}
    for d in sorted(set(V0.degrees()) | set(M0.degrees())):
        n = V0.dim(d) * M0.dim(d)
        if n == 0:
            continue
        ker, cok = (_tile(block, n) for block in tower.semilinear_kernel_cokernel(p, level))
        report["degrees"][d] = {
            "coords": n,
            "D0": len(ker),
            "D1": len(cok),
            "kernel": ker,
            "cokernel": cok,
        }
        report["D0_total"] += len(ker)
        report["D1_total"] += len(cok)
    return report


def _tile(block, n):
    """Rows of the block-diagonal matrix with n copies of block (np.kron(eye(n), block))."""
    return tuple(
        (0,) * (i * len(row)) + tuple(row) + (0,) * ((n - 1 - i) * len(row))
        for i in range(n) for row in block
    )


def descent_verify(V0: GradedVS, M0: GradedVS, p=2, start_level=1, max_level=tower.MAX_LEVEL):
    """Checkable form of the descent theorem on (V0, M0).

    (a) D^0 dimensions at every level match the classical derivation space
        Hom(V0, M0) in matching degrees, with an explicit inverse pair of
        maps (both composites are identity matrices).
    (b) every D^1 class at a finite level dies at a deeper level, recorded
        by an Artin-Schreier witness.
    1 - frobenius is block-diagonal, so both are read from its one-coordinate
    block: the inverse pair is checked once per level, and cokernel row ri
    dies where block row ri mod (block cokernel rank) has its witness, but
    no earlier than one level up.
    Failures are reported, never raised.
    """
    classical = der_free_basis(V0, M0)
    classical_by_deg = {}
    for d, _, _ in classical:
        classical_by_deg[d] = classical_by_deg.get(d, 0) + 1
    report = {
        "p": p,
        "classical_dim": len(classical),
        "levels": {},
        "witnesses": [],
        "pass_dims": True,
        "pass_inverse_pair": True,
        "pass_witnesses": True,
    }
    for k in range(start_level, max_level + 1):
        two = descent_two_term(V0, M0, k, p)
        dims_ok = all(
            cell["D0"] == classical_by_deg.get(d, 0) for d, cell in two["degrees"].items()
        ) and two["D0_total"] == len(classical)
        report["levels"][k] = {"D0": two["D0_total"], "D1": two["D1_total"], "dims_ok": dims_ok}
        report["pass_dims"] = report["pass_dims"] and dims_ok
        if not two["degrees"]:
            continue
        if not tower.base_slot_inverse_pair(p, k):
            report["pass_inverse_pair"] = False
        if k == start_level:
            deaths = [
                max(k + 1, lvl) if lvl is not None and max(k + 1, lvl) <= max_level else None
                for lvl, _ in tower.cokernel_witnesses(p, k)
            ]
            for d, cell in two["degrees"].items():
                for ri in range(cell["D1"]):
                    death = deaths[ri % len(deaths)]
                    report["witnesses"].append({"degree": d, "rep": ri, "death_level": death})
                    if death is None:
                        report["pass_witnesses"] = False
    report["pass"] = report["pass_dims"] and report["pass_inverse_pair"] and report["pass_witnesses"]
    return report


# ---------------------------------------------------------------------------
# cohomology of simplicial resolutions
# ---------------------------------------------------------------------------

def two_term_bar_der_complex(V0: GradedVS, M0: GradedVS, level, s_max, p=2):
    """Derivations of the two-term simplicial resolution, Dold-Kan assembled.

    The resolution has level s free on s+1 copies of V (one target copy,
    s twisted copies); derivations are determined on module generators by
    operation-equivariance, so the cochain groups are sums of copies of the
    realized Hom space, with the twisted endomorphism entering through the
    last face.  Its cohomology must reproduce the two-term kernel/cokernel
    data degreewise; levels beyond 1 vanish structurally.
    """
    import numpy as np

    n = sum(V0.dim(d) * M0.dim(d) for d in set(V0.degrees()) | set(M0.degrees()))
    block = tower.get_tower(p).field(level).one_minus_frobenius
    tau = np.kron(np.eye(n, dtype=np.int64), block)
    H = tau.shape[0]
    eye = np.eye(H, dtype=np.int64)
    dims = [(s + 1) * H for s in range(s_max + 2)]
    maps = []
    for s in range(1, s_max + 2):
        # cofaces C^{s-1} -> C^s dual to the Dold-Kan faces of the resolution
        D = np.zeros((dims[s], dims[s - 1]), dtype=np.int64)
        for i in range(0, s + 1):
            sign = -1 if i % 2 else 1
            B = np.zeros((dims[s], dims[s - 1]), dtype=np.int64)
            if i == 0:
                B[0:H, 0:H] = eye
                for j in range(1, s):
                    B[(j + 1) * H : (j + 2) * H, j * H : (j + 1) * H] = eye
            elif i < s:
                B[0:H, 0:H] = eye
                for j in range(1, s):
                    tgt = j if j <= i else j + 1
                    B[tgt * H : (tgt + 1) * H, j * H : (j + 1) * H] = eye
                    if j == i:
                        B[(j + 1) * H : (j + 2) * H, j * H : (j + 1) * H] = eye
            else:
                B[0:H, 0:H] = eye
                for j in range(1, s):
                    B[j * H : (j + 1) * H, j * H : (j + 1) * H] = eye
                B[s * H : (s + 1) * H, 0:H] = tau
            D = (D + sign * B) % p
        maps.append(D)
    return CochainComplex(p, dims, maps)


# ---------------------------------------------------------------------------
# the bar construction on x -> x - P^0 x, in the nonnegative-index window
# ---------------------------------------------------------------------------

def _decorated_generators(p, n, D, length_cap):
    """Nonnegative admissible flavor-B words of excess < n (plus odd-p edge cases).

    These index the polynomial generators of the enveloping algebra of the
    flavor-B free module in the nonnegative-index window; appending an
    index-0 letter keeps a word in the family, which is what makes this
    window exactly closed under all bar-construction structure maps.
    They come ordered by (degree, word), as ``MonomialBasis`` letters must.
    """
    out = []
    for wd in range(0, D - n + 1):
        for w in admissible_words_b(p, wd, n - 1, length_cap, 0):
            out.append(w)
        if p != 2:
            for w in admissible_words_b(p, wd, n, length_cap, 0):
                if st.excess(w, p) == n and w and w[0][0] == 1:
                    out.append(w)
    return tuple(sorted(set(out), key=lambda w: (st.word_degree(w, p), w)))


class BarWindow:
    """The two-sided bar complex of the map g_w -> g_w - g_{w.P^0}, windowed.

    Factor slots carry words of length <= L; the target slot allows length
    L+1, which absorbs exactly the one index-0 letter each face can append.
    On this window the complex's homology is concentrated in simplicial
    degree 0 where it matches the classical free-algebra dimensions.
    """

    def __init__(self, p, n, D, L):
        self.p = p
        words_t = _decorated_generators(p, n, D, L + 1)
        self.target = MonomialBasis(p, tuple(n + st.word_degree(w, p) for w in words_t), D)
        self.t_index = {w: i for i, w in enumerate(words_t)}
        words_f = tuple(w for w in words_t if len(w) <= L)
        self.factor = MonomialBasis(p, tuple(n + st.word_degree(w, p) for w in words_f), D)
        self.factor_words = words_f
        self._bases = {}  # (s, d) -> bar_basis(s, d); inner levels bound two boundaries
        self._phi = {}  # factor monomial -> _phi_factor image
        self._last = {}  # (m0, f) -> last-face entry of m0 . phi(f), without its sign

    def _phi_factor(self, m):
        """Image of a factor monomial under the algebra map g_w -> g_w - g_{w0}."""
        if m in self._phi:
            return self._phi[m]
        vec = {(): 1}
        for i, e in m:
            w = self.factor_words[i]
            img = {
                ((self.t_index[w], 1),): 1,
                ((self.t_index[w + ((0, 0),)], 1),): -1 % self.p,
            }
            for _ in range(e):
                vec = self.target.mul(vec, img)
        self._phi[m] = vec
        return vec

    def _last_face(self, m0, f):
        """m0 . phi(f) as (odd, degree, terms), without the face's sign.

        The last face moves f past the factors before it, whose degrees sum
        to d - degree (degree = |m0| + |f|).  At odd p that costs the Koszul
        sign (-1)^(|f| (d - degree)); odd says whether |f| counts there.
        """
        key = (m0, f)
        hit = self._last.get(key)
        if hit is not None:
            return hit
        deg_f = self.factor.monomial_degree(f)
        terms = tuple(self.target.mul({m0: 1}, self._phi_factor(f)).items())
        entry = (self.p != 2 and deg_f % 2 == 1, self.target.monomial_degree(m0) + deg_f, terms)
        self._last[key] = entry
        return entry

    def bar_basis(self, s, d):
        """Basis of the degree-d part of the s-th bar level: (m0, m1..ms), enumerated once."""
        if (s, d) in self._bases:
            return self._bases[(s, d)]
        out = []

        def rec(slot, deg_left, acc):
            if slot == s:
                for m0 in self.target.basis(deg_left):
                    out.append((m0,) + tuple(acc))
                return
            for dd in range(1, deg_left + 1):
                for m in self.factor.basis(dd):
                    acc.append(m)
                    rec(slot + 1, deg_left - dd, acc)
                    acc.pop()

        rec(0, d, [])
        out.sort()
        self._bases[(s, d)] = out
        return out

    def boundary_matrix(self, s, d):
        """Alternating-sum boundary from bar level s to s-1 in degree d, as a SparseMap.

        A basis element is (m0, f_1, ..., f_s); face i < s merges f_i f_{i+1}
        and face s multiplies phi(f_s) onto m0.
        """
        p = self.p
        src = self.bar_basis(s, d)
        tgt = self.bar_basis(s - 1, d)
        tgt_idx = {b: i for i, b in enumerate(tgt)}
        mul_factors = self.factor.mul_monomials
        last_sign = -1 if s % 2 else 1
        cols = []
        for elem in src:
            col = {}
            # face 0 is omitted: epsilon of a positive-degree factor is 0
            for i in range(1, s):
                r = mul_factors(elem[i], elem[i + 1])
                if r is None:
                    continue
                row = tgt_idx[elem[:i] + (r[1],) + elem[i + 2 :]]
                col[row] = (col.get(row, 0) + (-r[0] if i % 2 else r[0])) % p
            odd, deg, terms = self._last_face(elem[0], elem[-1])
            sign = -last_sign if odd and (d - deg) % 2 else last_sign
            rest = elem[1:-1]
            for m, c in terms:
                row = tgt_idx[(m,) + rest]
                col[row] = (col.get(row, 0) + sign * c) % p
            cols.append({r: c for r, c in col.items() if c})
        return tower.SparseMap(len(tgt), cols, p), src, tgt


def bar_homology_check(n, D, s_max=3, L=3, p=2):
    """Homology of the windowed bar construction, with a saturation flag.

    Verifies: homology in degrees <= D is concentrated in simplicial degree
    0, where its dimensions equal the free unstable algebra on one degree-n
    generator; saturation compares the window L against L+1.
    """
    def run(length_cap):
        bw = BarWindow(p, n, D, length_cap)
        dims = {}
        for d in range(0, D + 1):
            # boundary s + 1 runs from bar level s + 1 to s; each is ranked once
            bounds = [bw.boundary_matrix(s, d) for s in range(1, s_max + 2)]
            sizes = [len(bounds[0][2])] + [len(src) for _, src, _ in bounds]
            ranks = [tower.rank(M, p) for M, _, _ in bounds]
            for s in range(s_max + 1):
                dims[(s, d)] = sizes[s] - ranks[s] - (ranks[s - 1] if s else 0)
        return dims

    expected = FreeUnstableAlgebra(p, [("i", n)], D).hilbert()  # rejects n < 1
    hom = run(L)
    hom_next = run(L + 1)
    report = {"p": p, "n": n, "D": D, "L": L, "homology": hom, "pass": True, "cells": {}}
    for (s, d), dim in sorted(hom.items()):
        saturated = hom_next.get((s, d)) == dim
        want = expected[d] if s == 0 else 0
        ok = saturated and dim == want
        report["cells"][(s, d)] = {"dim": dim, "expected": want, "saturated": saturated, "pass": ok}
        report["pass"] = report["pass"] and ok
    return report
