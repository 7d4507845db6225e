"""Cochain complexes, the descent complex, and the windowed bar construction.

Derivations out of a free unstable algebra into a square-zero module with
trivial action are free on the module generators, Hom(V0, M0) in matching
degrees, so every cochain group is a plain Hom of graded vector spaces; the
structure maps carry all the content.  ``CochainComplex`` holds such a
complex and its cohomology; the cotriple resolution's complex is assembled
in ``adams``.  The levelwise two-term complex induced by x -> x - P^0 x
computes the same derived derivations after base change to a chain level,
as one 1 - frobenius block per coordinate of Hom(V0, M0), and its kernel
and cokernel are frobenius-semilinear data over the field chain.  That
renders the descent isomorphism checkable: kernels match classical
derivation spaces with an explicit inverse pair of maps, and every
finite-level cokernel class acquires an Artin-Schreier death witness at a
deeper chain level.  The block, its kernel and cokernel, its witnesses and
the inverse pair are computed once per (p, level) in ``tower``;
``descent_verify`` counts them over the coordinates of each degree.

Cochain differentials are ``tower.SparseMap``s, bar boundaries are streamed
column by column, and each complex is ranked once with clearing.
"""

from __future__ import annotations

import functools
import itertools

from . import steenrod as st
from . import tower
from .unstable_algebras import FreeUnstableAlgebra, MonomialBasis
from .unstable_modules import GradedVS, polygen_words


class BudgetExceeded(Exception):
    """A resolution or a bar window outgrew the configured basis-size budget."""


DEFAULT_BUDGET = 500_000  # basis elements a resolution or the bar windows may hold


class CochainComplex:
    """Finite cochain complex of F_p vector spaces; d.d = 0 checked at build.

    maps[s] is the differential C^s -> C^{s+1}, a SparseMap of shape
    (dims[s + 1], dims[s]); d.d is composed sparsely.  cohomology_dims
    ranks the maps in increasing s with clearing (tower.complex_ranks).
    """

    def __init__(self, p, dims, maps):
        self.p = p
        self.dims = list(dims)
        self.maps = list(maps)
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
        ranks = tower.complex_ranks([M.columns for M in self.maps[: top + 1]], self.p)
        return tuple(
            self.dims[s] - ranks[s] - (ranks[s - 1] if s else 0) for s in range(top + 1)
        )


# ---------------------------------------------------------------------------
# the two-term descent complex
# ---------------------------------------------------------------------------

def descent_verify(V0: GradedVS, M0: GradedVS, p=2, start_level=1, max_level=tower.MAX_LEVEL):
    """Checkable form of the descent theorem on (V0, M0).

    (a) D^0 dimensions at every level match the classical derivation space
        Hom(V0, M0) in matching degrees, with an explicit inverse pair of
        maps (both composites are identity matrices).
    (b) every D^1 class at a finite level dies at a deeper level, recorded
        by an Artin-Schreier witness.
    1 - frobenius is block-diagonal, one block per coordinate, so both are
    counted off the block: D^0 = classical . rank(ker) and D^1 = classical .
    rank(coker), so the dimensions match exactly when rank(ker) = 1 or there
    is no coordinate; the inverse pair is cached per (p, level); and in each
    degree, class i . rank(coker) + r (copy i of block cokernel row r) dies
    where row r has its witness, always above the start level (a row is no
    value of 1 - frobenius there).
    Failures are reported, never raised.  A class with no witness anywhere
    in the chain fails (b) without refuting it (a nonzero-trace b needs an
    extension of degree p, and only p = 2 and 3 divide the chain's degrees):
    when that is the only failure the report is inconclusive.  A witness
    past max_level is a failure.  A range of no levels checks nothing and
    raises ValueError.
    """
    if start_level > max_level:
        raise ValueError(f"descent levels {start_level}..{max_level} hold no level to check")
    coords = [(d, V0.dim(d) * M0.dim(d)) for d in V0.degrees() if M0.dim(d)]
    classical = sum(n for _, n in coords)
    report = {
        "p": p,
        "classical_dim": classical,
        "levels": {},
        "witnesses": [],
        "pass_dims": True,
        "pass_inverse_pair": True,
        "pass_witnesses": True,
    }
    missing = late = False
    for k in range(start_level, max_level + 1):
        if not classical:
            report["levels"][k] = {"D0": 0, "D1": 0, "dims_ok": True}
            continue
        ker, cok = tower.semilinear_kernel_cokernel(p, k)
        dims_ok = len(ker) == 1
        report["levels"][k] = {"D0": classical * len(ker), "D1": classical * len(cok), "dims_ok": dims_ok}
        report["pass_dims"] = report["pass_dims"] and dims_ok
        if not tower.base_slot_inverse_pair(p, k):
            report["pass_inverse_pair"] = False
        if k == start_level:
            levels = [lvl for lvl, _ in tower.cokernel_witnesses(p, k)]
            for d, n in coords:
                for ri in range(n * len(cok)):
                    death = levels[ri % len(levels)]
                    if death is None:
                        missing = True
                    elif death > max_level:
                        death, late = None, True
                    report["witnesses"].append({"degree": d, "rep": ri, "death_level": death})
    report["pass_witnesses"] = not (missing or late)
    report["pass"] = report["pass_dims"] and report["pass_inverse_pair"] and report["pass_witnesses"]
    report["inconclusive"] = (
        missing and not late and report["pass_dims"] and report["pass_inverse_pair"]
    )
    return report


# ---------------------------------------------------------------------------
# the bar construction on x -> x - P^0 x, in the nonnegative-index window
# ---------------------------------------------------------------------------

class BarWindow:
    """The two-sided bar complex of the map g_w -> g_w - g_{w.P^0}, windowed.

    Factor slots carry words of length <= L; the target slot allows length
    L+1, which absorbs exactly the one index-0 letter each face can append.
    On this window the complex's homology is concentrated in simplicial
    degree 0 where it matches the classical free-algebra dimensions.

    The window works one internal degree at a time: it keeps the bar bases
    of the last degree asked for only.  The phi, last-face and product
    tables serve every degree, so they stay for the window's life.  No
    boundary is held whole: boundary_columns yields one column at a time.
    """

    def __init__(self, p, n, D, L):
        self.p = p
        # the enveloping algebra's polynomial generators in the nonnegative-index
        # window: appending an index-0 letter keeps a word in the family, which
        # is what closes the window under every bar structure map
        words_t = polygen_words(p, n, D - n, L + 1)
        self.target = MonomialBasis(p, tuple(n + st.word_degree(w, p) for w in words_t), D)
        self.t_index = {w: i for i, w in enumerate(words_t)}
        words_f = tuple(w for w in words_t if len(w) <= L)
        self.factor = MonomialBasis(p, tuple(n + st.word_degree(w, p) for w in words_f), D)
        self.factor_words = words_f
        self._bases = {}  # (s, d) -> bar_basis(s, d), for one degree d at a time
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

    def basis_size(self, s_top):
        """The size of bar_basis(s, d) summed over s <= s_top and d <= D, unenumerated.

        |bar_basis(s, d)| is the degree-d coefficient of T (F - 1)^s, with T and
        F the Hilbert series of the target and factor bases.
        """
        reduced = (0,) + self.factor.hilbert()[1:]
        series = self.target.hilbert()
        total = sum(series)
        for _ in range(s_top):
            series = [sum(series[k] * reduced[d - k] for k in range(d + 1))
                      for d in range(len(series))]
            total += sum(series)
        return total

    def bar_basis(self, s, d):
        """Basis of the degree-d part of the s-th bar level: (m0, m1..ms), sorted.

        Enumerated once per degree; asking for another degree drops the
        bases held for this one.
        """
        key = (s, d)
        if key in self._bases:
            return self._bases[key]
        if any(dd != d for _, dd in self._bases):
            self._bases = {}
        out = []
        # factor degrees d_1..d_s >= 1 leave degree d - sum for m0
        for degs in itertools.product(range(1, d + 1), repeat=s):
            left = d - sum(degs)
            if left >= 0:
                for fs in itertools.product(*map(self.factor.basis, degs)):
                    out.extend((m0,) + fs for m0 in self.target.basis(left))
        out.sort()
        self._bases[key] = out
        return out

    def boundary_columns(self, s, d, skip=()):
        """The columns of the alternating-sum boundary from bar level s to s-1 in degree d.

        In basis order, building none indexed by skip.  An element is
        (m0, f_1, ..., f_s); face i < s merges f_i f_{i+1} and face s
        multiplies phi(f_s) onto m0.
        """
        p = self.p
        tgt_idx = {b: i for i, b in enumerate(self.bar_basis(s - 1, d))}
        mul_factors = self.factor.mul_monomials
        last_sign = -1 if s % 2 else 1
        for j, elem in enumerate(self.bar_basis(s, d)):
            if j in skip:
                continue
            # the faces hit distinct rows: in slot i, face i puts f_i f_{i+1}
            # and every later face keeps f_i, of lower degree
            faces = {}
            # face 0 is omitted: epsilon of a positive-degree factor is 0
            for i in range(1, s):
                r = mul_factors(elem[i], elem[i + 1])
                if r is not None:
                    row = tgt_idx[elem[:i] + (r[1],) + elem[i + 2 :]]
                    faces[row] = -r[0] if i % 2 else r[0]
            odd, deg, terms = self._last_face(elem[0], elem[-1])
            sign = -last_sign if odd and (d - deg) % 2 else last_sign
            rest = elem[1:-1]
            for m, c in terms:
                faces[tgt_idx[(m,) + rest]] = sign * c
            col = {}
            tower.add_scaled(col, faces, 1, p)
            yield col


def bar_homology_check(n, D, s_max=3, L=3, p=2, budget=DEFAULT_BUDGET):
    """Homology of the windowed bar construction, with a saturation flag.

    Verifies: homology in degrees <= D is concentrated in simplicial degree
    0, where its dimensions equal the free unstable algebra on one degree-n
    generator; saturation compares the window L against L+1.  Raises
    BudgetExceeded up front when both windows' bar bases together pass budget.
    Works one window and one internal degree at a time, and the first window
    is freed before the second one runs.  The boundaries are streamed into
    the ranks from the top down, with clearing: a cleared column is never built.
    """
    if min(D, s_max, L) < 0:
        raise ValueError(f"bar windows need D, s_max and L >= 0, not {D}, {s_max} and {L}")

    def run(bw):
        dims = {}
        for d in range(0, D + 1):
            # boundary s runs from bar level s to s - 1; ranks[s - 1] is its rank
            boundaries = [functools.partial(bw.boundary_columns, s, d) for s in range(s_max + 1, 0, -1)]
            ranks = tower.complex_ranks(boundaries, p)[::-1]
            for s in range(s_max + 1):
                size = len(bw.bar_basis(s, d))
                dims[(s, d)] = size - ranks[s] - (ranks[s - 1] if s else 0)
        return dims

    expected = FreeUnstableAlgebra(p, [("i", n)], D).hilbert()  # rejects n < 1
    windows = [BarWindow(p, n, D, cap) for cap in (L, L + 1)]
    size = sum(bw.basis_size(s_max + 1) for bw in windows)
    if size > budget:
        raise BudgetExceeded(f"bar windows hold {size} basis elements, past {budget}")
    hom = run(windows.pop(0))  # popped, so each window is freed after its ranks
    hom_next = run(windows.pop())
    report = {"p": p, "n": n, "D": D, "L": L, "homology": hom, "pass": True, "cells": {}}
    for (s, d), dim in sorted(hom.items()):
        saturated = hom_next.get((s, d)) == dim
        want = expected[d] if s == 0 else 0
        ok = saturated and dim == want
        report["cells"][(s, d)] = {"dim": dim, "expected": want, "saturated": saturated, "pass": ok}
        report["pass"] = report["pass"] and ok
    return report
