"""Cotriple resolutions of space cohomologies and the unstable Adams E2 chart.

A catalog space (the point, S^n, K(F_p, n) or a product of two) is one
SpaceModel, which holds its classes, its letter and product tables and its
atoms, the sphere and K(F_p, n) factors; one rule tabulates every space from
its classes, a letter rule and a product rule.  The chart's (0,0) cell, the
set of unstable-algebra maps H*X -> H*Y, is counted atom by atom.

The resolution iterates the free unstable algebra monad on the reduced
cohomology of a space: level s is free on the full monomial basis of level
s-1 (the top level keeps only its nondegenerate monomials).  Face maps
evaluate one formal layer (the outermost face evaluates formal generators
as elements, inner faces push the evaluation inward); degeneracies insert
formal layers.  Face and degeneracy maps are stored as ``tower.SparseMap``s
on monomial bases (one {row index: coeff} dict per source basis element,
nonzero coefficients mod p only).  The degeneracies are read off the
monomial keys, never extended through the algebra, and built on first use;
the tests (``tests/oracles.py``) extend faces and degeneracies through the
algebra on every monomial and check the simplicial identities on those.

Cochain groups of the derivation complex against a suspension-type target
need only the generator data of each level, which is what makes s_max 2-3
feasible: level s is materialized through its basis and through the full
face maps of the level below, never through anything deeper.  Against a
trivially-acting target the coface delta^0 vanishes on normalized cochains,
so a chart is a sum over the target's degrees d of one complex into F_p per
d, each built, d.d-checked and ranked once per chart; a target with
nontrivial operations is refused once t_max >= 1.  The coboundaries are
SparseMaps too, read off the face columns.  Cochains live on the
nondegenerate generators only (the normalized complex, which has the same
cohomology by the Dold-Kan normalization theorem): every degeneracy sends a
basis monomial to one basis monomial with coefficient +-1, so the degenerate
generators are read off the monomials and dropped, and most generators of
the deeper levels are degenerate, by one mask rule at every level.  A chart
reads a face column only at a nondegenerate monomial or at a generator of a
read column one level up: exactly those go through the algebra, and every
other face column is None.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from functools import cached_property

from . import steenrod as st
from . import tower
from .derivations import DEFAULT_BUDGET, BudgetExceeded, CochainComplex
from .unstable_algebras import DegreeCapExceeded, FreeUnstableAlgebra, extend_algebra_map
from .unstable_modules import GradedVS


class ChartError(Exception):
    """Refused chart computation (insufficient truncation, bad window, ...)."""


# ---------------------------------------------------------------------------
# built-in space catalog
# ---------------------------------------------------------------------------

@dataclass
class SpaceModel:
    """Reduced mod-p cohomology of a catalog space as an unstable algebra, up to degree D.

    The one table class: vs lists the classes by degree; action maps a
    letter (eps, i) to its nonzero columns {class: {class: coeff}}, and
    products maps each pair (x, y), x <= y by name, with |x| + |y| <= D to
    their product {class: coeff} (the unit is implicit).  At odd p the
    tables hold the Bockstein (1, 0) and the P^i (0, i); beta P^i acts as
    beta after P^i.  atoms lists the space's factors, ("sphere", n) or
    ("k", n), one each (the point has none): H*X is the tensor product of
    their algebras.  act_word and mul read and return vectors {class: coeff}.
    """

    name: str
    p: int
    D: int
    atoms: tuple
    vs: GradedVS
    action: dict
    products: dict

    def __post_init__(self):
        self.degree_of = {x: d for d, x in self.vs.items()}

    def basis(self, d):
        return self.vs.basis.get(d, ())

    def top_degree(self):
        return max(self.vs.degrees(), default=0)

    def act_letter(self, letter, x):
        eps, i = letter
        if self.p == 2 and eps:
            raise ValueError("no Bockstein at p = 2")
        if eps == 0 and i == 0:
            return {x: 1}
        if eps and i:
            return self.act_word(((1, 0), (0, i)), {x: 1})
        return dict(self.action.get(letter, {}).get(x, {}))

    def act_word(self, word, vec):
        for letter in reversed(word):
            out = {}
            for x, c in vec.items():
                tower.add_scaled(out, self.act_letter(letter, x), c, self.p)
            vec = out
        return vec

    def mul_names(self, x, y):
        dx, dy = self.degree_of[x], self.degree_of[y]
        if dx + dy > self.D:
            raise DegreeCapExceeded("product beyond truncation")
        sign = -1 if x > y and dx * dy % 2 else 1  # the Koszul sign of the swap
        col = self.products.get((min(x, y), max(x, y)), {})
        return {z: sign * c % self.p for z, c in col.items()}

    def mul(self, v1, v2):
        out = {}
        for x, c1 in v1.items():
            for y, c2 in v2.items():
                tower.add_scaled(out, self.mul_names(x, y), c1 * c2, self.p)
        return out


_ATOM = re.compile(r"s(\d+)|sphere\(\s*(\d+)\s*\)|k(\d+)|k\(f_?(p|\d+)\s*,\s*(\d+)\s*\)")


def builtin_space(name, p, D):
    """Catalog: sphere(n) as S<n>, K(F_p,n) as K<n>, point, products A*B of two."""
    text = name.strip().lower()
    for sep in ("*", "x"):
        parts = text.split(sep)
        if len(parts) == 2 and all(_parse_atom(q) for q in parts):
            a, b = (_atom_space(_parse_atom(q), p, D) for q in parts)
            return _product_space(a, b, name, p, D)
    atom = _parse_atom(text)
    if atom is None:
        raise ValueError(f"unknown space {name!r}")
    return _atom_space(atom, p, D)


def _parse_atom(text):
    """(kind, n, q), or None: q is the field order named by K(F_q,n), None for the working prime."""
    text = text.strip()
    if text in ("point", "pt", "*"):
        return ("point", 0, None)
    m = _ATOM.fullmatch(text)
    if m is None:
        return None
    s, sphere, k, q, n = m.groups()
    if s or sphere:
        return ("sphere", int(s or sphere), None)
    return ("k", int(k or n), None if q in (None, "p") else int(q))


def _table_letters(p, D):
    """The letters a table holds within degree D: P^1..P^D (Sq^s at p = 2), and beta at odd p."""
    return [(0, s) for s in range(1, D + 1)] + ([(1, 0)] if p != 2 else [])


def _table_space(name, p, D, atoms, classes, letter, product):
    """The one table rule: a catalog space from its classes and its two rules.

    classes lists (degree, name) in basis order; letter(letter, x) and
    product(x, y) give a letter's image of a class and the product of two
    classes as {name: coeff}.  Every letter and every product x <= y (by
    name) that stays within degree D is tabulated, products reduced mod p
    with zeros dropped; a letter's zero columns are left out, and a letter
    with no nonzero column is left out too.
    """
    basis = {}
    for d, x in classes:
        basis.setdefault(d, []).append(x)
    action = {}
    for L in _table_letters(p, D):
        cols = {x: letter(L, x) for d, x in classes if d + st.letter_degree(L, p) <= D}
        cols = {x: col for x, col in cols.items() if col}
        if cols:
            action[L] = cols
    products = {(x, y): {z: c % p for z, c in product(x, y).items() if c % p}
                for dx, x in classes for dy, y in classes if x <= y and dx + dy <= D}
    return SpaceModel(name, p, D, atoms, GradedVS(p, basis), action, products)


def _atom_space(atom, p, D):
    kind, n, q = atom
    if q is not None and q != p:
        raise ValueError(f"K(F_{q},{n}) needs p = {q}, not p = {p}")
    if kind == "point":
        return _table_space("point", p, D, (), [], None, None)
    if kind == "sphere":
        if n < 1:
            raise ValueError("spheres need n >= 1")
        # one class, with no nonzero letter or square
        return _table_space(f"S{n}", p, D, (("sphere", n),), [(n, f"s{n}")],
                            lambda *_: {}, lambda *_: {})
    if n < 1:
        raise ValueError("K(F_p, n) needs n >= 1")
    return _k_space(n, p, D)


def _k_space(n, p, D):
    """K(F_p, n): the free unstable algebra on one class, its monomials named k<d>_<i>."""
    A = FreeUnstableAlgebra(p, [(f"i{n}", n)], D)
    monos = {f"k{d}_{i}": m for d in range(1, D + 1) for i, m in enumerate(A.basis(d))}
    names = {m: x for x, m in monos.items()}

    def letter(L, x):
        return {names[m]: c for m, c in A.act_letter(*L, {monos[x]: 1}).items()}

    def product(x, y):
        r = A.mul_monomials(monos[x], monos[y])
        return {} if r is None else {names[r[1]]: r[0]}

    classes = [(A.monomial_degree(m), x) for x, m in monos.items()]
    return _table_space(f"K{n}", p, D, (("k", n),), classes, letter, product)


def _product_space(a: SpaceModel, b: SpaceModel, name, p, D):
    """The Kunneth tensor product of two catalog spaces, its classes named x|y (1 the unit)."""
    split = {}  # class x|y -> (degree of x, x, degree of y, y)
    for da, x in [(0, "1"), *a.vs.items()]:
        for db, y in [(0, "1"), *b.vs.items()]:
            if "1" in (x, y) or da + db <= D:
                split[f"{x}|{y}"] = (da, x, db, y)
    del split["1|1"]

    def tensor(u, v, sign=1):
        return {f"{x}|{y}": sign * cx * cy for x, cx in u.items() for y, cy in v.items()}

    def mul(space, x, y):
        return {y: 1} if x == "1" else {x: 1} if y == "1" else space.mul_names(x, y)

    def letter(L, z):
        da, x, _, y = split[z]
        if L[0]:  # the Bockstein, by the Koszul-signed Leibniz rule
            terms = [(L, (0, 0), 1), ((0, 0), L, -1 if da % 2 else 1)]
        else:  # P^s, by the Cartan formula
            terms = [((0, k), (0, L[1] - k), 1) for k in range(L[1] + 1)]
        out = {}
        for La, Lb, c in terms:
            tower.add_scaled(out, tensor(a.act_letter(La, x), b.act_letter(Lb, y)), c, p)
        return out

    def product(z1, z2):  # _table_space reduces the coefficients mod p
        (_, x1, db1, y1), (da2, x2, _, y2) = split[z1], split[z2]
        return tensor(mul(a, x1, x2), mul(b, y1, y2), -1 if db1 * da2 % 2 else 1)

    classes = sorted((da + db, z) for z, (da, _, db, _) in split.items())
    return _table_space(name, p, D, a.atoms + b.atoms, classes, letter, product)


# ---------------------------------------------------------------------------
# the cotriple resolution
# ---------------------------------------------------------------------------

class CotripleResolution:
    """Levels 0..s_max of the free-algebra monad iterated on reduced cohomology.

    V[s] lists the generators of level s as (degree, key) pairs; V[s+1] is
    the full monomial basis of level s < s_max, and of the top level only
    its nondegenerate part, which is all a chart reads (the top level's
    enumerated basis is released once that part is kept).  face_full[s][i] is
    the SparseMap of the i-th face from level s to level s-1 on monomial
    bases (columns are V[s+1], rows V[s]); it holds the columns a chart
    reads, each extended through the algebra, and None in every other
    column (see _build_faces).  nondegenerate[s] lists the indices into V[s]
    that no degeneracy hits (all of V[0] and V[s_max + 1]): the generators
    cochains live on, decided at every level by one mask rule.  The
    degeneracies G and degen_full are built on first use; no chart reads them.
    The build leaves each level's memo tables empty; later callers refill them.
    """

    def __init__(self, space: SpaceModel, s_max, D, budget=DEFAULT_BUDGET):
        self.space = space
        self.p = space.p
        self.s_max = s_max
        self.D = D
        if D > space.D:
            raise ChartError(f"space tables stop at degree {space.D}, need {D}")
        self.levels = []
        self.V = [sorted((d, nm) for d, nm in space.vs.items() if d <= D)]
        self._vidx = [{key: i for i, (_, key) in enumerate(self.V[0])}]
        self.nondegenerate = [list(range(len(self.V[0])))]
        masks = [0] * len(self.V[0])
        total = len(self.V[0])
        for s in range(0, s_max + 1):
            level = FreeUnstableAlgebra(self.p, [(key, d) for d, key in self.V[s]], D)
            self.levels.append(level)
            total += sum(level.hilbert()[1:])
            if total > budget:
                raise BudgetExceeded(
                    f"resolution level {s + 1} pushes basis count past {budget} "
                    f"(degree cap {D})"
                )
            # the one degeneracy rule, with no G: bit 0 of a monomial's mask marks
            # the image of the insertion G[s][0], a single polygen of the empty word
            # to the first power; bit j >= 1 that of G[s][j], the monomials whose
            # polygens w(g) all have bit j - 1 in the mask of g, since G[s][j] sends
            # w(g) to w(G[s - 1][j - 1](g)) up to sign (-2 clears bit 0 for any other
            # monomial).  Mask 0 is nondegenerate.
            top = s == s_max
            pg_masks = [masks[self._vidx[s][g]] << 1 | (not w) for w, g in level.polygens]
            basis, masks = [], []
            for d, m in level.reduced_basis_items():
                mask = -1 if len(m) == 1 and m[0][1] == 1 else -2
                for i, _ in m:
                    mask &= pg_masks[i]
                if not (top and mask):  # the top level keeps its nondegenerate monomials
                    basis.append((d, m))
                    masks.append(mask)
            self.V.append(basis)
            self.nondegenerate.append([vi for vi, mask in enumerate(masks) if not mask])
            if not top:  # the top level is indexed by position only
                self._vidx.append({key: i for i, (_, key) in enumerate(self.V[s + 1])})
        del masks, pg_masks  # the top level's, which its faces do not read,
        self.levels[-1]._basis = None  # nor its enumeration: they extend V[s_max + 1] by name
        self.face_full = []
        self._build_faces()

    # -- construction ---------------------------------------------------------

    @cached_property
    def G(self):
        """G[t][j], t < s_max, 0 <= j <= t: the j-th degeneracy into level t + 1 on V[t].

        Each is a list over V[t] of (index into V[t + 1], sign mod p): a
        degeneracy sends a generator to one generator, up to sign, so it is
        read off the keys.  G[t][0] is the insertion, g -> [g].  G[t][j],
        j >= 1, sends a monomial of level t - 1 to the product of the
        w(G[t - 1][j - 1](g)) over its polygens w(g), re-sorted; at odd p the
        sign collects those of the G[t - 1][j - 1](g) and the Koszul sign of
        the re-sort.
        """
        G = []
        for t in range(self.s_max):
            G.append([[(self._insertion_index(t, key), 1) for _, key in self.V[t]]])
            if t == 0:
                continue
            src, dst, gen_idx = self.levels[t - 1], self.levels[t], self._vidx[t - 1]
            for prev in G[t - 1]:
                # polygen w(g) -> (index of w(g'), c), where prev sends g to c g'
                pg = [(dst.pg_index[(w, self.V[t][r][1])], c)
                      for w, g in src.polygens for r, c in (prev[gen_idx[g]],)]
                col = []
                for _, key in self.V[t]:
                    factors, sign = [(pg[i][0], e) for i, e in key], 1
                    if self.p != 2:
                        odd = [f for f, _ in factors if dst.pg_degree[f] % 2]
                        sign = (-1) ** sum(a > b for k, a in enumerate(odd) for b in odd[k + 1:])
                        for i, e in key:
                            sign *= pg[i][1] ** e
                    col.append((self._vidx[t + 1][tuple(sorted(factors))], sign % self.p))
                G[t].append(col)
        return G

    def _gen_vec(self, col, level_to):
        """Column over V[level_to] as a generator-combination vector in that level."""
        pg_index, basis = self.levels[level_to].pg_index, self.V[level_to]
        return {((pg_index[((), basis[i][1])], 1),): c for i, c in col.items()}

    def _build_faces(self):
        """face_full[s][i], 0 <= i <= s <= s_max, on the columns a chart reads.

        A chart reads face columns of level s at the nondegenerate monomials
        of V[s + 1], and, for face i >= 1 of level s + 1 to extend its kept
        columns, at the generators of those columns.  So the read sets are
        found from the top down, where every column is nondegenerate, with
        each level's generator keys in the same pass.  Then each level, from
        the bottom up, extends exactly its read columns through the algebra
        (face 0 evaluates a generator as an element, face i >= 1 is face
        i - 1 of the level below on the generators); every other column is
        None.  Only level s's faces read level s - 1's tables, so those are
        emptied once they are built, and the top level's after the last face.
        """
        p = self.p
        stack, needed = [], set()  # (read columns of V[s + 1], their generator keys), top down
        for s in range(self.s_max, -1, -1):
            extra = needed.difference(self.nondegenerate[s + 1])
            read = self.nondegenerate[s + 1] + sorted(extra) if extra else self.nondegenerate[s + 1]
            polygens, basis = self.levels[s].polygens, self.V[s + 1]
            keys = {polygens[k][1] for vi in read for k, _ in basis[vi][1]}
            needed = {self._vidx[s][key] for key in keys}
            stack.append((read, keys))
        for s in range(0, self.s_max + 1):
            read, keys = stack.pop()  # level s; each level's sets go once it is built
            monos = [self.V[s + 1][vi][1] for vi in read]
            rows = self._vidx[s]
            maps = []
            for i in range(0, s + 1):
                if i == 0:
                    target = self.space if s == 0 else self.levels[s - 1]
                    gen_images = {key: {key: 1} for key in keys}
                else:
                    prev = self.face_full[s - 1][i - 1]
                    target = self.levels[s - 1]
                    gen_images = {key: self._gen_vec(prev.cols[rows[key]], s - 1) for key in keys}
                images = extend_algebra_map(self.levels[s], target, gen_images, monos)
                cols = [None] * len(self.V[s + 1])
                for vi, m in zip(read, monos):
                    cols[vi] = {rows[key]: c % p for key, c in images[m].items() if c % p}
                maps.append(tower.SparseMap(len(self.V[s]), cols, p))
            self.face_full.append(maps)
            for level in self.levels[max(s - 1, 0) : s + (s == self.s_max)]:  # s - 1, and the top
                for memo in (level._op_memo, level._power_memo, level._products):
                    memo.clear()

    @cached_property
    def degen_full(self):
        """degen_full[s][j], 0 <= j <= s < s_max - 1: G[s + 1][j + 1] as a SparseMap.

        The j-th degeneracy from level s to level s + 1 on monomial bases
        (columns V[s + 1], rows V[s + 2]); each column is one entry, +-1.
        """
        G, p = self.G, self.p
        return [
            [tower.SparseMap(len(self.V[s + 2]), [{r: c} for r, c in G[s + 1][j + 1]], p)
             for j in range(0, s + 1)]
            for s in range(0, self.s_max - 1)
        ]

    # -- the derivation cochain complex -----------------------------------------

    def der_cochain_complex(self, d, top_s):
        """The normalized derivation complex into F_p in internal degree d.

        Cochain group s is spanned by the nondegenerate generators of V[s]
        in degree d, for s = 0..top_s.  By the Dold-Kan normalization theorem
        it has the cohomology of the full complex, and since each degeneracy
        sends a basis monomial to one basis monomial with coefficient +-1 (a
        sign spans the same line), it is the full complex with the degenerate
        rows and columns dropped.  Against a square-zero target with trivial
        action the coface delta^0 vanishes on normalized cochains: it pairs a
        nondegenerate w(g) of level s + 1 with g through the action of the
        word w, which is nonempty there (the empty word is the insertion, a
        degeneracy).  So the coboundary is the alternating sum of the duals
        of the faces i >= 1, and the complex of such a target M is the sum
        over degrees d of dim M_d copies of this one.  Each coboundary is a
        SparseMap built column by column.
        """
        p = self.p
        if top_s > self.s_max + 1:
            raise ChartError(f"resolution holds {self.s_max + 1} levels, need {top_s}")
        bases = [[vi for vi in self.nondegenerate[s] if self.V[s][vi][0] == d]
                 for s in range(0, top_s + 1)]
        maps = []
        for s in range(0, top_s):
            cols = {vi: c for c, vi in enumerate(bases[s])}
            out = [{} for _ in bases[s]]
            for r, vi in enumerate(bases[s + 1]):
                row = {}
                for i in range(1, s + 2):
                    tower.add_scaled(row, self.face_full[s][i - 1].cols[vi], -1 if i % 2 else 1, p)
                for x, v in row.items():
                    c = cols.get(x)  # None on a degenerate generator
                    if c is not None:
                        out[c][r] = v
            maps.append(tower.SparseMap(len(bases[s + 1]), out, p))
        return CochainComplex(p, [len(b) for b in bases], maps)

    def _insertion_index(self, s, key):
        inner = ((self.levels[s].pg_index[((), key)], 1),)
        return self._vidx[s + 1][inner]


def cotriple_resolution(space: SpaceModel, s_max, D, budget=DEFAULT_BUDGET):
    return CotripleResolution(space, s_max, D, budget)


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

@dataclass
class Chart:
    p: int
    kind: str  # "adams" | "gh"
    s_max: int
    t_max: int
    D: int
    entries: dict  # {(s, t): dim}, plus (0, 0) for the hom-set cell
    fringe_set_size: int | None = None
    tower_level: int | None = None

    def dim(self, s, t):
        return self.entries.get((s, t), 0)


def suspension_target(Y: SpaceModel, t):
    """Sigma^t of the unreduced cohomology of Y, as a graded vector space."""
    basis = {t: ("u",)}
    for d, nm in Y.vs.items():
        basis.setdefault(d + t, ())
        basis[d + t] = basis[d + t] + (nm,)
    return GradedVS(Y.p, basis)


def suspension_has_trivial_action(Y: SpaceModel):
    return not any(Y.action.values())


def _chart_window(Y: SpaceModel, t_max, D):
    """A chart's target and truncation checks (see adams_chart); the degree it needs."""
    if t_max >= 1 and not suspension_has_trivial_action(Y):
        raise ChartError(
            f"a chart needs a trivially-acting suspension target for t >= 1; "
            f"{Y.name} has nontrivial operations"
        )
    d_needed = t_max + Y.top_degree()
    if D < d_needed:
        raise ChartError(
            f"truncation D={D} below the sufficiency bound t_max + top(H*Y) = {d_needed}"
        )
    return d_needed


def _chart_resolution(X: SpaceModel, s_max, d_needed, budget, resolution):
    """cotriple_resolution(X, s_max) to degree d_needed, or the caller's, of X to that depth.

    Chart rows 0..s_max read V[0..s_max + 1] and the faces of levels 0..s_max.
    """
    if resolution is None:
        return cotriple_resolution(X, s_max, d_needed, budget)
    if resolution.space is not X:
        raise ChartError(f"resolution is of {resolution.space.name}, not of {X.name}")
    if resolution.D < d_needed:
        raise ChartError(f"resolution stops at degree {resolution.D}, need {d_needed}")
    if resolution.s_max < s_max:
        raise ChartError(f"resolution holds {resolution.s_max + 1} levels, need {s_max + 1}")
    return resolution


def adams_chart(X: SpaceModel, Y: SpaceModel, s_max, t_max, D, budget=DEFAULT_BUDGET,
                resolution=None):
    """The unstable Adams E2 chart on the window, plus the (0,0) hom-set cell.

    Cell (s, t) is the sum over the degrees d of Sigma^t H*Y of
    dim (Sigma^t H*Y)_d . H^s of the degree-d normalized complex; each
    degree's complex is built, d.d-checked and ranked once per chart.  That
    sum needs a trivially-acting target, so a target with nontrivial
    operations is refused when t_max >= 1.  The hom-set is counted before
    the resolution is built: a size that is not a p-power (at odd p, an
    even sphere's class must square to 0) is refused at no cost.
    """
    d_needed = _chart_window(Y, t_max, D)
    count, r = hom_set_count(X, Y), 0
    while X.p ** r < count:
        r += 1
    if X.p ** r != count:
        raise ChartError(f"hom-set cardinality {count} of {X.name} -> {Y.name} at p = {X.p} "
                         "is not a p-power: these maps form a set, not an F_p-vector space "
                         "(y^2 = 0 is not a linear condition on y)")
    res = _chart_resolution(X, s_max, d_needed, budget, resolution)
    targets = [suspension_target(Y, t) for t in range(1, t_max + 1)]
    H = {d: res.der_cochain_complex(d, s_max + 1).cohomology_dims(s_max)
         for d in sorted({d for M in targets for d in M.degrees()})}
    entries = {}
    for t, M in enumerate(targets, 1):
        for s in range(0, s_max + 1):
            dim = sum(M.dim(d) * H[d][s] for d in M.degrees())
            if dim:
                entries[(s, t)] = dim
    entries[(0, 0)] = r
    return Chart(X.p, "adams", s_max, t_max, D, entries, fringe_set_size=count)


def hom_set_count(X: SpaceModel, Y: SpaceModel):
    """Cardinality of the set of unstable-algebra maps H*X -> H*Y, atom by atom.

    H*X is the tensor product of its atoms' algebras, the coproduct of
    unstable algebras, so a map is one map per atom and the count is a
    product over the atoms.  H*K(F_p, n) is free on its degree-n class, which
    may go to any y in H^n Y.  H*S^n has one class, with no nonzero letter or
    square, which may go to any y in H^n Y that every letter within D kills
    and, when 2n <= D, whose square is 0; D = min(X.D, Y.D), where both
    tables stop.  The point has no atom and contributes 1.
    """
    p, D, count = X.p, min(X.D, Y.D), 1
    for kind, n in X.atoms:
        names = Y.basis(n)
        if kind == "k":
            count *= p ** len(names)
            continue
        rows = {}  # (letter, class z) -> z-coordinates of its images of names: y is in their kernel
        for L in _table_letters(p, D):
            for j, x in enumerate(names if n + st.letter_degree(L, p) <= D else ()):
                for z, c in Y.act_letter(L, x).items():
                    rows.setdefault((L, z), [0] * len(names))[j] = c
        kernel = tower.kernel_basis(list(rows.values()) or [[0] * len(names)], p)
        if 2 * n > D:
            count *= p ** len(kernel)
            continue
        squares_zero = 0  # and, when 2n <= D, whose square is 0: one by one
        for coeffs in itertools.product(range(p), repeat=len(kernel)):
            y = {x: sum(c * v[j] for c, v in zip(coeffs, kernel)) % p for j, x in enumerate(names)}
            squares_zero += not Y.mul(y, y)
        count *= squares_zero
    return count


# ---------------------------------------------------------------------------
# chart emission
# ---------------------------------------------------------------------------

def chart_emit(chart: Chart, fmt):
    """Deterministic serialization: json, svg (x = t-s, y = s), or ascii."""
    if fmt == "json":
        return _chart_json(chart)
    if fmt == "svg":
        return _chart_svg(chart)
    if fmt == "ascii":
        return _chart_ascii(chart)
    raise ValueError(f"unknown chart format {fmt!r}")


def _chart_json(chart: Chart):
    doc = {
        "p": chart.p,
        "kind": chart.kind,
        "window": {"s_max": chart.s_max, "t_max": chart.t_max},
        "D": chart.D,
    }
    if chart.tower_level is not None:
        doc["tower_level"] = chart.tower_level
    entries = []
    for (s, t) in sorted(chart.entries):
        dim = chart.entries[(s, t)]
        if (s, t) == (0, 0):
            e = {"s": 0, "t": 0, "dim": dim, "fringe": True}
            if chart.fringe_set_size is not None:
                e["set_size"] = chart.fringe_set_size
            entries.append(e)
        elif dim:
            entries.append({"s": s, "t": t, "dim": dim})
    doc["entries"] = entries
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode()


def chart_from_json(data):
    doc = json.loads(data)
    entries = {}
    set_size = None
    try:
        for e in doc["entries"]:
            entries[(e["s"], e["t"])] = e["dim"]
            if e.get("fringe"):
                set_size = e.get("set_size")
        return Chart(
            doc["p"], doc["kind"], doc["window"]["s_max"], doc["window"]["t_max"],
            doc["D"], entries, fringe_set_size=set_size,
            tower_level=doc.get("tower_level"),
        )
    except KeyError as e:
        raise ChartError(f"chart JSON has no field {e.args[0]!r}") from None
    except TypeError as e:
        raise ChartError(f"malformed chart JSON: {e}") from None


def _chart_svg(chart: Chart):
    cell = 28
    pad = 40
    width = pad * 2 + cell * (chart.t_max + 1)
    height = pad * 2 + cell * (chart.s_max + 1)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for x in range(chart.t_max + 2):
        px = pad + x * cell
        lines.append(
            f'<line x1="{px}" y1="{pad}" x2="{px}" y2="{height - pad}" '
            f'stroke="#ddd" stroke-width="1"/>'
        )
    for y in range(chart.s_max + 2):
        py = pad + y * cell
        lines.append(
            f'<line x1="{pad}" y1="{py}" x2="{width - pad}" y2="{py}" '
            f'stroke="#ddd" stroke-width="1"/>'
        )
    for (s, t) in sorted(chart.entries):
        dim = chart.entries[(s, t)]
        if not dim:
            continue
        x = t - s
        if x < 0 or x > chart.t_max or s > chart.s_max:
            continue
        px = pad + x * cell + cell // 2
        py = height - pad - s * cell - cell // 2
        lines.append(f'<circle cx="{px}" cy="{py}" r="4" fill="black"/>')
        if dim > 1:
            lines.append(
                f'<text x="{px + 6}" y="{py - 6}" font-size="10" '
                f'font-family="monospace">{dim}</text>'
            )
    lines.append(
        f'<text x="{pad}" y="{height - 8}" font-size="11" font-family="monospace">'
        f"{chart.kind} p={chart.p} (x = t-s, y = s)</text>"
    )
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode()


def _chart_ascii(chart: Chart):
    rows = []
    header = "s\\(t-s) " + " ".join(f"{x:3d}" for x in range(0, chart.t_max + 1))
    rows.append(header)
    for s in range(chart.s_max, -1, -1):
        cells = []
        for x in range(0, chart.t_max + 1):
            dim = chart.entries.get((s, x + s), 0)
            cells.append(f"{dim:3d}" if dim else "  .")
        rows.append(f"{s:7d} " + " ".join(cells))
    return ("\n".join(rows) + "\n").encode()
