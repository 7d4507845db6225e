"""Arithmetic in a fixed chain of finite fields, plus exact mod-p linear algebra.

The chain is F_p = L1 < L2 < L3 < L4 with level k of degree k! over F_p,
so every level embeds in the next (k! divides (k+1)!).  The union of the
chain is a constructive stand-in for an algebraic closure: any element
algebraic of degree dividing 24 lives at some level.  A value in the chain
is a coordinate tuple at a named level, over the basis 1, x, ..., x^(k!-1)
of F_p[x]/(f), f read from a frozen table.  A level's multiplication and
frobenius matrix are its only polynomial arithmetic: they verify its table
entry (frobenius^n fixes x and only F_p is fixed, Berlekamp's criterion),
and they find each chain embedding, by a scan of the upper level's copy of
the lower field for a root of the lower polynomial, once per run, cached as
immutable tuples.  Frobenius and the embeddings act on coordinates as
matrices, and artin_schreier_solve takes a level and coordinates.

The descent facts about 1 - frobenius live here too, on one coordinate
block: its kernel and cokernel and the Artin-Schreier witness of each
cokernel row, computed once per (p, level) and cached, and the
inverse pair between the kernel and the base-field slot, checked on the
block.  Callers tile the block across their coordinates.

Every structure map and differential is a SparseMap ({row: coeff}
columns), composed by matmul_mod.  One column elimination, pivot_rows (on
bitsets at p = 2), ranks each map (rank) and each complex, with clearing,
from streamed columns (complex_ranks).  add_scaled (acc += c * vec mod p,
keeping only nonzero residues) is the one update rule for sparse vectors
({key: coeff} dicts): no other code adds one up mod p, be it a SparseMap
column, a module or algebra element or a product.  The only dense matrices
are the field-level blocks and embeddings, at most 24 x 24, kept as tuples
of row tuples; rref, kernels, cokernels and solves on them are plain Python
and accept any nested int sequence.  Nothing here needs numpy:
SparseMap.__array_function__ imports it only when numpy itself calls the
hook, so that count_nonzero on a map counts its stored entries.

Everything here is immutable after construction and safe to share.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys

MAX_LEVEL = 4

_FACTORIAL = [1, 1, 2, 6, 24]


class TowerExhausted(Exception):
    """A computation needed a field level beyond the configured chain."""


# ---------------------------------------------------------------------------
# exact linear algebra over F_p
# ---------------------------------------------------------------------------

def _dense(M, p):
    """The rows of an integer matrix as lists reduced mod p, and its column count.

    M is any nested int sequence; a matrix with no rows has no columns.
    """
    rows = [[int(c) % p for c in row] for row in M]
    return rows, len(rows[0]) if rows else 0


def rref(M, p):
    """Reduced row echelon form over F_p.

    Args:
        M: integer matrix (any values, reduced mod p internally).
        p: prime modulus.

    Returns:
        (R, pivot_cols): R is the RREF as a tuple of row tuples with entries
        in [0, p), pivot_cols the list of pivot column indices.
    """
    R, ncols = _dense(M, p)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(R)) if R[i][c]), None)
        if i is None:
            continue
        R[r], R[i] = R[i], R[r]
        inv = pow(R[r][c], p - 2, p)
        row = R[r] = [x * inv % p for x in R[r]]
        for k, other in enumerate(R):
            f = other[c]
            if f and k != r:
                R[k] = [(x - f * y) % p for x, y in zip(other, row)]
        pivots.append(c)
    return tuple(map(tuple, R)), pivots


def kernel_basis(M, p):
    """Basis of the right kernel of M over F_p, as a tuple of row tuples."""
    rows, ncols = _dense(M, p)
    R, pivots = rref(rows, p)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = -R[ri][fc] % p
        basis.append(tuple(v))
    return tuple(basis)


def solve(M, b, p):
    """One solution v of M v = b over F_p as a tuple, or None if inconsistent."""
    rows, ncols = _dense(M, p)
    R, pivots = rref([row + [x] for row, x in zip(rows, b)], p)
    if ncols in pivots:
        return None
    v = [0] * ncols
    for ri, pc in enumerate(pivots):
        v[pc] = R[ri][-1]
    return tuple(v)


def cokernel_basis(M, p):
    """Representatives of target/(column span of M), as a tuple of row tuples.

    The column space in reduced row echelon form has pivots at certain
    coordinates; the standard basis vectors at the non-pivot coordinates
    complete it, so one reduction suffices.
    """
    rows, _ = _dense(M, p)
    nt = len(rows)
    _, pivots = rref(list(zip(*rows)), p)
    return tuple(
        tuple(int(i == j) for i in range(nt)) for j in range(nt) if j not in pivots
    )


def _matvec(M, v, p):
    """M v over F_p, for M given by its rows."""
    return tuple(sum(a * x for a, x in zip(row, v)) % p for row in M)


# ---------------------------------------------------------------------------
# sparse maps over F_p: the structure maps and every differential
# ---------------------------------------------------------------------------

class SparseMap:
    """A linear map over F_p stored as sparse columns.

    cols[j] is the image of source basis element j as {row index: coeff},
    holding only nonzero coefficients reduced mod p.  A face map of a
    cotriple resolution holds None in a column no chart reads, and composing
    such a map raises.  `size` counts the entries and `nbytes` the memory of
    the held columns; numpy's count_nonzero is answered without densifying,
    and no other numpy function accepts the map.
    """

    def __init__(self, nrows, cols, p):
        self.shape = (nrows, len(cols))
        self.cols = cols
        self.p = p

    @property
    def size(self):
        return sum(len(col) for col in self.cols if col)

    @property
    def nbytes(self):
        return sys.getsizeof(self.cols) + sum(sys.getsizeof(c) for c in self.cols if c is not None)

    def __array_function__(self, func, types, args, kwargs):
        import numpy as np

        if func is np.count_nonzero and len(args) == 1 and not kwargs:
            return self.size
        return NotImplemented

    def columns(self, skip=()):
        """The columns in order, leaving out the indices in skip."""
        return (col for j, col in enumerate(self.cols) if j not in skip)

    def __matmul__(self, other):
        """The composite self . other."""
        return matmul_mod(self, other, self.p)

    def __eq__(self, other):
        return (isinstance(other, SparseMap) and self.shape == other.shape
                and self.cols == other.cols)


def add_scaled(acc, vec, c, p):
    """acc += c * vec over F_p, in place, for sparse vectors {key: coeff}.

    acc keeps only nonzero residues mod p: a key whose sum cancels is
    deleted, and a zero entry of vec is never inserted.
    """
    for k, x in vec.items():
        v = (acc.get(k, 0) + c * x) % p
        if v:
            acc[k] = v
        elif k in acc:
            del acc[k]


def matmul_mod(A, B, p):
    """The composite A . B of two SparseMaps over F_p, one column of B at a time."""
    out = []
    for col in B.cols:
        acc = {}
        for k, c in col.items():
            add_scaled(acc, A.cols[k], c, p)
        out.append(acc)
    return SparseMap(A.shape[0], out, p)


def pivot_rows(cols, p):
    """The pivot rows of a column elimination over F_p, one per unit of rank.

    Reads the {row: coeff} columns once, in order, from any iterable; each
    is reduced until its highest row is new, and that row is its pivot, so
    the pivot rows are the highest rows of the span.  Bitsets at p = 2.
    """
    pivots = {}  # highest row (at p = 2 its bit length) -> reduced column, scaled to 1 there
    if p == 2:
        for col in cols:
            v = sum(1 << r for r in col)
            while v:
                piv = pivots.get(v.bit_length())
                if piv is None:
                    pivots[v.bit_length()] = v
                    break
                v ^= piv
        return {b - 1 for b in pivots}
    for col in cols:
        v = dict(col)
        while v:
            r = max(v)
            piv = pivots.get(r)
            if piv is None:
                inv = pow(v[r], p - 2, p)
                pivots[r] = {k: c * inv % p for k, c in v.items()}
                break
            add_scaled(v, piv, -v[r], p)
    return set(pivots)


def rank(M, p):
    """Rank over F_p of a SparseMap; the highest-row pivot keeps fill-in down on cochain maps."""
    return gf2_rank(M) if p == 2 else len(pivot_rows(M.cols, p))


def gf2_rank(M):
    """Rank over GF(2) of a SparseMap: each column a Python int, pivoting on its highest set bit."""
    return len(pivot_rows(M.cols, 2))


def complex_ranks(maps, p):
    """Ranks of the maps d_0, d_1, ... of a complex over F_p, with clearing.

    maps[k](skip) yields the columns of d_k in order but those in skip, the
    pivot rows of d_(k-1).  As d_k d_(k-1) = 0, a pivot row i of d_(k-1)
    puts e_i + lower terms in the kernel of d_k, so column i of d_k adds no
    pivot (Chen and Kerber's twist).
    """
    ranks, skip = [], ()
    for columns in maps:
        skip = pivot_rows(columns(skip), p)
        ranks.append(len(skip))
    return ranks


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (coefficient tuples, ascending powers)
# ---------------------------------------------------------------------------

def _poly_table():
    table = {}
    with open(os.path.join(os.path.dirname(__file__), "data", "defining_polys.txt")) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [int(x) for x in line.split()]
            p, deg, coeffs = parts[0], parts[1], parts[2:]
            assert len(coeffs) == deg + 1 and coeffs[-1] == 1
            table[(p, deg)] = tuple(coeffs)
    return table


_POLY_TABLE = _poly_table()


# ---------------------------------------------------------------------------
# the tower itself
# ---------------------------------------------------------------------------

class FieldLevel:
    """One level of the chain: F_{p^{k!}} presented as F_p[x]/(f)."""

    def __init__(self, p, level):
        self.p = p
        self.level = level
        self.degree = _FACTORIAL[level]
        key = (p, self.degree)
        if key not in _POLY_TABLE:
            raise TowerExhausted(f"no defining polynomial for p={p}, degree={self.degree}")
        self.poly = _POLY_TABLE[key]
        # reduction rows: x^(degree+i) mod f for i = 0..degree-2
        n = self.degree
        red = []
        cur = [(-c) % p for c in self.poly[:-1]]  # x^n mod f
        red.append(list(cur))
        for _ in range(n - 2):
            nxt = [0] + cur[:-1]
            c = cur[-1]
            if c:
                for j in range(n):
                    nxt[j] = (nxt[j] - c * self.poly[j]) % p
            nxt = nxt[:n]
            red.append(list(nxt))
            cur = nxt
        self._reduction = red
        self.frobenius_matrix = self.power_frobenius_matrix(1)
        # the one coordinate block of 1 - frobenius, shared (tuples are immutable)
        self.one_minus_frobenius = tuple(
            tuple((int(i == j) - c) % p for j, c in enumerate(row))
            for i, row in enumerate(self.frobenius_matrix)
        )
        # f is irreducible exactly when frobenius^n fixes x (so F_p[x]/(f) is
        # reduced, a product of fields) and fixes only F_p (one field): Berlekamp
        x = v = tuple(int(i == 1) for i in range(n))
        for _ in range(n):
            v = _matvec(self.frobenius_matrix, v, p)
        fixed = kernel_basis(self.one_minus_frobenius, p)
        assert v == x and len(fixed) == 1, f"bad table entry {key}"

    def mul_coords(self, a, b):
        p, n = self.p, self.degree
        r = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    r[i + j] = (r[i + j] + ai * bj) % p
        out = list(r[:n])
        for i in range(n, 2 * n - 1):
            c = r[i]
            if c:
                row = self._reduction[i - n]
                for j in range(n):
                    out[j] = (out[j] + c * row[j]) % p
        return tuple(out)

    def pow_coords(self, a, e):
        result = (1,) + (0,) * (self.degree - 1)
        base = tuple(a)
        while e:
            if e & 1:
                result = self.mul_coords(result, base)
            base = self.mul_coords(base, base)
            e >>= 1
        return result

    def power_frobenius_matrix(self, k):
        """Matrix of x -> x^(p^k), as row tuples: column j is e_j^(p^k)."""
        n = self.degree
        units = (tuple(int(i == j) for i in range(n)) for j in range(n))
        return tuple(zip(*(self.pow_coords(e, self.p ** k) for e in units)))


class FieldTower:
    """The fixed chain F_p < F_{p^2} < F_{p^6} < F_{p^24} with cached embeddings."""

    def __init__(self, p):
        self.p = p
        self._levels = {}
        self._embed_step = {}  # k -> matrix for level k -> k+1
        self._embed_comp = {}  # (j, k) -> composite matrix

    def field(self, k):
        if k < 1 or k > MAX_LEVEL:
            raise TowerExhausted(f"level {k} outside chain (max {MAX_LEVEL})")
        if k not in self._levels:
            self._levels[k] = FieldLevel(self.p, k)
        return self._levels[k]

    # -- embeddings ---------------------------------------------------------

    def _embedding_step(self, k):
        """Matrix of the fixed embedding level k -> level k+1."""
        if k in self._embed_step:
            return self._embed_step[k]
        lo, hi = self.field(k), self.field(k + 1)
        dlo, dhi, p = lo.degree, hi.degree, self.p
        # the copy of F_{p^dlo} inside the upper field is the kernel of Frob^dlo - id
        F = hi.power_frobenius_matrix(dlo)
        K = kernel_basis([[c - (i == j) for j, c in enumerate(row)] for i, row in enumerate(F)], p)
        assert len(K) == dlo
        one = (1,) + (0,) * (dhi - 1)
        # scan that subfield (p^dlo elements, deterministic order) for a root of
        # lo.poly, evaluated by Horner in the upper level's coordinates
        for counters in itertools.product(range(p), repeat=dlo):
            root = [0] * dhi
            for i, c in enumerate(reversed(counters)):
                if c:
                    root = [(v + c * x) % p for v, x in zip(root, K[i])]
            acc = one  # lo.poly is monic
            for c in reversed(lo.poly[:-1]):
                acc = hi.mul_coords(acc, root)
                acc = ((acc[0] + c) % p,) + acc[1:]
            if not any(acc):
                break
        assert not any(acc), "defining polynomial has no root in the upper field"
        cols = [one]
        for _ in range(dlo - 1):
            cols.append(hi.mul_coords(cols[-1], root))
        M = tuple(zip(*cols))
        self._embed_step[k] = M
        return M

    def embedding_matrix(self, j, k):
        """Composite embedding matrix level j -> level k (j < k)."""
        key = (j, k)
        if key not in self._embed_comp:
            cols = zip(*self._embedding_step(j))
            for i in range(j + 1, k):
                cols = [_matvec(self._embedding_step(i), col, self.p) for col in cols]
            self._embed_comp[key] = tuple(zip(*cols))
        return self._embed_comp[key]

    def artin_schreier_solve(self, level, b):
        """Solve x - x^p = b, for b given by its coordinates at the given level.

        Returns (coords, k): a solution's coordinates at the lowest chain
        level k that holds one.  b is first rewritten at the lowest level
        that contains it, so k does not depend on the level b is given at.
        Raises TowerExhausted when no level of the chain works (the solution
        always exists in the union; the chain is finite).
        """
        p = self.p
        for j in range(1, level):
            v = solve(self.embedding_matrix(j, level), b, p)
            if v is not None:
                level, b = j, v
                break
        for k in range(level, MAX_LEVEL + 1):
            bk = b if k == level else _matvec(self.embedding_matrix(level, k), b, p)
            x = solve(self.field(k).one_minus_frobenius, bk, p)
            if x is not None:
                return x, k
        raise TowerExhausted(
            f"x - x^p = b has no solution at levels <= {MAX_LEVEL} (p={p})"
        )


@functools.lru_cache(maxsize=None)
def get_tower(p):
    return FieldTower(p)


# ---------------------------------------------------------------------------
# 1 - frobenius on one coordinate
# ---------------------------------------------------------------------------
#
# Coordinatewise 1 - frobenius on (F_{p^{k!}})^n is block-diagonal with n
# copies of one m x m block (m = k!), so its kernel, cokernel, witnesses and
# inverse pair are facts about that block and are worked out here, each
# once per (p, level); callers that need the n-coordinate rows tile the
# block rows across the coordinates.

@functools.lru_cache(maxsize=None)
def semilinear_kernel_cokernel(p, level):
    """Exact F_p kernel and cokernel bases of 1 - frobenius on one coordinate.

    Returns (kernel_rows, cokernel_rows): tuples of row tuples, each row a
    coordinate vector of the chain level over F_p.
    """
    M = get_tower(p).field(level).one_minus_frobenius
    return kernel_basis(M, p), cokernel_basis(M, p)


@functools.lru_cache(maxsize=None)
def cokernel_witnesses(p, level):
    """Artin-Schreier (level, coords) of each cokernel row, in row order.

    A row with no solution inside the chain gets (None, None).
    """
    tw = get_tower(p)
    out = []
    for row in semilinear_kernel_cokernel(p, level)[1]:
        try:
            x, lvl = tw.artin_schreier_solve(level, row)
            out.append((lvl, x))
        except TowerExhausted:
            out.append((None, None))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def base_slot_inverse_pair(p, level):
    """Whether the base-field slot and the kernel of 1 - frobenius are inverse.

    Solves for the base slot in the kernel rows and for each kernel row in
    the base slot; True when both solves succeed and both composites are
    identity matrices.
    """
    ker = semilinear_kernel_cokernel(p, level)[0]
    m = get_tower(p).field(level).degree
    base = (1,) + (0,) * (m - 1)
    there = solve([[row[i] for row in ker] for i in range(m)], base, p)
    back = [solve([(c,) for c in base], row, p) for row in ker]
    if there is None or None in back:
        return False
    r = len(ker)
    return sum(t * b for t, (b,) in zip(there, back)) % p == 1 and all(
        back[i][0] * there[j] % p == (i == j) for i in range(r) for j in range(r)
    )
