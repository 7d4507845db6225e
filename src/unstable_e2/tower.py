"""Arithmetic in a fixed chain of finite fields, plus exact mod-p linear algebra.

The chain is F_p = L1 < L2 < L3 < L4 with level k of degree k! over F_p,
so every level embeds in the next (k! divides (k+1)!).  The union of the
chain is a constructive stand-in for an algebraic closure: any element
algebraic of degree dividing 24 lives at some level.  Defining polynomials
are read from a frozen table; chain embeddings are constructed once per
run by locating a root of the lower polynomial inside the upper field and
are cached behind read-only handles.

The descent facts about 1 - frobenius live here too, on one coordinate
block: its kernel and cokernel and the Artin-Schreier witness of each
cokernel row, computed once per (p, level) and cached read-only, and the
inverse pair between the kernel and the base-field slot, checked on the
block.  Callers tile the block across their coordinates.

Every structure map and differential is a SparseMap ({row: coeff}
columns), composed by matmul_mod and ranked by rank: one column elimination
per prime, on Python-int bitsets at p = 2.  Dense rref, kernels and solves
serve the field-level blocks and the module windows.

Everything here is immutable after construction and safe to share.
"""

from __future__ import annotations

import functools
import sys
from importlib import resources

import numpy as np

MAX_LEVEL = 4

_FACTORIAL = [1, 1, 2, 6, 24]


class TowerExhausted(Exception):
    """A computation needed a field level beyond the configured chain."""


# ---------------------------------------------------------------------------
# exact linear algebra over F_p
# ---------------------------------------------------------------------------

def rref(M, p):
    """Reduced row echelon form over F_p.

    Args:
        M: integer matrix (any values, reduced mod p internally).
        p: prime modulus.

    Returns:
        (R, pivot_cols): R is the RREF (dtype int64, entries in [0, p)),
        pivot_cols the list of pivot column indices.
    """
    R = np.array(M, dtype=np.int64) % p
    nrows, ncols = R.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if len(nz) == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        inv = pow(int(R[r, c]), p - 2, p)
        R[r] = (R[r] * inv) % p
        others = np.nonzero(R[:, c])[0]
        others = others[others != r]
        if len(others):
            R[others] = (R[others] - np.outer(R[others, c], R[r])) % p
        pivots.append(c)
        r += 1
    return R, pivots


def kernel_basis(M, p):
    """Basis of the right kernel of M over F_p, as rows of a matrix."""
    M = np.asarray(M, dtype=np.int64) % p
    if M.ndim != 2:
        M = M.reshape(len(M), -1)
    ncols = M.shape[1]
    if ncols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    R, pivots = rref(M, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for bi, fc in enumerate(free):
        basis[bi, fc] = 1
        for ri, pc in enumerate(pivots):
            basis[bi, pc] = (-int(R[ri, fc])) % p
    return basis


def solve(M, b, p):
    """One solution v of M v = b over F_p, or None if inconsistent."""
    M = np.asarray(M, dtype=np.int64) % p
    b = np.asarray(b, dtype=np.int64) % p
    aug = np.concatenate([M, b.reshape(-1, 1)], axis=1)
    R, pivots = rref(aug, p)
    if M.shape[1] in pivots:
        return None
    v = np.zeros(M.shape[1], dtype=np.int64)
    for ri, pc in enumerate(pivots):
        v[pc] = R[ri, -1]
    return v


def cokernel_basis(M, p):
    """Representatives of target/(column span of M), as rows (coordinate vectors).

    The column space in reduced row echelon form has pivots at certain
    coordinates; the standard basis vectors at the non-pivot coordinates
    complete it, so one reduction suffices.
    """
    M = np.asarray(M, dtype=np.int64) % p
    nt = M.shape[0]
    _, pivots = rref(M.T % p, p)
    reps = []
    for j in range(nt):
        if j not in pivots:
            e = np.zeros(nt, dtype=np.int64)
            e[j] = 1
            reps.append(e)
    return np.array(reps, dtype=np.int64).reshape(len(reps), nt)


# ---------------------------------------------------------------------------
# sparse maps over F_p: the structure maps and every differential
# ---------------------------------------------------------------------------

class SparseMap:
    """A linear map over F_p stored as sparse columns.

    cols[j] is the image of source basis element j as {row index: coeff},
    holding only nonzero coefficients reduced mod p.  `size` counts the
    stored entries and `nbytes` the memory the columns hold; numpy's
    count_nonzero is answered without densifying, and no other numpy
    function accepts the map (toarray() gives the dense matrix).
    """

    def __init__(self, nrows, cols, p):
        self.shape = (nrows, len(cols))
        self.cols = cols
        self.p = p

    @classmethod
    def from_dense(cls, M, p):
        """The map of an integer matrix (any values, reduced mod p)."""
        M = np.array(M, dtype=np.int64) % p
        cols = [{} for _ in range(M.shape[1])]
        js, rs = np.nonzero(M.T)
        for j, r, c in zip(js.tolist(), rs.tolist(), M.T[js, rs].tolist()):
            cols[j][r] = c
        return cls(M.shape[0], cols, p)

    @property
    def size(self):
        return sum(len(col) for col in self.cols)

    @property
    def nbytes(self):
        return sys.getsizeof(self.cols) + sum(sys.getsizeof(col) for col in self.cols)

    def __array_function__(self, func, types, args, kwargs):
        if func is np.count_nonzero and len(args) == 1 and not kwargs:
            return self.size
        return NotImplemented

    def __matmul__(self, other):
        """The composite self . other."""
        return matmul_mod(self, other, self.p)

    def __eq__(self, other):
        return (isinstance(other, SparseMap) and self.shape == other.shape
                and self.cols == other.cols)

    def is_identity(self):
        return self.shape[0] == self.shape[1] and all(
            col == {j: 1} for j, col in enumerate(self.cols)
        )

    def toarray(self):
        M = np.zeros(self.shape, dtype=np.int64)
        for j, col in enumerate(self.cols):
            for r, c in col.items():
                M[r, j] = c
        return M


def matmul_mod(A, B, p):
    """The composite A . B of two SparseMaps over F_p, one column of B at a time."""
    out = []
    for col in B.cols:
        acc = {}
        for k, c in col.items():
            for r, c2 in A.cols[k].items():
                acc[r] = (acc.get(r, 0) + c * c2) % p
        out.append({r: c for r, c in acc.items() if c})
    return SparseMap(A.shape[0], out, p)


def rank(M, p):
    """Rank over F_p of a SparseMap or of an integer matrix (converted on entry).

    Column elimination with the pivot on each column's lowest row: bitsets
    at p = 2 (gf2_rank), {row: coeff} columns at odd p.
    """
    if not isinstance(M, SparseMap):
        M = SparseMap.from_dense(M, p)
    if p == 2:
        return gf2_rank(M)
    pivots = {}  # lowest row -> reduced column, scaled to 1 there
    for col in M.cols:
        v = dict(col)
        while v:
            r = min(v)
            piv = pivots.get(r)
            if piv is None:
                inv = pow(v[r], p - 2, p)
                pivots[r] = {k: c * inv % p for k, c in v.items()}
                break
            c = v[r]
            for k, pc in piv.items():
                x = (v.get(k, 0) - c * pc) % p
                if x:
                    v[k] = x
                else:
                    del v[k]
    return len(pivots)


def gf2_rank(M):
    """Rank over GF(2) of a SparseMap: each column a Python int, pivoting on its lowest set bit."""
    pivots = {}  # lowest set bit -> reduced column
    for col in M.cols:
        v = sum(1 << r for r in col)
        while v:
            piv = pivots.get(v & -v)
            if piv is None:
                pivots[v & -v] = v
                break
            v ^= piv
    return len(pivots)


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (coefficient tuples, ascending powers)
# ---------------------------------------------------------------------------

def _poly_table():
    text = resources.files("unstable_e2.data").joinpath("defining_polys.txt").read_text()
    table = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [int(x) for x in line.split()]
        p, deg, coeffs = parts[0], parts[1], parts[2:]
        assert len(coeffs) == deg + 1 and coeffs[-1] == 1
        table[(p, deg)] = tuple(coeffs)
    return table


_POLY_TABLE = _poly_table()


def _is_irreducible(f, p):
    n = len(f) - 1
    if n == 1:
        return True

    def mul(a, b):
        r = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    r[i + j] = (r[i + j] + ai * bj) % p
        for i in range(len(r) - 1, n - 1, -1):
            c = r[i]
            if c:
                r[i] = 0
                for j in range(n):
                    r[i - n + j] = (r[i - n + j] - c * f[j]) % p
        r = r[:n]
        return r + [0] * (n - len(r))

    def pow_x(e):
        result = [1] + [0] * (n - 1)
        base = [0, 1] + [0] * (n - 2)
        while e:
            if e & 1:
                result = mul(result, base)
            base = mul(base, base)
            e >>= 1
        return result

    def norm(x):
        x = list(x)
        while x and x[-1] == 0:
            x.pop()
        return x

    def gcd(a, b):
        a, b = norm(a), norm(b)
        while b:
            inv = pow(b[-1], p - 2, p)
            while len(a) >= len(b) and a:
                c = (a[-1] * inv) % p
                s = len(a) - len(b)
                for j in range(len(b)):
                    a[s + j] = (a[s + j] - c * b[j]) % p
                a = norm(a)
            a, b = b, a
        return a

    xx = [0, 1] + [0] * (n - 2)
    if pow_x(p ** n) != xx:
        return False
    m, qs, d = n, set(), 2
    while d * d <= m:
        while m % d == 0:
            qs.add(d)
            m //= d
        d += 1
    if m > 1:
        qs.add(m)
    for q in qs:
        e = pow_x(p ** (n // q))
        diff = [(e[i] - (1 if i == 1 else 0)) % p for i in range(n)]
        if len(gcd(diff, list(f))) > 1:
            return False
    return True


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
        assert _is_irreducible(list(self.poly), p), f"bad table entry {key}"
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
        self.frobenius_matrix = self._frobenius_matrix()
        # the one coordinate block of 1 - frobenius, shared read-only
        self.one_minus_frobenius = (np.eye(n, dtype=np.int64) - self.frobenius_matrix) % p
        self.one_minus_frobenius.setflags(write=False)

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

    def _frobenius_matrix(self):
        n = self.degree
        cols = []
        for j in range(n):
            e = [0] * n
            e[j] = 1
            cols.append(self.pow_coords(tuple(e), self.p))
        return np.array(cols, dtype=np.int64).T % self.p


class TowerElem:
    """Element of one level of the chain; immutable."""

    __slots__ = ("tower", "level", "coords")

    def __init__(self, tower, level, coords):
        self.tower = tower
        self.level = level
        self.coords = tuple(int(c) % tower.p for c in coords)

    def _lift(self, other):
        if not isinstance(other, TowerElem):
            other = self.tower.scalar(other)
        if other.level == self.level:
            return self, other
        k = max(self.level, other.level)
        return self.tower.embed(self, k), self.tower.embed(other, k)

    def __add__(self, other):
        a, b = self._lift(other)
        p = self.tower.p
        return TowerElem(self.tower, a.level, tuple((x + y) % p for x, y in zip(a.coords, b.coords)))

    def __sub__(self, other):
        a, b = self._lift(other)
        p = self.tower.p
        return TowerElem(self.tower, a.level, tuple((x - y) % p for x, y in zip(a.coords, b.coords)))

    def __neg__(self):
        p = self.tower.p
        return TowerElem(self.tower, self.level, tuple((-x) % p for x in self.coords))

    def __mul__(self, other):
        a, b = self._lift(other)
        fl = self.tower.field(a.level)
        return TowerElem(self.tower, a.level, fl.mul_coords(a.coords, b.coords))

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, e):
        fl = self.tower.field(self.level)
        return TowerElem(self.tower, self.level, fl.pow_coords(self.coords, e))

    def __eq__(self, other):
        if not isinstance(other, TowerElem):
            other = self.tower.scalar(other)
        a, b = self._lift(other)
        return a.coords == b.coords

    def __hash__(self):
        x = self.tower.reduce_to_minimal_level(self)
        return hash((x.level, x.coords))

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def __repr__(self):
        return f"TowerElem(p={self.tower.p}, level={self.level}, {self.coords})"


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

    def zero(self, level=1):
        return TowerElem(self, level, (0,) * self.field(level).degree)

    def one(self, level=1):
        return TowerElem(self, level, (1,) + (0,) * (self.field(level).degree - 1))

    def scalar(self, c, level=1):
        return TowerElem(self, level, (int(c),) + (0,) * (self.field(level).degree - 1))

    def gen(self, level):
        """The class of x at the given level (a root of that level's polynomial)."""
        fl = self.field(level)
        coords = [0] * fl.degree
        if fl.degree == 1:
            # f = x, so the generator is 0; level 1 is plain F_p
            return TowerElem(self, level, coords)
        coords[1] = 1
        return TowerElem(self, level, coords)

    def elements(self, level):
        """Deterministic enumeration of the whole level (small levels only)."""
        fl = self.field(level)
        if self.p ** fl.degree > 1 << 20:
            raise ValueError("level too large to enumerate")
        idx = [0] * fl.degree
        while True:
            yield TowerElem(self, level, tuple(idx))
            i = 0
            while i < fl.degree:
                idx[i] += 1
                if idx[i] < self.p:
                    break
                idx[i] = 0
                i += 1
            if i == fl.degree:
                return

    # -- embeddings ---------------------------------------------------------

    def _embedding_step(self, k):
        """Matrix of the fixed embedding level k -> level k+1."""
        if k in self._embed_step:
            return self._embed_step[k]
        lo, hi = self.field(k), self.field(k + 1)
        dlo, dhi = lo.degree, hi.degree
        if dlo == 1:
            M = np.zeros((dhi, 1), dtype=np.int64)
            M[0, 0] = 1
            self._embed_step[k] = M
            return M
        # the copy of F_{p^dlo} inside the upper field is the kernel of Frob^dlo - id
        F = np.linalg.matrix_power(hi.frobenius_matrix, dlo) % self.p
        K = kernel_basis((F - np.eye(dhi, dtype=np.int64)) % self.p, self.p)
        assert K.shape[0] == dlo
        # scan that subfield (p^dlo elements, deterministic order) for a root of lo.poly
        root = None
        counters = [0] * dlo
        while True:
            vec = np.zeros(dhi, dtype=np.int64)
            for i, c in enumerate(counters):
                if c:
                    vec = (vec + c * K[i]) % self.p
            cand = TowerElem(self, k + 1, tuple(vec))
            acc = self.zero(k + 1)
            pw = self.one(k + 1)
            for c in lo.poly:
                if c:
                    acc = acc + self.scalar(c, k + 1) * pw
                pw = pw * cand
            if acc.is_zero():
                root = cand
                break
            i = 0
            while i < dlo:
                counters[i] += 1
                if counters[i] < self.p:
                    break
                counters[i] = 0
                i += 1
            if i == dlo:
                break
        assert root is not None, "defining polynomial has no root in the upper field"
        cols = []
        pw = self.one(k + 1)
        for _ in range(dlo):
            cols.append(pw.coords)
            pw = pw * root
        M = np.array(cols, dtype=np.int64).T % self.p
        self._embed_step[k] = M
        return M

    def embedding_matrix(self, j, k):
        """Composite embedding matrix level j -> level k (j <= k)."""
        if j == k:
            return np.eye(self.field(j).degree, dtype=np.int64)
        key = (j, k)
        if key not in self._embed_comp:
            M = self._embedding_step(j)
            for i in range(j + 1, k):
                M = (self._embedding_step(i) @ M) % self.p
            self._embed_comp[key] = M
        return self._embed_comp[key]

    def embed(self, x, k):
        if x.level == k:
            return x
        if x.level > k:
            y = self.reduce_to_minimal_level(x)
            if y.level > k:
                raise ValueError(f"element of level {x.level} does not lie in level {k}")
            return self.embed(y, k)
        M = self.embedding_matrix(x.level, k)
        coords = (M @ np.array(x.coords, dtype=np.int64)) % self.p
        return TowerElem(self, k, tuple(int(c) for c in coords))

    def reduce_to_minimal_level(self, x):
        """Rewrite x at the smallest chain level containing it."""
        for j in range(1, x.level):
            M = self.embedding_matrix(j, x.level)
            v = solve(M, np.array(x.coords, dtype=np.int64), self.p)
            if v is not None:
                return TowerElem(self, j, tuple(int(c) for c in v))
        return x

    # -- the named operations ------------------------------------------------

    def frobenius(self, x):
        """x -> x^p at the same level."""
        fl = self.field(x.level)
        coords = (fl.frobenius_matrix @ np.array(x.coords, dtype=np.int64)) % self.p
        return TowerElem(self, x.level, tuple(int(c) for c in coords))

    def artin_schreier_solve(self, b):
        """Solve x - x^p = b at the minimal chain level that contains a solution.

        Raises TowerExhausted when no level of the chain works (the solution
        always exists in the union; the chain is finite).
        """
        b = self.reduce_to_minimal_level(b)
        for k in range(b.level, MAX_LEVEL + 1):
            fl = self.field(k)
            bk = self.embed(b, k)
            v = solve(fl.one_minus_frobenius, np.array(bk.coords, dtype=np.int64), self.p)
            if v is not None:
                return TowerElem(self, k, tuple(int(c) for c in v)), k
        raise TowerExhausted(
            f"x - x^p = b has no solution at levels <= {MAX_LEVEL} (p={self.p})"
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
# inverse pair are facts about that block and are worked out here, the first
# three once per (p, level); callers that need the n-coordinate matrices
# tile the block with np.kron(np.eye(n), block).

def _read_only(a):
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=None)
def semilinear_kernel_cokernel(p, level):
    """Exact F_p kernel and cokernel bases of 1 - frobenius on one coordinate.

    Returns read-only (kernel_rows, cokernel_rows): integer matrices whose
    rows are coordinate vectors of the chain level over F_p.
    """
    M = get_tower(p).field(level).one_minus_frobenius
    return _read_only(kernel_basis(M, p)), _read_only(cokernel_basis(M, p))


@functools.lru_cache(maxsize=None)
def cokernel_witnesses(p, level):
    """Artin-Schreier (level, coords) of each cokernel row, in row order.

    A row with no solution inside the chain gets (None, None).
    """
    tw = get_tower(p)
    out = []
    for row in semilinear_kernel_cokernel(p, level)[1]:
        try:
            x, lvl = tw.artin_schreier_solve(TowerElem(tw, level, row))
            out.append((lvl, x.coords))
        except TowerExhausted:
            out.append((None, None))
    return tuple(out)


def base_slot_inverse_pair(p, level):
    """Whether the base-field slot and the kernel of 1 - frobenius are inverse.

    Solves for the base slot in the kernel rows and for each kernel row in
    the base slot; True when both solves succeed and both composites are
    identity matrices.
    """
    ker = semilinear_kernel_cokernel(p, level)[0]
    base = np.zeros(ker.shape[1], dtype=np.int64)
    base[0] = 1
    there = solve(ker.T, base, p)
    back = [solve(base.reshape(-1, 1), row, p) for row in ker]
    if there is None or any(b is None for b in back):
        return False
    there, back = there.reshape(1, -1), np.array(back, dtype=np.int64)
    return np.array_equal((there @ back) % p, np.eye(1, dtype=np.int64)) and np.array_equal(
        (back @ there) % p, np.eye(len(ker), dtype=np.int64)
    )
