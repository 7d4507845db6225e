"""Independent oracles used to freeze expected values.

Everything here recomputes from first principles, staying off the code
paths it checks: raw sequence enumeration instead of structured DFS,
generating-function coefficient extraction instead of monomial bases, a
standalone 16-element field instead of the chain, the unstable Lambda
algebra instead of the cotriple resolution, the common kernel of the
codegeneracies, by dense elimination, instead of the degenerate generators
read off the monomials, and the two-term resolution's cochains, assembled
and ranked densely, instead of the two-term descent complex, and the
resolution's faces extended through the algebra on every monomial instead
of relabelled on the degenerate ones, and its degeneracies extended through
the algebra instead of read off the monomial keys (the simplicial
identities and the extra degeneracy are checked on these), the trace
rule instead of Artin-Schreier solves for the death levels, and a search
over generator assignments instead of the atom-by-atom hom-set count.  The
dense adapters (``dense``, ``sparse``) let tests write maps as numpy
literals, and ``boundary_matrix`` holds a bar boundary whole, as the engine
never does.
"""

import functools
import itertools
import math

import numpy as np

from unstable_e2 import tower
from unstable_e2.unstable_algebras import FreeUnstableAlgebra, extend_algebra_map


def dense(S):
    """The int64 matrix of a tower.SparseMap."""
    M = np.zeros(S.shape, dtype=np.int64)
    for j, col in enumerate(S.cols):
        for r, c in col.items():
            M[r, j] = c
    return M


def sparse(M, p):
    """The tower.SparseMap of an integer matrix (any values, reduced mod p)."""
    M = np.asarray(M, dtype=np.int64) % p
    cols = [{int(r): int(M[r, j]) for r in np.flatnonzero(M[:, j])} for j in range(M.shape[1])]
    return tower.SparseMap(M.shape[0], cols, p)


def boundary_matrix(bw, s, d):
    """A BarWindow's boundary from level s to s - 1 in degree d: (SparseMap, source, target)."""
    src, tgt = bw.bar_basis(s, d), bw.bar_basis(s - 1, d)
    return tower.SparseMap(len(tgt), list(bw.boundary_columns(s, d)), bw.p), src, tgt


def is_identity(S):
    """Whether a tower.SparseMap is the identity map."""
    return S.shape[0] == S.shape[1] and all(col == {j: 1} for j, col in enumerate(S.cols))


def gen_vector(A, name):
    """The generator `name` of a FreeUnstableAlgebra, as a dict-vector."""
    return {((A.pg_index[((), name)], 1),): 1}


def brute_force_admissible(p, word_deg, excess_cap):
    """Admissible flavor-A words by filtering all raw compositions (p=2 only).

    Compositions of word_deg come from subsets of cut points, so the search
    is exhaustive over 2^(word_deg - 1) candidates.
    """
    assert p == 2
    if word_deg == 0:
        return [()]
    out = []
    for cuts in itertools.product((0, 1), repeat=word_deg - 1):
        comp = []
        part = 1
        for c in cuts:
            if c:
                comp.append(part)
                part = 1
            else:
                part += 1
        comp.append(part)
        if any(comp[i] < 2 * comp[i + 1] for i in range(len(comp) - 1)):
            continue
        if comp[0] - sum(comp[1:]) > excess_cap:
            continue
        out.append(tuple((0, s) for s in comp))
    return sorted(out)


def brute_force_admissible_b(p, word_deg, excess_cap, length_cap, index_floor):
    """Admissible flavor-B words by filtering every word of length <= L.

    Indices run over [-K, max(word_deg + excess_cap, 0)]: excess <= cap bounds
    the first index by that, and admissibility bounds every later index by
    the first.  Degree, admissibility and excess are computed here from
    their definitions.
    """
    top = max(word_deg + excess_cap, 0)
    letters = [(e, s) for e in ((0,) if p == 2 else (0, 1)) for s in range(-index_floor, top + 1)]

    def deg(letter):
        e, s = letter
        return s if p == 2 else 2 * (p - 1) * s + e

    out = []
    for n in range(length_cap + 1):
        for w in itertools.product(letters, repeat=n):
            if sum(map(deg, w)) != word_deg:
                continue
            if any(w[i][1] < p * w[i + 1][1] + w[i + 1][0] for i in range(n - 1)):
                continue
            if w:
                e1, s1 = w[0]
                lead = s1 if p == 2 else 2 * s1 + e1
                if lead - (word_deg - deg(w[0])) > excess_cap:
                    continue
            out.append(w)
    return sorted(out)


def _adem_relation(first, second, p):
    """The classical Adem relation on an inadmissible pair of letters.

    beta^e1 P^a . beta^e2 P^b with a < p b + e2, as a list of (letters, coeff)
    with letters (eps, s) that may hold an index 0 (normalized by the caller).
    """
    (e1, a), (e2, b) = first, second
    out = []
    for t in range(a // p + 1):
        if p == 2:
            out.append((((0, a + b - t), (0, t)), math.comb(b - t - 1, a - 2 * t)))
            continue
        sign = -1 if (a + t) % 2 else 1
        if e2 == 0:
            out.append((((e1, a + b - t), (0, t)), sign * math.comb((p - 1) * (b - t) - 1, a - p * t)))
            continue
        if e1 == 0:
            out.append((((1, a + b - t), (0, t)), sign * math.comb((p - 1) * (b - t), a - p * t)))
        if a - p * t >= 1:
            out.append((((e1, a + b - t), (1, t)), -sign * math.comb((p - 1) * (b - t) - 1, a - p * t - 1)))
    return [(letters, c % p) for letters, c in out if c % p]


def _normalize(word):
    """Drop P^0, merge a bare Bockstein into the next letter; None when beta beta = 0."""
    out = []
    for eps, s in word:
        if (eps, s) == (0, 0):
            continue
        if out and out[-1] == (1, 0):
            if eps:
                return None
            out[-1] = (1, s)
        else:
            out.append((eps, s))
    return tuple(out)


def leftmost_adem_rewrite(word, p):
    """Admissible form of a normalized classical word, as {word: coeff mod p}.

    Applies the Adem relation at the leftmost inadmissible pair and recurses,
    with no memo: the plain order that a memoized rewrite must agree with.
    """
    for i in range(len(word) - 1):
        (_, a), (e2, b) = word[i], word[i + 1]
        if a < p * b + e2:
            out = {}
            for letters, c in _adem_relation(word[i], word[i + 1], p):
                new = _normalize(word[:i] + letters + word[i + 2 :])
                if new is None:
                    continue
                for w, c2 in leftmost_adem_rewrite(new, p).items():
                    out[w] = (out.get(w, 0) + c * c2) % p
            return {w: c for w, c in out.items() if c}
    return {word: 1}


def trace_rule_death_level(p, level, top_level):
    """Chain level at which a cokernel class of 1 - frobenius at ``level`` dies.

    Level k of the chain is F_(p^(k!)).  By additive Hilbert 90, b in
    F_(p^m) is x - x^p for some x in F_(p^m) exactly when Tr(b) = 0, and for
    b in F_(p^n) that trace is (m/n) Tr_n(b).  A cokernel class of level L
    has Tr_(L!)(b) != 0, so it dies at the first k > L with p | k!/L!, or at
    no level up to ``top_level`` (None).
    """
    for k in range(level + 1, top_level + 1):
        if math.factorial(k) // math.factorial(level) % p == 0:
            return k
    return None


def partition_count_dims(gen_degrees, D):
    """Graded dimensions of a polynomial algebra via generating functions."""
    coeffs = [0] * (D + 1)
    coeffs[0] = 1
    for d in gen_degrees:
        new = list(coeffs)
        for e in range(d, D + 1):
            # multiply by 1/(1 - x^d): c_new[e] += c_new[e - d]
            new[e] += new[e - d]
        coeffs = new
    return tuple(coeffs)


class F16:
    """F_16 as F_2[u]/(u^4 + u + 1); elements are ints 0..15 (bit i = u^i)."""

    @staticmethod
    def mul(a, b):
        r = 0
        for i in range(4):
            if (b >> i) & 1:
                r ^= a << i
        for i in (7, 6, 5, 4):
            if (r >> i) & 1:
                r ^= (0b10011 << (i - 4))
        return r & 0xF

    @classmethod
    def sq(cls, a):
        return cls.mul(a, a)

    @classmethod
    def artin_schreier_solutions(cls, b):
        return [x for x in range(16) if (x ^ cls.sq(x)) == b]

    @classmethod
    def f4_subfield(cls):
        # the elements fixed by double frobenius
        return sorted(x for x in range(16) if cls.sq(cls.sq(x)) == x)


# ---------------------------------------------------------------------------
# the unstable Lambda algebra at p = 2
# ---------------------------------------------------------------------------
#
# Bousfield, Curtis, Kan, Quillen, Rector and Schlesinger, Topology 5 (1966).
# A word is a tuple of indices (i1, ..., is), standing for l_i1 ... l_is; it
# is admissible when i_(j+1) <= 2 i_j.  Admissible words are a basis, and
#     l_i l_(2i+1+n) = sum_(j>=0) C(n-j-1, j) l_(i+n-j) l_(2i+1+j)
# rewrites every other word.  The differential is the derivation with
#     d l_n = sum_(j>=1) C(n-j, j) l_(n-j) l_(j-1).
# Lambda(n), spanned by the admissible words whose first index is < n, is a
# subcomplex, and dim H^s(Lambda(n)) at index sum t - s - n is the unstable
# Adams E2^(s,t) of S^n.  Vectors are sets of words (coefficients mod 2).

def _binom2(m, j):
    return math.comb(m, j) % 2 if 0 <= j <= m else 0


@functools.lru_cache(maxsize=None)
def lambda_admissible(word):
    """The admissible expansion of a word, as a frozenset of admissible words."""
    for k in range(len(word) - 1):
        i, b = word[k], word[k + 1]
        if b > 2 * i:
            n = b - 2 * i - 1
            out = set()
            for j in range(n):
                if _binom2(n - j - 1, j):
                    out ^= lambda_admissible(word[:k] + (i + n - j, 2 * i + 1 + j) + word[k + 2 :])
            return frozenset(out)
    return frozenset((word,))


def lambda_d(vector):
    """The differential of a set of admissible words, in admissible form."""
    out = set()
    for word in vector:
        for k, n in enumerate(word):
            for j in range(1, n + 1):
                if _binom2(n - j, j):
                    out ^= lambda_admissible(word[:k] + (n - j, j - 1) + word[k + 1 :])
    return out


def lambda_words(n, s, k):
    """Admissible words of length s and index sum k with first index < n."""
    out = []

    def rec(word, left, bound):
        if len(word) == s:
            if left == 0:
                out.append(word)
            return
        for i in range(0, min(bound, left) + 1):
            rec(word + (i,), left - i, 2 * i)

    rec((), k, n - 1)
    return out


def _gf2_rank(rows):
    """Rank of 0/1 row vectors given as ints (xor basis with distinct top bits)."""
    basis = []
    for v in rows:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


def _lambda_d_rank(n, s, k):
    """Rank of d from Lambda(n) at (length s, index sum k) to (s + 1, k - 1)."""
    if k < 0:
        return 0
    index = {w: i for i, w in enumerate(lambda_words(n, s + 1, k - 1))}
    rows = []
    for w in lambda_words(n, s, k):
        image = lambda_d({w})
        # a word outside Lambda(n) raises: the subcomplex property is checked too
        rows.append(sum(1 << index[v] for v in image))
    return _gf2_rank(rows)


def lambda_cohomology(n, s, k):
    """dim H^s(Lambda(n)) at index sum k."""
    if k < 0:
        return 0
    return (len(lambda_words(n, s, k)) - _lambda_d_rank(n, s, k)
            - (_lambda_d_rank(n, s - 1, k + 1) if s else 0))


def lambda_chart(n, target_dims, s_max, t_max):
    """Cells (s, t) of maps from S^n into Y, for a target with trivial action.

    target_dims maps each degree d of the unreduced cohomology of Y to its
    dimension; the cell is sum_d dim H^d(Y) dim H^s(Lambda(n)) at index sum
    t + d - s - n.  Zero cells are left out.
    """
    out = {}
    for s in range(s_max + 1):
        for t in range(t_max + 1):
            dim = sum(m * lambda_cohomology(n, s, t + d - s - n) for d, m in target_dims.items())
            if dim:
                out[(s, t)] = dim
    return out


def summed_lambda_chart(factors, target_dims, s_max, t_max):
    """The cells of a product source's chart that the Massey-Peterson sum rule fixes.

    factors names the two factors, "S<n>" or "K<n>" (p = 2).  H*(S^a x S^b)
    is U(Sigma^a F_2 + Sigma^b F_2), with U the free unstable algebra functor,
    so its E2 is Ext over unstable modules of that sum; H*K_n is U of a free
    unstable module, whose Ext vanishes for s >= 1.  For t >= 1 the cell is
    the sum over the sphere factors of lambda_chart, and with a K factor only
    the cells with s >= 1 are fixed.  Returns every fixed cell, zeros included.
    """
    spheres = [int(f[1:]) for f in factors if f[0] == "S"]
    s_min = 0 if len(spheres) == len(factors) else 1
    out = {(s, t): 0 for s in range(s_min, s_max + 1) for t in range(1, t_max + 1)}
    for n in spheres:
        for cell, dim in lambda_chart(n, target_dims, s_max, t_max).items():
            if cell in out:
                out[cell] += dim
    return out


# ---------------------------------------------------------------------------
# the faces and degeneracies of a cotriple resolution, extended on every monomial
# ---------------------------------------------------------------------------
#
# A resolution keeps only the nondegenerate monomials of its top level,
# V[s_max + 1], so a map into that level is incomplete there.  The maps below
# stop one level short of it: the faces run through level s_max (the top
# faces on the columns V[s_max + 1] holds), the degeneracies and the extra
# degeneracy into level s_max.  A check that needs level s complete builds a
# resolution one level deeper.

def _images_to_map(res, images, level_to, level_from):
    """Dict {source monomial: target vector} as a SparseMap on the V bases of res."""
    rows, p = res._vidx[level_to], res.p
    cols = [
        {rows[key]: c % p for key, c in images[m].items() if c % p}
        for _, m in res.V[level_from]
    ]
    return tower.SparseMap(len(res.V[level_to]), cols, p)


def full_faces(res):
    """The faces of a cotriple resolution, every column extended through the algebra.

    Face 0 of level s evaluates the generators of level s in level s - 1
    (in the base algebra at s = 0); face i >= 1 extends face i - 1 of level
    s - 1, as built here, multiplicatively.  No degeneracy is used.
    Returns SparseMaps indexed like res.face_full.
    """
    faces = []
    for s in range(res.s_max + 1):
        maps = []
        for i in range(s + 1):
            if i == 0:
                target = res.space if s == 0 else res.levels[s - 1]
                gen_images = {key: {key: 1} for _, key in res.V[s]}
            else:
                target = res.levels[s - 1]
                gen_images = {
                    key: res._gen_vec(faces[s - 1][i - 1].cols[j], s - 1)
                    for j, (_, key) in enumerate(res.V[s])
                }
            images = extend_algebra_map(res.levels[s], target, gen_images,
                                        [m for _, m in res.V[s + 1]])
            maps.append(_images_to_map(res, images, s, s + 1))
        faces.append(maps)
    return faces


def completed_faces(res):
    """res.face_full with each column it does not hold (None) taken from full_faces(res).

    A resolution holds only the face columns a chart reads; a check that
    composes faces needs them all.  Held columns are the resolution's own
    dicts, so a corrupted one stays corrupted here.
    """
    return [
        [tower.SparseMap(F.shape[0], [col if col is not None else ref
                                      for col, ref in zip(F.cols, full.cols)], res.p)
         for F, full in zip(maps, full_maps)]
        for maps, full_maps in zip(res.face_full, full_faces(res))
    ]


def full_degeneracies(res):
    """The degeneracies of a cotriple resolution, extended through the algebra.

    degen[s][j], s < s_max - 1, maps level s + 1 to level s + 2 on monomial bases: it
    extends, multiplicatively, the insertion g -> [g] on the generators of
    level s for j = 0, and degen[s - 1][j - 1], as built here, for j >= 1.
    res.G is not used.  Returns SparseMaps indexed like res.degen_full.
    """
    degen = []
    for s in range(res.s_max - 1):
        maps = []
        for j in range(s + 1):
            cols = degen[s - 1][j - 1].cols if j else [
                {res._insertion_index(s, key): 1} for _, key in res.V[s]
            ]
            gen_images = {
                key: res._gen_vec(col, s + 1) for (_, key), col in zip(res.V[s], cols)
            }
            images = extend_algebra_map(res.levels[s], res.levels[s + 1], gen_images)
            maps.append(_images_to_map(res, images, s + 2, s + 1))
        degen.append(maps)
    return degen


def simplicial_identity_violations(res):
    """Every failed identity d_i d_j = d_{j-1} d_i (i < j) etc., as sparse map equalities.

    Reads completed_faces(res) and full_degeneracies(res), composes with
    ``@`` and compares with ``==`` or ``is_identity``.  Returns one
    (kind, s, i, j) per failure: "dd", "ss", "ds-id", "ds" or "sd".
    """
    face, degen = completed_faces(res), full_degeneracies(res)
    bad = []
    for s in range(1, res.s_max + 1):
        for j in range(0, s + 1):
            for i in range(0, j):
                if face[s - 1][i] @ face[s][j] != face[s - 1][j - 1] @ face[s][i]:
                    bad.append(("dd", s, i, j))
    for s in range(0, res.s_max - 2):
        for j in range(0, s + 1):
            for i in range(0, j + 1):
                if degen[s + 1][j + 1] @ degen[s][i] != degen[s + 1][i] @ degen[s][j]:
                    bad.append(("ss", s, i, j))
    for s in range(0, res.s_max - 1):
        for j in range(0, s + 1):
            for i in range(0, s + 2):
                comp = face[s + 1][i] @ degen[s][j]
                if i == j or i == j + 1:
                    if not is_identity(comp):
                        bad.append(("ds-id", s, i, j))
                elif i < j:
                    if comp != degen[s - 1][j - 1] @ face[s][i]:
                        bad.append(("ds", s, i, j))
                elif comp != degen[s - 1][j] @ face[s][i - 1]:
                    bad.append(("sd", s, i, j))
    return bad


def extra_degeneracy(res):
    """Contracting homotopy of a resolution whose base cohomology is itself free.

    Returns SparseMaps h[s], s < s_max: level s-1 -> level s on monomial
    bases (with h[0]: the base algebra -> level 0), which should satisfy d_last h = id
    and d_i h = h d_i for i < last; only defined for free base cohomology,
    that of K<n> or a product of two, whose classes catalog_factorization
    writes as monomials in the generator classes.
    """
    space = res.space
    if not space.atoms or any(kind != "k" for kind, _ in space.atoms):
        raise ValueError("extra degeneracy needs a free base cohomology")
    factors = catalog_factorization(space)
    # h0: base -> level 0, generator g -> [g], extended multiplicatively
    lvl0 = res.levels[0]
    images = {}
    for d, nm in res.V[0]:
        vec = {(): 1}
        for g, e in factors[nm]:
            gv = {((lvl0.pg_index[((), g)], 1),): 1}
            for _ in range(e):
                vec = lvl0.mul(vec, gv)
        images[nm] = vec
    h = [_images_to_map(res, images, 1, 0)]
    for s in range(0, res.s_max - 1):
        gen_images = {
            key: res._gen_vec(h[s].cols[j], s + 1)
            for j, (_, key) in enumerate(res.V[s])
        }
        images = extend_algebra_map(res.levels[s], res.levels[s + 1], gen_images)
        h.append(_images_to_map(res, images, s + 2, s + 1))
    return h


# ---------------------------------------------------------------------------
# the normalized cochain complex as a kernel of codegeneracies
# ---------------------------------------------------------------------------
#
# The normalized cochains of a cosimplicial vector space are the common
# kernel of its codegeneracies, and they carry the cohomology of the full
# complex (the Dold-Kan normalization theorem; J. P. May, Simplicial Objects
# in Algebraic Topology, 1967).  The functions below build the full
# derivation cochain complex of a cotriple resolution against a target with
# trivial action, take that kernel by dense elimination mod p, and rank the
# restricted coboundaries.  They read the resolution's completed faces, the
# degeneracies of full_degeneracies and the insertion, never the degenerate
# sets or res.G, and they do their own linear algebra.

def _rref_mod_p(A, p):
    """Reduced row echelon form of an integer matrix over F_p, and its pivot columns."""
    A = np.array(A, dtype=np.int64) % p
    pivots = []
    for c in range(A.shape[1]):
        r = len(pivots)
        if r == A.shape[0]:
            break
        nz = np.nonzero(A[r:, c])[0]
        if not len(nz):
            continue
        A[[r, r + nz[0]]] = A[[r + nz[0], r]]
        A[r] = A[r] * pow(int(A[r, c]), -1, p) % p
        others = np.nonzero(A[:, c])[0]
        others = others[others != r]
        A[others] = (A[others] - np.outer(A[others, c], A[r])) % p
        pivots.append(c)
    return A[: len(pivots)], pivots


def _kernel_mod_p(A, p):
    """Columns spanning the right kernel of A over F_p."""
    R, pivots = _rref_mod_p(A, p)
    free = [c for c in range(A.shape[1]) if c not in pivots]
    K = np.zeros((A.shape[1], len(free)), dtype=np.int64)
    for k, fc in enumerate(free):
        K[fc, k] = 1
        for i, pc in enumerate(pivots):
            K[pc, k] = -R[i, fc] % p
    return K


def _full_der_cochain_complex(res, M, top_s):
    """Bases [(generator index, target name)] and dense coboundaries of the full complex.

    Cochain group s is Hom(V[s], M) on every generator of level s.  The
    coface delta^0 pairs each generator g of level s with its insertion [g]
    one level up (the target acts trivially, so polygens with a nonempty
    word pair with nothing); delta^i, i >= 1, is the dual of face i - 1,
    read from completed_faces(res).
    """
    p, faces = res.p, completed_faces(res)
    bases = [
        [(vi, mn) for vi, (d, _) in enumerate(res.V[s]) for mn in M.basis.get(d, ())]
        for s in range(top_s + 1)
    ]
    maps = []
    for s in range(top_s):
        rows = {b: i for i, b in enumerate(bases[s + 1])}
        cols = {b: i for i, b in enumerate(bases[s])}
        d = np.zeros((len(rows), len(cols)), dtype=np.int64)
        for (vi, mn), c in cols.items():
            d[rows[(res._insertion_index(s, res.V[s][vi][1]), mn)], c] += 1
        for i in range(1, s + 2):
            sign = -1 if i % 2 else 1
            for (vi, mn), r in rows.items():
                for src_vi, coeff in faces[s][i - 1].cols[vi].items():
                    c = cols.get((src_vi, mn))
                    if c is not None:
                        d[r, c] += sign * coeff
        maps.append(d % p)
    return bases, maps


def kernel_normalized_dims(res, M, top_s):
    """Cochain and cohomology dims of the codegeneracy-kernel subcomplex.

    Returns (dims for s = 0..top_s, cohomology dims for s = 0..top_s - 1).
    top_s <= res.s_max: the full cochain groups need every level complete.
    Codegeneracy j on cochain group s precomposes with the degeneracy j
    from level s - 1: the insertion for j = 0, full_degeneracies(res)[s - 2][j - 1]
    otherwise.  Raises AssertionError when the coboundary leaves the
    subcomplex or does not square to zero on it.
    """
    p = res.p
    bases, maps = _full_der_cochain_complex(res, M, top_s)
    degen = full_degeneracies(res)
    kernels = []
    for s, basis in enumerate(bases):
        if s == 0:
            kernels.append(np.eye(len(basis), dtype=np.int64))
            continue
        cols = {b: i for i, b in enumerate(basis)}
        stack = []
        for j in range(s):
            cod = np.zeros((len(bases[s - 1]), len(basis)), dtype=np.int64)
            for r, (vi, mn) in enumerate(bases[s - 1]):
                if j == 0:
                    targets = {res._insertion_index(s - 1, res.V[s - 1][vi][1]): 1}
                else:
                    targets = degen[s - 2][j - 1].cols[vi]
                for ti, c in targets.items():
                    if (ti, mn) in cols:
                        cod[r, cols[(ti, mn)]] += c
            stack.append(cod)
        kernels.append(_kernel_mod_p(np.concatenate(stack), p))
    ranks = []
    for s, d in enumerate(maps):
        image = d @ kernels[s] % p
        rank = len(_rref_mod_p(image.T, p)[1])
        both = np.concatenate([kernels[s + 1], image], axis=1)
        assert len(_rref_mod_p(both.T, p)[1]) == kernels[s + 1].shape[1], s
        if s + 1 < len(maps):
            assert not (maps[s + 1] @ image % p).any(), s
        ranks.append(rank)
    dims = [K.shape[1] for K in kernels]
    return dims, [dims[s] - ranks[s] - (ranks[s - 1] if s else 0) for s in range(top_s)]


# ---------------------------------------------------------------------------
# the two-term resolution, Dold-Kan assembled
# ---------------------------------------------------------------------------

def two_term_bar_der_cohomology(V0, M0, level, s_max, p=2):
    """H^0..H^s_max of the derivations of the two-term simplicial resolution.

    The resolution has level s free on s + 1 copies of V (one target copy,
    s twisted copies); derivations are determined on module generators by
    operation-equivariance, so the cochain groups are sums of copies of the
    realized Hom space, with the twisted endomorphism (the chain level's
    1 - frobenius block, tiled over the Hom coordinates) entering through
    the last face.  The cofaces are assembled densely and ranked by
    _rref_mod_p; every composite of two is asserted to vanish.
    """
    n = sum(V0.dim(d) * M0.dim(d) for d in set(V0.degrees()) | set(M0.degrees()))
    block = np.array(tower.get_tower(p).field(level).one_minus_frobenius, dtype=np.int64)
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
            B[0:H, 0:H] = eye
            if i == 0:
                for j in range(1, s):
                    B[(j + 1) * H : (j + 2) * H, j * H : (j + 1) * H] = eye
            elif i < s:
                for j in range(1, s):
                    tgt = j if j <= i else j + 1
                    B[tgt * H : (tgt + 1) * H, j * H : (j + 1) * H] = eye
                    if j == i:
                        B[(j + 1) * H : (j + 2) * H, j * H : (j + 1) * H] = eye
            else:
                for j in range(1, s):
                    B[j * H : (j + 1) * H, j * H : (j + 1) * H] = eye
                B[s * H : (s + 1) * H, 0:H] = tau
            D = (D + sign * B) % p
        maps.append(D)
    for s in range(len(maps) - 1):
        assert not (maps[s + 1] @ maps[s] % p).any(), s
    ranks = [len(_rref_mod_p(D, p)[1]) for D in maps]
    return tuple(dims[s] - ranks[s] - (ranks[s - 1] if s else 0) for s in range(s_max + 1))


# ---------------------------------------------------------------------------
# operation-compatibility of an algebra map
# ---------------------------------------------------------------------------

def algebra_map_violations(source, target, images, letters=None):
    """Polynomial generators on which an algebra map fails to commute with operations.

    images is an extend_algebra_map result, {source basis monomial: target
    vector}.  For each polynomial generator y of the source and each letter
    theta (Sq^1..Sq^4 or P^1..P^4, plus the Bockstein at odd p) whose image
    degree stays within both truncations, f(theta y) is read off the images
    of the monomials of theta y and compared with theta f(y) in the target.
    Returns one (letter, polygen index, f(theta y), theta f(y)) per failure.
    """
    p = source.p
    letters = letters or ([(0, s) for s in range(1, 5)] + ([(1, 0)] if p != 2 else []))
    top = min(source.D, getattr(target, "D", source.D))
    bad = []
    for i in range(len(source.polygens)):
        for eps, s in letters:
            if source.pg_degree[i] + (s if p == 2 else 2 * (p - 1) * s + eps) > top:
                continue
            letter = (eps, s)
            lhs = {}
            for m, c in source.op_on_polygen(*letter, i).items():
                for b, c2 in (images[m] if m else {}).items():
                    lhs[b] = (lhs.get(b, 0) + c * c2) % p
            rhs = target.act_word((letter,), images[((i, 1),)])
            lhs = {k: v for k, v in lhs.items() if v}
            rhs = {k: v for k, v in rhs.items() if v}
            if lhs != rhs:
                bad.append((letter, i, lhs, rhs))
    return bad


# ---------------------------------------------------------------------------
# the hom-set cell by brute force
# ---------------------------------------------------------------------------
#
# The (0,0) cell of a chart counts the unstable-algebra maps H*X -> H*Y.  The
# brute force below reads the generator classes of X off its catalog name,
# tries every assignment of their images in H*Y (pruned degree by degree),
# and keeps an assignment when the map it spans commutes with every letter on
# every class (zero columns included) and with every product, within the
# common truncation.  It knows nothing of atoms or of freeness.

def catalog_factorization(space):
    """{class: ((generator class, exponent), ...)} of a catalog space, read off its atoms.

    A K<n> class is a monomial of the free unstable algebra on one degree-n
    class, named k<d>_<i> as the catalog names it, and its generator classes
    are the polynomial generators; a sphere class is itself; a class x|y of
    a product A*B joins the factorizations of x|1 and 1|y.  A point factor
    has no atom, so the one atom of a space serves either side.
    """
    p, D = space.p, space.D

    def atom_factors(kind, n):
        if kind == "sphere":
            return {f"s{n}": ((f"s{n}", 1),)}
        A = FreeUnstableAlgebra(p, [(f"i{n}", n)], D)
        names = {m: f"k{d}_{i}" for d in range(1, D + 1) for i, m in enumerate(A.basis(d))}
        return {names[m]: tuple((names[((i, 1),)], e) for i, e in m) for m in names}

    atoms = [atom_factors(*atom) for atom in space.atoms]
    sides = atoms if len(atoms) == 2 else atoms * 2
    out = {}
    for _, z in space.vs.items():
        parts = z.split("|")
        out[z] = tuple(
            ("|".join(g if j == i else "1" for j in range(len(parts))), e)
            for i, (x, factors) in enumerate(zip(parts, sides)) if x != "1"
            for g, e in factors[x]
        )
    return out


def _combine(col, values, p):
    """sum of c * values[name] over a {name: c} column, reduced mod p, zeros dropped."""
    out = {}
    for name, c in col.items():
        for key, v in values[name].items():
            out[key] = (out.get(key, 0) + c * v) % p
    return {k: v for k, v in out.items() if v}


def hom_set_generators(X):
    """The generator classes of the catalog space X, as (degree, class) pairs."""
    factors = catalog_factorization(X)
    return [(d, nm) for d, nm in X.vs.items() if factors[nm] == ((nm, 1),)]


def hom_set_assignments(X, Y):
    """How many assignments of the generator classes of X into H*Y the brute force tries."""
    return math.prod(X.p ** len(Y.basis(d)) for d, _ in hom_set_generators(X))


def hom_set_brute_force(X, Y):
    """The number of unstable-algebra maps H*X -> H*Y, truncated at min(X.D, Y.D).

    The search runs up the degrees: at degree d it extends each partial
    assignment that commutes below d by every choice of images of the
    generator classes of degree d, and keeps those under which every letter
    and every product landing in degree d commutes.  Every check lands in
    the degree of its result, where all the classes it reads have values.
    """
    p, D = X.p, min(X.D, Y.D)
    factors = catalog_factorization(X)
    classes = [(d, nm) for d, nm in X.vs.items() if d <= D]
    letters = [(0, s) for s in range(1, D + 1)] + ([(1, 0)] if p != 2 else [])
    degree = {(e, s): s if p == 2 else 2 * (p - 1) * s + e for e, s in letters}
    by_degree = {}  # degree -> (classes, generator classes, checks landing there)
    for i, (d, nm) in enumerate(classes):
        by_degree.setdefault(d, ([], [], []))[0].append(nm)
        if factors[nm] == ((nm, 1),):
            by_degree[d][1].append(nm)
        for letter in letters:
            if d + degree[letter] <= D:
                col = X.act_letter(letter, nm)
                by_degree.setdefault(d + degree[letter], ([], [], []))[2].append((col, letter, nm, None))
        for d2, nm2 in classes[i:]:
            if d + d2 <= D:
                col = X.mul_names(nm, nm2)
                by_degree.setdefault(d + d2, ([], [], []))[2].append((col, None, nm, nm2))
    states = [({}, {})]  # (generator images, class values) that commute so far
    for d in sorted(by_degree):
        names, gens, checks = by_degree[d]
        targets = Y.basis(d) if gens else ()
        choices = [{nm: c for nm, c in zip(targets, cs) if c}
                   for cs in itertools.product(range(p), repeat=len(targets))]
        grown = []
        for image, val in states:
            for images in itertools.product(choices, repeat=len(gens)):
                new_image, new_val = {**image, **dict(zip(gens, images))}, dict(val)
                for nm in names:
                    vec = None
                    for g, e in factors[nm]:
                        for _ in range(e):
                            vec = new_image[g] if vec is None else Y.mul(vec, new_image[g])
                    new_val[nm] = vec
                if all(
                    _combine(col, new_val, p) == (
                        Y.mul(new_val[a], new_val[b]) if letter is None
                        else Y.act_word((letter,), new_val[a]))
                    for col, letter, a, b in checks
                ):
                    grown.append((new_image, new_val))
        states = grown
    return len(states)


# ---------------------------------------------------------------------------
# the algebra laws of a catalog space's tables
# ---------------------------------------------------------------------------

def table_law_violations(space):
    """Where a catalog space's letter and product tables break an algebra law.

    Read off space.vs, space.action and space.products alone, on every pair
    and triple of classes within degree D:
    - the Cartan formula P^s(xy) = sum_k P^k(x) P^(s-k)(y) (Sq^s at p = 2);
    - at odd p, the Leibniz rule beta(xy) = beta(x) y + (-1)^|x| x beta(y);
    - graded commutativity: a table holds x y for x <= y by name and y x is
      (-1)^(|x||y|) x y, so at odd p an odd class must square to 0;
    - associativity (x y) z = x (y z);
    - instability: a table letter of excess e (s for Sq^s, 2s + eps for
      beta^eps P^s) kills every class of degree < e;
    - each Adem relation on an inadmissible pair of table letters, applied
      to every class, by _adem_relation and _normalize.
    A product missing from the table reads as 0.
    """
    p, D = space.p, space.D
    deg = {x: d for d, x in space.vs.items()}
    classes = sorted(deg, key=lambda x: (deg[x], x))
    letters = [(0, s) for s in range(1, D + 1)] + ([(1, 0)] if p != 2 else [])
    ldeg = {L: L[1] if p == 2 else 2 * (p - 1) * L[1] + L[0] for L in letters}

    def total(terms):
        out = {}
        for c, vec in terms:
            for z, v in vec.items():
                out[z] = (out.get(z, 0) + c * v) % p
        return {z: v for z, v in out.items() if v}

    def letter(L, x):
        return {x: 1} if L == (0, 0) else space.action.get(L, {}).get(x, {})

    @functools.cache
    def pair(x, y):
        col = space.products.get((min(x, y), max(x, y)), {})
        return {z: -c % p for z, c in col.items()} if x > y and deg[x] * deg[y] % 2 else col

    def mul(u, v):
        return total([(a * b, pair(x, y)) for x, a in u.items() for y, b in v.items()])

    def act(word, x):
        """A word of letters (eps, s) on x, rightmost first; beta P^s is beta after P^s."""
        vec = {x: 1}
        for eps, s in reversed(word):
            for L in [(0, s)] * bool(s) + [(1, 0)] * eps:
                vec = total([(c, letter(L, z)) for z, c in vec.items()])
        return vec

    problems = []
    for L, cols in space.action.items():
        for x, col in cols.items():
            if col and (L[1] if p == 2 else 2 * L[1] + L[0]) > deg[x]:
                problems.append(("instability", L, x))
    for first in sorted(space.action):
        for second in sorted(space.action):
            if first[1] >= p * second[1] + second[0]:
                continue  # admissible, nothing to check
            relation = [(_normalize(w), c) for w, c in _adem_relation(first, second, p)]
            for x in classes:
                if deg[x] + ldeg[first] + ldeg[second] > D:
                    continue
                rhs = total([(c, act(w, x)) for w, c in relation if w is not None])
                if act((first, second), x) != rhs:
                    problems.append(("adem", first, second, x))
    for x in classes:
        for y in classes:
            if deg[x] + deg[y] > D:
                break
            xy = pair(x, y)
            if p != 2 and x == y and deg[x] % 2 and xy:
                problems.append(("commutativity", x))
            for L in letters:
                if deg[x] + deg[y] + ldeg[L] > D:
                    continue
                if L[0]:
                    law, parts = "leibniz", [(1, mul(letter(L, x), {y: 1})),
                                             ((-1) ** deg[x], mul({x: 1}, letter(L, y)))]
                else:
                    law, parts = "cartan", [(1, mul(letter((0, k), x), letter((0, L[1] - k), y)))
                                            for k in range(L[1] + 1)]
                if total([(c, letter(L, z)) for z, c in xy.items()]) != total(parts):
                    problems.append((law, L, x, y))
            for z in classes:
                if deg[x] + deg[y] + deg[z] > D:
                    break
                if mul(xy, {z: 1}) != mul({x: 1}, mul({y: 1}, {z: 1})):
                    problems.append(("associativity", x, y, z))
    return problems
