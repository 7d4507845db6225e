"""Free unstable algebras with degree-truncated monomial bases.

The free unstable algebra on a graded set of generators is the free
graded-commutative algebra on the polynomial generators: admissible words
applied to generators, subject to excess strictly below the generator
degree (plus, at odd primes, Bockstein-led words of excess exactly the
degree), as ``unstable_modules.polygen_words`` lists them.  The top
operation realizes the p-th power, so words of excess equal to the degree
that start with a power operation are rewritten to p-th powers of shorter
classes.

Monomials are tuples ((polygen_index, exponent), ...) sorted by index;
odd-degree polygens square to zero at odd primes.  All bases, action and
multiplication are truncated at a fixed top degree D.  The bases are built
on first use.  A letter on a polygen w(g) is the word (letter, w)
resolved on g; P^s on a monomial y m' is the Cartan sum of P^k(y) P^(s-k)(m').
Letters on polygens, P^s on monomials, and products of basis monomials are
kept in per-instance tables filled on first use.  Each entry is a pure
function of its key, so instances can be shared freely.  A product beyond
D raises on every call and is never stored.
"""

from __future__ import annotations

import bisect
import itertools
import math

from . import steenrod as st
from .tower import add_scaled
from .unstable_modules import _gen_pairs, polygen_words


class DegreeCapExceeded(Exception):
    """A product or operation left the configured degree truncation."""


class MonomialBasis:
    """Graded-commutative monomial bases on weighted letters, truncated at D.

    Monomials are tuples ((letter_index, exponent), ...) sorted by index;
    at odd primes odd-degree letters square to zero and contribute Koszul
    signs under multiplication.  Each degree's basis is sorted, so
    reduced_basis_items() runs in (degree, monomial) order, the order the
    resolution's generator lists V use.  The product of each pair of
    monomials is computed once and kept in a table on the instance.
    """

    def __init__(self, p, degrees, D):
        self.p = p
        self.D = D
        self.pg_degree = tuple(degrees)
        if any(a > b for a, b in zip(self.pg_degree, self.pg_degree[1:])):
            raise ValueError(f"letter degrees must not decrease: {self.pg_degree}")
        self._products = {}  # (m1, m2) -> mul_monomials(m1, m2), filled on first use
        self._basis = None  # {degree: sorted monomials}, enumerated by the first basis()

    def _enumerate_basis(self):
        # letters are sorted by degree (checked at construction), so the scan
        # can stop at the first letter heavier than the degree left; recursion
        # depth is the number of distinct letters in a monomial, not the
        # alphabet size.  The walk visits (letter, exponent) extensions in
        # increasing order and a proper prefix has a lower degree, so each
        # degree's monomials come out sorted
        by_degree = {}
        n = len(self.pg_degree)

        def rec(start, deg_left, deg_used, acc):
            by_degree.setdefault(deg_used, []).append(tuple(acc))
            for j in range(start, n):
                d = self.pg_degree[j]
                if d > deg_left:
                    break
                emax = deg_left // d
                if self.p != 2 and d % 2 == 1:
                    emax = min(emax, 1)
                for e in range(1, emax + 1):
                    acc.append((j, e))
                    rec(j + 1, deg_left - d * e, deg_used + d * e, acc)
                    acc.pop()

        rec(0, self.D, 0, [])
        # rec holds itself through its closure cell; clearing that cycle lets
        # refcounting free this basis when its last reference goes
        del rec
        return {d: tuple(ms) for d, ms in by_degree.items()}

    def basis(self, d):
        """Ordered monomial basis in degree d (degree 0 is the unit)."""
        if self._basis is None:
            self._basis = self._enumerate_basis()
        return self._basis.get(d, ())

    def hilbert(self):
        """Basis sizes in degrees 0..D, from the letter degrees alone.

        A letter of degree d contributes 1/(1 - t^d), or 1 + t^d when d is
        odd at odd p; m letters of degree d contribute the m-th power, whose
        coefficients are binomial.  Nothing is enumerated.
        """
        series = [1] + [0] * self.D
        for d in range(1, self.D + 1):
            m = bisect.bisect_right(self.pg_degree, d) - bisect.bisect_left(self.pg_degree, d)
            if not m:
                continue
            exterior = self.p != 2 and d % 2
            power = [math.comb(m, j) if exterior else math.comb(m + j - 1, j)
                     for j in range(self.D // d + 1)]
            series = [sum(c * series[k - d * j] for j, c in enumerate(power[:k // d + 1]))
                      for k in range(self.D + 1)]
        return tuple(series)

    def monomial_degree(self, m):
        return sum(self.pg_degree[i] * e for i, e in m)

    def reduced_basis_items(self):
        for d in range(1, self.D + 1):
            for m in self.basis(d):
                yield d, m

    def mul_monomials(self, m1, m2):
        """Product of two basis monomials: (coeff, monomial) or None when zero.

        Products within the truncation are kept in a per-basis table; one
        beyond it raises on every call and is never stored.
        """
        if not m1:
            return 1, m2
        if not m2:
            return 1, m1
        key = (m1, m2)
        if key in self._products:
            return self._products[key]
        deg = self.monomial_degree(m1) + self.monomial_degree(m2)
        if deg > self.D:
            raise DegreeCapExceeded(f"product degree {deg} exceeds truncation {self.D}")
        self._products[key] = r = self._product(m1, m2)
        return r

    def _product(self, m1, m2):
        sign = 1
        if self.p != 2:
            # Koszul sign from interleaving odd-degree factors
            odd1 = [i for i, e in m1 if self.pg_degree[i] % 2]
            inversions = 0
            for i2, _ in m2:
                if self.pg_degree[i2] % 2:
                    inversions += sum(1 for i1 in odd1 if i1 > i2)
            if inversions % 2:
                sign = -1
        merged = {}
        for i, e in itertools.chain(m1, m2):
            merged[i] = merged.get(i, 0) + e
            if self.p != 2 and self.pg_degree[i] % 2 and merged[i] > 1:
                return None
        mono = tuple(sorted(merged.items()))
        return sign % self.p, mono

    def mul(self, v1, v2):
        """Product of dict-vectors {monomial: coeff}."""
        out = {}
        for m1, c1 in v1.items():
            # multiplying by m1 sends distinct monomials to distinct ones
            row = {}
            for m2, c2 in v2.items():
                r = self.mul_monomials(m1, m2)
                if r is not None:
                    row[r[1]] = r[0] * c2
            add_scaled(out, row, c1, self.p)
        return out


class FreeUnstableAlgebra(MonomialBasis):
    """Degree-truncated free unstable algebra on named generators (degrees >= 1)."""

    def __init__(self, p, gens, D):
        self.gens = tuple((n, int(d)) for n, d in _gen_pairs(gens))
        for n, d in self.gens:
            if d < 1:
                raise ValueError("generators must sit in degrees >= 1")
        self.gen_degree = dict(self.gens)
        # polynomial generators, ordered by (degree, generator, word)
        pgs, words = [], {}  # words: generator degree -> its polygen words
        for name, n in self.gens:
            if n not in words:
                words[n] = polygen_words(p, n, D - n)
            for w in words[n]:
                pgs.append((st.word_degree(w, p) + n, name, w))
        pgs.sort()
        self.polygens = tuple((w, name) for _, name, w in pgs)
        self.pg_index = {pg: i for i, pg in enumerate(self.polygens)}
        super().__init__(p, (d for d, _, _ in pgs), D)
        self._op_memo = {}
        self._power_memo = {}  # (s, monomial) -> P^s(monomial)
        self._ctx = st.get_context(p, st.FLAVOR_A)

    # -- operations ------------------------------------------------------------

    def _classify_word(self, word, gen):
        """Value of an admissible flavor-A word on a generator, as a vector."""
        n = self.gen_degree[gen]
        if st.excess(word, self.p) > n:
            return {}
        key = (word, gen)
        i = self.pg_index.get(key)
        if i is not None:
            return {((i, 1),): 1}
        if st.word_degree(word, self.p) + n > self.D:
            raise DegreeCapExceeded(f"class {key} beyond truncation {self.D}")
        # every polygen word within the truncation is indexed, so this one has
        # excess n and a power-operation lead: the p-th power of its tail class
        return self._pth_power(self._resolve_word(word[1:], gen))

    def _pth_power(self, v):
        out = {}
        for m, c in v.items():
            if self.p != 2 and any(self.pg_degree[i] % 2 for i, _ in m):
                continue
            deg = self.monomial_degree(m) * self.p
            if deg > self.D:
                raise DegreeCapExceeded(f"p-th power degree {deg} exceeds truncation")
            add_scaled(out, {tuple((i, e * self.p) for i, e in m): c}, 1, self.p)
        return out

    def _resolve_word(self, word, gen):
        """Admissible-or-not word applied to a generator."""
        out = {}
        for w2, c2 in self._ctx.rewrite(word).items():
            add_scaled(out, self._classify_word(w2, gen), c2, self.p)
        return out

    def op_on_polygen(self, eps, s, i):
        """Single letter beta^eps P^s on the i-th polynomial generator.

        The letter joins the polygen's word and the whole word is resolved on
        the generator, so instability, the top operation as the p-th power
        and the degree cap all come from ``_classify_word``.  The vector is
        the memo's own entry: callers read it and never change it.
        """
        key = (eps, s, i)
        hit = self._op_memo.get(key)
        if hit is not None:
            return hit
        if eps == 0 and s == 0:
            out = {((i, 1),): 1}
        else:
            word, gen = self.polygens[i]
            w = st.normalize_word_a(((eps, s),) + word, self.p)
            out = {} if w is None else self._resolve_word(w, gen)
        self._op_memo[key] = out
        return out

    def _power_op_mono(self, s, mono):
        """P^s (Sq^s at p=2) on a basis monomial, by the Cartan formula.

        With y the first polygen factor of mono = y m', P^s(y m') is the sum
        of P^k(y) P^(s-k)(m') over k up to the top operation on y.  The
        vector is the memo's own entry, read only, as in ``op_on_polygen``.
        """
        if not mono:
            return {(): 1} if s == 0 else {}
        key = (s, mono)
        hit = self._power_memo.get(key)
        if hit is not None:
            return hit
        i, rest = self._peel(mono)
        top = self.pg_degree[i] if self.p == 2 else self.pg_degree[i] // 2
        out = {}
        for k in range(0, min(s, top) + 1):
            u = self.op_on_polygen(0, k, i)
            v = u and self._power_op_mono(s - k, rest)
            if v:
                add_scaled(out, self.mul(u, v), 1, self.p)
        self._power_memo[key] = out
        return out

    def _beta_mono(self, mono):
        """Bockstein on a basis monomial: beta(y m') = beta(y) m' + (-1)^|y| y beta(m')."""
        if not mono:
            return {}
        i, rest = self._peel(mono)
        out = self.mul(self.op_on_polygen(1, 0, i), {rest: 1})
        sign = -1 if self.pg_degree[i] % 2 else 1
        add_scaled(out, self.mul({((i, 1),): 1}, self._beta_mono(rest)), sign, self.p)
        return out

    @staticmethod
    def _peel(mono):
        """Split a monomial as y m' with y its first polygen: (index of y, m')."""
        (i, e), tail = mono[0], mono[1:]
        return i, (((i, e - 1),) + tail if e > 1 else tail)

    def act_letter(self, eps, s, vec):
        out = {}
        for mono, c in vec.items():
            img = self._power_op_mono(s, mono)
            if eps:
                img2 = {}
                for m, c2 in img.items():
                    add_scaled(img2, self._beta_mono(m), c2, self.p)
                img = img2
            add_scaled(out, img, c, self.p)
        return out

    def act_word(self, word, vec):
        for eps, s in reversed(word):
            vec = self.act_letter(eps, s, vec)
        return vec


# ---------------------------------------------------------------------------
# algebra maps
# ---------------------------------------------------------------------------

def extend_algebra_map(source: FreeUnstableAlgebra, target, gen_images, monomials=None):
    """Multiplicative, operation-compatible extension of generator images.

    target (a FreeUnstableAlgebra or a catalog space's adams.SpaceModel)
    implements mul/act_word over dict-vectors; gen_images maps each
    module generator name of the source to a target vector.  Returns a dict
    {source basis monomial: target vector} on the given source basis
    monomials, or on every reduced one when monomials is None.  A polygen's
    image w(f(g)) is computed only when a requested monomial contains it.
    """
    powers = {}  # polygen index -> [image, image^2, ...], extended on demand
    if monomials is None:
        monomials = (m for _, m in source.reduced_basis_items())
    out = {}
    for m in monomials:
        vec = None
        for i, e in m:
            pw = powers.get(i)
            if pw is None:
                w, g = source.polygens[i]
                pw = powers[i] = [target.act_word(w, gen_images[g])]
            while len(pw) < e:
                pw.append(target.mul(pw[-1], pw[0]))
            part = pw[e - 1]
            vec = part if vec is None else target.mul(vec, part)
        out[m] = vec if vec is not None else {}
    return out
