"""Free unstable modules, their admissible bases, and windowed free modules.

Free modules over the classical algebra have basis all admissible words of
excess at most the generator degree applied to generators; over the
integer-indexed algebra the same recipe gives something infinite in every
degree (index-0 chains), so those are only ever materialized on an explicit
window (degree cap, word length cap, index floor) with saturation tracked
by the callers.  One recursive walker enumerates both flavors' words: flavor
A walks indices >= 0 and never takes the letter P^0, flavor B takes P^0 and
walks down to the window's index floor within its length cap.
polygen_words states, once, which of these words index the polynomial
generators of a free unstable algebra.

The short exact sequence  0 -> F(V) --(1-P^0)--> F(V) --q--> F_0(V) -> 0
is materialized per degree on windows, each column built by act_free (the
one action of a word on a free module) on a generator: the first map sends
a basis word w.x to w.x - (w.P^0).x, the quotient interprets index-0
letters as the identity and kills words with negative indices.

GradedVS, named basis elements per degree, lists the generators of free
modules and the classes of a catalog space (adams.SpaceModel).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import itemgetter

from . import steenrod as st
from . import tower


@dataclass(frozen=True)
class ModWindow:
    """Window for flavor-B module data: degree cap, word length cap, index floor."""

    D: int
    L: int
    K: int

    def rewrite_window(self):
        # indices may grow while rewriting, lengths never do (flavor B), and the
        # stabilizer's deepest window is 2L + 3 long, so w.P^0 has length <= 2L + 4
        return st.BWindow(K=2 * self.K + 2 * abs(self.D) + 16, L=2 * self.L + 4)


class GradedVS:
    """Finite list of named basis elements per degree."""

    def __init__(self, p, basis):
        self.p = p
        self.basis = {d: tuple(names) for d, names in sorted(basis.items()) if names}
        seen = set()
        for names in self.basis.values():
            for n in names:
                if n in seen:
                    raise ValueError(f"duplicate basis name {n}")
                seen.add(n)

    def degrees(self):
        return sorted(self.basis)

    def dim(self, d):
        return len(self.basis.get(d, ()))

    def items(self):
        for d in sorted(self.basis):
            for n in self.basis[d]:
                yield d, n

    @classmethod
    def single(cls, p, degree, name="x"):
        return cls(p, {degree: (name,)})


# ---------------------------------------------------------------------------
# admissible-word enumeration
# ---------------------------------------------------------------------------

def _first_index_caps(p, word_deg, excess_cap):
    # the first letter's index cap per Bockstein eps1, from excess <= cap:
    # excess = 2 p s1 + 2 eps1 - word_deg (odd p), 2 s1 - word_deg (p = 2)
    if p == 2:
        return ((excess_cap + word_deg) // 2,)
    return tuple((excess_cap + word_deg - 2 * eps1) // (2 * p) for eps1 in (0, 1))


def _max_degree(p, cap_s, r):
    # the most degree at most r more letters add when the next index is at most
    # cap_s: indices cap_s, cap_s // p, ..., each with a Bockstein; index-0
    # letters add at most a Bockstein each, negative ones take degree away
    step, eps = (1, 0) if p == 2 else (2 * (p - 1), 1)
    total = 0
    while r > 0 and cap_s > 0:
        total += step * cap_s + eps
        cap_s //= p
        r -= 1
    return total + r * eps if cap_s == 0 else total


def _walk_words(p, deg_left, caps, len_left, floor, with_p0, out, acc=()):
    """Append acc + w to out for each admissible w of degree deg_left.

    w has at most len_left letters, indices >= floor, and a first letter
    beta^eps P^s with s <= caps[eps].  Without with_p0 (flavor A, floor 0)
    a power letter has index >= 1, so P^0 never occurs.  Letters are
    scanned from high index to low: the degree left grows as s falls while
    _max_degree shrinks, so the scan stops at the first s whose remainder
    no later letters can reach.
    """
    if deg_left == 0:
        out.append(acc)
    if len_left <= 0:
        return out
    step = 1 if p == 2 else 2 * (p - 1)
    r = len_left - 1
    for eps, cap in enumerate(caps):
        s = min(cap, (deg_left - eps - min(0, r * step * floor)) // step)
        lowest = floor if with_p0 or eps else 1
        while s >= lowest:
            rem = deg_left - step * s - eps
            if rem > _max_degree(p, s // p, r):
                break
            nxt = (s // p, (s - 1) // p)[: len(caps)]
            _walk_words(p, rem, nxt, r, floor, with_p0, out, acc + ((eps, s),))
            s -= 1
    return out


def admissible_words_a(p, word_deg, excess_cap, _cache={}):
    """All admissible flavor-A words of the given degree with excess <= cap."""
    key = (p, word_deg, excess_cap)
    if key not in _cache:
        # every flavor-A letter has degree >= 1, so word_deg caps the length
        caps = _first_index_caps(p, word_deg, excess_cap)
        _cache[key] = tuple(sorted(_walk_words(p, word_deg, caps, word_deg, 0, False, [])))
    return _cache[key]


def admissible_words_b(p, word_deg, excess_cap, length_cap, index_floor, _cache={}):
    """Admissible flavor-B words: degree fixed, excess <= cap, length <= L, indices >= -K."""
    key = (p, word_deg, excess_cap, length_cap, index_floor)
    if key not in _cache:
        caps = _first_index_caps(p, word_deg, excess_cap)
        _cache[key] = tuple(sorted(_walk_words(p, word_deg, caps, length_cap, -index_floor, True, [])))
    return _cache[key]


def polygen_words(p, n, max_word_deg, length_cap=None):
    """Words indexing the polynomial generators on a degree-n class.

    These are the admissible words of excess < n, plus (odd p) the
    Bockstein-led words of excess exactly n; an excess-n word led by a power
    operation is a p-th power, not a generator.  Flavor A by default;
    flavor B with index floor 0 and words of length <= length_cap when a
    length cap is given.  Ordered by (degree, word), up to max_word_deg.
    """
    out = []
    for wd in range(0, max_word_deg + 1):
        if length_cap is None:
            words = admissible_words_a(p, wd, n)
        else:
            words = admissible_words_b(p, wd, n, length_cap, 0)
        for w in words:
            e = st.excess(w, p)
            if e < n or (p != 2 and e == n and w[0][0] == 1):
                out.append(w)
    return tuple(out)


# ---------------------------------------------------------------------------
# free modules
# ---------------------------------------------------------------------------

def free_a_basis(gens, d, p=2):
    """Ordered basis of the free unstable module on gens in degree d.

    gens: GradedVS or list of (name, degree).  Basis elements are (word, name).
    """
    pairs = _gen_pairs(gens)
    out = []
    for name, n in pairs:
        if d < n:
            continue
        for w in admissible_words_a(p, d - n, n):
            out.append((w, name))
    return tuple(sorted(out, key=itemgetter(1, 0)))


def free_b_basis_window(gens, d, window, p=2):
    """Windowed basis of the flavor-B free module in degree d."""
    pairs = _gen_pairs(gens)
    out = []
    for name, n in pairs:
        for w in admissible_words_b(p, d - n, n, window.L, window.K):
            out.append((w, name))
    return tuple(sorted(out, key=itemgetter(1, 0)))


def _gen_pairs(gens):
    if isinstance(gens, GradedVS):
        return sorted((n, d) for d, n in gens.items())
    return sorted((name, deg) for name, deg in gens)


def act_free(ctx, op_terms, elt, gen_degrees):
    """Action on a free module: rewrite composed words, drop excess violations.

    ctx is the Adem context (st.get_context) of the op's flavor, op_terms
    its {word: coeff}, elt a dict {(word, genname): coeff}; a window looks
    ctx up once for all its columns.
    """
    p, out = ctx.p, {}
    for (w, g), c in elt.items():
        n = gen_degrees[g]
        for ow, oc in op_terms.items():
            word = ow + w
            if ctx.flavor == st.FLAVOR_A:
                word = st.normalize_word_a(word, p)
                if word is None:
                    continue
            image = {(w2, g): c2 for w2, c2 in ctx.rewrite(word).items() if st.excess(w2, p) <= n}
            tower.add_scaled(out, image, c * oc, p)
    return out


# ---------------------------------------------------------------------------
# the windowed exact sequence
# ---------------------------------------------------------------------------

def one_minus_p0_window(V, window, d, p=2, length_cap=None):
    """Map x -> x - x.P^0 in degree d, from the length<=L window into length<=L+1.

    Returns (map, source_basis, target_basis); the map is a SparseMap over
    F_p with rows indexed by the target window basis.
    """
    L = window.L if length_cap is None else length_cap
    src = free_b_basis_window(V, d, replace(window, L=L), p)
    tgt = free_b_basis_window(V, d, replace(window, L=L + 1), p)
    tgt_index = {b: i for i, b in enumerate(tgt)}
    ctx = st.get_context(p, st.FLAVOR_B, window.rewrite_window())
    gen_degrees = dict(_gen_pairs(V))
    cols = []
    for w, g in src:
        image = act_free(ctx, {w + ((0, 0),): 1}, {((), g): 1}, gen_degrees)
        for key in image:
            assert key in tgt_index, f"rewrite left the window: {key}"
        col = {tgt_index[(w, g)]: 1}
        tower.add_scaled(col, {tgt_index[key]: c for key, c in image.items()}, -1, p)
        cols.append(col)
    return tower.SparseMap(len(tgt), cols, p), src, tgt


def quotient_q_window(V, window, d, p=2, length_cap=None):
    """The quotient q: windowed F(V) -> F_0(V) in degree d, as a SparseMap.

    Index-0 letters become the identity, words with a negative index die,
    then rewrite in the classical algebra and filter by excess.
    """
    L = window.L if length_cap is None else length_cap
    src = free_b_basis_window(V, d, replace(window, L=L), p)
    tgt = free_a_basis(V, d, p)
    tgt_index = {b: i for i, b in enumerate(tgt)}
    ctx = st.get_context(p, st.FLAVOR_A)
    gen_degrees = dict(_gen_pairs(V))
    cols = []
    for w, g in src:
        if any(s < 0 for _, s in w):
            cols.append({})
            continue
        # act_free normalizes w, as OpElement.from_word would
        image = act_free(ctx, {w: 1}, {((), g): 1}, gen_degrees)
        cols.append({tgt_index[key]: c for key, c in image.items()})
    return tower.SparseMap(len(tgt), cols, p), src, tgt


def exactness_report(V, window, p=2):
    """Windowed exactness checks for 0 -> F(V) -> F(V) -> F_0(V) -> 0.

    Per degree 0..D reports: injectivity of 1-P^0 on the window, q(1-P^0)=0,
    the raw window cokernel dimension (>= the free classical dimension), and
    the stabilized cokernel dimension (rank of the map induced by enlarging
    the length window), with a saturation flag.  Failures are reported, not
    raised.
    """
    if any(d < 0 for d in V.degrees()):
        raise ValueError(f"generator degrees must be >= 0, not {V.degrees()}")
    report = {"p": p, "window": window, "degrees": {}, "pass": True}
    for d in range(0, window.D + 1):
        M, src, tgt = one_minus_p0_window(V, window, d, p)
        Q, srcq, f0 = quotient_q_window(V, window, d, p, length_cap=window.L + 1)
        assert srcq == tgt
        r = tower.rank(M, p)
        inj = r == len(src)
        comp_zero = not any((Q @ M).cols)
        raw_coker = len(tgt) - r
        stab, saturated = _stabilized_coker_dim(V, window, d, p, window.L)
        saturated = saturated and window.L >= 1  # a length-0 window proves nothing
        f0_dim = len(f0)
        cell_pass = inj and comp_zero and raw_coker >= f0_dim and stab == f0_dim
        report["degrees"][d] = {
            "source_dim": len(src),
            "target_dim": len(tgt),
            "injective": inj,
            "q_composite_zero": comp_zero,
            "raw_coker": raw_coker,
            "stabilized_coker": stab,
            "free_classical_dim": f0_dim,
            "saturated": saturated,
            "pass": cell_pass,
        }
        report["pass"] = report["pass"] and cell_pass
    return report


def _stabilized_coker_dim(V, window, d, p, L):
    """Eventual image of the window cokernel in ever-deeper length windows.

    Classes that merely chase the window edge die after finitely many
    enlargements (telescopes can take several steps); the rank of the map
    from the length-(L+1) target into the cokernel at length L+j is
    non-increasing in j, and two consecutive equal values are the
    saturation witness.  Returns (rank, saturated).
    """
    tgt1 = free_b_basis_window(V, d, replace(window, L=L + 1), p)
    if not tgt1:
        return 0, True
    prev = None
    for j in range(1, L + 4):
        M2, _, tgt2 = one_minus_p0_window(V, window, d, p, length_cap=L + j)
        idx2 = {b: i for i, b in enumerate(tgt2)}
        both = tower.SparseMap(len(tgt2), [{idx2[b]: 1} for b in tgt1] + M2.cols, p)
        r = tower.rank(both, p) - tower.rank(M2, p)
        if prev is not None and r == prev:
            return r, True
        prev = r
    return prev, False
