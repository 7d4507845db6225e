"""Words in the mod-p Steenrod algebra and its integer-indexed enlargement.

A word is a tuple of letters (eps, s), each letter being beta^eps P^s
(Sq^s at p = 2, where eps is always 0), composed left to right.  Flavor
"A" is the classical algebra: indices are positive, index-0 letters are
normalized away (P^0 = 1) and a bare Bockstein is the letter (1, 0).
Flavor "B" allows every integer index and keeps P^0 as a formal letter.

Admissibility uses the classical orientation: each index is at least p
times its right neighbour plus the intervening Bockstein.  Rewriting to
the admissible basis applies the standard Adem relations.  Flavor "A"
rewrites a word tail first: the tail's admissible terms u are reduced
already, so (first letter,) + u can be inadmissible only at its front
pair, and that word's admissible form is kept under it for reuse.  The
memo keeps only words the rewrite reads again (a longer word asked for
from outside is not stored), one read-only form per distinct admissible
value, shared by every word that rewrites to it, and one zero element per
context.  For flavor "B" the same relations are used verbatim for all
integer indices (binomials via Lucas), under a mandatory hard window on
index size and word length; it keeps every word, rewriting at the leftmost
violation, because which words leave the window depends on that order.
Correctness at p = 2 is anchored by the polynomial-action oracle
`act_polynomial` rather than by trusting the transcription of the relations.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from types import MappingProxyType

from .tower import add_scaled

FLAVOR_A = "A"
FLAVOR_B = "B"


class WindowExhausted(Exception):
    """Flavor-B rewriting left the configured index/length window."""


class BWindow(namedtuple("BWindow", "K L", defaults=(200, 64))):
    """Hard bounds for flavor-B rewriting: indices in [-K, K], length <= L."""

    __slots__ = ()


DEFAULT_B_WINDOW = BWindow()


def _form_key(terms):
    """The key under which the memo shares a form: a hash of its terms."""
    return hash(frozenset(terms.items()))


# ---------------------------------------------------------------------------
# binomials mod p
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def binom_mod(n, k, p):
    """C(n, k) mod p; Lucas for n >= 0, the generalized value for n < 0."""
    if k < 0:
        return 0
    if n < 0:
        # C(n, k) = (-1)^k C(k - n - 1, k)
        v = binom_mod(k - n - 1, k, p)
        return (-v) % p if k % 2 else v
    if k > n:
        return 0
    r = 1
    while n or k:
        nd, kd = n % p, k % p
        if kd > nd:
            return 0
        num = den = 1
        for i in range(kd):
            num = num * (nd - i) % p
            den = den * (i + 1) % p
        r = r * num * pow(den, p - 2, p) % p
        n //= p
        k //= p
    return r


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

def letter_degree(letter, p):
    eps, s = letter
    if p == 2:
        return s
    return 2 * s * (p - 1) + eps


def word_degree(word, p):
    return sum(letter_degree(l, p) for l in word)


def excess(word, p):
    """Excess in the convention e(I) = 2 s_1 + eps_1 - (degree of the tail)."""
    if not word:
        return 0
    eps1, s1 = word[0]
    if p == 2:
        return s1 - sum(s for _, s in word[1:])
    return 2 * s1 + eps1 - sum(letter_degree(l, p) for l in word[1:])


def is_admissible(word, p):
    """Classical orientation: s_j >= p*s_{j+1} + eps_{j+1} for adjacent letters."""
    return _first_violation(word, p) is None


def _first_violation(word, p):
    for i in range(len(word) - 1):
        (e1, s1), (e2, s2) = word[i], word[i + 1]
        if s1 < p * s2 + e2:
            return i
    return None


def normalize_word_a(pairs, p):
    """Flavor-A normalization: drop P^0, merge bare Bocksteins, detect beta^2 = 0.

    Returns the normalized tuple, or None when the word is zero.
    """
    out = []
    for eps, s in pairs:
        if p == 2:
            if eps:
                raise ValueError("no Bockstein letters at p = 2")
            if s == 0:
                continue
            if s < 0:
                raise ValueError("flavor A has no negative operations")
            out.append((0, s))
            continue
        if s < 0:
            raise ValueError("flavor A has no negative operations")
        if s == 0 and eps == 0:
            continue
        if out and out[-1] == (1, 0):
            # pending bare Bockstein merges into this letter
            if eps:
                return None  # beta beta = 0
            out[-1] = (1, s)
        else:
            out.append((eps, s))
    return tuple(out)


def make_word(indices, p, flavor):
    """Build a word from pairs (eps, s) or bare integers s (eps = 0)."""
    pairs = []
    for it in indices:
        if isinstance(it, tuple):
            eps, s = it
        else:
            eps, s = 0, it
        if eps not in (0, 1):
            raise ValueError(f"bad Bockstein flag {eps}")
        pairs.append((eps, int(s)))
    if flavor == FLAVOR_A:
        return normalize_word_a(pairs, p)
    if p == 2 and any(e for e, _ in pairs):
        raise ValueError("no Bockstein letters at p = 2")
    return tuple(pairs)


# ---------------------------------------------------------------------------
# Adem rewriting
# ---------------------------------------------------------------------------

def _adem_pair(e1, a, e2, b, p, flavor):
    """Rewrite beta^e1 P^a . beta^e2 P^b (an inadmissible adjacency).

    Returns a dict {(pair, pair): nonzero coeff}, one key per t and Bockstein
    on the second letter.  Assumes a < p*b + e2.  In flavor A the summation
    index is clamped at 0 (the classical relations); flavor B keeps all
    integer terms.
    """
    terms = {}
    floor0 = flavor == FLAVOR_A
    if e2 == 0:
        # P^a P^b with a < pb
        lo = a - (p - 1) * b + 1
        if floor0:
            lo = max(lo, 0)
        for t in range(lo, a // p + 1):
            c = binom_mod((p - 1) * (b - t) - 1, a - p * t, p)
            if not c:
                continue
            if p != 2 and (a + t) % 2:
                c = (-c) % p
            terms[((e1, a + b - t), (0, t))] = c
    else:
        # P^a beta P^b with a <= pb
        lo = a - (p - 1) * b
        if floor0:
            lo = max(lo, 0)
        for t in range(lo, a // p + 1):
            c = binom_mod((p - 1) * (b - t), a - p * t, p)
            if c:
                if (a + t) % 2:
                    c = (-c) % p
                if e1 == 0:  # beta merges on the left; beta beta = 0 otherwise
                    terms[((1, a + b - t), (0, t))] = c
        for t in range(lo, (a - 1) // p + 1):
            c = binom_mod((p - 1) * (b - t) - 1, a - p * t - 1, p)
            if c:
                if (a + t - 1) % 2:
                    c = (-c) % p
                terms[((e1, a + b - t), (1, t))] = c
    return terms


class AdemContext:
    """Memoized rewriting of words to the admissible basis.

    One context per (p, flavor, window); the memo table is read-mostly and
    the rewrite itself is a pure function of the word.  ``_memo`` maps each
    word the rewrite reads again to its form, a read-only ``OpElement`` kept
    once per distinct value in ``_forms``; every word that rewrites to 0
    maps to ``_zero``.  In flavor A those are the words of at most two
    letters and the tails, fronts and Adem replacement words the recursion
    meets; a longer word asked for from outside gets its form unstored.  Each
    inadmissible pair's sorted Adem terms are computed once, in ``_pairs``,
    each with a flag that says whether flavor-A normalization must run on it.

    The order of the steps depends on the flavor.  Flavor A rewrites the
    tail first and then applies one Adem relation at the front of each
    (head,) + term; the admissible form is unique, so the order changes no
    result, and the front words it memoizes are shared by every word with
    the same head and tail terms.  Flavor B rewrites at the leftmost
    violation: there the order decides which intermediate words exist, so
    it decides which words raise ``WindowExhausted``.
    """

    def __init__(self, p, flavor, window=None):
        self.p = p
        self.flavor = flavor
        if flavor == FLAVOR_B:
            self.window = window or DEFAULT_B_WINDOW
        else:
            self.window = window
        self._memo = {}  # word -> form
        self._forms = {}  # _form_key(terms) -> form
        self._zero = OpElement._homogeneous(p, flavor, {})
        self._pairs = {}  # (e1, a, e2, b) -> sorted [(replacement letters, coeff, normalize?)]

    def _check_window(self, word):
        if self.flavor != FLAVOR_B:
            return
        w = self.window
        if len(word) > w.L:
            raise WindowExhausted(f"word length {len(word)} exceeds window L={w.L}")
        for _, s in word:
            if abs(s) > w.K:
                raise WindowExhausted(f"index {s} exceeds window K={w.K}")

    def rewrite(self, word):
        """Admissible form of a word, as a mapping {admissible word: coeff mod p}.

        The read-only terms of the memo's form, shared by every word with an
        equal form; every word that rewrites to 0 gets the zero element's.
        """
        return self._form(tuple(word), keep=False).terms

    def _form(self, word, keep=True):
        """The word's shared form, stored unless it is a flavor-A word of 3+ letters not kept."""
        form = self._memo.get(word)
        if form is None:
            if self.flavor == FLAVOR_A and len(word) > 2:  # shorter words have one pair
                form = self._rewrite_tail_first(word)
                if not keep:
                    return form
            else:
                self._check_window(word)
                i = _first_violation(word, self.p)
                form = self._share({word: 1} if i is None else self._apply_pair(word, i))
            self._memo[word] = form
        return form

    def _share(self, terms):
        """The memo's one form equal to terms; a key hit counts only when equal.

        On a collision (hash(-1) == hash(-2), so flavor B meets them) the next key is probed."""
        if not terms:
            return self._zero
        key = _form_key(terms)
        form = self._forms.get(key)
        while form is not None and form.terms != terms:
            key += 1
            form = self._forms.get(key)
        if form is None:
            form = self._forms[key] = OpElement._homogeneous(self.p, self.flavor, terms)
        return form

    def _rewrite_tail_first(self, word):
        """Flavor A: rewrite word[1:], then each (word[0],) + admissible term.

        Such a word can violate admissibility only at its front pair; its
        admissible form is memoized under it too.  Returns the word's form.
        """
        p, memo = self.p, self._memo
        head = word[0]
        tail = self._form(word[1:]).terms
        result = {}
        for u, c in tail.items():
            w = (head,) + u
            front = memo.get(w)
            if front is None:
                (_, a), (e2, b) = head, u[0]
                front = memo[w] = self._share({w: 1} if a >= p * b + e2 else self._apply_pair(w, 0))
            if len(tail) == 1 and c == 1:
                return front
            add_scaled(result, front.terms, c, p)
        return self._share(result)

    def _apply_pair(self, word, i):
        """Replace the pair word[i], word[i + 1] by its Adem terms and rewrite each."""
        pair = word[i] + word[i + 1]
        terms = self._pairs.get(pair)
        if terms is None:
            # in a normalized flavor-A word only a replacement with an
            # index-0 letter (P^0, or a bare Bockstein to merge) needs work
            terms = self._pairs[pair] = [
                (repl, c, self.flavor == FLAVOR_A and any(s == 0 for _, s in repl))
                for repl, c in sorted(_adem_pair(*pair, self.p, self.flavor).items())
            ]
        p = self.p
        head, rest = word[:i], word[i + 2 :]
        result = {}
        for repl, c, normalize in terms:
            new = head + repl + rest
            if normalize:
                new = normalize_word_a(new, p)
                if new is None:
                    continue
            add_scaled(result, self._form(new).terms, c, p)
        return result


_contexts = {}


def get_context(p, flavor, window=None):
    key = (p, flavor, window)
    if key not in _contexts:
        _contexts[key] = AdemContext(p, flavor, window)
    return _contexts[key]


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class OpElement:
    """Homogeneous F_p-linear combination of same-flavor words; a value.

    terms is a read-only mapping {word: nonzero coeff mod p}.  An element
    may be an Adem memo's shared form (see ``adem_rewrite``), so arithmetic
    builds new elements and never changes one.
    """

    __slots__ = ("p", "flavor", "terms")

    def __init__(self, p, flavor, terms):
        self.p = p
        self.flavor = flavor
        self.terms = MappingProxyType({tuple(w): c % p for w, c in terms.items() if c % p})
        if len(self.terms) > 1 and len({word_degree(w, p) for w in self.terms}) > 1:
            raise ValueError("inhomogeneous combination of words")

    @classmethod
    def _homogeneous(cls, p, flavor, terms):
        """An element on nonzero reduced terms already known to share one degree."""
        x = cls.__new__(cls)
        x.p, x.flavor, x.terms = p, flavor, MappingProxyType(terms)
        return x

    @classmethod
    def from_word(cls, indices, p, flavor=FLAVOR_A):
        w = make_word(indices, p, flavor)
        if w is None:
            return cls(p, flavor, {})
        return cls(p, flavor, {w: 1})

    @classmethod
    def unit(cls, p, flavor=FLAVOR_A):
        return cls(p, flavor, {(): 1})

    @classmethod
    def zero(cls, p, flavor=FLAVOR_A):
        return cls(p, flavor, {})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        assert self.p == other.p and self.flavor == other.flavor
        t = dict(self.terms)
        add_scaled(t, other.terms, 1, self.p)
        return OpElement(self.p, self.flavor, t)

    def __sub__(self, other):
        assert self.p == other.p and self.flavor == other.flavor
        t = dict(self.terms)
        add_scaled(t, other.terms, -1, self.p)
        return OpElement(self.p, self.flavor, t)

    def __eq__(self, other):
        return (
            isinstance(other, OpElement)
            and self.p == other.p
            and self.flavor == other.flavor
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"OpElement({format_element(self)})"


def adem_rewrite(x, window=None):
    """Rewrite an OpElement into the admissible basis.

    The result's terms are read-only.  For one word with coefficient 1 the
    result is the rewrite memo's shared form itself, so it allocates nothing:
    equal forms are one object, and every zero word gives the context's one
    zero element.
    """
    if not isinstance(x, OpElement):
        raise TypeError("adem_rewrite expects an OpElement")
    ctx = get_context(x.p, x.flavor, window)
    if len(x.terms) == 1:
        ((w, c),) = x.terms.items()
        form = ctx._form(w, keep=False)
        if c == 1 or not form.terms:
            return form
        # the memo's terms are already reduced and nonzero
        terms = {w2: c * c2 % x.p for w2, c2 in form.terms.items()}
        return OpElement._homogeneous(x.p, x.flavor, terms)
    out = {}
    for w, c in x.terms.items():
        add_scaled(out, ctx.rewrite(w), c, x.p)
    # rewriting keeps the degree, so the terms need no homogeneity check
    return OpElement._homogeneous(x.p, x.flavor, out)


def multiply(a, b, window=None):
    """Product in the algebra: concatenate summand words pairwise, then rewrite."""
    assert a.p == b.p and a.flavor == b.flavor
    ctx = get_context(a.p, a.flavor, window)
    out = {}
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            w = wa + wb
            if a.flavor == FLAVOR_A:
                w = normalize_word_a(w, a.p)
                if w is None:
                    continue
            add_scaled(out, ctx.rewrite(w), ca * cb, a.p)
    return OpElement(a.p, a.flavor, out)


# ---------------------------------------------------------------------------
# polynomial-action oracle (p = 2, flavor A)
# ---------------------------------------------------------------------------

def sq_on_monomial(i, exps):
    """Sq^i on the monomial with exponent vector exps, in F_2[x_1..x_m].

    Closed form from the total square: the coefficient of the shift (j_1..j_m)
    is prod C(a_l, j_l) over compositions j of i.
    """
    partial = [((), i)]  # (shifted exponents so far, degree still to place)
    for a in exps:
        partial = [
            (acc + (a + j,), rem - j)
            for acc, rem in partial
            for j in range(0, min(a, rem) + 1)
            if binom_mod(a, j, 2)
        ]
    # each composition j gives its own monomial, so every coefficient is 1
    return {acc: 1 for acc, rem in partial if rem == 0}


def act_polynomial(x, poly, degree_cap=64):
    """Action of a flavor-A element on a polynomial in F_2[x_1..x_m].

    The polynomial is a dict {exponent tuple: 1} (coefficients mod 2).
    Words act by composing single squares right to left.
    """
    if isinstance(x, OpElement):
        if x.p != 2 or x.flavor != FLAVOR_A:
            raise ValueError("polynomial oracle is p = 2, flavor A only")
        items = x.terms.items()
    else:
        items = [(tuple(x), 1)]
    result = {}
    for word, coeff in items:
        cur = {tuple(e): 1 for e in poly}
        for _, s in reversed(word):
            nxt = {}
            for exps, c in cur.items():
                if sum(exps) + s > degree_cap:
                    raise ValueError("degree cap exceeded in polynomial action")
                for k, v in sq_on_monomial(s, exps).items():
                    nxt[k] = nxt.get(k, 0) ^ (c & v & 1)
            cur = {k: v for k, v in nxt.items() if v}
        if coeff % 2:
            for k, v in cur.items():
                result[k] = result.get(k, 0) ^ v
    return {k: v for k, v in result.items() if v}


# ---------------------------------------------------------------------------
# text syntax:  A:Sq[3,1]   B:Sq[0,-1]   A:P[b2,1]   (b prefix = Bockstein)
# ---------------------------------------------------------------------------

def parse_word_text(text, p=None):
    """Parse the bit-exact word syntax; returns (OpElement, p).

    The prime is taken from the argument; Sq implies p = 2 and P implies
    p = 3 when unspecified.  A P word at p = 2 and a Sq word at an odd
    prime are refused (ValueError).
    """
    text = text.strip()
    flavor = FLAVOR_A
    if text[:2].upper() in ("A:", "B:"):
        flavor = text[0].upper()
        text = text[2:]
    if text.startswith("Sq["):
        if p not in (None, 2):
            raise ValueError(f"{text!r}: Sq[...] words need p = 2, not p = {p}; use P[...]")
        body, implied_p = text[3:], 2
    elif text.startswith("P["):
        if p == 2:
            raise ValueError(f"{text!r}: P[...] words need an odd prime p, not p = 2")
        body, implied_p = text[2:], 3
    else:
        raise ValueError(f"cannot parse operation word {text!r}")
    if not body.endswith("]"):
        raise ValueError(f"cannot parse operation word {text!r}")
    body = body[:-1].strip()
    p = p or implied_p
    pairs = []
    if body:
        for tok in body.split(","):
            tok = tok.strip()
            eps = 0
            if tok.startswith("b"):
                eps = 1
                tok = tok[1:]
            pairs.append((eps, int(tok)))
    return OpElement.from_word(pairs, p, flavor), p


def format_word(word, p):
    sym = "Sq" if p == 2 else "P"
    inner = ",".join(("b" if e else "") + str(s) for e, s in word)
    return f"{sym}[{inner}]"


def format_element(x):
    if not x.terms:
        return "0"
    parts = []
    for w in sorted(x.terms):
        c = x.terms[w]
        body = "1" if not w else format_word(w, x.p)
        parts.append(body if c == 1 else f"{c}*{body}")
    return " + ".join(parts)
