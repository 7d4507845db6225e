import collections
import itertools
import random

import pytest
from oracles import leftmost_adem_rewrite, sparse

from unstable_e2 import steenrod as st
from unstable_e2.steenrod import (
    FLAVOR_A,
    FLAVOR_B,
    BWindow,
    OpElement,
    WindowExhausted,
    act_polynomial,
    adem_rewrite,
    excess,
    format_element,
    is_admissible,
    multiply,
    normalize_word_a,
    parse_word_text,
    word_degree,
)


def W(indices, p=2, flavor=FLAVOR_A):
    return OpElement.from_word(indices, p, flavor)


def test_excess_examples():
    assert excess(((0, 3), (0, 1)), 2) == 2
    assert excess((), 2) == 0
    assert excess(((1, 2), (0, 1)), 3) == 1


def test_admissibility_examples():
    assert is_admissible(((0, 2), (0, 1)), 2)
    assert not is_admissible(((0, 1), (0, 2)), 2)
    assert is_admissible((), 2)
    assert is_admissible(((0, 0), (0, 0), (0, 0)), 2)


def test_adem_rewrite_examples():
    assert adem_rewrite(W([1, 1])).is_zero()
    assert adem_rewrite(W([2, 2])).terms == {((0, 3), (0, 1)): 1}
    w = W([4, 2, 1])
    assert adem_rewrite(w).terms == w.terms


def test_multiply_examples():
    b = W([2, 1])
    assert multiply(OpElement.unit(2), b).terms == b.terms
    assert multiply(b, OpElement.zero(2)).is_zero()
    # Sq1 . Sq2 = the admissible form of the word (1,2) = Sq3
    assert multiply(W([1]), W([2])).terms == {((0, 3),): 1}


def test_oracle_examples():
    assert act_polynomial(W([1]), {(1,): 1}) == {(2,): 1}
    assert act_polynomial(W([1]), {(1, 1): 1}) == {(2, 1): 1, (1, 2): 1}
    assert act_polynomial(W([2]), {(2,): 1}) == {(4,): 1}


def test_oracle_soundness_medium_sweep():
    # rewriting is invisible to the polynomial action (the defining check)
    polys = [{(1, 0): 1}, {(1, 1): 1}, {(2, 1): 1}, {(2, 2): 1}]
    for L in (2, 3):
        for word in itertools.product(range(1, 6), repeat=L):
            w = W(list(word))
            r = adem_rewrite(w)
            for q in polys:
                assert act_polynomial(w, q) == act_polynomial(r, q), word


def test_admissible_operators_linearly_independent():
    # degree-d admissibles acting on the square-free monomial of 8 variables
    from unstable_e2.unstable_modules import admissible_words_a

    for d in range(1, 9):
        words = [w for w in admissible_words_a(2, d, 10**6)]
        base = {tuple([1] * 8): 1}
        vectors = []
        for w in words:
            img = act_polynomial(OpElement(2, FLAVOR_A, {w: 1}), base)
            vectors.append(frozenset(img))
        # independence of 0/1 vectors over F_2 via rank
        import numpy as np

        from unstable_e2.tower import rank

        keys = sorted(set().union(*vectors)) if vectors else []
        M = np.zeros((len(vectors), len(keys)), dtype=np.int64)
        for i, v in enumerate(vectors):
            for k in v:
                M[i, keys.index(k)] = 1
        assert rank(sparse(M, 2), 2) == len(words), d


def test_rewrite_idempotent_random_both_flavors():
    # the stated invariant: ten thousand random words across both flavors
    random.seed(123)
    for flavor in (FLAVOR_A, FLAVOR_B):
        for _ in range(5000):
            L = random.randint(1, 4)
            lo = 1 if flavor == FLAVOR_A else -4
            word = tuple((0, random.randint(lo, 8)) for _ in range(L))
            if flavor == FLAVOR_A:
                word = normalize_word_a(word, 2)
            x = OpElement(2, flavor, {word: 1})
            r = adem_rewrite(x)
            assert adem_rewrite(r).terms == r.terms
            for wd in r.terms:
                assert is_admissible(wd, 2)
                assert word_degree(wd, 2) == word_degree(word, 2)


def test_associativity_random():
    random.seed(5)
    for p, flavor in ((2, FLAVOR_A), (2, FLAVOR_B), (3, FLAVOR_A)):
        for _ in range(60):
            ops = []
            for _ in range(3):
                lo = 1 if flavor == FLAVOR_A else -2
                word = tuple(
                    (random.randint(0, 1) if p != 2 else 0, random.randint(lo, 5))
                    for _ in range(random.randint(1, 2))
                )
                if flavor == FLAVOR_A:
                    word = normalize_word_a(word, p)
                    if word is None:
                        word = ()
                ops.append(OpElement(p, flavor, {word: 1}))
            a, b, c = ops
            assert multiply(multiply(a, b), c).terms == multiply(a, multiply(b, c)).terms


def test_bockstein_squares_to_zero():
    assert W([(1, 0), (1, 0)], p=3).is_zero()


def test_odd_p_oracle_on_lens_space():
    # action on H*(BZ/3): P^s(x^a y^b) = C(b,s) x^a y^{b+2s}, beta derivation
    def act(word, a, b, p=3):
        coeff = 1
        for eps, s in reversed(word):
            c = st.binom_mod(b, s, p)
            coeff = coeff * c % p
            if coeff == 0:
                return 0, a, b
            b += (p - 1) * s
            if eps:
                if a == 1:
                    a, b = 0, b + 1
                else:
                    return 0, a, b
        return coeff, a, b

    def act_elem(x, a, b):
        out = {}
        for w, c in x.terms.items():
            co, aa, bb = act(w, a, b)
            if co:
                out[(aa, bb)] = (out.get((aa, bb), 0) + c * co) % 3
        return {k: v for k, v in out.items() if v}

    random.seed(17)
    for _ in range(150):
        word = tuple((random.randint(0, 1), random.randint(0, 4)) for _ in range(random.randint(2, 3)))
        nw = normalize_word_a(word, 3)
        if nw is None:
            continue
        x = OpElement(3, FLAVOR_A, {nw: 1})
        r = adem_rewrite(x)
        for a0, b0 in ((1, 3), (0, 5), (1, 8)):
            assert act_elem(x, a0, b0) == act_elem(r, a0, b0), word


def test_flavor_b_negative_index_rewrites():
    assert adem_rewrite(W([-1, 0], flavor=FLAVOR_B)).is_zero()
    r = adem_rewrite(W([-4, 0], flavor=FLAVOR_B))
    assert r.terms == {((0, -1), (0, -3)): 1, ((0, -2), (0, -2)): 1}


def test_window_exhaustion():
    small = BWindow(K=3, L=2)
    with pytest.raises(WindowExhausted):
        adem_rewrite(OpElement(2, FLAVOR_B, {((0, 1), (0, 2), (0, 1)): 1}), small)
    with pytest.raises(WindowExhausted):
        adem_rewrite(OpElement(2, FLAVOR_B, {((0, 5), (0, 0)): 1}), small)


def test_bwindow_is_an_immutable_keyed_value():
    assert BWindow() == BWindow(K=200, L=64) == st.DEFAULT_B_WINDOW
    w = BWindow(L=5, K=9)
    assert (w.K, w.L) == (9, 5) and w == BWindow(9, 5) and repr(w) == "BWindow(K=9, L=5)"
    with pytest.raises(AttributeError):
        w.L = 6
    # equal windows are one key: they share one Adem context and its memo
    assert st.get_context(2, FLAVOR_B, BWindow(K=9, L=5)) is st.get_context(2, FLAVOR_B, w)


def test_parse_and_format():
    x, p = parse_word_text("A:Sq[1,1]")
    assert format_element(adem_rewrite(x)) == "0"
    x, p = parse_word_text("A:Sq[2,2]")
    assert format_element(adem_rewrite(x)) == "Sq[3,1]"
    x, p = parse_word_text("A:Sq[4,2,1]")
    assert format_element(adem_rewrite(x)) == "Sq[4,2,1]"
    x, p = parse_word_text("A:P[b2,1]", p=3)
    assert x.terms == {((1, 2), (0, 1)): 1}
    x, p = parse_word_text("B:Sq[0,0]")
    assert x.terms == {((0, 0), (0, 0)): 1}
    # flavor A normalizes index-0 letters to the unit
    x, p = parse_word_text("A:Sq[0,3]")
    assert x.terms == {((0, 3),): 1}


def test_p_words_need_an_odd_prime():
    x, p = parse_word_text("P[1,1]")
    assert p == 3 and format_element(adem_rewrite(x)) == "2*P[2]"
    for text in ("P[1,1]", "A:P[b1,1]"):
        with pytest.raises(ValueError, match="odd prime"):
            parse_word_text(text, p=2)


def test_sq_words_need_p2():
    for text in ("Sq[1,1]", "A:Sq[2]", "B:Sq[0,-1]"):
        for p in (3, 5):
            with pytest.raises(ValueError, match="p = 2"):
                parse_word_text(text, p=p)
    assert parse_word_text("Sq[1,1]", p=2)[1] == 2


def test_inhomogeneous_element_raises():
    with pytest.raises(ValueError, match="inhomogeneous"):
        OpElement(2, FLAVOR_A, {((0, 1),): 1, ((0, 2),): 1})
    with pytest.raises(ValueError, match="inhomogeneous"):
        OpElement(3, FLAVOR_A, {((0, 1),): 1, ((1, 1),): 2})
    # sums and differences make the same check
    with pytest.raises(ValueError, match="inhomogeneous"):
        W([1]) + W([2])
    with pytest.raises(ValueError, match="inhomogeneous"):
        OpElement.from_word([(1, 1)], 3) - OpElement.from_word([1], 3)
    # a word whose coefficient is 0 mod p is dropped before the check
    assert OpElement(2, FLAVOR_A, {((0, 1),): 1, ((0, 2),): 2}).terms == {((0, 1),): 1}


def test_rewrite_results_do_not_alias_the_memo():
    # rewrite hands out the memo's own entry; the elements built from it
    # share it read-only, so writing to their terms raises
    ctx = st.get_context(2, FLAVOR_A)
    word = ((0, 2), (0, 2))
    entry = ctx.rewrite(word)
    assert ctx.rewrite(word) is entry and entry == {((0, 3), (0, 1)): 1}
    for x in (adem_rewrite(OpElement(2, FLAVOR_A, {word: 1})), multiply(W([2]), W([2]))):
        assert x.terms == entry
        with pytest.raises(TypeError):
            x.terms[((0, 4),)] = 1
        with pytest.raises(AttributeError):
            x.terms.clear()
    assert ctx.rewrite(word) == {((0, 3), (0, 1)): 1}


def test_zero_rewrites_share_one_read_only_entry():
    ctx = st.AdemContext(2, FLAVOR_A)
    zeros = [((0, 1), (0, 1)), ((0, 3), (0, 2)), ((0, 1), (0, 2), (0, 2)), ((0, 1), (0, 3))]
    entries = [ctx.rewrite(w) for w in zeros]
    assert all(e == {} and e is entries[0] for e in entries)
    with pytest.raises(TypeError):
        entries[0][((0, 1),)] = 1
    assert adem_rewrite(W([1, 1])).is_zero()


def test_flavor_b_odd_p_idempotence():
    random.seed(41)
    for _ in range(300):
        L = random.randint(1, 3)
        word = tuple((random.randint(0, 1), random.randint(-3, 4)) for _ in range(L))
        x = OpElement(3, FLAVOR_B, {word: 1})
        r = adem_rewrite(x)
        r2 = adem_rewrite(r)
        assert r.terms == r2.terms
        for wd in r.terms:
            assert is_admissible(wd, 3), wd
            assert word_degree(wd, 3) == word_degree(word, 3)


def _normalized_words(p, max_len, max_index):
    """Every normalized flavor-A word: positive letters, then at most a bare Bockstein."""
    eps = (0,) if p == 2 else (0, 1)
    letters = [(e, s) for e in eps for s in range(1, max_index + 1)]
    for n in range(1, max_len + 1):
        yield from itertools.product(letters, repeat=n)
        if p != 2:
            for w in itertools.product(letters, repeat=n - 1):
                yield w + ((1, 0),)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_tail_first_rewrite_matches_leftmost_oracle(p):
    # flavor A rewrites tail first; a memo-free leftmost-violation rewrite
    # with its own transcription of the relations must give the same forms
    ctx = st.AdemContext(p, FLAVOR_A)
    count = 0
    for word in _normalized_words(p, 4, 8):
        assert ctx.rewrite(word) == leftmost_adem_rewrite(word, p), word
        count += 1
    assert count == (4680 if p == 2 else 74273)


def test_flavor_b_keeps_leftmost_order():
    # leftmost order passes through Sq^7 Sq^1 Sq^3, outside K = 6; rewriting
    # the tail first would reach 0 inside the window
    with pytest.raises(WindowExhausted, match="index 7"):
        adem_rewrite(OpElement(2, FLAVOR_B, {((0, 3), (0, 5), (0, 3)): 1}), BWindow(K=6, L=3))


def test_one_word_rewrite_scales_the_memo_entry():
    ctx = st.get_context(3, FLAVOR_A)
    word = ((0, 1), (1, 1))
    entry = ctx.rewrite(word)
    assert entry == {((0, 2), (1, 0)): 1, ((1, 2),): 1}
    for c in (1, 2, 4):
        x = adem_rewrite(OpElement(3, FLAVOR_A, {word: c}))
        assert x.terms == {w: c * v % 3 for w, v in entry.items()}
        with pytest.raises(TypeError):
            x.terms[((0, 3),)] = 1
        assert entry == {((0, 2), (1, 0)): 1, ((1, 2),): 1}
        if c % 3 == 1:
            # the memo's shared form itself, not a fresh wrapper
            assert adem_rewrite(OpElement(3, FLAVOR_A, {word: 1})) is x
        else:
            assert x.terms is not entry
        assert all(x.terms.values())


def _sweep(ctx, words):
    for word in words:
        try:
            ctx.rewrite(word)
        except WindowExhausted:
            pass


def _flavor_b_words():
    letters = [(0, s) for s in range(-3, 5)]
    for n in range(1, 4):
        yield from itertools.product(letters, repeat=n)


def _sweeps():
    for p in (2, 3):
        yield st.AdemContext(p, FLAVOR_A), list(_normalized_words(p, 3, 8))
    yield st.AdemContext(2, FLAVOR_B, BWindow(K=6, L=4)), list(_flavor_b_words())


def test_memo_keeps_one_form_per_distinct_value():
    for ctx, words in _sweeps():
        _sweep(ctx, words)
        forms = list(ctx._memo.values())
        objects = {id(f) for f in forms}
        values = {frozenset(f.terms.items()) for f in forms}
        assert len(objects) == len(values) < len(forms), (ctx.p, ctx.flavor)
        assert any(f is ctx._zero for f in forms)


def test_zero_words_map_to_the_one_zero_element():
    for ctx, words in _sweeps():
        _sweep(ctx, words)
        zeros = [w for w, f in ctx._memo.items() if f.is_zero()]
        assert zeros and all(ctx._memo[w] is ctx._zero for w in zeros)
    for p, w in ((2, ((0, 1), (0, 1))), (3, ((0, 1), (0, 1))), (2, ((0, 2), (0, 2)))):
        x = OpElement(p, FLAVOR_A, {w: 1})
        assert adem_rewrite(x) is adem_rewrite(x)
    ctx = st.get_context(2, FLAVOR_A)
    assert adem_rewrite(OpElement(2, FLAVOR_A, {((0, 1), (0, 1)): 1})) is ctx._zero


@pytest.mark.parametrize("p", [2, 3])
def test_colliding_form_keys_keep_every_form_exact(p, monkeypatch):
    # every form shares one key: a hit must be checked for equality
    monkeypatch.setattr(st, "_form_key", lambda terms: 0)
    ctx = st.AdemContext(p, FLAVOR_A)
    words = list(_normalized_words(p, 3, 8))
    _sweep(ctx, words)
    for word in words:
        assert ctx.rewrite(word) == leftmost_adem_rewrite(word, p), word


@pytest.mark.parametrize("p", [2, 3])
def test_memo_keeps_only_the_words_the_rewrite_reads_again(p, monkeypatch):
    # an outside query of a word longer than two letters is rewritten from
    # the kept tails, fronts and Adem replacement words, and is not stored
    ctx = st.AdemContext(p, FLAVOR_A)
    reached, runs = set(), collections.Counter()  # words the recursion asks for; rewrites per word
    form, tail_first = st.AdemContext._form, st.AdemContext._rewrite_tail_first

    def traced_form(self, word, keep=True):
        if keep:
            reached.add(word)
        return form(self, word, keep)

    def traced_tail_first(self, word):
        runs[word] += 1
        out = tail_first(self, word)
        reached.update((word[0],) + u for u in self._memo[word[1:]].terms)  # the fronts
        return out

    monkeypatch.setattr(st.AdemContext, "_form", traced_form)
    monkeypatch.setattr(st.AdemContext, "_rewrite_tail_first", traced_tail_first)
    words = [w for w in _normalized_words(p, 4, 8) if len(w) >= 3]
    swept = set(words)
    first = [ctx.rewrite(w) for w in words]
    for word, terms in zip(words, first):
        assert terms == leftmost_adem_rewrite(word, p), word
    long_keys = {w for w in ctx._memo if len(w) >= 3}
    assert long_keys <= reached and swept - long_keys
    # a word the recursion reaches is stored, so it is rewritten once; a
    # swept word once more at most, when its outside query came first
    assert all(n <= 1 + (w in swept) for w, n in runs.items())
    # a second sweep reads the kept words: no new entry, no Adem pair rewritten
    size = len(ctx._memo)
    monkeypatch.setattr(st.AdemContext, "_apply_pair", lambda *a: pytest.fail("Adem pair rewritten"))
    second = [ctx.rewrite(w) for w in words]
    assert len(ctx._memo) == size
    assert all(a is b for a, b in zip(first, second))
