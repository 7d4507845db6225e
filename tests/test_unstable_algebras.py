import itertools
import random

import pytest

from unstable_e2 import steenrod as st
from unstable_e2.unstable_algebras import (
    DegreeCapExceeded,
    FreeUnstableAlgebra,
    MonomialBasis,
    extend_algebra_map,
)
from unstable_e2.tower import add_scaled
from unstable_e2.unstable_modules import GradedVS, admissible_words_a, free_a_basis

from oracles import algebra_map_violations, gen_vector, partition_count_dims


def test_hilbert_one_generator_degree_one():
    A = FreeUnstableAlgebra(2, [("i1", 1)], 6)
    assert A.hilbert() == (1, 1, 1, 1, 1, 1, 1)


def test_hilbert_degree_two_and_basis_example():
    A = FreeUnstableAlgebra(2, [("i2", 2)], 7)
    assert A.hilbert() == (1, 0, 1, 1, 1, 2, 2, 2)
    assert len(A.basis(5)) == 2  # the product class and the length-two word class


def test_hilbert_no_generators():
    A = FreeUnstableAlgebra(2, [], 5)
    assert A.hilbert() == (1, 0, 0, 0, 0, 0)


def test_monomial_basis_letters_must_ascend_in_degree():
    # the enumeration stops at the first letter heavier than the degree left,
    # so letters out of degree order would lose monomials: refused
    with pytest.raises(ValueError, match="must not decrease"):
        MonomialBasis(3, (2, 7, 3), 7)
    assert MonomialBasis(3, (2, 3, 7), 7).hilbert() == (1, 0, 1, 1, 1, 1, 1, 2)


def test_unit_basis():
    A = FreeUnstableAlgebra(2, [("i2", 2)], 4)
    assert A.basis(0) == ((),)


def test_hilbert_against_partition_oracle():
    for n in (1, 2, 3):
        D = 12
        A = FreeUnstableAlgebra(2, [(f"i{n}", n)], D)
        # independent generator enumeration: admissibles of excess < n
        gen_degs = []
        for wd in range(0, D - n + 1):
            for w in admissible_words_a(2, wd, n - 1):
                gen_degs.append(n + wd)
        assert partition_count_dims(gen_degs, D) == A.hilbert()
    # the series read off the letter degrees counts the enumerated basis,
    # exterior letters included at odd p
    for p, gens, D in ((2, [("a", 1), ("b", 3)], 12), (3, [("a", 1), ("b", 2)], 14),
                       (5, [("a", 2), ("b", 3)], 20)):
        A = FreeUnstableAlgebra(p, gens, D)
        assert A.hilbert() == tuple(len(A.basis(d)) for d in range(D + 1)), p


def test_hilbert_monotone_in_generator_degree():
    # stable range: below degree 2n, U(F(n)) is F(n), and the suspension
    # F(n + 1) -> F(n) is an isomorphism in degrees n + 1 + k for k < n; at
    # p = 2 both still hold at k = n, where i^2 = Sq^n i is the one product
    hs = {n: FreeUnstableAlgebra(2, [("i", n)], 12).hilbert() for n in range(1, 7)}
    for n in range(1, 6):
        for k in range(n + 1):
            assert hs[n][n + k] == hs[n + 1][n + 1 + k], (n, k)
    for p in (2, 3, 5):
        for n in range(1, 6):
            h = FreeUnstableAlgebra(p, [("i", n)], 2 * n - 1).hilbert()
            for d in range(n, 2 * n):
                assert h[d] == len(free_a_basis([("i", n)], d, p)), (p, n, d)


def test_top_operation_is_squaring():
    # the top operation is the p-th power: Sq^|y| y = y^2, and P^(|y|/2) y = y^3
    # on even-degree y at p = 3
    for p, gens, D in ((2, [("i2", 2)], 8), (3, [("a", 2), ("b", 4)], 12)):
        A = FreeUnstableAlgebra(p, gens, D)
        checked = 0
        for i, (w, g) in enumerate(A.polygens):
            d = A.pg_degree[i]
            if p * d > D or (p != 2 and d % 2):
                continue
            top = d if p == 2 else d // 2
            assert A.act_letter(0, top, {((i, 1),): 1}) == {((i, p),): 1}, (p, w, g)
            checked += 1
        assert checked >= 2


def test_odd_p_lens_algebra():
    A = FreeUnstableAlgebra(3, [("x", 1)], 8)
    assert A.hilbert() == (1,) * 9
    x = gen_vector(A, "x")
    bx = A.act_letter(1, 0, x)
    assert len(bx) == 1
    assert A.act_letter(1, 0, bx) == {}
    ibx = A.pg_index[(((1, 0),), "x")]
    assert A.act_letter(0, 1, bx) == {((ibx, 3),): 1}


def test_odd_p_exterior_square_vanishes():
    A = FreeUnstableAlgebra(3, [("x", 3)], 8)
    x = gen_vector(A, "x")
    assert A.mul(x, x) == {}


def test_cartan_formula_on_products():
    # beta^e P^s(ab) = sum over k of beta^e(P^k a) P^(s-k) b, plus at e = 1
    # the Koszul term (-1)^|a| P^k a beta P^(s-k) b
    for p, D, gens, letters in (
        (2, 10, [("a", 2), ("b", 3)], [(0, 1), (0, 2), (0, 3)]),
        (3, 14, [("x", 1), ("a", 2), ("b", 3)], [(0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]),
    ):
        A = FreeUnstableAlgebra(p, gens, D)
        for (a, da), (b, _) in itertools.combinations(gens, 2):
            av, bv = gen_vector(A, a), gen_vector(A, b)
            ab = A.mul(av, bv)
            for eps, s in letters:
                terms = []
                for k in range(0, s + 1):
                    terms.append((1, A.mul(A.act_letter(eps, k, av), A.act_letter(0, s - k, bv))))
                    if eps:
                        koszul = A.mul(A.act_letter(0, k, av), A.act_letter(1, s - k, bv))
                        terms.append(((-1) ** da, koszul))
                rhs = {}
                for sign, part in terms:
                    for m, c in part.items():
                        rhs[m] = (rhs.get(m, 0) + sign * c) % p
                rhs = {k: v for k, v in rhs.items() if v}
                assert A.act_letter(eps, s, ab) == rhs, (p, a, b, eps, s)


def test_bockstein_is_a_derivation_on_products():
    # beta(ab) = beta(a) b + (-1)^|a| a beta(b) on products of two generators
    p = 3
    A = FreeUnstableAlgebra(p, [("x", 1), ("y", 2), ("z", 3), ("u", 4)], 9)
    names = [n for n, _ in A.gens]
    for a in names:
        for b in names:
            av, bv = gen_vector(A, a), gen_vector(A, b)
            rhs = A.mul(A.act_letter(1, 0, av), bv)
            sign = -1 if A.gen_degree[a] % 2 else 1
            for m, c in A.mul(av, A.act_letter(1, 0, bv)).items():
                rhs[m] = (rhs.get(m, 0) + sign * c) % p
            rhs = {m: c for m, c in rhs.items() if c}
            assert A.act_letter(1, 0, A.mul(av, bv)) == rhs, (a, b)


def test_action_instability():
    # Sq^s a = 0 for s > |a|; at p = 3, P^s a = 0 for 2s > |a|, and
    # beta P^s a = 0 for 2s = |a| too, as beta(a^3) = 0
    A = FreeUnstableAlgebra(2, [("a", 2)], 10)
    av = gen_vector(A, "a")
    for s in (3, 4, 5):
        assert A.act_letter(0, s, av) == {}
    A = FreeUnstableAlgebra(3, [("a", 2), ("b", 4)], 14)
    for name, n in A.gens:
        v = gen_vector(A, name)
        assert A.act_letter(0, n // 2, v) and A.act_letter(1, n // 2 - 1, v)
        for s in range(n // 2 + 1, n // 2 + 3):
            assert A.act_letter(0, s, v) == {} and A.act_letter(1, s, v) == {}, (name, s)
        assert A.act_letter(1, n // 2, v) == {}, name


def test_act_word_matches_op_composition():
    random.seed(8)
    A = FreeUnstableAlgebra(2, [("a", 3)], 12)
    av = gen_vector(A, "a")
    for _ in range(30):
        w1 = (0, random.randint(1, 3))
        w2 = (0, random.randint(1, 3))
        lhs = A.act_letter(*w1, A.act_letter(*w2, av))
        op = st.multiply(
            st.OpElement(2, st.FLAVOR_A, {(w1,): 1}),
            st.OpElement(2, st.FLAVOR_A, {(w2,): 1}),
        )
        rhs = {}  # the op acts term by term
        for w, c in op.terms.items():
            add_scaled(rhs, A.act_word(w, av), c, 2)
        assert lhs == rhs


def test_degree_cap_errors():
    A = FreeUnstableAlgebra(2, [("a", 3)], 5)
    av = gen_vector(A, "a")
    for _ in range(2):  # an over-cap product is never stored in the product table
        with pytest.raises(DegreeCapExceeded):
            A.mul(A.act_letter(0, 2, av), av)


def test_monad_unit_and_mult_laws():
    p, D = 2, 6
    W = GradedVS(p, {2: ("w",)})
    G = FreeUnstableAlgebra(p, [("w", 2)], D)
    # G(G(W)) on the reduced basis of G(W)
    names = {m: ("g", m) for _, m in G.reduced_basis_items()}
    GG = FreeUnstableAlgebra(p, [(names[m], G.monomial_degree(m)) for m in names], D)
    mult = extend_algebra_map(GG, G, {names[m]: {m: 1} for m in names})
    # unit law 1: mult . G(unit-insertion) = id on G(W)
    # the insertion sends w to the generator named by the monomial [w]
    ins = {"w": {((GG.pg_index[((), names[((G.pg_index[((), 'w')], 1),)])], 1),): 1}}
    comp = extend_algebra_map(G, GG, ins)
    for d, m in G.reduced_basis_items():
        image = comp[m]
        # evaluate back down via mult
        val = {}
        for mm, c in image.items():
            for k, c2 in _eval_in(mult, GG, G, mm).items():
                val[k] = (val.get(k, 0) + c * c2) % p
        val = {k: v for k, v in val.items() if v}
        assert val == {m: 1}, m
    # unit law 2: mult . unit-of-GG = id
    for d, m in G.reduced_basis_items():
        gen = ((GG.pg_index[((), names[m])], 1),)
        assert mult[gen] == {m: 1}


def _eval_in(mult_images, GG, G, monomial):
    if not monomial:
        return {(): 1}
    return mult_images[monomial]


def test_freeness_hom_bijection():
    # maps out of G(W) into an algebra correspond to linear maps out of W:
    # dimension of the space of algebra maps equals dim Hom(W, underlying)
    p, D = 2, 6
    G = FreeUnstableAlgebra(p, [("w", 2)], D)
    T = FreeUnstableAlgebra(p, [("a", 2)], D)
    # candidate generator images: all vectors in T degree 2 (dim 1 -> p maps)
    count = 0
    for c in range(p):
        img = {"w": {m: c for m in [((T.pg_index[((), "a")], 1),)]} if c else {}}
        ext = extend_algebra_map(G, T, img)
        # every extension is an algebra map by construction; count them
        count += 1
    assert count == p ** 1


def test_algebra_map_identity_and_zero():
    A = FreeUnstableAlgebra(2, [("i2", 2)], 7)
    ident = extend_algebra_map(A, A, {"i2": gen_vector(A, "i2")})
    zero = extend_algebra_map(A, A, {"i2": {}})
    assert len(ident) == len(zero) == sum(len(A.basis(d)) for d in range(1, 8))
    for d in range(2, 8):
        for m in A.basis(d):
            assert ident[m] == {m: 1}
            assert zero[m] == {}
    assert algebra_map_violations(A, A, ident) == []
    assert algebra_map_violations(A, A, zero) == []


def test_algebra_map_validate_reports_violation():
    A = FreeUnstableAlgebra(2, [("i2", 2)], 7)
    B = FreeUnstableAlgebra(2, [("a", 2), ("b", 3)], 11)
    f = extend_algebra_map(A, B, {"i2": gen_vector(B, "a")})
    assert algebra_map_violations(A, B, f) == []
    # send i2 -> a but declare Sq1 i2 -> 0: operation-incompatible
    sq1 = ((A.pg_index[(((0, 1),), "i2")], 1),)
    assert f[sq1]
    assert algebra_map_violations(A, B, {**f, sq1: {}}) != []
    # a degree-raising generator image: f(Sq2 i2) = f(i2^2) = b^2, not Sq2 b
    g = extend_algebra_map(A, B, {"i2": gen_vector(B, "b")})
    assert ((0, 2), A.pg_index[((), "i2")]) in [bad[:2] for bad in algebra_map_violations(A, B, g)]


def test_monad_unit_natural_in_w():
    # G(f) . unit = unit . f for the linear map f: a -> c, b -> c of degree-2 spaces
    p, D = 2, 5
    G = FreeUnstableAlgebra(p, [("a", 2), ("b", 2)], D)
    G2 = FreeUnstableAlgebra(p, [("c", 2)], D)
    f = {"a": {"c": 1}, "b": {"c": 1}}

    def unit(A, vec):
        return {m: c for name, c in vec.items() for m in gen_vector(A, name)}

    ext = extend_algebra_map(G, G2, {w: unit(G2, img) for w, img in f.items()})
    for w, img in f.items():
        (m,) = unit(G, {w: 1})
        assert ext[m] == unit(G2, img)
    # and G(f) is multiplicative: a.b -> c^2
    (ab,) = G.mul(gen_vector(G, "a"), gen_vector(G, "b"))
    assert ext[ab] == G2.mul(gen_vector(G2, "c"), gen_vector(G2, "c"))
