"""Acceptance suite: one test per criterion, one pass/fail line each.

Every expected value is either computed by an independent oracle inside
this suite or frozen from one; tolerances are exact equality throughout.
Run with -s to see the per-criterion lines.
"""

import itertools
import random
import subprocess
import sys

import numpy as np

from unstable_e2 import steenrod as st
from unstable_e2.adams import (
    CotripleResolution,
    adams_chart,
    builtin_space,
    chart_emit,
)
from unstable_e2.derivations import bar_homology_check, descent_verify
from unstable_e2.goerss_hopkins import compare_charts, d1_saturation_report, gh_chart
from unstable_e2.unstable_algebras import FreeUnstableAlgebra
from unstable_e2.unstable_modules import (
    GradedVS,
    ModWindow,
    admissible_words_a,
    exactness_report,
    free_a_basis,
)

from oracles import (
    brute_force_admissible,
    lambda_chart,
    partition_count_dims,
    simplicial_identity_violations,
    summed_lambda_chart,
)


def _report(num, title, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {title}")
    assert ok, f"criterion {num} failed: {title}"


# -- criterion 1: Adem rewriting agrees with the polynomial action ------------

def _sq_matrix(i, d, cache={}):
    """Matrix of one square from degree d to d+i on monomials of F_2[x, y]."""
    key = (i, d)
    if key not in cache:
        rows = d + i + 1
        cols = d + 1
        M = np.zeros((rows, cols), dtype=np.int64)
        for a in range(d + 1):
            img = st.sq_on_monomial(i, (a, d - a))
            for (a2, b2), c in img.items():
                M[a2, a] = c
        cache[key] = M
    return cache[key]


def _word_matrix(word, d):
    M = np.eye(d + 1, dtype=np.int64)
    deg = d
    for _, s in reversed(word):
        M = (_sq_matrix(s, deg) @ M) % 2
        deg += s
    return M


def test_criterion_1_adem_oracle_equivalence():
    degrees = range(0, 17)
    ok = True
    checked = 0
    rng = random.Random(1)
    for L in (1, 2, 3):
        for idx in itertools.product(range(1, 9), repeat=L):
            word = tuple((0, s) for s in idx)
            x = st.OpElement(2, st.FLAVOR_A, {word: 1})
            r = st.adem_rewrite(x)
            # the action matrices cover every monomial of F_2[x, y] at once
            for d in degrees:
                lhs = _word_matrix(word, d)
                rhs = np.zeros_like(lhs)
                for w2, c in r.terms.items():
                    rhs = (rhs + c * _word_matrix(w2, d)) % 2
                if not np.array_equal(lhs, rhs):
                    ok = False
            # and a literal subsample through the named oracle entry point
            if rng.random() < 0.05:
                q = {(rng.randint(0, 8), rng.randint(0, 8)): 1}
                if st.act_polynomial(x, q) != st.act_polynomial(r, q):
                    ok = False
            checked += 1
    _report(1, f"Adem oracle equivalence on {checked} words x 17 degrees (p=2)", ok)


# -- criterion 2: free-object dimensions against independent oracles ----------

def test_criterion_2_free_object_dimension_oracles():
    ok = True
    for n in (1, 2, 3):
        for d in range(n, 13):
            fast = free_a_basis([("x", n)], d)
            slow = brute_force_admissible(2, d - n, n)
            ok = ok and sorted(w for w, _ in fast) == slow
    for n in (1, 2):
        A = FreeUnstableAlgebra(2, [(f"i{n}", n)], 12)
        gen_degs = []
        for wd in range(0, 12 - n + 1):
            for w in admissible_words_a(2, wd, n - 1):
                gen_degs.append(n + wd)
        ok = ok and partition_count_dims(gen_degs, 12) == A.hilbert()
    _report(2, "free module and free algebra dimensions match brute-force oracles", ok)


# -- criterion 3: windowed short exact sequence --------------------------------

def test_criterion_3_windowed_exact_sequence():
    ok = True
    for n in (1, 2):
        rep = exactness_report(GradedVS.single(2, n), ModWindow(D=8, L=8, K=8))
        for d, cell in rep["degrees"].items():
            ok = ok and cell["injective"] and cell["q_composite_zero"]
            ok = ok and cell["raw_coker"] >= cell["free_classical_dim"]
            ok = ok and cell["saturated"]
            ok = ok and cell["stabilized_coker"] == cell["free_classical_dim"]
    _report(3, "1-P^0 injective, q(1-P^0)=0, saturated cokernel = classical dims", ok)


# -- criterion 4: descent theorem on random finite-type instances --------------

def test_criterion_4_descent_theorem():
    random.seed(20260809)
    ok = True
    for _ in range(100):
        vdim = random.randint(1, 5)
        mdim = random.randint(1, 6 - vdim) if vdim < 6 else 1

        def rand_vs(tag, k):
            basis = {}
            for i in range(k):
                basis.setdefault(random.randint(1, 6), []).append(f"{tag}{i}")
            return GradedVS(2, {d: tuple(v) for d, v in basis.items()})

        V0, M0 = rand_vs("v", vdim), rand_vs("m", mdim)
        rep = descent_verify(V0, M0, p=2, start_level=1, max_level=2)
        ok = ok and rep["pass_dims"] and rep["pass_inverse_pair"]
        ok = ok and all(w["death_level"] == 2 for w in rep["witnesses"])
    _report(4, "100 random instances: D0 = classical with inverse pair, "
               "D1 classes die one level up", ok)


# -- criterion 5: bar-construction homology ------------------------------------

def test_criterion_5_bar_homology():
    ok = True
    for n in (1, 2):
        rep = bar_homology_check(n, 5, s_max=3, L=2)
        ok = ok and rep["pass"]
        expected = FreeUnstableAlgebra(2, [("i", n)], 5).hilbert()
        for (s, d), cell in rep["cells"].items():
            want = expected[d] if s == 0 else 0
            ok = ok and cell["dim"] == want and cell["saturated"]
    _report(5, "bar homology concentrated in degree 0, equal to the free algebra", ok)


# -- criterion 6: resolution well-formedness ------------------------------------

def test_criterion_6_resolution_well_formedness():
    ok = True
    for name in ("S2", "K2"):
        space = builtin_space(name, 2, 8)
        # levels 0..3, complete in a resolution one level deeper
        res = CotripleResolution(space, 4, 8)
        ok = ok and simplicial_identity_violations(res) == []
        # every cochain complex asserts d.d = 0 at construction; build the
        # ones against Sigma^t S1 for t = 5, 7 (degrees 5..8), where two
        # consecutive coboundaries are nonzero, so d.d composes real maps
        from unstable_e2.adams import suspension_target

        Y = builtin_space("S1", 2, 8)
        composable = False
        for t in (5, 7):
            for d in suspension_target(Y, t).degrees():
                maps = res.der_cochain_complex(d, 4).maps
                composable = composable or any(M.size and N.size for M, N in zip(maps, maps[1:]))
        ok = ok and composable
    _report(6, "simplicial identities hold as matrices (s_max=3, D=8); d.d = 0 "
               "asserted on every cochain complex", ok)


# -- criterion 7: free sources collapse -----------------------------------------

def test_criterion_7_free_source_collapse():
    ok = True
    Y = builtin_space("S1", 2, 8)
    for n, t_max in ((1, 3), (2, 4)):
        X = builtin_space(f"K{n}", 2, 8)
        ch = adams_chart(X, Y, s_max=3, t_max=t_max, D=8)
        for (s, t), dim in ch.entries.items():
            if s > 0 and dim:
                ok = False
    _report(7, "charts of free sources vanish for s in 1..3 (n = 1, 2)", ok)


# -- criterion 8: the two pipelines agree ----------------------------------------

PAIRS = (("S2", "S1"), ("S2", "point"), ("K2", "S1"))


def _run_pair(xn, yn):
    X = builtin_space(xn, 2, 10)
    Y = builtin_space(yn, 2, 10)
    a = adams_chart(X, Y, s_max=2, t_max=6, D=10)
    g = gh_chart(X, Y, s_max=2, t_max=6, D=10, level=2)
    rep = compare_charts(a, g)
    sat = d1_saturation_report(X, Y, s_max=2, t_max=6, D=10, schedule_max=3)
    return a, g, rep, sat


def test_criterion_8_main_comparison():
    # the cells agree by construction (gh_chart relabels adams_chart); the
    # comparison that can fail is criterion 10
    ok = True
    for xn, yn in PAIRS:
        a, g, rep, sat = _run_pair(xn, yn)
        ok = ok and rep["pass"] and rep["fringe_match"]
        ok = ok and sat["pass"]
    _report(8, "both pipelines agree cellwise on all three pairs, with verified "
               "base-form kernels and death witnesses within the schedule", ok)


# -- criterion 9: determinism -----------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    ok = True
    for xn, yn in PAIRS[:1]:
        X = builtin_space(xn, 2, 10)
        Y = builtin_space(yn, 2, 10)
        blobs = set()
        for _ in range(2):
            a = adams_chart(X, Y, s_max=2, t_max=6, D=10)
            blobs.add(chart_emit(a, "json"))
            g = gh_chart(X, Y, s_max=2, t_max=6, D=10, level=2)
            blobs.add(chart_emit(g, "json"))
        ok = ok and len(blobs) == 2
    # fresh interpreters with different hash seeds emit identical bytes
    outs = []
    for i in range(2):
        f = tmp_path / f"det{i}.json"
        r = subprocess.run(
            [sys.executable, "-m", "unstable_e2.cli", "adams-chart", "--X", "S2",
             "--Y", "S1", "--smax", "2", "--tmax", "6", "--D", "10", "--out", str(f)],
            capture_output=True,
        )
        ok = ok and r.returncode == 0
        outs.append(f.read_bytes())
    ok = ok and outs[0] == outs[1]
    _report(9, "chart files are byte-identical across repeated runs and interpreters", ok)


# -- criterion 10: the Lambda algebra ----------------------------------------------

LAMBDA_WINDOWS = (
    ("S1", "point", {0: 1}, 3, 6),
    ("S3", "point", {0: 1}, 4, 10),
    ("S2", "S1", {0: 1, 1: 1}, 3, 8),
    ("S4", "point", {0: 1}, 3, 12),
    ("S3", "S2", {0: 1, 2: 1}, 3, 8),
)
# product sources, against sums of sphere charts (the Massey-Peterson rule)
PRODUCT_WINDOWS = (
    ("S1*S2", "point", {0: 1}, 3, 7),
    ("K1*S1", "point", {0: 1}, 3, 6),
)


def test_criterion_10_lambda_algebra():
    ok = True
    for xn, yn, target_dims, s_max, t_max in LAMBDA_WINDOWS + PRODUCT_WINDOWS:
        D = t_max + max(target_dims)
        X, Y = builtin_space(xn, 2, D), builtin_space(yn, 2, D)
        chart = adams_chart(X, Y, s_max, t_max, D)
        if "*" in xn:
            want = summed_lambda_chart(xn.split("*"), target_dims, s_max, t_max)
        else:
            want = lambda_chart(int(xn[1:]), target_dims, s_max, t_max)
            want = {(s, t): want.get((s, t), 0)
                    for s in range(s_max + 1) for t in range(t_max + 1)}
        ok = ok and all(chart.dim(*c) == dim for c, dim in want.items())
    _report(10, "adams_chart equals the unstable Lambda algebra's E2 cell for cell "
                "on five sphere windows and, by the Massey-Peterson sum rule, on "
                "S1*S2 and K1*S1 (p=2)", ok)
