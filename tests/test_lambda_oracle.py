"""The unstable Adams E2 of spheres against the Lambda algebra (p = 2).

A product of spheres is checked against the sum of its factors' Lambda
charts (the Massey-Peterson sum rule, ``summed_lambda_chart``).
The oracle (tests/oracles.py) shares no code with the cotriple resolution,
the cochain complexes or the ranks it checks.
"""

import pytest

from unstable_e2.adams import adams_chart, builtin_space

from oracles import (
    lambda_admissible,
    lambda_chart,
    lambda_cohomology,
    lambda_d,
    lambda_words,
    summed_lambda_chart,
)


def test_lambda_d_squares_to_zero():
    for n in (1, 2, 3, 4, 6):
        for s in range(0, 4):
            for k in range(0, 13):
                for w in lambda_words(n, s, k):
                    assert lambda_admissible(w) == {w}
                    assert lambda_d(lambda_d({w})) == set(), w


def test_lambda_stable_range_gives_the_hopf_classes():
    # first-filtration classes of S^n for n large: h0, h1, h2, h3 at stems 0, 1, 3, 7
    assert [lambda_cohomology(20, 1, k) for k in range(8)] == [1, 1, 0, 1, 0, 0, 0, 1]


@pytest.mark.parametrize(
    "X,Y,target_dims,s_max,t_max",
    [
        ("S1", "point", {0: 1}, 3, 6),
        ("S3", "point", {0: 1}, 4, 10),
        ("S2", "S1", {0: 1, 1: 1}, 3, 8),
        # most generators of the deeper levels are degenerate here
        ("S2", "S1", {0: 1, 1: 1}, 4, 10),
        ("S3", "point", {0: 1}, 5, 12),
    ],
)
def test_adams_chart_matches_lambda(X, Y, target_dims, s_max, t_max):
    D = t_max + max(target_dims)
    n = int(X[1:])
    chart = adams_chart(builtin_space(X, 2, D), builtin_space(Y, 2, D), s_max, t_max, D)
    want = lambda_chart(n, target_dims, s_max, t_max)
    cells = {(s, t) for s in range(s_max + 1) for t in range(t_max + 1)}
    assert {c: chart.dim(*c) for c in cells} == {c: want.get(c, 0) for c in cells}


def test_product_chart_matches_summed_lambda():
    # the torus against S1: by the Massey-Peterson rule each cell with t >= 1
    # is twice the circle's
    D, s_max, t_max = 7, 3, 6
    X, Y = builtin_space("S1*S1", 2, D), builtin_space("S1", 2, D)
    chart = adams_chart(X, Y, s_max, t_max, D)
    want = summed_lambda_chart(("S1", "S1"), {0: 1, 1: 1}, s_max, t_max)
    assert {c: chart.dim(*c) for c in want} == want
