"""An independent localization oracle: every row's sums recomputed with sympy.

Each fixed component's equivariant integral is rebuilt from its data as a
rational function of the equivariant parameter x: a point from its tangent
weights, a surface from its normal degrees with q^2 = 0, and a 4-manifold
from its normal Euler class, truncated above degree 4 and read through
`pair`.  Each must equal `contribution` times x^(p-3), and their sum must
equal `integrate`, for every integrand, on every row and on its flip.  sympy
is a test-only dependency; the package stays standard-library only.
"""

import pytest

sympy = pytest.importorskip("sympy")

from hamfix.classify6 import classify_all  # noqa: E402
from hamfix.lattice import pair  # noqa: E402
from hamfix.localization import (  # noqa: E402
    C1,
    C1_CUBED,
    INTEGRANDS,
    ONE,
    contribution,
    integrate,
)
from row_cases import CASE_IDS, rows_and_flips  # noqa: E402

x, t, a, n = sympy.symbols("x t a n")
POWER = {ONE: 0, C1: 1, C1_CUBED: 3}


def _graded_part(expr, degree):
    """Coefficient of t^degree of expr, a function regular at t = 0."""
    return sympy.diff(expr, t, degree).subs(t, 0) / sympy.factorial(degree)


def point_integral(fc, p):
    w = fc.weights
    return (sum(w) * x) ** p / (w[0] * w[1] * w[2] * x**3)


def surface_integral(fc, p):
    # the normal bundle splits into lines of weight +-1 and degree d; its
    # equivariant Euler class is prod (w x + d q), and c1 restricts to
    # (2 - 2g) q plus their sum; t stands for q, and integration reads q^1
    down = fc.index // 2
    weights = [1] * (2 - down) + [-1] * down
    genus = getattr(fc, "genus", 0)
    if hasattr(fc, "normal_degree"):
        # an extremal sphere stores the sum; with q^2 = 0 the product
        # (wx + d1 q)(wx + d2 q) depends on d1 + d2 alone
        degrees = (fc.normal_degree, 0)
    else:
        degrees = fc.normal_degrees
    factors = [w * x + d * t for w, d in zip(weights, degrees)]
    c1 = (2 - 2 * genus) * t + sum(factors)
    return _graded_part(c1**p / sympy.Mul(*factors), 1)


def fourmanifold_integral(fc, p):
    # the normal line has weight w and Euler class w e, e the boundary
    # slice's Euler class; with A = c1(F) + w e for the restricted c1, the
    # degree-4 part is a quadratic form in (A, w e), read through `pair`
    w = 1 if fc.index == 0 else -1
    lattice, e = fc.lattice, fc.euler_at_boundary
    normal = w * e
    big_a = lattice.anticanonical + normal
    quadratic = sympy.expand(_graded_part((w * x + a * t) ** p / (w * x + n * t), 2))
    values = {a: big_a, n: normal}
    total = 0
    for monomial, coeff in sympy.Poly(quadratic, a, n).terms():
        classes = [c for sym, power in zip((a, n), monomial) for c in [values[sym]] * power]
        total += coeff * pair(*classes)
    return total


INTEGRAL = {0: point_integral, 2: surface_integral, 4: fourmanifold_integral}


def oracle(tfd, alpha):
    p = POWER[alpha]
    return sympy.simplify(sum(INTEGRAL[fc.dim](fc, p) for fc in tfd.components))


@pytest.fixture(scope="module")
def cases():
    return rows_and_flips(classify_all(strict=False))


@pytest.mark.parametrize("case", CASE_IDS)
def test_integrals_match_sympy_oracle(cases, case):
    tfd = cases[case]
    for alpha in INTEGRANDS:
        p = POWER[alpha]
        value = integrate(tfd, alpha)
        assert value.terms in ((), ((p - 3, value.coeff(p - 3)),)), (case, alpha)
        exact = oracle(tfd, alpha)
        assert sympy.simplify(exact - value.coeff(p - 3) * x ** (p - 3)) == 0, (case, alpha)


@pytest.mark.parametrize("case", CASE_IDS)
def test_contributions_match_sympy_oracle(cases, case):
    # each component's integral is one int times x^(p-3), by degree counting
    for fc in cases[case].components:
        for alpha in INTEGRANDS:
            p = POWER[alpha]
            value = contribution(fc, alpha)
            assert type(value) is int, (case, fc, alpha)
            exact = INTEGRAL[fc.dim](fc, p)
            assert sympy.simplify(exact - value * x ** (p - 3)) == 0, (case, fc, alpha)
