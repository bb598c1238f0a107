"""A Todd-genus oracle: the integral of c1 c2 is 24 on every row and its flip.

A Hamiltonian circle action with an isolated minimum has Todd genus 1, as the
genus localizes to the minimum (Godinho and Sabatini, "New tools for
classifying Hamiltonian circle actions with isolated fixed points", 2014), so
the integral of c1 c2 is 24 by Hirzebruch-Riemann-Roch.  No integrand of
`localization` reads c2, so this checks the component data (weights, genera,
normal degrees, Euler classes) against a fact the search never uses.

Each fixed component F adds the integral over F of (c1 c2)|F / e(N), whose
x^0 part is worked out by hand from the equivariant Chern roots, with q the
point class of a surface (q^2 = 0) and x the equivariant parameter:

- a point with weights w: (sum w) e2(w) / prod w, which is 9 at the minimum
  and at a point maximum and 1 at every index-2 or index-4 point;
- an interior surface of genus g with normal roots x + b+ q, -x + b- q:
  c1 = (2 - 2g + Z.Z) q and c2 = -x^2 + ..., so c1 c2 / e(N) = (2 - 2g + Z.Z) q;
- an extremal sphere with normal roots w x + d_i q, d = d1 + d2 (w = -1 at
  the maximum, +1 at the minimum): c1 c2 / e(N) = 2 w x + (d + 10) q, so it
  adds d + 10 on either side;
- an extremal 4-manifold S with normal root v = w (x + e), e its
  `euler_at_boundary`: c1 c2 = v (c1(S)^2 + chi(S) pt + c1(S) v), so it adds
  chi + c1.c1 + w c1.e, that is chi + c1.c1 - c1.e at the maximum and
  chi + c1.c1 + c1.e at the minimum.

Every minimum-side term is derived, so every flip is covered.

The identity adds no cut to the search.  Across level 0 the Euler class
jumps from e- = (-1; 1, ..., 1) to e0 = e- + Z, Z the sum of the interior
surface classes, and adjunction gives c1.Z_i = 2 - 2g_i + Z_i.Z_i.  With
ce = c1.e0 = k - 3 + c1.Z and ee = e0.e0, the sum over k index-2 points, m
index-4 points and the surfaces is 9 + k + m + c1.Z plus the maximum's term:

- a point maximum (9): 24 iff ce + m = 3, closure at a point (`_closes`);
- a sphere maximum (m = k - 1, d = -(ee + m)): 24 iff ce - ee = 2, closure
  at a sphere;
- a 4-manifold maximum (m = 0, S = P2#k, e = e0): chi + c1.c1 - c1.e =
  (k + 3) + (9 - k) - ce makes the sum 24 for every k and Z, as closure
  sets no condition there either.
"""

from fractions import Fraction

import pytest

from hamfix.classify6 import classify_all, flip
from hamfix.lattice import pair
from hamfix.localization import (
    ExtremalFourManifold,
    ExtremalSurface,
    InteriorSurface,
    IsolatedPoint,
)


def point_term(fc):
    w = fc.weights
    e2 = w[0] * w[1] + w[0] * w[2] + w[1] * w[2]
    return Fraction(sum(w) * e2, w[0] * w[1] * w[2])


def interior_surface_term(fc):
    z = fc.surface_class
    return 2 - 2 * fc.genus + pair(z, z)


def extremal_sphere_term(fc):
    return fc.normal_degree + 10


def _chi(fc):
    return fc.lattice.rank + 2


def _c1c1(fc):
    c1 = fc.lattice.anticanonical
    return pair(c1, c1)


def _c1e(fc):
    return pair(fc.lattice.anticanonical, fc.euler_at_boundary)


def _side(fc):
    """The weight w of the normal line: -1 at the maximum, +1 at the minimum."""
    return -1 if fc.level > 0 else 1


def fourmanifold_term(fc):
    return _chi(fc) + _c1c1(fc) + _side(fc) * _c1e(fc)


TERMS = {
    IsolatedPoint: point_term,
    InteriorSurface: interior_surface_term,
    ExtremalSurface: extremal_sphere_term,
    ExtremalFourManifold: fourmanifold_term,
}


def todd_integral(tfd, terms=TERMS):
    """The localized integral of c1 c2: one term per fixed component."""
    return sum(terms[type(fc)](fc) for fc in tfd.components)


@pytest.fixture(scope="module")
def rows():
    return classify_all(strict=False)


def test_c1c2_is_24_on_every_row_and_flip(rows):
    assert len(rows) == 19
    got = {t.label: (todd_integral(t), todd_integral(flip(t))) for t in rows}
    assert got == {t.label: (24, 24) for t in rows}


def test_the_flips_exercise_every_minimum_side_term(rows):
    # a flip puts the maximum at the bottom: spheres and 4-manifolds at the
    # minimum occur, so their derived terms are read and not merely written
    kinds = {(type(fc), fc.level < 0) for t in rows for fc in flip(t).components}
    assert (ExtremalSurface, True) in kinds
    assert (ExtremalFourManifold, True) in kinds


# each mutant changes one term of one formula
MUTANTS = {
    "point without e2": (IsolatedPoint, lambda fc: Fraction(sum(fc.weights))),
    "surface without Z.Z": (InteriorSurface, lambda fc: 2 - 2 * fc.genus),
    "surface without genus": (
        InteriorSurface,
        lambda fc: 2 + pair(fc.surface_class, fc.surface_class),
    ),
    "sphere d + 9": (ExtremalSurface, lambda fc: fc.normal_degree + 9),
    "sphere without d": (ExtremalSurface, lambda fc: 10),
    "4-manifold without chi": (ExtremalFourManifold, lambda fc: _c1c1(fc) + _side(fc) * _c1e(fc)),
    "4-manifold without c1.c1": (ExtremalFourManifold, lambda fc: _chi(fc) + _side(fc) * _c1e(fc)),
    "4-manifold without c1.e": (ExtremalFourManifold, lambda fc: _chi(fc) + _c1c1(fc)),
    "4-manifold maximum's sign at the minimum": (
        ExtremalFourManifold,
        lambda fc: _chi(fc) + _c1c1(fc) - _c1e(fc),
    ),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_a_one_term_mutation_breaks_the_identity(rows, name):
    kind, mutant = MUTANTS[name]
    terms = {**TERMS, kind: mutant}
    table = rows + [flip(t) for t in rows]
    assert any(todd_integral(t, terms) != 24 for t in table), name
