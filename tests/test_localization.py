"""Localization contributions, identities, Chern and Betti numbers."""

import pytest

from hamfix.errors import InvalidFixedComponent
from hamfix.lattice import CohClass, make_blowup_lattice
from hamfix.localization import (
    C1,
    C1_CUBED,
    ExtremalFourManifold,
    ExtremalSurface,
    FixedComponent,
    InteriorSurface,
    LaurentPoly,
    ONE,
    betti,
    contribution,
    integrate,
    point,
)

P2 = make_blowup_lattice(0)
ONE_BLOWUP = make_blowup_lattice(1)
THREE_BLOWUPS = make_blowup_lattice(3)


# a contribution is the int coefficient of x^(p-3) for the integrand c1^p


def test_isolated_point_contributions():
    assert contribution(point(-3, (1, 1, 1)), C1_CUBED) == 27
    assert contribution(point(-1, (-1, 1, 1)), ONE) == -1
    assert contribution(point(-1, (-1, 1, 1)), C1) == -1
    assert contribution(point(1, (-1, -1, 1)), C1_CUBED) == -1
    assert contribution(point(3, (-1, -1, -1)), C1_CUBED) == 27


def test_interior_surface_contributions():
    conic = FixedComponent(0, InteriorSurface(CohClass(P2, (2,)), 0, 2))
    assert contribution(conic, C1) == -6
    assert contribution(conic, C1_CUBED) == 0
    # asymmetric normal degrees feed the sum of 1/Euler
    skew = FixedComponent(0, InteriorSurface(CohClass(P2, (2,)), 0, 3))
    assert contribution(skew, ONE) == 2


def test_four_manifold_contribution():
    e = CohClass(P2, (-1,))
    fm = FixedComponent(1, ExtremalFourManifold(e))
    assert contribution(fm, C1_CUBED) == 37
    assert contribution(fm, ONE) == -1
    assert contribution(fm, C1) == -3


def _row_i1():
    conic = FixedComponent(0, InteriorSurface(CohClass(P2, (2,)), 0, 2))
    return [point(-3, (1, 1, 1)), conic, point(3, (-1, -1, -1))]


def _row_iii1():
    fm = FixedComponent(1, ExtremalFourManifold(CohClass(P2, (-1,))))
    return [point(-3, (1, 1, 1)), fm]


def test_integrate_identities_vanish():
    assert integrate(_row_i1(), ONE).is_zero()
    assert integrate(_row_i1(), C1).is_zero()
    assert integrate(_row_iii1(), ONE).is_zero()
    assert integrate(_row_iii1(), C1).is_zero()


def test_integrate_c1_cubed():
    assert integrate(_row_iii1(), C1_CUBED) == LaurentPoly(((0, 64),))


def test_chern_numbers_by_hand():
    # one blow-up point on each side of a pair of fiber spheres
    spheres = [
        FixedComponent(0, InteriorSurface(CohClass(ONE_BLOWUP, (1, -1)), 0, 0))
        for _ in range(2)
    ]
    i3 = (
        [point(-3, (1, 1, 1)), point(-1, (-1, 1, 1))]
        + spheres
        + [point(1, (-1, -1, 1)), point(3, (-1, -1, -1))]
    )
    assert integrate(i3, C1_CUBED) == LaurentPoly(((0, 52),))

    fm = FixedComponent(1, ExtremalFourManifold(CohClass(ONE_BLOWUP, (-1, 1))))
    iii2 = [point(-3, (1, 1, 1)), point(-1, (-1, 1, 1)), fm]
    assert integrate(iii2, C1_CUBED) == LaurentPoly(((0, 56),))


def test_chern_closed_form_sweep():
    # point extrema pattern for a sphere maximum of normal degree d: 50 + 4d
    for s in range(-4, 5):
        comps = [
            point(-3, (1, 1, 1)),
            point(-1, (-1, 1, 1)),
            FixedComponent(2, ExtremalSurface(s)),
        ]
        total = integrate(comps, C1_CUBED)
        assert total == LaurentPoly(((0, 50 + 4 * s),))


def test_betti_examples():
    i2 = (
        [point(-3, (1, 1, 1))]
        + [point(-1, (-1, 1, 1))] * 3
        + [point(1, (-1, -1, 1))] * 3
        + [point(3, (-1, -1, -1))]
    )
    assert betti(i2) == (1, 0, 3, 0, 3, 0, 1)
    assert betti(_row_i1()) == (1, 0, 1, 0, 1, 0, 1)

    cubic = FixedComponent(0, InteriorSurface(CohClass(P2, (3,)), 1, 6))
    fm = FixedComponent(1, ExtremalFourManifold(CohClass(P2, (2,))))
    iii33 = [point(-3, (1, 1, 1)), cubic, fm]
    assert betti(iii33) == (1, 0, 2, 2, 2, 0, 1)


def test_invalid_components():
    with pytest.raises(InvalidFixedComponent):
        point(-3, (1, 1, 2))  # weight 2 is not semifree
    with pytest.raises(InvalidFixedComponent):
        point(0, (1, 1, 1))  # level must balance the weight sum
    with pytest.raises(InvalidFixedComponent):
        FixedComponent(0, InteriorSurface(CohClass(P2, (2,)), -1, 2))  # negative genus
    with pytest.raises(InvalidFixedComponent):
        FixedComponent(0, ExtremalSurface(0))  # spheres live at level +-2
    with pytest.raises(InvalidFixedComponent):
        FixedComponent(2, ExtremalFourManifold(CohClass(P2, (1,))))
    with pytest.raises(InvalidFixedComponent):
        FixedComponent(0, object())  # not one of the four component kinds


def test_isolated_point_weight_level_table():
    # the balanced level determines the index through the weight sum
    assert point(-3, (1, 1, 1)).index == 0
    assert point(-1, (-1, 1, 1)).index == 2
    assert point(1, (-1, -1, 1)).index == 4
    assert point(3, (-1, -1, -1)).index == 6

