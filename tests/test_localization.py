"""Localization contributions, identities, Chern and Betti numbers."""

import pytest

from hamfix.errors import InvalidFixedComponent
from hamfix.lattice import CohClass, make_blowup_lattice
from hamfix.localization import (
    C1,
    C1_CUBED,
    ExtremalFourManifold,
    ExtremalSurface,
    InteriorSurface,
    IsolatedPoint,
    LaurentPoly,
    ONE,
    betti,
    contribution,
    integrate,
)

P2 = make_blowup_lattice(0)
ONE_BLOWUP = make_blowup_lattice(1)
THREE_BLOWUPS = make_blowup_lattice(3)


# a contribution is the int coefficient of x^(p-3) for the integrand c1^p


def test_isolated_point_contributions():
    assert contribution(IsolatedPoint(-3, (1, 1, 1)), C1_CUBED) == 27
    assert contribution(IsolatedPoint(-1, (-1, 1, 1)), ONE) == -1
    assert contribution(IsolatedPoint(-1, (-1, 1, 1)), C1) == -1
    assert contribution(IsolatedPoint(1, (-1, -1, 1)), C1_CUBED) == -1
    assert contribution(IsolatedPoint(3, (-1, -1, -1)), C1_CUBED) == 27


def test_interior_surface_contributions():
    conic = InteriorSurface(0, CohClass(P2, (2,)), 0, 2)
    assert contribution(conic, C1) == -6
    assert contribution(conic, C1_CUBED) == 0
    # asymmetric normal degrees feed the sum of 1/Euler
    skew = InteriorSurface(0, CohClass(P2, (2,)), 0, 3)
    assert contribution(skew, ONE) == 2


def test_four_manifold_contribution():
    e = CohClass(P2, (-1,))
    fm = ExtremalFourManifold(1, e)
    assert contribution(fm, C1_CUBED) == 37
    assert contribution(fm, ONE) == -1
    assert contribution(fm, C1) == -3


def _row_i1():
    conic = InteriorSurface(0, CohClass(P2, (2,)), 0, 2)
    return [IsolatedPoint(-3, (1, 1, 1)), conic, IsolatedPoint(3, (-1, -1, -1))]


def _row_iii1():
    fm = ExtremalFourManifold(1, CohClass(P2, (-1,)))
    return [IsolatedPoint(-3, (1, 1, 1)), fm]


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
        InteriorSurface(0, CohClass(ONE_BLOWUP, (1, -1)), 0, 0)
        for _ in range(2)
    ]
    i3 = (
        [IsolatedPoint(-3, (1, 1, 1)), IsolatedPoint(-1, (-1, 1, 1))]
        + spheres
        + [IsolatedPoint(1, (-1, -1, 1)), IsolatedPoint(3, (-1, -1, -1))]
    )
    assert integrate(i3, C1_CUBED) == LaurentPoly(((0, 52),))

    fm = ExtremalFourManifold(1, CohClass(ONE_BLOWUP, (-1, 1)))
    iii2 = [IsolatedPoint(-3, (1, 1, 1)), IsolatedPoint(-1, (-1, 1, 1)), fm]
    assert integrate(iii2, C1_CUBED) == LaurentPoly(((0, 56),))


def test_chern_closed_form_sweep():
    # point extrema pattern for a sphere maximum of normal degree d: 50 + 4d
    for s in range(-4, 5):
        comps = [
            IsolatedPoint(-3, (1, 1, 1)),
            IsolatedPoint(-1, (-1, 1, 1)),
            ExtremalSurface(2, s),
        ]
        total = integrate(comps, C1_CUBED)
        assert total == LaurentPoly(((0, 50 + 4 * s),))


def test_betti_examples():
    i2 = (
        [IsolatedPoint(-3, (1, 1, 1))]
        + [IsolatedPoint(-1, (-1, 1, 1))] * 3
        + [IsolatedPoint(1, (-1, -1, 1))] * 3
        + [IsolatedPoint(3, (-1, -1, -1))]
    )
    assert betti(i2) == (1, 0, 3, 0, 3, 0, 1)
    assert betti(_row_i1()) == (1, 0, 1, 0, 1, 0, 1)

    cubic = InteriorSurface(0, CohClass(P2, (3,)), 1, 6)
    fm = ExtremalFourManifold(1, CohClass(P2, (2,)))
    iii33 = [IsolatedPoint(-3, (1, 1, 1)), cubic, fm]
    assert betti(iii33) == (1, 0, 2, 2, 2, 0, 1)


def test_invalid_components():
    with pytest.raises(InvalidFixedComponent):
        IsolatedPoint(-3, (1, 1, 2))  # weight 2 is not semifree
    with pytest.raises(InvalidFixedComponent):
        IsolatedPoint(0, (1, 1, 1))  # level must balance the weight sum
    with pytest.raises(InvalidFixedComponent):
        InteriorSurface(0, CohClass(P2, (2,)), -1, 2)  # negative genus
    with pytest.raises(InvalidFixedComponent):
        InteriorSurface(3, CohClass(P2, (2,)), 0, 2)  # normal weights (+1, -1) balance at 0
    with pytest.raises(InvalidFixedComponent):
        ExtremalSurface(0, 0)  # spheres live at level +-2
    with pytest.raises(InvalidFixedComponent):
        ExtremalFourManifold(2, CohClass(P2, (1,)))


def test_isolated_point_weights_are_a_tuple():
    # a list would be unequal to the tuple form and unhashable
    with pytest.raises(InvalidFixedComponent, match="not a tuple"):
        IsolatedPoint(-3, [1, 1, 1])


def test_isolated_point_weight_level_table():
    # the balanced level determines the index through the weight sum
    assert IsolatedPoint(-3, (1, 1, 1)).index == 0
    assert IsolatedPoint(-1, (-1, 1, 1)).index == 2
    assert IsolatedPoint(1, (-1, -1, 1)).index == 4
    assert IsolatedPoint(3, (-1, -1, -1)).index == 6

