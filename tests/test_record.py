"""Frozen value records: the dataclass behaviour the package relies on."""

from fractions import Fraction

import pytest

from hamfix.errors import NotDelzant
from hamfix.lattice import CohClass, SurfaceLattice, make_blowup_lattice
from hamfix.localization import ExtremalSurface, IsolatedPoint
from hamfix.record import record
from hamfix.toric import CircleDirection, FixedFace, Polytope, load_corpus


@pytest.fixture(scope="module")
def p3():
    return next(p for p, _, _ in load_corpus() if p.name == "p3")


def test_fields_cannot_be_assigned_or_deleted():
    face = FixedFace("vertex", (0,), -3)
    with pytest.raises(AttributeError):
        face.level = 0
    with pytest.raises(AttributeError):
        del face.level
    with pytest.raises(AttributeError):
        face.extra = 1
    assert face.level == -3


def test_equality_and_hash_are_by_value():
    a = CohClass(make_blowup_lattice(2), (3, -1, -1))
    b = CohClass(make_blowup_lattice(2), (3, -1, -1))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != CohClass(make_blowup_lattice(2), (3, -1, 0))
    assert len({a, b}) == 1
    # the dataclass hash: the hash of the tuple of field values
    assert hash(FixedFace("edge", (0, 1), 1)) == hash(("edge", (0, 1), 1))


def test_different_records_with_equal_fields_are_unequal():
    assert IsolatedPoint((1, 1, 1)) != ExtremalSurface((1, 1, 1))
    assert ExtremalSurface((1, 1, 1)) != IsolatedPoint((1, 1, 1))
    assert IsolatedPoint((1, 1, 1)) != ((1, 1, 1),)
    assert IsolatedPoint((1, 1, 1)).__eq__(ExtremalSurface((1, 1, 1))) is NotImplemented


def test_class_level_defaults(p3):
    assert SurfaceLattice("blowup") == SurfaceLattice("blowup", 0)
    assert SurfaceLattice("blowup").rank == 1
    built = Polytope(p3.name, p3.vertices, p3.edges, p3.facets)
    assert built.reflexive is True
    assert built == p3


def test_keyword_construction(p3):
    built = Polytope(
        facets=p3.facets, edges=p3.edges, vertices=p3.vertices, name=p3.name, reflexive=False
    )
    assert (built.name, built.reflexive) == ("p3", False)
    with pytest.raises(TypeError):
        FixedFace(kind="vertex", vertices=(0,))


def test_post_init_runs(p3):
    c = CohClass(make_blowup_lattice(1), (Fraction(4, 2), Fraction(1, 2)))
    assert c.coeffs == (2, Fraction(1, 2))
    assert type(c.coeffs[0]) is int
    with pytest.raises(ValueError, match="not primitive"):
        CircleDirection((2, 0, 0))
    with pytest.raises(NotDelzant, match="not unimodular"):
        Polytope(p3.name, (p3.vertices[0], (3, 0, 0)) + p3.vertices[2:], p3.edges, p3.facets)


def test_repr_is_the_dataclass_string():
    assert repr(FixedFace("vertex", (0,), -3)) == "FixedFace(kind='vertex', vertices=(0,), level=-3)"
    assert repr(CircleDirection((1, 1, 1))) == "CircleDirection(xi=(1, 1, 1))"


def test_own_repr_is_kept():
    @record
    class Named:
        name: str

        def __repr__(self):
            return f"<{self.name}>"

    assert repr(Named("x")) == "<x>"
