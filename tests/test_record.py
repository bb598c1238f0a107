"""Frozen value records: the dataclass behaviour the package relies on."""

from fractions import Fraction
from math import gcd

import pytest

from hamfix.errors import NotDelzant
from hamfix.lattice import CohClass, SurfaceLattice, make_blowup_lattice
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


def test_hash_is_the_hash_of_the_field_tuple():
    # as `dataclasses` hashes: a one-field record hashes as a 1-tuple
    @record
    class One:
        value: int

    assert hash(One(7)) == hash((7,)) != hash(7)
    assert hash(CircleDirection((1, 0, -1))) == hash(((1, 0, -1),))
    lattice = make_blowup_lattice(2)
    assert hash(lattice) == hash((lattice.kind, lattice.blowups))
    assert hash(CohClass(lattice, (3, -1, -1))) == hash((lattice, (3, -1, -1)))


def _fraction_volume(p):
    """Six times the volume as a `Fraction` sum of Brion's vertex terms."""

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    dirs = []
    for a, b in p.edges:
        d = tuple(x - y for x, y in zip(p.vertices[b], p.vertices[a]))
        dirs.append(tuple(x // gcd(*d) for x in d))
    m = 2 * max(abs(x) for d in dirs for x in d) + 1
    c = (1, m, m * m)
    den = [1] * len(p.vertices)
    for (a, b), d in zip(p.edges, dirs):
        den[a] *= -dot(c, d)
        den[b] *= dot(c, d)
    return sum(Fraction(dot(c, v) ** 3, q) for v, q in zip(p.vertices, den))


def test_normalized_volume_is_the_fraction_sum():
    # the volume is summed in ints over a common denominator
    polytopes = [p for p, _, _ in load_corpus()]
    assert len(polytopes) == 14
    for p in polytopes:
        assert p.degree == p.normalized_volume() == _fraction_volume(p), p.name


def test_different_records_with_equal_fields_are_unequal():
    @record
    class Left:
        level: int
        data: tuple

    @record
    class Right:
        level: int
        data: tuple

    assert Left(2, (1, 1, 1)) != Right(2, (1, 1, 1))
    assert Right(2, (1, 1, 1)) != Left(2, (1, 1, 1))
    assert Left(2, (1, 1, 1)) != (2, (1, 1, 1))
    assert Left(2, (1, 1, 1)).__eq__(Right(2, (1, 1, 1))) is NotImplemented


def test_class_level_defaults(p3):
    assert SurfaceLattice("blowup") == SurfaceLattice("blowup", 0)
    assert SurfaceLattice("blowup").rank == 1
    built = Polytope(p3.name, p3.facets)
    assert built.reflexive is True
    assert built == p3


def test_keyword_construction(p3):
    built = Polytope(facets=p3.facets, name=p3.name, reflexive=False)
    assert (built.name, built.reflexive) == ("p3", False)
    with pytest.raises(TypeError):
        FixedFace(kind="vertex", vertices=(0,))


def test_post_init_runs(p3):
    with pytest.raises(TypeError, match="not an int"):
        CohClass(make_blowup_lattice(1), (2, Fraction(1, 2)))
    with pytest.raises(ValueError, match="not primitive"):
        CircleDirection((2, 0, 0))
    # the facet -x - y - z >= -4, tilted to -x - y - 2z >= -4, meets the z-axis at (0, 0, 2)
    with pytest.raises(NotDelzant, match=r"at \(0, 0, 2\) not unimodular"):
        Polytope(p3.name, (((-1, -1, -2), -4),) + p3.facets[1:])


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
