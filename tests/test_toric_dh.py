"""Duistermaat-Heckman against the polytope: a toric oracle for the slice path.

For a matched corpus direction xi, the reduced space at level t is the toric
surface over the slice of the polytope by the plane <xi, p> = t + <xi, c>,
where c is the interior point (the balanced level of a point p is
<xi, p - c>).  Its symplectic volume is the slice's lattice area, so
omega(t)^2 = dh(slice, t) is twice that area.  For the slice's points p_i in
order around the polygon, sum p_i x p_(i+1) = lambda xi, and twice the
lattice area is |lambda| for a primitive xi.  The slice path is built by the
crossing rules alone, so this checks `blow_up`, `shift`, `blow_down` and
`flip` against geometry.
"""

import itertools
from fractions import Fraction
from functools import cmp_to_key
from math import lcm

from hamfix.classify6 import classify_all, flip
from hamfix.errors import HamfixError
from hamfix.reduction import dh
from hamfix.toric import CircleDirection, load_corpus, tfd_from_polytope

SWEEP = [xi for xi in itertools.product((-1, 0, 1), repeat=3) if any(xi)]


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def slice_points(p, xi, height):
    """The points of the polytope on the plane <xi, q> = height: where its
    edges cross the plane, and the ends of the edges that lie in it."""
    points = set()
    for i, j in p.edges:
        a, b = p.vertices[i], p.vertices[j]
        ha, hb = _dot(xi, a), _dot(xi, b)
        if ha == hb == height:
            points.update((a, b))
        elif ha != hb and min(ha, hb) <= height <= max(ha, hb):
            s = Fraction(height - ha, hb - ha)
            points.add(tuple(x + s * (y - x) for x, y in zip(a, b)))
    return points


def twice_lattice_area(points, xi):
    """|lambda| for sum p_i x p_(i+1) = lambda xi, the points ordered by their
    angle around the centroid in the plane oriented by xi.

    The points are scaled to integers and moved to n times their offset from
    the centroid, which scales the sum by (n * scale)^2 and keeps it exact.
    """
    n, scale = len(points), lcm(*(Fraction(x).denominator for q in points for x in q))
    whole = [tuple(int(x * scale) for x in q) for q in points]
    center = tuple(map(sum, zip(*whole)))
    rel = [tuple(n * x - y for x, y in zip(q, center)) for q in whole]
    ref = rel[0]

    def half(w):
        turn = _dot(_cross(ref, w), xi)
        return 0 if turn > 0 or (turn == 0 and _dot(ref, w) >= 0) else 1

    def before(w1, w2):
        if half(w1) != half(w2):
            return half(w1) - half(w2)
        turn = _dot(_cross(w1, w2), xi)
        return (turn < 0) - (turn > 0)

    ring = sorted(rel, key=cmp_to_key(before))
    total = (0, 0, 0)
    for a, b in zip(ring, ring[1:] + ring[:1]):
        total = tuple(x + y for x, y in zip(total, _cross(a, b)))
    axis = next(i for i, x in enumerate(xi) if x)
    lam = Fraction(total[axis], xi[axis] * (n * scale) ** 2)
    assert total == tuple(lam * (n * scale) ** 2 * x for x in xi), (points, xi)
    return abs(lam)


def test_twice_lattice_area_of_known_polygons():
    # the unit square and the standard triangle in the plane z = 0, and a
    # segment and a point, which bound no area
    square = {(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)}
    assert twice_lattice_area(square, (0, 0, 1)) == 2
    assert twice_lattice_area({(0, 0, 5), (3, 0, 5), (0, 3, 5)}, (0, 0, -1)) == 9
    assert twice_lattice_area({(0, 0, 0), (1, -1, 0)}, (1, 1, 1)) == 0
    assert twice_lattice_area({(2, 0, 0)}, (1, 0, 0)) == 0


def test_dh_is_twice_the_area_of_the_polytope_slice():
    # every matched direction of the corpus sweep against its row, and the
    # reversed direction against the flipped row, at every quarter level of
    # every slice
    rows = classify_all(strict=False)
    directions = levels = 0
    for p, _d, _row in load_corpus():
        c = p.interior_point
        for xi in SWEEP:
            try:
                row = tfd_from_polytope(p, CircleDirection(xi), rows)
            except HamfixError:
                continue
            for sign, tfd in ((1, row), (-1, flip(row))):
                direction = tuple(sign * x for x in xi)
                directions += 1
                for s in tfd.slices:
                    lo, hi = s.interval
                    for j in range(4 * (hi - lo) + 1):
                        t = lo + Fraction(j, 4)
                        points = slice_points(p, direction, t + _dot(direction, c))
                        got = twice_lattice_area(points, direction)
                        assert got == dh(s, t), (p.name, direction, tfd.label, t)
                        levels += 1
    assert (directions, levels) == (88, 1998)
