"""The four-dimensional classification."""

from fractions import Fraction

from hamfix import golden
from hamfix.classify4 import (
    TFD4,
    classify4,
    dedupe_case3,
    enumerate_case3_tuples,
    flip_case3_tuple,
)


def area(row, t):
    """Area 2 - t e of the reduced sphere; e gains the k interior points at 0."""
    e = row.euler_min if t <= 0 else row.euler_min + row.k
    return 2 - t * e


def flip_row(row: TFD4) -> TFD4:
    """Orientation reversal followed by renormalization to the emitted form."""
    min_level, max_level = -row.max_level, -row.min_level
    euler_min = -(row.euler_min + row.k)
    if max_level == 2 and min_level > -2:
        # renormalize so the isolated extremum is the minimum again
        return TFD4(row.label, -max_level, -min_level, row.k, -(euler_min + row.k))
    if min_level == -1 and max_level == 1:
        a = 2 + euler_min
        rep = dedupe_case3([(a, euler_min, row.k)])[0]
        return TFD4(row.label, -1, 1, rep[2], rep[1])
    return TFD4(row.label, min_level, max_level, row.k, euler_min)


def test_case3_tuples():
    tuples = enumerate_case3_tuples()
    assert (2, 0, 0) in tuples and (2, 0, 1) in tuples
    assert (3, 1, 0) in tuples
    assert tuples == {
        (1, -1, 0), (1, -1, 1), (1, -1, 2),
        (2, 0, 0), (2, 0, 1), (3, 1, 0),
    }


def test_case3_flip_is_involution():
    for t in enumerate_case3_tuples():
        assert flip_case3_tuple(flip_case3_tuple(t)) == t


def test_case3_flip_pairs_up_as_expected():
    # the two non-symmetric orbits merge, leaving four classes
    assert flip_case3_tuple((2, 0, 1)) == (1, -1, 1)
    assert flip_case3_tuple((3, 1, 0)) == (1, -1, 0)
    reps = dedupe_case3(enumerate_case3_tuples())
    assert set(reps) == {(2, 0, 0), (1, -1, 0), (2, 0, 1), (1, -1, 2)}


def test_classify4_rows():
    rows = classify4()
    assert [r.label for r in rows] == [g["label"] for g in golden.GOLDEN4]
    assert [r.euler_min for r in rows] == [-1, -1, -1, -1, 0, -1, 0, -1]
    assert [r.k for r in rows] == [2, 0, 1, 2, 0, 0, 1, 2]


def test_case1_interior_count_forced():
    # isolated extrema force two interior points: u = -u + k u
    (row,) = [r for r in classify4() if r.max_level == 2]
    assert row.k == 2


def test_betti_matches_surface_names():
    b2_of_name = {"P2": 1, "P2#1": 2, "P2#2": 3, "P2#3": 4, "P1xP1": 2}
    for r in classify4():
        b = r.betti
        assert b == tuple(reversed(b))
        (g,) = [g for g in golden.GOLDEN4 if g["label"] == r.label]
        assert b[2] == b2_of_name[g["m"]]


def test_dh_positivity_and_continuity():
    for r in classify4():
        lo, hi = r.min_level, r.max_level
        # endpoint values: zero at isolated extrema, the sphere area otherwise
        assert area(r, lo) == (0 if lo == -2 else 2 + r.euler_min)
        assert area(r, hi) == (0 if hi == 2 else 2 - (r.euler_min + r.k))
        t = Fraction(lo)
        while t <= hi:
            v = area(r, t)
            assert v >= 0
            if lo < t < hi:
                assert v > 0
            t += Fraction(1, 4)


def test_flip_row_lands_on_emitted_rows():
    emitted = {(r.min_level, r.max_level, r.k, r.euler_min) for r in classify4()}
    for r in classify4():
        f = flip_row(r)
        assert (f.min_level, f.max_level, f.k, f.euler_min) in emitted


def test_sphere_minimum_area_is_positive():
    for r in classify4():
        if r.min_level == -1:
            assert area(r, -1) >= 1
        if r.max_level == 1:
            assert area(r, 1) >= 1
