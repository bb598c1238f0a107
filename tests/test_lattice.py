"""Lattice arithmetic, exceptional classes, adjunction, splittings."""

import itertools
import re

import pytest
from hypothesis import given, strategies as st

from hamfix.errors import InvalidBlowupCount, LatticeMismatch, NoExceptionalBasis
from hamfix.lattice import (
    PRODUCT,
    CohClass,
    SurfaceLattice,
    adjunction_genus,
    component_splittings,
    exceptional_classes,
    make_blowup_lattice,
    pair,
    product_lattice,
)

import unpruned


def cls(lattice, *coeffs):
    return CohClass(lattice, coeffs)


def gram(lat):
    """The intersection matrix in the standard basis: the definition of `pair`."""
    if lat.kind == PRODUCT:
        return ((0, 1), (1, 0))
    n = lat.rank
    return tuple(
        tuple((1 if i == 0 else -1) if i == j else 0 for j in range(n))
        for i in range(n)
    )


def test_blowup_lattice_construction():
    p2 = make_blowup_lattice(0)
    assert p2.rank == 1
    assert gram(p2) == ((1,),)
    assert p2.anticanonical.coeffs == (3,)

    one = make_blowup_lattice(1)
    assert gram(one) == ((1, 0), (0, -1))
    assert one.anticanonical.coeffs == (3, -1)

    three = make_blowup_lattice(3)
    assert three.anticanonical.coeffs == (3, -1, -1, -1)


@pytest.mark.parametrize("k", [-1, 9, 100])
def test_blowup_count_range(k):
    with pytest.raises(InvalidBlowupCount):
        make_blowup_lattice(k)


@pytest.mark.parametrize(
    "kind,blowups,error,message",
    [
        ("blowup", 9, InvalidBlowupCount, "blow-up count 9 outside 0..8"),
        ("blowup", -1, InvalidBlowupCount, "blow-up count -1 outside 0..8"),
        ("product", 3, InvalidBlowupCount, "blow-up count 3 outside 0..0"),
        ("foo", 1, ValueError, "unknown lattice kind 'foo'"),
    ],
)
def test_lattice_checks_kind_and_count_when_built(kind, blowups, error, message):
    # the seven shapes of (-1)-classes hold only up to P2#8, an unknown kind
    # would act as a blow-up, and a product with blow-ups as an unequal
    # copy of product_lattice()
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        SurfaceLattice(kind, blowups)


def test_anticanonical_class_is_built_once():
    # read on every reduced class, so it is derived with the lattice; it is
    # no field, so equality and hashing read only the kind and blow-up count
    for lat in (make_blowup_lattice(0), make_blowup_lattice(3), product_lattice()):
        assert lat.anticanonical is lat.anticanonical
    assert SurfaceLattice.__record_fields__ == ("kind", "blowups")


def test_product_lattice():
    p = product_lattice()
    assert gram(p) == ((0, 1), (1, 0))
    assert p.anticanonical.coeffs == (2, 2)
    assert pair(p.basis_class(0), p.basis_class(1)) == 1


def test_pair_examples():
    one = make_blowup_lattice(1)
    assert pair(cls(one, 1, -1), cls(one, 1, -1)) == 0
    two = make_blowup_lattice(2)
    assert pair(cls(two, 3, -1, -1), cls(two, 2, -2, -1)) == 3
    three = make_blowup_lattice(3)
    e = cls(three, 2, -1, 0, -1)
    assert pair(e, e) == 2


def test_pair_mismatch():
    with pytest.raises(LatticeMismatch):
        pair(cls(make_blowup_lattice(1), 1, 0), cls(make_blowup_lattice(2), 1, 0, 0))


@given(
    st.lists(st.integers(-9, 9), min_size=3, max_size=3),
    st.lists(st.integers(-9, 9), min_size=3, max_size=3),
    st.lists(st.integers(-9, 9), min_size=3, max_size=3),
    st.integers(-5, 5),
)
def test_pair_symmetric_bilinear(a, b, c, s):
    lat = make_blowup_lattice(2)
    ca, cb, cc = cls(lat, *a), cls(lat, *b), cls(lat, *c)
    assert pair(ca, cb) == pair(cb, ca)
    assert pair(ca + cb, cc) == pair(ca, cc) + pair(cb, cc)
    assert pair(s * ca, cb) == s * pair(ca, cb)


@given(st.integers(-1, 8), st.data())
def test_pair_is_the_gram_form(k, data):
    # k = -1 stands for the product lattice; gram stays the definition of pair
    lat = product_lattice() if k < 0 else make_blowup_lattice(k)
    vec = st.lists(st.integers(-9, 9), min_size=lat.rank, max_size=lat.rank)
    x, y = data.draw(vec), data.draw(vec)
    form = gram(lat)
    want = sum(x[i] * form[i][j] * y[j] for i in range(lat.rank) for j in range(lat.rank))
    got = pair(CohClass(lat, tuple(x)), CohClass(lat, tuple(y)))
    assert got == want
    assert type(got) is int


def test_gram_unimodular():
    for k in range(9):
        form = gram(make_blowup_lattice(k))
        det = 1
        for i in range(k + 1):
            det *= form[i][i]
        assert det in (1, -1)


def test_exceptional_k1():
    one = make_blowup_lattice(1)
    assert exceptional_classes(one) == (cls(one, 0, 1),)


def test_exceptional_k2():
    two = make_blowup_lattice(2)
    got = set(c.coeffs for c in exceptional_classes(two))
    assert got == {(0, 1, 0), (0, 0, 1), (1, -1, -1)}


def _brute_force_exceptional(k, bound):
    """Independent oracle: direct product loop over the coefficient box."""
    lat = make_blowup_lattice(k)
    out = set()
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=k + 1):
        c = CohClass(lat, coeffs)
        if pair(c, c) == -1 and pair(lat.anticanonical, c) == 1:
            out.add(coeffs)
    return out


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_exceptional_brute_force_oracle(k):
    # every shape of the reference with k <= 5 blow-ups, (2; -1^5) included,
    # fits the box 3
    got = [c.coeffs for c in unpruned.exceptional_classes(make_blowup_lattice(k))]
    assert got == sorted(got)
    assert set(got) == _brute_force_exceptional(k, 3)


def test_exceptional_k3_is_the_small_list():
    # for three blow-ups only the basis classes and the pairwise line classes
    three = make_blowup_lattice(3)
    got = {c.coeffs for c in exceptional_classes(three)}
    expected = {
        (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
        (1, -1, -1, 0), (1, -1, 0, -1), (1, 0, -1, -1),
    }
    assert got == expected


def test_exceptional_permutation_invariance():
    three = make_blowup_lattice(3)
    got = {c.coeffs for c in exceptional_classes(three)}
    for perm in itertools.permutations(range(3)):
        permuted = {(c[0],) + tuple(c[1 + p] for p in perm) for c in got}
        assert permuted == got


def test_exceptional_counts_are_del_pezzo_lines():
    # (-1)-curves on the k-fold blow-up of the plane, k = 1..8, in the reference
    counts = [len(unpruned.exceptional_classes(make_blowup_lattice(k))) for k in range(1, 9)]
    assert counts == [1, 3, 6, 10, 16, 27, 56, 240]


def test_exceptional_all_genus_zero():
    for k in (1, 2, 3, 5):
        lat = make_blowup_lattice(k)
        for c in unpruned.exceptional_classes(lat):
            assert adjunction_genus(lat, c) == 0


@pytest.mark.parametrize("k", range(5))
def test_exceptional_closed_form_is_the_reference_list(k):
    # on the P2#k the search builds, the classes Ei and u - Ei - Ej are all
    # of the reference's seven shapes, in the same order
    lat = make_blowup_lattice(k)
    assert exceptional_classes(lat) == unpruned.exceptional_classes(lat)
    assert len(exceptional_classes(lat)) == k + k * (k - 1) // 2


@pytest.mark.parametrize("k", range(5, 9))
def test_exceptional_classes_refuse_more_than_four_blowups(k):
    # (2; -1^5) first places at k = 5, so a list of Ei and u - Ei - Ej there
    # would be silently short
    with pytest.raises(InvalidBlowupCount, match="0..4"):
        exceptional_classes(make_blowup_lattice(k))


def test_exceptional_product_raises():
    with pytest.raises(NoExceptionalBasis):
        exceptional_classes(product_lattice())


def test_adjunction_examples():
    p2 = make_blowup_lattice(0)
    assert adjunction_genus(p2, cls(p2, 2)) == 0
    assert adjunction_genus(p2, cls(p2, 3)) == 1
    one = make_blowup_lattice(1)
    assert adjunction_genus(one, cls(one, 1, -2)) is None


def test_splitting_two_conics():
    one = make_blowup_lattice(1)
    total = cls(one, 2, -2)
    out = component_splittings(one, total)
    assert out == [((cls(one, 1, -1), 0), (cls(one, 1, -1), 0))]
    # the level-0 lattice is a blow-up of the plane; a product is refused
    prod = product_lattice()
    with pytest.raises(NoExceptionalBasis):
        component_splittings(prod, cls(prod, 1, 1))


def test_splitting_plane_conic_connected():
    p2 = make_blowup_lattice(0)
    out = component_splittings(p2, cls(p2, 2))
    assert out == [((cls(p2, 2), 0),)]


@pytest.mark.parametrize("k", range(5))
def test_zero_class_splits_into_no_parts(k):
    # the level-0 total of a path with no fixed surface has the one empty
    # splitting, so it passes the splitting step like every other total
    lat = make_blowup_lattice(k)
    assert component_splittings(lat, lat.zero()) == [()]


def test_splitting_mixed_pair():
    two = make_blowup_lattice(2)
    out = component_splittings(two, cls(two, 2, -2, -1))
    assert out == [((cls(two, 1, -1, -1), 0), (cls(two, 1, -1, 0), 0))]


def test_splitting_rest_needs_li_positivity():
    # 3u + E1 has positive square and genus 0 but meets E1 in -1, so it is no
    # part; the one splitting takes E1 off and leaves the cubic 3u of genus 1
    one = make_blowup_lattice(1)
    total = cls(one, 3, 1)
    assert adjunction_genus(one, total) == 0 and pair(total, cls(one, 0, 1)) == -1
    want = [((cls(one, 0, 1), 0), (cls(one, 3, 0), 1))]
    assert unpruned.search_splittings(one, total) == want
    assert component_splittings(one, total) == want


@pytest.mark.parametrize(
    "total,want",
    [((1, -1, -1, 0), [(((1, -1, -1, 0), 0),)]), ((2, -2, -2, -1), [])],
)
def test_splitting_rank4_inputs_of_the_search(total, want):
    # the two rank-4 totals that survive the unpruned sweep: the first reaches
    # the splitting step in classify_all, the second has no splitting and the
    # genus budget cuts it from generation
    three = make_blowup_lattice(3)
    out = component_splittings(three, cls(three, *total))
    assert [tuple((c.coeffs, g) for c, g in s) for s in out] == want


def _oracle_splittings(lattice, total, bound):
    """Exhaustive splitting oracle built from raw multiset enumeration."""
    volume = pair(lattice.anticanonical, total)
    box = [
        CohClass(lattice, c)
        for c in itertools.product(range(-bound, bound + 1), repeat=lattice.rank)
    ]
    good = []
    for c in box:
        vol = pair(lattice.anticanonical, c)
        g = adjunction_genus(lattice, c)
        if vol < 1 or g is None:
            continue
        if pair(c, c) >= 0 and any(
            pair(c, e) < 0 for e in exceptional_classes(lattice)
        ):
            continue
        good.append((c, g, vol))
    results = set()
    for size in range(1, volume + 1):
        for combo in itertools.combinations_with_replacement(good, size):
            if sum(v for _, _, v in combo) != volume:
                continue
            s = lattice.zero()
            for c, _, _ in combo:
                s = s + c
            if s != total:
                continue
            if any(
                pair(a[0], b[0]) != 0 for a, b in itertools.combinations(combo, 2)
            ):
                continue
            # repeated classes must still be pairwise orthogonal
            counts = {}
            for c, g, v in combo:
                counts[c.coeffs] = counts.get(c.coeffs, 0) + 1
            if any(n > 1 and pair(CohClass(lattice, cf), CohClass(lattice, cf)) != 0
                   for cf, n in counts.items()):
                continue
            results.add(tuple(sorted((c.coeffs, g) for c, g, _ in combo)))
    return results


ORACLE_TOTALS = [
    (1, (2, -2)), (0, (2,)), (2, (2, -2, -1)), (1, (3, -1)), (0, (3,)),
    # the other totals that survive the unpruned sweep
    (0, (1,)), (1, (0, 1)), (1, (1, -1)), (1, (1, 0)), (1, (2, -1)),
    (2, (1, -2, 0)), (2, (1, -1, -1)), (2, (1, -1, 0)), (2, (2, -2, -2)),
    (3, (1, -1, -1, 0)), (3, (2, -2, -2, -1)),
]


@pytest.mark.parametrize("k,total", ORACLE_TOTALS)
def test_splitting_oracle_agreement(k, total):
    lat = make_blowup_lattice(k)
    total = CohClass(lat, total)
    got = {
        tuple(sorted((c.coeffs, g) for c, g in s))
        for s in component_splittings(lat, total)
    }
    assert got == _oracle_splittings(lat, total, 5)


@pytest.mark.parametrize("k,total", ORACLE_TOTALS)
def test_search_part_range_fits_the_oracle_box(k, total):
    # the reference search's leading range is the quadratic's integer
    # solutions, and with the genus-budget tail range it lies inside the
    # oracle's box
    lat = make_blowup_lattice(k)
    volume = pair(lat.anticanonical, CohClass(lat, total))
    leading = unpruned._part_leading(k, volume)
    assert leading == [
        a for a in range(-50, 51)
        if any((9 - k) * a * a - 6 * d * a + d * d + k * d - 2 * k <= 0
               for d in range(1, volume + 1))
    ]
    tails = [b for a in leading for b in range(-50, 51) if b * (b + 1) <= (a - 1) * (a - 2)]
    assert max(map(abs, leading + tails)) <= 5


def _small_totals():
    """Totals of P2#k, k <= 4, coefficients in [-3, 3], nondecreasing tail, volume 1..6."""
    for k in range(5):
        lat = make_blowup_lattice(k)
        for a in range(-3, 4):
            for tail in itertools.combinations_with_replacement(range(-3, 4), k):
                if 1 <= 3 * a + sum(tail) <= 6:
                    yield CohClass(lat, (a,) + tail)


def test_closed_form_splittings_match_the_search():
    # the closed form returns what the reference search returns, in order;
    # 38 of the totals that split have two or more (-1)-parts, which no
    # generated total exercises
    totals = list(_small_totals())
    split = several_minus = 0
    for total in totals:
        want = unpruned.search_splittings(total.lattice, total)
        assert component_splittings(total.lattice, total) == want, total
        split += bool(want)
        several_minus += any(sum(pair(c, c) == -1 for c, _ in s) >= 2 for s in want)
    assert (len(totals), split, several_minus) == (617, 115, 38)


def test_splitting_replay():
    # every returned splitting sums to the total with orthogonal parts
    two = make_blowup_lattice(2)
    for total in [(2, -2, -1), (2, -1, -1), (3, -1, -1)]:
        t = cls(two, *total)
        for splitting in component_splittings(two, t):
            s = two.zero()
            for c, g in splitting:
                assert adjunction_genus(two, c) == g
                s = s + c
            assert s == t
            for (a, _), (b, _) in itertools.combinations(splitting, 2):
                assert pair(a, b) == 0
