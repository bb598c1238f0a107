"""The six-dimensional classification: enumeration, predicates, invariants."""

import itertools
from fractions import Fraction

import pytest

from hamfix import golden, localization
from hamfix.classify6 import (
    _candidate_totals,
    _counts_for,
    capacities,
    classify_all,
    enumerate_tfd,
    flip,
    serialization,
)
from hamfix.errors import (
    CapacityFormulaInapplicable,
    ClassificationMismatch,
    NonDisjointBlowdown,
    VanishingCycleMismatch,
)
from hamfix.lattice import (
    CohClass,
    component_splittings,
    exceptional_classes,
    make_blowup_lattice,
    pair,
)
from hamfix.localization import (
    C1,
    C1_CUBED,
    InteriorSurface,
    IsolatedPoint,
    ONE,
    betti,
    chern_number,
    integrate,
    point,
)
from hamfix.reduction import (
    blow_down,
    blow_up,
    dh,
    initial_slice,
    shift,
    vanishing_classes,
)
from tfd_slices import contracted_classes, dh_jump, slice_above, slice_below
import unpruned


@pytest.fixture(scope="module")
def rows():
    return classify_all(strict=False)


@pytest.fixture(scope="module")
def by_label(rows):
    return {t.label: t for t in rows}


def blowdown_levels(tfd):
    """The levels that hold index-four points, where the reduced space blows down."""
    return sorted({fc.level for fc in tfd.components if (fc.dim, fc.index) == (0, 4)})


def interior_classes(tfd):
    return sorted(
        fc.spec.surface_class.coeffs
        for fc in tfd.components
        if isinstance(fc.spec, InteriorSurface)
    )


def test_point_max_single_conic():
    rows = enumerate_tfd(0, {0})
    assert len(rows) == 1
    assert interior_classes(rows[0]) == [(2,)]
    (fc,) = [f for f in rows[0].components if isinstance(f.spec, InteriorSurface)]
    assert fc.spec.genus == 0


def test_sphere_max_nonexistence_cases():
    assert enumerate_tfd(2, {-1}) == []
    assert enumerate_tfd(2, {-1, 1}) == []


def test_sphere_max_three_solutions():
    rows = enumerate_tfd(2, {-1, 0})
    assert [interior_classes(t) for t in rows] == [[(0, 1)], [(1, 0)], [(2, -1)]]


def test_four_dim_max_five_solutions():
    rows = enumerate_tfd(4, {-1, 0})
    assert [interior_classes(t) for t in rows] == [
        [(0, 1)], [(1, -1)], [(1, 0)], [(2, -1)], [(1, -1, -1)],
    ]


def test_four_dim_max_rejects_level_one_interior():
    assert enumerate_tfd(4, {1}) == []


def test_classify_all_strict_reports_single_extra_row():
    with pytest.raises(ClassificationMismatch) as err:
        classify_all()
    assert err.value.extra == ("II-4.1b",)
    assert err.value.missing == ()


def test_all_golden_rows_emitted(rows):
    keys = {golden.fixed_point_columns(t): t.label for t in rows}
    for g in golden.GOLDEN6:
        assert keys.get((g["crit"], g["components"])) == g["label"]


def test_emitted_count_and_labels(rows):
    assert len(rows) == 19
    labels = [t.label for t in rows]
    assert labels == [
        "I-1", "I-2", "I-3",
        "II-3.1", "II-3.2", "II-3.3", "II-4.1", "II-4.1b", "II-4.2",
        "III-1", "III-2", "III-3.1", "III-3.2", "III-3.3",
        "III-4.1", "III-4.2", "III-4.3", "III-4.4", "III-4.5",
    ]


def test_deterministic(rows):
    again = classify_all(strict=False)
    assert [serialization(t) for t in again] == [serialization(t) for t in rows]


def test_chern_numbers(by_label):
    expected = {g["label"]: g["c1_cubed"] for g in golden.GOLDEN6}
    for label, value in expected.items():
        assert chern_number(by_label[label]) == value
    assert chern_number(by_label["II-4.1b"]) == 48


def test_localization_identities(rows):
    for t in rows:
        for u, name in ((t, t.label), (flip(t), f"{t.label}-flip")):
            assert integrate(u, ONE).is_zero(), name
            assert integrate(u, C1).is_zero(), name


def _rows_and_flips():
    for row in classify_all(strict=False):
        yield pytest.param(row, id=row.label)
        yield pytest.param(flip(row), id=f"{row.label}-flip")


@pytest.mark.parametrize("tfd", list(_rows_and_flips()))
def test_dh_chern_number_matches_localization(tfd):
    assert chern_number(tfd) == integrate(tfd, C1_CUBED).coeff(0)


def test_chern_number_runs_no_localization_sum(rows, monkeypatch):
    # c1^3 is read off the slices, so rendering a row or matching a polytope
    # makes no localization sum
    cases = [u for t in rows for u in (t, flip(t))]

    def refuse(*_args):
        raise AssertionError("localization sum on the chern_number path")

    monkeypatch.setattr(localization, "integrate", refuse)
    monkeypatch.setattr(localization, "contribution", refuse)
    for u in cases:
        assert type(chern_number(u)) is int, u.label


def test_chern_number_needs_integral_slice_ends(by_label):
    from hamfix.errors import InternalArithmeticError

    # slice ends are ints when a slice is built, so chern_number needs no guard
    s = by_label["III-1"].slices[0]
    with pytest.raises(InternalArithmeticError, match="non-integral ends"):
        s.with_interval(-3, Fraction(1, 2))
    with pytest.raises(InternalArithmeticError, match="non-integral ends"):
        type(s)(s.euler, s.anchor_class, (Fraction(-3), -1))
    with pytest.raises(InternalArithmeticError, match="non-integral level"):
        s.omega(Fraction(-2))


def _int_pins(t):
    """Every slice end and class coefficient a row and its flip carry."""
    for u in (t, flip(t)):
        for s in u.slices:
            yield from s.interval
            for c in (s.euler, s.anchor_class, s.omega(s.interval[1])):
                yield from c.coeffs
        for fc in u.components:
            for c in (getattr(fc.spec, "surface_class", None),
                      getattr(fc.spec, "euler_at_boundary", None)):
                yield from c.coeffs if c is not None else ()


def test_slice_path_is_integral(rows):
    # every critical level is an integer, so the slice path carries ints only
    assert len(rows) == 19
    for t in rows:
        pins = list(_int_pins(t))
        assert pins and all(type(x) is int for x in pins), t.label


def test_dh_at_quarter_steps_is_the_exact_square(rows):
    # the --emit-dh grid, against (A - (t - lo) e)^2 in Fractions
    for t in rows:
        for s in t.slices + flip(t).slices:
            lo, hi = s.interval
            for j in range(4 * (hi - lo) + 1):
                x = lo + Fraction(j, 4)
                w = [a - (x - lo) * e for a, e in zip(s.anchor_class.coeffs, s.euler.coeffs)]
                if s.lattice.kind == "product":
                    want = 2 * w[0] * w[1]
                else:
                    want = w[0] ** 2 - sum(y * y for y in w[1:])
                assert dh(s, x) == want, (t.label, s.interval, x)


def test_enumeration_requires_vanishing_identities(monkeypatch):
    # enumerate_tfd asserts that the integrals of 1 and c1 vanish, so a
    # contribution that breaks the integral of 1 surfaces as a bug
    from hamfix.errors import InternalArithmeticError
    from hamfix.localization import LaurentPoly

    real = localization.contribution

    def broken(fc, alpha):
        return real(fc, alpha) + (LaurentPoly.x_power(-3) if alpha == ONE else LaurentPoly.zero())

    monkeypatch.setattr(localization, "contribution", broken)
    with pytest.raises(InternalArithmeticError):
        enumerate_tfd(0, {-1, 1})


def test_betti_vectors(rows, by_label):
    for t in rows:
        b = betti(t)
        assert b == tuple(reversed(b)), t.label
    for g in golden.GOLDEN6:
        b = betti(by_label[g["label"]])
        assert b[2] == g["b2"], g["label"]
        assert b[3] == g["b_odd"], g["label"]
    assert betti(by_label["II-4.1b"]) == (1, 0, 3, 0, 3, 0, 1)


def test_capacity_formula(by_label):
    assert capacities(by_label["III-1"]) == (4, 4)
    assert capacities(by_label["II-4.1"]) == (2, 5)
    # second critical value of the three-level row is zero, not -1
    assert capacities(by_label["I-1"]) == (3, 6)
    for label, t in by_label.items():
        w, h = capacities(t)
        assert h == 3 + max(t.crit_levels)


def test_capacity_needs_isolated_minimum(by_label):
    with pytest.raises(CapacityFormulaInapplicable):
        capacities(flip(by_label["II-3.1"]))


def test_flip_involution_preserves_invariants(rows):
    for t in rows:
        f = flip(t)
        assert chern_number(f) == chern_number(t), t.label
        assert betti(f) == tuple(reversed(betti(t))), t.label
        assert flip(f).components == t.components, t.label
        assert flip(f).slices == t.slices, t.label


def test_flip_recomputes_no_blowdown(rows, monkeypatch):
    # a flipped row reads everything off its components and slices, so flip
    # builds no (-1)-classes and looks for no zero-area ones
    from hamfix import classify6, lattice, reduction

    def refuse(*_args):
        raise AssertionError("flip recomputed the contracted classes")

    for module in (classify6, lattice, reduction):
        for name in ("exceptional_classes", "vanishing_classes"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    for t in rows:
        assert flip(flip(t)) == t, t.label


def test_flip_of_symmetric_row_is_itself(by_label):
    i1 = by_label["I-1"]
    assert serialization(flip(i1)) == serialization(i1)
    iii1 = flip(by_label["III-1"])
    assert max(fc.level for fc in iii1.components) == 3
    assert min(fc.level for fc in iii1.components) == -1


def test_unique_splittings_for_disconnected_rows(rows):
    # exactly one emitted row carries each of the two disconnected patterns
    i3 = [t for t in rows if interior_classes(t) == [(1, -1), (1, -1)]]
    ii41 = [t for t in rows if interior_classes(t) == [(1, -1, -1), (1, -1, 0)]]
    assert len(i3) == 1 and i3[0].label == "I-3"
    assert len(ii41) == 1 and ii41[0].label == "II-4.1"


def test_dh_continuity_at_crossings(rows):
    for t in rows:
        for s1, s2 in zip(t.slices, t.slices[1:]):
            c = s1.interval[1]
            assert c == s2.interval[0]
            assert dh(s1, c) == dh(s2, c), (t.label, c)


def test_dh_decrease_at_index2_levels(rows):
    for t in rows:
        k = sum(
            1 for fc in t.components
            if fc.level == -1 and isinstance(fc.spec, IsolatedPoint)
        )
        if not k:
            continue
        before = slice_below(t, -1)
        after = slice_above(t, -1)
        assert dh_jump(before, after, -1) == (0, 0, -k), t.label


def test_blowdown_replay(rows):
    replayed = 0
    for t in rows:
        for level in blowdown_levels(t):
            classes = contracted_classes(t, level)
            m = sum(
                1 for fc in t.components
                if fc.level == level and isinstance(fc.spec, IsolatedPoint)
            )
            below = slice_below(t, level)
            assert len(classes) == m, t.label
            exc = exceptional_classes(below.lattice)
            above = slice_above(t, level)
            assert blow_down(below, level, m, exc).with_interval(*above.interval) == above
            for a, b in itertools.combinations(classes, 2):
                assert pair(a, b) == 0
            for c in classes:
                assert pair(below.omega(level), c) == 0
            replayed += 1
    assert replayed == 5  # the rows with index-four points


def test_omega_positive_on_all_slices(rows):
    for t in rows:
        for s in t.slices:
            lo, hi = s.interval
            mid = Fraction(lo + hi, 2)
            assert dh(s, mid) > 0, (t.label, s.interval)


def test_normal_degrees_split_self_intersection(rows):
    # b- is read as Z.Z - b+, so both are checked against the Euler classes
    # on either side of the surface: b+ = e+.Z and b- = -e-.Z
    for t in rows:
        for u in (t, flip(t)):
            for fc in u.interior_surfaces:
                bplus, bminus = fc.spec.normal_degrees
                z = fc.spec.surface_class
                assert bplus + bminus == pair(z, z), u.label
                assert bplus == pair(slice_above(u, fc.level).euler, z), u.label
                assert bminus == -pair(slice_below(u, fc.level).euler, z), u.label


def test_no_candidate_on_box_boundary(rows):
    for t in rows:
        for fc in t.components:
            if isinstance(fc.spec, InteriorSurface):
                assert max(abs(c) for c in fc.spec.surface_class.coeffs) < 6
        for level in blowdown_levels(t):
            for c in contracted_classes(t, level):
                assert max(abs(x) for x in c.coeffs) < 6


def _unpruned_totals(k, has_blowdown, box):
    """Reference: every nondecreasing tail in the box, then the three filters."""
    b_floor = -2 if has_blowdown else -1
    for a in range(-box, box + 1):
        for tail in itertools.combinations_with_replacement(range(b_floor, box + 1), k):
            if 3 * a + sum(tail) < 1:
                continue
            if k >= 2 and not has_blowdown and a + tail[-1] + tail[-2] > -1:
                continue
            if (4 - a) ** 2 - sum((b + 2) ** 2 for b in tail) < 1:
                continue
            yield (a,) + tail


def _widened_box(k):
    # well past the derived a <= 3; k >= 5 yields nothing, so a smaller box
    # keeps its many tails fast
    return 8 if k <= 4 else 6


def _level_one_vanishing(k, total):
    """The (-1)-classes of zero area at level one, read off the swept slice."""
    state = blow_up(initial_slice(point(-3, (1, 1, 1))), -1, k)
    if total is not None:
        state = shift(state, 0, total)
    return vanishing_classes(state, 1, exceptional_classes(state.lattice))


def _passes_level_one_count(k, total, m):
    vanishing = _level_one_vanishing(k, total)
    disjoint = all(pair(a, b) == 0 for a, b in itertools.combinations(vanishing, 2))
    return len(vanishing) == m and disjoint


CRIT_SETS = [frozenset(c) for r in range(4) for c in itertools.combinations((-1, 0, 1), r)]


def _cells(counts_for, level_0):
    """The (max_dim, k, m) cells over critical sets that do or do not hold level 0."""
    return {
        (max_dim, k, m)
        for max_dim in (0, 2, 4)
        for crit in CRIT_SETS
        if (0 in crit) == level_0
        for k, m in counts_for(max_dim, crit)
    }


def _survives(max_dim, k, total, m):
    """Whether the unpruned sweep, with the former predicates, admits the candidate."""
    try:
        unpruned.sweep(max_dim, k, total, m)
    except unpruned.REJECTIONS:
        return False
    return True


def _has_splitting(total):
    return bool(component_splittings(total.lattice, total))


@pytest.mark.parametrize("has_blowdown", [False, True])
@pytest.mark.parametrize("k", range(9))
def test_candidate_totals_match_unpruned_box(k, has_blowdown):
    # in each cell of the unpruned search with k points at level -1 and a
    # level-0 surface, generation yields, in order, exactly the filtered box
    # totals that the unpruned sweep admits and that have a splitting; the
    # derived ranges leave no box total with a <= 3 for k >= 5
    lat = make_blowup_lattice(k)
    box = list(_unpruned_totals(k, has_blowdown, _widened_box(k)))
    cells = sorted(
        (max_dim, m) for max_dim, kk, m in _cells(unpruned.counts_for, True)
        if kk == k and (m > 0) == has_blowdown
    )
    assert cells or (k, has_blowdown) == (0, True)  # nothing to blow down
    for max_dim, m in cells:
        got = [c.coeffs for c in _candidate_totals(max_dim, k, m)]
        assert got == [
            t for t in box
            if _survives(max_dim, k, CohClass(lat, t), m) and _has_splitting(CohClass(lat, t))
        ]
    if k >= 5:
        assert [t for t in box if t[0] <= 3] == []


def test_candidate_totals_cover_box_survivors():
    # the search generates exactly what the unpruned sweep admits and can
    # split: over the 26 cells of the unpruned search with a level-0 surface,
    # the derived point counts and generation give the same (cell, total)
    # pairs as the filtered box swept with the former predicates, less the 3
    # survivors with no splitting (`test_generation_funnel`), and without
    # level 0 the derived point counts keep exactly the cells whose path
    # closes
    unpruned_cells, kept = _cells(unpruned.counts_for, True), _cells(_counts_for, True)
    assert (len(unpruned_cells), len(kept)) == (26, 14)
    assert kept <= unpruned_cells
    generated, survivors, checked = set(), set(), 0
    for max_dim, k, m in unpruned_cells:
        if (max_dim, k, m) in kept:
            generated |= {(max_dim, k, m, c.coeffs) for c in _candidate_totals(max_dim, k, m)}
        lat = make_blowup_lattice(k)
        for t in _unpruned_totals(k, m > 0, _widened_box(k)):
            checked += 1
            if _survives(max_dim, k, CohClass(lat, t), m):
                survivors.add((max_dim, k, m, t))
    assert (checked, len(survivors)) == (290, 19)
    split = {
        (d, k, m, t) for d, k, m, t in survivors
        if _has_splitting(CohClass(make_blowup_lattice(k), t))
    }
    assert generated == split and len(generated) == 16
    bare = {
        (d, k, m) for d, k, m in _cells(unpruned.counts_for, False) if _survives(d, k, None, m)
    }
    assert bare == _cells(_counts_for, False) == {(0, 3, 3), (4, 0, 0), (4, 1, 0)}


def test_generation_funnel(rows):
    # 19 candidates reach the sweep: 16 level-0 totals and the 3 cells without
    # level 0, and each ends in exactly one row
    candidates = 0
    for max_dim in (0, 2, 4):
        for crit in CRIT_SETS:
            for k, m in _counts_for(max_dim, crit):
                for total in _candidate_totals(max_dim, k, m) if 0 in crit else [None]:
                    candidates += 1
                    if total is not None:
                        splittings = component_splittings(total.lattice, total)
                        assert len(splittings) == 1, (max_dim, total)
    assert candidates == len(rows) == 19
    # rows of different cells differ in max_dim or critical levels, so the
    # rows need no de-duplication across cells
    assert len({serialization(t) for t in rows}) == 19


# (max_dim, k, m, total) -> T.T + c1.T: the totals the genus budget cuts
BUDGET_CUT = {
    (0, 2, 2, (2, -2, -2)): -2,
    (2, 2, 1, (1, -2, 0)): -2,
    (2, 3, 2, (2, -2, -2, -1)): -4,
}


def test_genus_budget_cuts_only_totals_without_splitting():
    # a splitting of T has n <= c1.T disjoint parts and genera summing to
    # (T.T - c1.T + 2n) / 2 >= 0, so T.T + c1.T >= 0; the unpruned sweep
    # admits exactly these 3 totals below the budget, and none splits
    for (max_dim, k, m, coeffs), budget in BUDGET_CUT.items():
        total = CohClass(make_blowup_lattice(k), coeffs)
        assert coeffs in [c.coeffs for c in unpruned.candidate_totals(k, m > 0)]
        assert _survives(max_dim, k, total, m)
        assert component_splittings(total.lattice, total) == []
        assert pair(total, total) + pair(total.lattice.anticanonical, total) == budget
        assert coeffs not in [c.coeffs for c in _candidate_totals(max_dim, k, m)]


def test_every_slice_keeps_positive_volume_and_exceptional_areas(rows):
    # slice positivity is derived (`_candidate_totals`, `_closes`) and not
    # checked by the search: on every slice of every row and its flip the
    # reduced class has positive square, zero only where an isolated point or
    # sphere extremum collapses the reduced space, and every (-1)-class has
    # area >= 0 at both ends of the slice and > 0 at one
    exceptional_checks = 0
    for t in rows:
        for u in (t, flip(t)):
            ends = (u.crit_levels[0], u.crit_levels[-1])
            zero_ends = {lvl for lvl in ends if all(fc.dim < 4 for fc in u.at_level(lvl))}
            for s, exc in zip(u.slices, unpruned.slice_exceptional(u.slices)):
                assert unpruned.positive_square_throughout(s, zero_ends), (u.label, s.interval)
                for c in exc:
                    areas = [pair(s.omega(end), c) for end in s.interval]
                    assert min(areas) >= 0 and max(areas) > 0, (u.label, s.interval, c)
                    exceptional_checks += 1
    assert exceptional_checks == 2 * 55


def test_search_matches_unpruned_reference(rows):
    # generating only candidates that pass the level-one count, deriving k and
    # sweeping each distinct permutation once lose no row and change none
    def view(t):
        return (t.label, serialization(t), t.components, t.slices)

    assert [view(t) for t in unpruned.classify_all()] == [view(t) for t in rows]


def test_swept_candidates_pass_the_level_one_count(monkeypatch):
    from hamfix import classify6

    swept = []
    sweep_path = classify6._sweep_path

    def recording(max_dim, k, total, m):
        swept.append((k, total, m))
        return sweep_path(max_dim, k, total, m)

    monkeypatch.setattr(classify6, "_sweep_path", recording)
    for max_dim in (0, 2, 4):
        for r in range(4):
            for crit in itertools.combinations((-1, 0, 1), r):
                enumerate_tfd(max_dim, crit)
    assert len(swept) == 19  # one sweep per candidate, and canonicalization sweeps none
    for k, total, m in swept:
        assert _passes_level_one_count(k, total, m), (k, total, m)


@pytest.mark.parametrize(
    "k,coeffs,error",
    [
        # E1 keeps area 1 at level one, so nothing vanishes for the one point
        (1, (1, -1), VanishingCycleMismatch),
        # E1 and u - E1 - E2 both vanish at level one, and they meet
        (2, (1, -2, 1), NonDisjointBlowdown),
    ],
)
def test_level_one_mismatch_is_an_error(monkeypatch, k, coeffs, error):
    # generation settles the level-one count, so a total that breaks it is a
    # bug: enumerate_tfd raises instead of skipping it as a rejection
    from hamfix import classify6

    lat = make_blowup_lattice(k)
    assert not _passes_level_one_count(k, CohClass(lat, coeffs), k)

    def wrong(max_dim, kk, m):
        return iter([CohClass(lat, coeffs)] if kk == k else [])

    monkeypatch.setattr(classify6, "_candidate_totals", wrong)
    with pytest.raises(error):
        enumerate_tfd(0, {-1, 0, 1})


def test_count_relations(rows):
    for t in rows:
        pts = {
            lvl: sum(
                1 for fc in t.components
                if fc.level == lvl and isinstance(fc.spec, IsolatedPoint)
            )
            for lvl in (-1, 1)
        }
        if t.max_dim == 0:
            assert pts[-1] == pts[1], t.label
        elif t.max_dim == 2:
            assert pts[-1] == pts[1] + 1, t.label
        else:
            assert pts[1] == 0, t.label


def test_sphere_max_parity(rows):
    # even normal degree at the top slice happens only over the product lattice
    from hamfix.localization import ExtremalSurface

    for t in rows:
        tops = [fc for fc in t.components if isinstance(fc.spec, ExtremalSurface)]
        if not tops:
            continue
        b_max = tops[0].spec.normal_degree
        top_slice = slice_below(t, 2)
        assert (b_max % 2 == 0) == (top_slice.lattice.kind == "product"), t.label


def test_dh_blowdown_jump(rows):
    # crossing m index-four points raises DH by m(t-1)^2 relative to the
    # continuation of the lower branch (the mirror of the index-two drop)
    for t in rows:
        for level in blowdown_levels(t):
            before = slice_below(t, level)
            after = slice_above(t, level)
            classes = contracted_classes(t, level)
            assert dh_jump(before, after, level) == (0, 0, len(classes)), t.label


def test_sphere_max_full_interior_family(rows):
    # the {-1, 0, 1} sphere-maximum family: two reference rows plus the
    # configuration realized by the corpus polytope p1xf1
    family = [
        t for t in rows if t.max_dim == 2 and t.interior_crit == (-1, 0, 1)
    ]
    assert [t.label for t in family] == ["II-4.1", "II-4.1b", "II-4.2"]


def test_cross_replays_every_row(rows):
    # the three crossing rules rebuild each row's own slice path from the
    # points at -1 and +1 and the surfaces at 0, all that lies below the top
    for t in rows:
        inner = [fc for level in (-1, 0, 1) for fc in t.at_level(level) if fc.dim < 4]
        k = sum(1 for fc in inner if (fc.level, fc.dim) == (-1, 0))
        surfaces = [fc.spec.surface_class for fc in inner if (fc.level, fc.dim) == (0, 2)]
        m = sum(1 for fc in inner if (fc.level, fc.dim) == (1, 0))
        assert k + len(surfaces) + m == len(inner), t.label
        state = initial_slice(t.at_level(-3)[0])
        slices, blowdowns = [], []
        if k:
            slices.append(state.with_interval(state.interval[0], -1))
            state = blow_up(slices[-1], -1, k)
        if surfaces:
            slices.append(state.with_interval(state.interval[0], 0))
            state = shift(slices[-1], 0, sum(surfaces, state.lattice.zero()))
        if m:
            slices.append(state.with_interval(state.interval[0], 1))
            exc = exceptional_classes(state.lattice)
            blowdowns.append((1, vanishing_classes(slices[-1], 1, exc)))
            state = blow_down(slices[-1], 1, m, exc)
        slices.append(state.with_interval(state.interval[0], max(t.crit_levels)))
        assert tuple(slices) == t.slices, t.label
        contracted = tuple((level, contracted_classes(t, level)) for level in blowdown_levels(t))
        assert tuple(blowdowns) == contracted, t.label


def test_localization_failure_is_an_error(monkeypatch):
    # the localization identities are derived from the sweep, so a nonzero
    # sum is a bug and must not be skipped as a rejected candidate
    from hamfix import classify6
    from hamfix.errors import InternalArithmeticError
    from hamfix.localization import LaurentPoly

    monkeypatch.setattr(classify6, "integrate", lambda tfd, alpha: LaurentPoly.x_power(-3))
    with pytest.raises(InternalArithmeticError):
        enumerate_tfd(0, {-1, 1})


def test_canonicalize_undoes_every_permutation_fixing_the_total(rows):
    # the canonical form is the generated total, whose tail is nondecreasing,
    # with its splitting least over the index permutations that fix the
    # total: those fix the slices, and canonicalization undoes them; a
    # permutation that moves the total keeps the total it was given
    from hamfix.classify6 import _canonicalize

    for max_dim, k, m in _cells(_counts_for, True):
        for total in _candidate_totals(max_dim, k, m):
            assert list(total.coeffs[1:]) == sorted(total.coeffs[1:]), total

    def summed(split, lat):
        return sum((c for c, _ in split), lat.zero())

    fixing = moved = 0
    for t in rows:
        if not t.interior_surfaces:
            continue
        lat = t.reduced_lattice
        row_split = tuple((fc.spec.surface_class, fc.spec.genus) for fc in t.interior_surfaces)
        total = summed(row_split, lat)
        for perm in itertools.permutations(range(lat.blowups)):
            split = tuple(
                (CohClass(lat, (c.coeffs[0],) + tuple(c.coeffs[1 + p] for p in perm)), g)
                for c, g in row_split
            )
            canon = _canonicalize(summed(split, lat), split)
            assert summed(canon, lat) == summed(split, lat), (t.label, perm)
            if summed(split, lat) == total:
                fixing += 1
                moved += split != row_split
                assert canon == row_split, (t.label, perm)
    # no row's own splitting moves under the permutations fixing its total
    assert (fixing, moved) == (18, 0)
    # E1 + (u + E2) on P2#2: swapping the indices fixes the total (1; 1, 1)
    # and moves the parts, and the least form is E2 + (u + E1)
    lat = make_blowup_lattice(2)
    total = CohClass(lat, (1, 1, 1))
    split = ((CohClass(lat, (0, 1, 0)), 0), (CohClass(lat, (1, 0, 1)), 0))
    least = ((CohClass(lat, (0, 0, 1)), 0), (CohClass(lat, (1, 1, 0)), 0))
    assert _canonicalize(total, split) == _canonicalize(total, least) == least


def test_internal_arithmetic_errors_surface(monkeypatch):
    # only predicate failures count as rejections; a bug must not drop a candidate
    from hamfix import reduction
    from hamfix.errors import InternalArithmeticError

    def broken(lattice, vanishing, exceptional):
        raise InternalArithmeticError("complement lattice not recognized")

    monkeypatch.setattr(reduction, "blowdown_lattice", broken)
    with pytest.raises(InternalArithmeticError):
        enumerate_tfd(0, {-1, 1})
