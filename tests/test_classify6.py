"""The six-dimensional classification: enumeration, predicates, invariants."""

import itertools
from fractions import Fraction

import pytest

from hamfix import classify6, golden, localization
from hamfix.classify6 import (
    _candidate_totals,
    capacities,
    classify_all,
    flip,
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
)
from hamfix.reduction import (
    blow_down,
    blow_up,
    dh,
    initial_slice,
    shift,
    vanishing_classes,
)
from row_cases import CASE_IDS, LABELS, rows_and_flips
from tfd_slices import contracted_classes, dh_jump, slice_above, slice_below
import unpruned


@pytest.fixture(scope="module")
def rows():
    return classify_all(strict=False)


@pytest.fixture(scope="module")
def by_label(rows):
    return {t.label: t for t in rows}


@pytest.fixture(scope="module")
def cases(rows):
    return rows_and_flips(rows)


def blowdown_levels(tfd):
    """The levels that hold index-four points, where the reduced space blows down."""
    return sorted({fc.level for fc in tfd.components if (fc.dim, fc.index) == (0, 4)})


def interior_classes(tfd):
    return sorted(
        fc.surface_class.coeffs
        for fc in tfd.components
        if isinstance(fc, InteriorSurface)
    )


def cell_rows(rows, max_dim, crit):
    """The rows below a maximum of dimension max_dim with these interior critical levels."""
    return [t for t in rows if (t.max_dim, t.interior_crit) == (max_dim, crit)]


def test_point_max_single_conic(rows):
    found = cell_rows(rows, 0, (0,))
    assert len(found) == 1
    assert interior_classes(found[0]) == [(2,)]
    (fc,) = [f for f in found[0].components if isinstance(f, InteriorSurface)]
    assert fc.genus == 0


def test_sphere_max_nonexistence_cases(rows):
    assert cell_rows(rows, 2, (-1,)) == []
    assert cell_rows(rows, 2, (-1, 1)) == []


def test_sphere_max_three_solutions(rows):
    found = cell_rows(rows, 2, (-1, 0))
    assert [interior_classes(t) for t in found] == [[(0, 1)], [(1, 0)], [(2, -1)]]


def test_four_dim_max_five_solutions(rows):
    found = cell_rows(rows, 4, (-1, 0))
    assert [interior_classes(t) for t in found] == [
        [(0, 1)], [(1, -1)], [(1, 0)], [(2, -1)], [(1, -1, -1)],
    ]


def test_four_dim_max_rejects_level_one_interior(rows):
    assert cell_rows(rows, 4, (1,)) == []


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
    assert tuple(t.label for t in rows) == LABELS


def test_deterministic(rows):
    again = classify_all(strict=False)
    assert [(t.components, t.slices) for t in again] == [(t.components, t.slices) for t in rows]


def test_chern_numbers(by_label):
    expected = {g["label"]: g["c1_cubed"] for g in golden.GOLDEN6}
    for label, value in expected.items():
        assert chern_number(by_label[label]) == value
    assert chern_number(by_label["II-4.1b"]) == 48


def test_localization_identities(cases):
    for name, u in cases.items():
        assert integrate(u, ONE).is_zero(), name
        assert integrate(u, C1).is_zero(), name


@pytest.mark.parametrize("case", CASE_IDS)
def test_dh_chern_number_matches_localization(cases, case):
    tfd = cases[case]
    assert chern_number(tfd) == integrate(tfd, C1_CUBED).coeff(0), case


def test_collection_runs_no_search():
    # the tests over rows are parametrized by label, so a search that raises
    # fails those tests and leaves collection whole
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    script = "\n".join([
        "import sys, pytest",
        "import hamfix.classify6 as c",
        "def refuse():",
        "    raise RuntimeError('search run during collection')",
        "c._classify_cached = refuse",
        "sys.exit(pytest.main(['--collect-only', '-qq', '-p', 'no:cacheprovider', sys.argv[1]]))",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", script, str(root / "tests")],
        cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_chern_number_runs_no_localization_sum(cases, monkeypatch):
    # c1^3 is read off the slices, so rendering a row or matching a polytope
    # makes no localization sum
    def refuse(*_args):
        raise AssertionError("localization sum on the chern_number path")

    monkeypatch.setattr(localization, "integrate", refuse)
    monkeypatch.setattr(localization, "contribution", refuse)
    for name, u in cases.items():
        assert type(chern_number(u)) is int, name


def test_chern_number_needs_integral_slice_ends(by_label):
    from hamfix.errors import InternalArithmeticError

    # slice ends are ints when a slice is built, so chern_number needs no guard
    s = by_label["III-1"].slices[0]
    with pytest.raises(InternalArithmeticError, match="non-integral ends"):
        s.with_interval(-3, Fraction(1, 2))
    with pytest.raises(InternalArithmeticError, match="non-integral ends"):
        type(s)(s.euler, (Fraction(-3), -1))
    with pytest.raises(InternalArithmeticError, match="non-integral level"):
        s.omega(Fraction(-2))


def _int_pins(t):
    """Every slice end and class coefficient a row and its flip carry."""
    for u in (t, flip(t)):
        for s in u.slices:
            yield from s.interval
            for c in (s.euler, *map(s.omega, s.interval)):
                yield from c.coeffs
        for fc in u.components:
            for c in (getattr(fc, "surface_class", None),
                      getattr(fc, "euler_at_boundary", None)):
                yield from c.coeffs if c is not None else ()


def test_slice_path_is_integral(rows):
    # every critical level is an integer, so the slice path carries ints only
    assert len(rows) == 19
    for t in rows:
        pins = list(_int_pins(t))
        assert pins and all(type(x) is int for x in pins), t.label


def test_dh_at_quarter_steps_is_the_exact_square(rows):
    # the --emit-dh grid, against (c1 - t e)^2 in Fractions
    for t in rows:
        for s in t.slices + flip(t).slices:
            lo, hi = s.interval
            for j in range(4 * (hi - lo) + 1):
                x = lo + Fraction(j, 4)
                w = [c - x * e for c, e in zip(s.lattice.anticanonical.coeffs, s.euler.coeffs)]
                if s.lattice.kind == "product":
                    want = 2 * w[0] * w[1]
                else:
                    want = w[0] ** 2 - sum(y * y for y in w[1:])
                assert dh(s, x) == want, (t.label, s.interval, x)


def test_enumeration_requires_vanishing_identities(monkeypatch):
    # the search asserts that the integrals of 1 and c1 vanish, so a
    # contribution that breaks the integral of 1 surfaces as a bug
    from hamfix.errors import InternalArithmeticError

    real = localization.contribution

    def broken(fc, alpha):
        return real(fc, alpha) + (1 if alpha == ONE else 0)

    monkeypatch.setattr(localization, "contribution", broken)
    with pytest.raises(InternalArithmeticError):
        classify6._classify_cached.__wrapped__()


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
        assert type(w) is type(h) is int
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
    assert golden.fixed_point_columns(flip(i1)) == golden.fixed_point_columns(i1)
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
            if fc.level == -1 and isinstance(fc, IsolatedPoint)
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
                if fc.level == level and isinstance(fc, IsolatedPoint)
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


def test_blowdown_leaves_rank_one_or_two(rows):
    # the level-one blow-down contracts P2#k to the top slice's lattice: the
    # plane below a point maximum, rank 2 below a sphere maximum
    ranks = {}
    for t in rows:
        if blowdown_levels(t):
            ranks.setdefault(t.max_dim, set()).add(t.slices[-1].lattice.rank)
    assert ranks == {0: {1}, 2: {2}}


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
                bplus, bminus = fc.normal_degrees
                z = fc.surface_class
                assert bplus + bminus == pair(z, z), u.label
                assert bplus == pair(slice_above(u, fc.level).euler, z), u.label
                assert bminus == -pair(slice_below(u, fc.level).euler, z), u.label


def test_no_candidate_on_box_boundary(rows):
    for t in rows:
        for fc in t.components:
            if isinstance(fc, InteriorSurface):
                assert max(abs(c) for c in fc.surface_class.coeffs) < 6
        for level in blowdown_levels(t):
            for c in contracted_classes(t, level):
                assert max(abs(x) for x in c.coeffs) < 6


def _pairing_count(a, tail, m):
    """The level-one count as generation made it: pair omega(1) with every
    (-1)-class of the reference."""
    lat = make_blowup_lattice(len(tail))
    omega1 = CohClass(lat, (4 - a,) + tuple(-(b + 2) for b in tail))
    zero = [e for e in unpruned.exceptional_classes(lat) if pair(omega1, e) == 0]
    return len(zero) == m and not any(pair(e, f) for e, f in itertools.combinations(zero, 2))


def test_level_one_count_reads_the_total_ints(monkeypatch):
    # `_contracts` counts the zero-area classes at level one from the total's
    # ints, so generation builds no (-1)-class; on every tail of every cell it
    # agrees with pairing omega(1) against the reference's classes,
    # and on a box of tails, where zero-area classes also meet
    from hamfix import lattice

    def refuse(*_args):
        raise AssertionError("generation built the (-1)-classes")

    for module in (classify6, lattice):
        monkeypatch.setattr(module, "exceptional_classes", refuse)
    tails = 0
    for max_dim, k, m in classify6._cells():
        list(_candidate_totals(max_dim, k, m))
        for a in classify6._leading_coefficients(k):
            for tail in classify6._sorted_tails(k, -2 if m else -1, (4 - a) ** 2 - 1):
                assert classify6._contracts(a, tail, m) == _pairing_count(a, tail, m)
                tails += 1
    assert tails == 114
    box = [(a, tail, m) for k in range(5) for a in range(-2, 4)
           for tail in itertools.product(range(-2, 2), repeat=k) for m in range(k + 1)]
    for case in box:
        assert classify6._contracts(*case) == _pairing_count(*case), case


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
    state = shift(blow_up(initial_slice(), -1, k), 0, total)
    return vanishing_classes(state, 1, unpruned.exceptional_classes(state.lattice))


def _passes_level_one_count(k, total, m):
    vanishing = _level_one_vanishing(k, total)
    disjoint = all(pair(a, b) == 0 for a, b in itertools.combinations(vanishing, 2))
    return len(vanishing) == m and disjoint


CRIT_SETS = [frozenset(c) for r in range(4) for c in itertools.combinations((-1, 0, 1), r)]


def _unpruned_cells(level_0):
    """The (max_dim, k, m) cells of the unpruned search, over the critical
    sets that do or do not hold level 0."""
    return {
        (max_dim, k, m)
        for max_dim in (0, 2, 4)
        for crit in CRIT_SETS
        if (0 in crit) == level_0
        for k, m in unpruned.counts_for(max_dim, crit)
    }


# (max_dim, k, m) -> candidates swept, in the order of `_cells`
CELLS = {
    (0, 0, 0): 1, (0, 1, 1): 1, (0, 2, 2): 0, (0, 3, 3): 1, (0, 4, 4): 0,
    (2, 1, 0): 3, (2, 2, 1): 2, (2, 3, 2): 1, (2, 4, 3): 0,
    (4, 0, 0): 4, (4, 1, 0): 5, (4, 2, 0): 1, (4, 3, 0): 0, (4, 4, 0): 0,
}


def test_cells_and_their_candidates():
    # the cells come from the counting identities, and the five that yield
    # nothing are derived empty in the `_cells` docstring; the zero total is
    # one of the candidates of the three cells without a level-0 surface
    assert list(classify6._cells()) == list(CELLS)
    counts = [len(list(_candidate_totals(max_dim, k, m))) for max_dim, k, m in CELLS]
    assert counts == list(CELLS.values())
    assert (sum(n > 0 for n in counts), sum(counts), counts.count(0)) == (9, 19, 5)


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
    # derived ranges leave no box total with a <= 3 for k >= 5; the zero total
    # has volume 0, below the box's filter
    lat = make_blowup_lattice(k)
    box = list(_unpruned_totals(k, has_blowdown, _widened_box(k)))
    cells = sorted(
        (max_dim, m) for max_dim, kk, m in _unpruned_cells(True)
        if kk == k and (m > 0) == has_blowdown
    )
    assert cells or (k, has_blowdown) == (0, True)  # nothing to blow down
    for max_dim, m in cells:
        got = [c.coeffs for c in _candidate_totals(max_dim, k, m) if not c.is_zero()]
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
    # survivors with no splitting (`test_generation_funnel`), and the zero
    # total is generated in exactly the cells without level 0 whose path
    # closes
    unpruned_cells, kept = _unpruned_cells(True), set(classify6._cells())
    assert (len(unpruned_cells), len(kept)) == (26, 14)
    assert kept <= unpruned_cells
    generated, survivors, checked = set(), set(), 0
    for max_dim, k, m in unpruned_cells:
        if (max_dim, k, m) in kept:
            generated |= {(max_dim, k, m, c.coeffs) for c in _candidate_totals(max_dim, k, m)
                          if not c.is_zero()}
        lat = make_blowup_lattice(k)
        for t in _unpruned_totals(k, m > 0, _widened_box(k)):
            checked += 1
            if _survives(max_dim, k, CohClass(lat, t), m):
                survivors.add((max_dim, k, m, t))
    assert (checked, len(survivors)) == (290, 19)
    for _, k, _, t in survivors:
        # the closed-form splittings are the reference search's, in order
        total = CohClass(make_blowup_lattice(k), t)
        assert component_splittings(total.lattice, total) == unpruned.search_splittings(
            total.lattice, total
        )
    split = {
        (d, k, m, t) for d, k, m, t in survivors
        if _has_splitting(CohClass(make_blowup_lattice(k), t))
    }
    assert generated == split and len(generated) == 16
    bare = {(d, k, m) for d, k, m in _unpruned_cells(False) if _survives(d, k, None, m)}
    zero = {cell for cell in kept if any(t.is_zero() for t in _candidate_totals(*cell))}
    assert bare == zero == {(0, 3, 3), (4, 0, 0), (4, 1, 0)}


def test_generation_funnel(rows):
    # 19 candidates reach the sweep: 16 nonzero level-0 totals and 3 zero
    # totals, and each ends in exactly one row
    candidates = 0
    for max_dim, k, m in classify6._cells():
        for total in _candidate_totals(max_dim, k, m):
            candidates += 1
            splittings = component_splittings(total.lattice, total)
            assert len(splittings) == 1, (max_dim, total)
    assert candidates == len(rows) == 19
    # rows of different cells differ in max_dim or critical levels, so the
    # rows need no de-duplication across cells
    assert len({golden.fixed_point_columns(t) for t in rows}) == 19


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
        return (t.label, t.components, t.slices)

    assert [view(t) for t in unpruned.classify_all()] == [view(t) for t in rows]


def test_swept_candidates_pass_the_level_one_count(monkeypatch):
    swept = []
    sweep_path = classify6._sweep_path

    def recording(max_dim, k, total, m):
        swept.append((k, total, m))
        return sweep_path(max_dim, k, total, m)

    monkeypatch.setattr(classify6, "_sweep_path", recording)
    classify6._classify_cached.__wrapped__()
    assert len(swept) == 19  # one sweep per candidate, and canonicalization sweeps none
    for k, total, m in swept:
        assert _passes_level_one_count(k, total, m), (k, total, m)


def test_search_call_counts(monkeypatch):
    # the counts a traced run reads off one uncached search: each function is
    # wrapped wherever a hamfix module binds it, as the tracer does
    import sys
    from collections import Counter

    from hamfix import lattice, reduction

    counts = Counter()

    def counting(fn, found=None):
        def wrapper(*args):
            counts[fn.__name__] += 1
            result = fn(*args)
            if found:
                counts[found] += len(result)
            return result
        return wrapper

    def yielding(fn):
        def wrapper(*args):
            for item in fn(*args):
                counts[fn.__name__ + " yielded"] += 1
                yield item
        return wrapper

    wrappers = {
        classify6._candidate_totals: yielding(classify6._candidate_totals),
        classify6._sweep_path: counting(classify6._sweep_path),
        lattice.component_splittings: counting(lattice.component_splittings, "splittings found"),
        lattice.exceptional_classes: counting(lattice.exceptional_classes),
        reduction.vanishing_classes: counting(reduction.vanishing_classes),
        reduction.blowdown_lattice: counting(reduction.blowdown_lattice),
    }
    for name, module in list(sys.modules.items()):
        if name == "hamfix" or name.startswith("hamfix."):
            for key, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    monkeypatch.setattr(module, key, wrappers[value])
    classify6._classify_cached.__wrapped__()
    assert counts == {
        "_candidate_totals yielded": 19,
        "_sweep_path": 19,
        "component_splittings": 19,
        "splittings found": 19,
        "exceptional_classes": 24,
        "vanishing_classes": 5,
        "blowdown_lattice": 5,
    }


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
    # bug: the search raises instead of skipping it as a rejection
    lat = make_blowup_lattice(k)
    assert not _passes_level_one_count(k, CohClass(lat, coeffs), k)

    def wrong(max_dim, kk, m):
        return iter([CohClass(lat, coeffs)] if kk == k else [])

    monkeypatch.setattr(classify6, "_candidate_totals", wrong)
    with pytest.raises(error):
        classify6._classify_cached.__wrapped__()


def test_count_relations(rows):
    for t in rows:
        pts = {
            lvl: sum(
                1 for fc in t.components
                if fc.level == lvl and isinstance(fc, IsolatedPoint)
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
        tops = [fc for fc in t.components if isinstance(fc, ExtremalSurface)]
        if not tops:
            continue
        b_max = tops[0].normal_degree
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
        surfaces = [fc.surface_class for fc in inner if (fc.level, fc.dim) == (0, 2)]
        m = sum(1 for fc in inner if (fc.level, fc.dim) == (1, 0))
        assert k + len(surfaces) + m == len(inner), t.label
        state = initial_slice()
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
    from hamfix.errors import InternalArithmeticError
    from hamfix.localization import LaurentPoly

    monkeypatch.setattr(classify6, "integrate", lambda tfd, alpha: LaurentPoly(((-3, 1),)))
    with pytest.raises(InternalArithmeticError):
        classify6._classify_cached.__wrapped__()


def test_canonicalize_undoes_every_permutation_fixing_the_total(rows):
    # the canonical form is the generated total, whose tail is nondecreasing,
    # with its splitting least over the index permutations that fix the
    # total: those fix the slices, and canonicalization undoes them; a
    # permutation that moves the total keeps the total it was given
    from hamfix.classify6 import _canonicalize

    for max_dim, k, m in classify6._cells():
        for total in _candidate_totals(max_dim, k, m):
            assert list(total.coeffs[1:]) == sorted(total.coeffs[1:]), total

    def summed(split, lat):
        return sum((c for c, _ in split), lat.zero())

    fixing = moved = 0
    for t in rows:
        if not t.interior_surfaces:
            continue
        lat = t.interior_surfaces[0].surface_class.lattice
        row_split = tuple((fc.surface_class, fc.genus) for fc in t.interior_surfaces)
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
        classify6._classify_cached.__wrapped__()
