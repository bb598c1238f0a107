"""Enumeration of topological fixed-point data in dimension six.

Candidates are swept upward from an isolated minimum at level -3: index-two
points blow the reduced space up at level -1, fixed surfaces shift the Euler
class at level 0, index-four points blow down at level +1, and the maximum
closes the interval at level 3 (point), 2 (sphere) or 1 (4-manifold).
Candidates are generated with exactly as many zero-area exceptional classes at
level one as there are points blowing them down, with a path that closes at
the maximum (`_closes`) and within the genus budget of a splitting, so the
sweep rejects nothing and every candidate ends in a row.  Slice positivity
(every slice symplectic, every exceptional class of positive area away from
its collapse) is derived in `_candidate_totals` and `_closes`, and
localization and Betti symmetry follow and are asserted.  A candidate ends in
a row for each splitting of its interior class into disjoint embedded
components.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .errors import (
    CapacityFormulaInapplicable,
    ClassificationMismatch,
    InternalArithmeticError,
)
from .lattice import (
    CohClass,
    component_splittings,
    exceptional_classes,
    make_blowup_lattice,
    pair,
)
from .localization import (
    C1,
    ExtremalFourManifold,
    ExtremalSurface,
    InteriorSurface,
    IsolatedPoint,
    ONE,
    integrate,
)
from .record import record
from .reduction import (
    SliceState,
    blow_down,
    blow_up,
    bmax_from_euler,
    initial_slice,
    shift,
)

MIN_WEIGHTS = (1, 1, 1)
INDEX2_WEIGHTS = (-1, 1, 1)
INDEX4_WEIGHTS = (-1, -1, 1)
MAX_WEIGHTS = (-1, -1, -1)

TOP_LEVEL = {0: 3, 2: 2, 4: 1}


@record
class TFD:
    """A topological fixed-point data record with its derived slice path."""

    label: str | None
    components: tuple  # the fixed components, by level
    slices: tuple[SliceState, ...]

    @property
    def max_dim(self) -> int:
        """Dimension of the component at the highest level."""
        return max(self.components, key=lambda fc: fc.level).dim

    @property
    def crit_levels(self) -> tuple[int, ...]:
        return tuple(sorted({fc.level for fc in self.components}))

    @property
    def interior_crit(self) -> tuple[int, ...]:
        lo, hi = min(self.crit_levels), max(self.crit_levels)
        return tuple(c for c in self.crit_levels if lo < c < hi)

    def at_level(self, level: int) -> tuple:
        return tuple(fc for fc in self.components if fc.level == level)

    @property
    def interior_surfaces(self) -> tuple:
        """The fixed surfaces at interior levels, whose classes are searched."""
        return tuple(fc for fc in self.components if (fc.dim, fc.index) == (2, 2))

    def __repr__(self) -> str:
        name = self.label or "unlabeled"
        return f"TFD({name}, crit={self.crit_levels})"


def flip(t: TFD) -> TFD:
    """Orientation reversal: levels negate, indices complement, Euler classes negate.

    The slices reverse their order and negate their intervals, and a slice's
    reduced class c1 - t e becomes c1 + t e = omega(-t): dh reflects and
    `chern_number` is unchanged.  The localization sums are the Laplace
    transform of dh / 2 (Atiyah and Bott 1984), so the flip's integrals of 1
    and c1 are those of `t` at -x, which `classify_all` asserts vanish.
    """
    comps = sorted((fc.flipped() for fc in t.components), key=lambda fc: fc.level)
    slices = tuple(
        SliceState(-1 * s.euler, (-s.interval[1], -s.interval[0])) for s in reversed(t.slices)
    )
    return TFD(t.label, tuple(comps), slices)


def capacities(t: TFD) -> tuple[int, int]:
    """(ball capacity, oscillation capacity) from the critical values, which are ints."""
    levels = t.crit_levels
    bottom = t.at_level(levels[0])
    if len(bottom) != 1 or bottom[0].dim != 0:
        raise CapacityFormulaInapplicable("minimum must be an isolated point")
    return (levels[1] - levels[0], levels[-1] - levels[0])


# ---------------------------------------------------------------------------
# candidate sweep


def _sweep_path(max_dim: int, k: int, total: CohClass | None, m: int):
    """The slice path for (k points, total surface class, m points).

    Generation fixes the level-one blow-down count (`_cells`,
    `_candidate_totals`), so a blow-down whose zero-area classes do not match
    the m points is a bug: VanishingCycleMismatch or NonDisjointBlowdown.
    """
    state = initial_slice()
    slices = []

    def close(level):
        slices.append(state.with_interval(state.interval[0], level))

    if k:
        close(-1)
        state = blow_up(state, -1, k)
    if total is not None:
        close(0)
        state = shift(state, 0, total)
    if m:
        close(1)
        state = blow_down(state, 1, m, exceptional_classes(state.lattice))
    close(TOP_LEVEL[max_dim])
    return slices


def _check_top(max_dim: int, top_slice: SliceState):
    """Data of the top component; generation makes the path close (`_closes`)."""
    if max_dim == 0:
        return None
    if max_dim == 2:
        return bmax_from_euler(top_slice)
    return top_slice.euler


def _interior_components(slices, level, splitting) -> tuple:
    above = next(s for s in slices if s.interval[0] == level)
    return tuple(
        InteriorSurface(level, cls, genus, pair(above.euler, cls)) for cls, genus in splitting
    )


def _assemble(max_dim, k, m, splitting, slices, top_data):
    comps = [IsolatedPoint(-3, MIN_WEIGHTS)]
    comps += [IsolatedPoint(-1, INDEX2_WEIGHTS) for _ in range(k)]
    if splitting:
        comps += list(_interior_components(slices, 0, splitting))
    comps += [IsolatedPoint(1, INDEX4_WEIGHTS) for _ in range(m)]
    if max_dim == 0:
        comps.append(IsolatedPoint(3, MAX_WEIGHTS))
    elif max_dim == 2:
        comps.append(ExtremalSurface(2, top_data))
    else:
        comps.append(ExtremalFourManifold(1, top_data))
    return TFD(None, tuple(comps), tuple(slices))


def _candidate_totals(max_dim: int, k: int, m: int):
    """Integral class candidates T = (a; b1, ..., bk) for the level-0 fixed surface.

    m index-four points sit at level one, below a maximum of dimension
    `max_dim`.  Above the minimum the reduced class is (t+3)u and the Euler
    class -u; the k blow-ups at level -1 add E1 + ... + Ek to the Euler class,
    so omega(0) = 3u - sum Ei = c1, and the surface shifts the Euler class by
    (a; b) to e0 = (a-1; b1+1, ..., bk+1).  So

        omega(1) = omega(0) - e0 = (4-a; -(b1+2), ..., -(bk+2)).

    A total is yielded only if:

    - its volume c1.T = 3a + sum b, the surface's area, is >= 1;
    - it keeps the genus budget T.T + c1.T = a^2 - sum b^2 + 3a + sum b >= 0.
      A splitting has n >= 1 pairwise disjoint parts Ci of area c1.Ci >= 1,
      so n <= c1.T, and adjunction gives 2 sum gi = T.T - c1.T + 2n >= 0;
    - every (-1)-class has area >= 0 at level one, and > 0 when nothing is
      blown down.  For k <= 4 (`_leading_coefficients`) these are Ei, of
      area bi+2, so bi >= -2, or bi >= -1; and u - Ei - Ej, of area
      -a-bi-bj, least for the last two entries of the tail;
    - the path closes at the maximum, a closed form in e0.e0 =
      (a-1)^2 - sum (bi+1)^2, c1.e0 = 3(a-1) + sum (bi+1) and m (`_closes`);
    - exactly m (-1)-classes have zero area under omega(1), pairwise
      disjoint: the classes the m points contract (`blow_down`).

    Tails are nondecreasing: an index permutation is an isometry of P2#k
    fixing c1 and e-, so it maps paths to paths, and one total per orbit is
    swept; `_canonicalize` handles the permutations that fix it.

    Slice positivity follows, so the sweep asserts none of it: omega(t) has
    positive square on every slice, zero only at -3 and at a point or sphere
    maximum, and every (-1)-class has area >= 0 at both ends of each slice
    and > 0 at one.  Positive square is the forward-cone condition of T.-J.
    Li and A.-K. Liu (2001); the forward cone {x.x > 0, c1.x > 0} is convex.

    - [-3, -1], or up to 0 or the top when k = 0: omega = (t+3)u on P2,
      which has no (-1)-classes.
    - [-1, 0], or [-1, 1] without a level-0 surface (k <= 3, `_cells`):
      omega^2 = (t+3)^2 - k(t+1)^2 is concave for k >= 1 and is 4 at -1,
      9 - k at 0 and 16 - 4k at 1.  A (-1)-class (x; y) has x >= 0, so area
      2x at -1, and area c1.E = 1 at 0 by adjunction; at 1 the classes Ei and
      u - Ei - Ej have areas 2 and 0.
    - [0, 1]: omega(0) = c1, and omega(1)^2 >= 1 by the level-one budget.
      The bi+2 are >= 0, so by Cauchy-Schwarz sum (bi+2) <= sqrt(k((4-a)^2
      - 1)) < 3(4-a) for k <= 8, that is c1.omega(1) = 3(4-a) - sum (bi+2)
      > 0.  Both ends lie in the forward cone, so the whole segment does.
      Each (-1)-class has area 1 at 0 and >= 0 at 1 (above).
    - Above level one: `_closes`.

    The predicates bound every range:

    - a <= 3.  omega(0) = c1 has u-coefficient 3 and omega is linear up to
      level one, so for a >= 4 the u-coefficient vanishes at some t in
      (0, 1], where omega^2 = -sum y^2 <= 0; the reduced volume vanishes only
      at -3, 2 and 3.
    - Lower limit on a (`_leading_coefficients`).
    - The level-one budget alone stops the tails (`_sorted_tails`).
    """
    lat = make_blowup_lattice(k)
    exc = exceptional_classes(lat)
    b_floor = -2 if m else -1
    for a in _leading_coefficients(k):
        for tail in _sorted_tails(k, b_floor, (4 - a) ** 2 - 1):
            volume = 3 * a + sum(tail)
            if volume < 1 or a * a - sum(b * b for b in tail) + volume < 0:
                continue
            if k >= 2 and a + tail[-1] + tail[-2] > (0 if m else -1):
                continue
            ee = (a - 1) ** 2 - sum((b + 1) ** 2 for b in tail)
            if not _closes(max_dim, ee, 3 * (a - 1) + sum(tail) + k, m):
                continue
            omega1 = CohClass(lat, (4 - a,) + tuple(-(b + 2) for b in tail))
            zero = [e for e in exc if pair(omega1, e) == 0]
            if len(zero) != m or any(pair(e, f) for e, f in itertools.combinations(zero, 2)):
                continue
            yield CohClass(lat, (a,) + tail)


def _closes(max_dim: int, ee: int, ce: int, m: int) -> bool:
    """Whether the slice path closes at the maximum, by Duistermaat-Heckman.

    ee = e0.e0 and ce = c1.e0 for the Euler class e0 just above level 0
    (e0 = e- = (-1; 1, ..., 1) without a level-0 surface).  Past the m
    contracted classes the top slice has e+.e+ = ee + m and c1+.e+ = ce + m,
    and reduced class omega(t) = c1+ - t e+ (`classify_all`).  Its lattice has
    rank k + 1 - m: P2 at a point maximum (m = k), rank 2 at a sphere
    maximum (m = k - 1).

    - Point: the reduced space dies at 3, omega(3) = 0, so c1+ = 3u = 3e+,
      that is e+ = u: ee + m = 1 and ce + m = 3.  Conversely e+ = x u with
      x^2 = 1 and 3x = 3 gives e+ = u.
    - Sphere: the reduced space is a sphere bundle over the maximal sphere and
      omega(2) = mu f for its vanishing fiber f and the sphere's area mu > 0.
      As c1+.c1+ = 8, omega(2)^2 = 8 - 4(ce + m) + 4(ee + m) = 0 gives
      ce - ee = 2, and c1+.omega(2) = 8 - 2(ce + m) = 2 mu > 0 gives
      ce + m < 4; then mu = 2 + b_max with b_max = -e+.e+.  Conversely, a
      nonzero isotropic omega(2) with c1+.omega(2) > 0 is mu f, mu > 0, for
      a unique vanishing fiber f.  On the product of spheres the isotropic
      classes are the multiples of the two fibers A and B (xA + yB squares
      to 2xy) and c1+ = 2A + 2B, so omega(2) = mu A, and B keeps area mu.
      On P2#1 they are the multiples of f = u - E and of u + E, and
      omega(2) = x(u + E), x > 0, would give E the area (1 - x)/2 at level
      one, as omega(1) = (c1+ + omega(2))/2: zero is ruled out by the
      level-one count and a negative area by generation
      (`_candidate_totals`).  No (-1)-class vanishes at 2: omega(2).E = 0
      would leave omega(2) = x u, of square x^2 = 0.
    - 4-manifold: the top slice is the maximum itself, of volume
      omega(1)^2 >= 1 by the level-one budget (`_sorted_tails`), or
      16 - 4k for k <= 1 without a level-0 surface.  No condition.

    Above level one the slices stay positive (`_candidate_totals` covers the
    rest of the path).  omega(1) lies in the forward cone {x.x > 0,
    c1.x > 0}, and a blow-down keeps it there: the contracted classes V have
    zero area, so the pushforward keeps omega(1)^2, and c1+ = c1 + sum V
    pairs with omega(1) as c1 does.  At a point maximum omega(3) = 0, so
    omega(t) = (3-t)/2 omega(1) on [1, 3].  At a sphere maximum omega(2) =
    mu f is nonzero on the boundary of the cone, so the half-open segment
    from omega(1) (or from omega(0) = c1 when m = 0) stays inside.  The
    (-1)-classes of the top lattice are those of the level-one lattice
    orthogonal to V: they have area >= 0 at level one, and not 0 as every
    zero-area class was contracted.  Only P2#1 has one, E, with f = u - E,
    so its area at 2 is mu f.E = mu > 0.
    """
    if max_dim == 0:
        return ee + m == 1 and ce + m == 3
    if max_dim == 2:
        return ce - ee == 2 and ce + m < 4
    return True


def _leading_coefficients(k: int) -> list[int]:
    """The u-coefficients a <= 3 of level-0 totals on P2#k, ascending.

    Volume 3a + sum b >= 1 means sum (b+2) >= 2k+1-3a, and the integral
    level-one volume means sum (b+2)^2 <= (4-a)^2 - 1.  When 2k+1-3a > 0,
    Cauchy-Schwarz asks (2k+1-3a)^2 <= k((4-a)^2 - 1), a quadratic in a with
    leading coefficient 9-k.  It holds at a = (2k+1)/3 <= 3 for k <= 4, so
    the passing a form an interval ending at 3; for k >= 5 no a <= 3 passes.
    Scanning down from 3 gives a >= 1, 0, 0, 1, 2 for k = 0..4 and nothing
    for k >= 5.
    """

    def reachable(a):
        need = 2 * k + 1 - 3 * a
        return need <= 0 or need * need <= k * ((4 - a) ** 2 - 1)

    return list(reversed(list(itertools.takewhile(reachable, itertools.count(3, -1)))))


def _sorted_tails(n, lo, budget, prev=None):
    """Nondecreasing tuples of length n, entries >= lo, with sum (b+2)^2 <= budget.

    Lexicographic.  With lo >= -2, (b+2)^2 grows with b and the n entries
    left are all >= b, so the loop stops at the first b with (b+2)^2 * n
    over the budget.
    """
    if n == 0:
        if budget >= 0:
            yield ()
        return
    for b in itertools.count(lo if prev is None else prev):
        cost = (b + 2) ** 2
        if cost * n > budget:
            break
        for rest in _sorted_tails(n - 1, lo, budget - cost, b):
            yield (b,) + rest


def _cells():
    """The cells (max_dim, k, m, surface) of the search, by profile in table order.

    A cell has k index-two points at level -1, a level-0 surface if `surface`
    and m index-four points at level one, below a maximum of dimension
    `max_dim`.  Each profile lists its cells with a surface first, by k.

    The counting identities tie m to k: m = k below a point maximum,
    m = k - 1 below a sphere maximum (so k >= 1), m = 0 below a 4-manifold
    maximum.  The level-one blow-down count bounds k:

    - With a level-0 surface, k runs while some leading coefficient passes
      (`_leading_coefficients`), that is k <= 4.
    - Without one, omega(1) = 4u - 2 sum Ei on P2#k.  The seven shapes of
      `exceptional_classes` pair with it to 2, 0, -2, -4, -6, -8 and -10, so
      the zero-area classes are exactly the C(k, 2) classes u - Ei - Ej.
      Their count must be m <= k, so k <= 3, where any two of them share an
      index and so are disjoint.  C(k, 2) = m leaves k = 0 or 3 at a point
      maximum, k <= 2 at a sphere maximum and k <= 1 at a 4-manifold
      maximum.  Then e0 = e-, so e0.e0 = 1 - k and c1.e0 = k - 3, and the
      path closes (`_closes`) at a point maximum only for k = 3 and at a
      sphere maximum only for k = 3, which C(3, 2) = 3 != 2 rules out.

    Of the 17 cells, 14 have a surface, and six of those yield no candidate
    from `_candidate_totals`, as follows.  Write T = (a; b) for the total,
    e- = (-1; 1, ..., 1) and e0 = e- + T.

    - Point maximum, k = 2, 3, 4.  The k contracted classes V are disjoint
      (-1)-classes of zero area under omega(1) = c1 - e0, so e0.V = c1.V = 1,
      and e0 + sum V is orthogonal to them and pushes forward to e+ = u
      (`_closes`).  So e0 = u' - sum V for an exceptional basis (u'; V) of
      P2#k (Manin, Cubic Forms, section 26, the source of the shapes).
      - k = 2: {E1, E2} is the only disjoint pair; T = (2; -2, -2) has
        T.T + c1.T = -2, below the genus budget.
      - k = 3: V = {E1, E2, E3} gives T = (2; -2, -2, -2), of volume 0;
        V = {u - Ei - Ej} has u' = 2u - E1 - E2 - E3, so T = 0: that is
        I-2, the cell without a surface.
      - k = 4: the ten (-1)-classes Ei and u - Ei - Ej hold five sets of
        four disjoint ones: {E1, ..., E4}, and each Ei with the three
        u - Ej - El off i.  They give T = (2; -2, -2, -2, -2) and T = -2Ei,
        both of volume -2.
    - Sphere maximum, k = 4 (m = 3).  `_leading_coefficients` leaves a >= 2,
      and the volume 3a + sum b >= 1 with the level-one budget sum (bi+2)^2
      <= (4-a)^2 - 1 leaves (3; -2, -2, -2, -2) and (2; -2, -1, -1, -1).
      Their omega(1) is u and (2; 0, -1, -1, -1), and each has four zero-area
      (-1)-classes: E1, ..., E4, and E1 with the u - Ei - Ej off 1.
    - 4-manifold maximum, k = 3, 4 (m = 0).  Nothing vanishes at level one,
      so every bi >= -1 and every u - Ei - Ej has area -a - bi - bj >= 1.
      - k = 3: the three pairs sum to 3a + 2 sum b <= -3, and with the
        volume 3a + sum b >= 1 that asks sum b <= -4, below the floor -3.
      - k = 4: both totals of the sphere case have b1 = -2.
    """
    for max_dim in TOP_LEVEL:
        for surface in (True, False):
            runs = _leading_coefficients if surface else lambda k: math.comb(k, 2) <= k
            for k in itertools.takewhile(runs, itertools.count()):
                m = {0: k, 2: k - 1, 4: 0}[max_dim]
                closes = surface or math.comb(k, 2) == m and _closes(max_dim, 1 - k, k - 3, m)
                if m >= 0 and closes:
                    yield max_dim, k, m, surface


def _canonicalize(total: CohClass, splitting):
    """The least form of a splitting of `total` under the index permutations fixing it.

    The canonical form of a row is its generated total, whose tail is
    nondecreasing (`_candidate_totals`), with the splitting minimized over
    the permutations of E1..Ek that fix that total.  Those fix e0 and so the
    whole slice path, the points and the top component, so two splittings of
    one total give the same row exactly when their least forms agree.  Parts
    come back sorted by coefficients.
    """
    tail = total.coeffs[1:]

    def permuted(perm):
        return tuple(sorted(((c.coeffs[0],) + tuple(c.coeffs[1 + p] for p in perm), g)
                            for c, g in splitting))

    fixing = (p for p in itertools.permutations(range(len(tail)))
              if all(tail[q] == b for q, b in zip(p, tail)))
    return tuple((CohClass(total.lattice, c), g) for c, g in min(map(permuted, fixing)))


def sort_key(tfd: TFD):
    """Table order: profile, interior critical levels, k, then the interior classes."""
    crit = tfd.interior_crit
    k = len([fc for fc in tfd.components if fc.level == -1 and fc.dim == 0])
    interior = tuple(sorted(fc.surface_class.coeffs for fc in tfd.interior_surfaces))
    return (tfd.max_dim, len(crit), crit, k, interior)


def classify_all(strict: bool = True) -> list[TFD]:
    """Classify over every cell of the search (`_cells`), labeled and sorted.

    In each cell the level-0 totals are generated by `_candidate_totals`, and
    each splits into disjoint embedded parts in the closed form of
    `component_splittings`.  Distinct totals, and splittings of one total
    with distinct least forms (`_canonicalize`), give distinct rows; rows of
    different cells differ in max_dim, k or critical levels.

    Betti symmetry and the localization identities (the integrals of 1 and
    c1 vanish) follow from the sweep, as the Laplace-transform side of
    Duistermaat-Heckman (Duistermaat and Heckman 1982, Atiyah and Bott 1984),
    so a failure raises InternalArithmeticError.  Write e- = (-1; 1, ..., 1),
    T = sum ci for the level-0 total, e0 = e- + T, and e+, c1+ for the top
    slice's Euler and anticanonical classes.

    - Betti: each part adds 1 to b2 and to b4, so b2 - b4 is k - m at a
      point maximum, k - m - 1 at a sphere and k + 1 - rank at a 4-manifold;
      the counting identities of `_cells` make each zero.
    - Localization: a part has b+ = e0.ci and b- = -e-.ci, so
      sum(b- - b+) = -2 e-.T - T.T, and sum vol(ci) = c1.T by adjunction.
      With the point terms, ONE = 1 - k + m + 2 e-.T + T.T + t1 and
      C1 = 3 - k - m - c1.T + t2, where (t1, t2) is (-1, 3), (b_max,
      2 - b_max) and (-e+.e+, c1+.e+) at a point, sphere and 4-manifold
      maximum.  As e-.e- = 1 - k and c1.e- = k - 3, ONE = e0.e0 + m + t1 and
      C1 = t2 - m - c1.e0.  The m contracted classes E have c1.E = e0.E = 1,
      so e+.e+ = e0.e0 + m and c1+.e+ = c1.e0 + m.  Closure at the maximum
      (`_closes`) makes both vanish: e0.e0 + m = 1 and c1.e0 + m = 3 at a
      point, c1.e0 - e0.e0 = 2 at a sphere; at a 4-manifold, m = 0, e+ = e0.

    With strict=True a discrepancy against the embedded golden table raises
    ClassificationMismatch; strict=False returns whatever the predicate suite
    produces.
    """
    from . import golden

    labeled = list(_classify_cached())
    if strict:
        got = {t.label for t in labeled}
        want = {row["label"] for row in golden.GOLDEN6}
        extra = sorted(got - want)
        missing = sorted(want - got)
        if extra or missing:
            raise ClassificationMismatch(
                f"classification differs from the golden table "
                f"(extra {extra}, missing {missing})",
                extra=extra,
                missing=missing,
            )
    return labeled


@lru_cache(maxsize=None)
def _classify_cached() -> tuple[TFD, ...]:
    rows = []
    for max_dim, k, m, surface in _cells():
        for total in _candidate_totals(max_dim, k, m) if surface else [None]:
            slices = _sweep_path(max_dim, k, total, m)
            top_data = _check_top(max_dim, slices[-1])
            splittings = {()} if total is None else {
                _canonicalize(total, s) for s in component_splittings(total.lattice, total)
            }
            for splitting in splittings:
                tfd = _assemble(max_dim, k, m, splitting, slices, top_data)
                if not (integrate(tfd, ONE).is_zero() and integrate(tfd, C1).is_zero()):
                    raise InternalArithmeticError(f"localization fails on {tfd.components}")
                rows.append(tfd)
    return tuple(_attach_labels(sorted(rows, key=sort_key)))


def _attach_labels(ordered: list[TFD]) -> list[TFD]:
    from . import golden

    by_key = {(row["crit"], row["components"]): row["label"] for row in golden.GOLDEN6}
    out = []
    prev_label = None
    extra_idx = 0
    for tfd in ordered:
        label = by_key.get(golden.fixed_point_columns(tfd))
        if label is None:
            extra_idx += 1
            base = prev_label if prev_label else "row"
            label = f"{base}{chr(ord('a') + extra_idx)}"
        else:
            prev_label = label
            extra_idx = 0
        out.append(TFD(label, tfd.components, tfd.slices))
    return out
