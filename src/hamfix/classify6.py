"""Enumeration of topological fixed-point data in dimension six.

Candidates are swept upward from an isolated minimum at level -3: index-two
points blow the reduced space up at level -1, fixed surfaces shift the Euler
class at level 0, index-four points blow down at level +1, and the maximum
closes the interval at level 3 (point), 2 (sphere) or 1 (4-manifold).  The
predicate suite keeps a candidate only if every slice stays symplectic, every
exceptional class keeps positive area away from its collapse, and the interior
class splits into disjoint embedded components; localization and Betti
symmetry follow and are asserted.  Candidates are generated with exactly as
many zero-area exceptional classes at level one as there are points blowing
them down, so the sweep never meets a blow-down count that does not match.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .errors import (
    CapacityFormulaInapplicable,
    ClassificationMismatch,
    InternalArithmeticError,
)
from .lattice import (
    BLOWUP,
    CohClass,
    SurfaceLattice,
    component_splittings,
    exceptional_classes,
    make_blowup_lattice,
    pair,
)
from .localization import (
    C1,
    ExtremalFourManifold,
    ExtremalSurface,
    FixedComponent,
    InteriorSurface,
    ONE,
    integrate,
    point,
)
from .record import record
from .reduction import (
    SliceState,
    area,
    blow_down,
    blow_up,
    bmax_from_euler,
    dh,
    fiber_classes_of,
    initial_slice,
    positive_square_throughout,
    shift,
    vanishing_classes,
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
    max_dim: int
    components: tuple[FixedComponent, ...]
    slices: tuple[SliceState, ...]
    blowdowns: tuple[tuple[int, tuple[CohClass, ...]], ...]

    @property
    def crit_levels(self) -> tuple[int, ...]:
        return tuple(sorted({fc.level for fc in self.components}))

    @property
    def interior_crit(self) -> tuple[int, ...]:
        lo, hi = min(self.crit_levels), max(self.crit_levels)
        return tuple(c for c in self.crit_levels if lo < c < hi)

    def at_level(self, level: int) -> tuple[FixedComponent, ...]:
        return tuple(fc for fc in self.components if fc.level == level)

    @property
    def interior_surfaces(self) -> tuple[FixedComponent, ...]:
        """The fixed surfaces at interior levels, whose classes are searched."""
        return tuple(fc for fc in self.components if (fc.dim, fc.index) == (2, 2))

    @property
    def reduced_lattice(self) -> SurfaceLattice:
        """Lattice of the reduced space at level zero."""
        for s in self.slices:
            if s.interval[0] <= 0 <= s.interval[1]:
                return s.lattice
        raise InternalArithmeticError("no slice contains level 0")

    def omega_at(self, level) -> CohClass:
        """Reduced class at the level, from the first slice reaching it."""
        for s in self.slices:
            if s.interval[0] <= level <= s.interval[1]:
                return s.omega(level)
        raise InternalArithmeticError(f"no slice reaches {level}")

    def __repr__(self) -> str:
        name = self.label or "unlabeled"
        return f"TFD({name}, crit={self.crit_levels})"


def flip(t: TFD) -> TFD:
    """Orientation reversal: levels negate, indices complement, Euler classes negate."""
    comps = sorted(
        (FixedComponent(-fc.level, fc.spec.flipped()) for fc in t.components),
        key=lambda fc: fc.level,
    )
    slices = tuple(
        sorted(
            (
                SliceState(
                    s.lattice,
                    -1 * s.euler,
                    -s.anchor_level,
                    s.anchor_class,
                    (-s.interval[1], -s.interval[0]),
                )
                for s in t.slices
            ),
            key=lambda s: s.interval,
        )
    )
    downs = []
    for s in slices:
        hi = s.interval[1]
        if any(fc.level == hi and (fc.dim, fc.index) == (0, 4) for fc in comps):
            downs.append((int(hi), vanishing_classes(s, hi, exceptional_classes(s.lattice))))
    top = max(fc.level for fc in comps)
    new_max_dim = next(fc.dim for fc in comps if fc.level == top)
    return TFD(t.label, new_max_dim, tuple(comps), slices, tuple(downs))


def capacities(t: TFD) -> tuple[Fraction, Fraction]:
    """(ball capacity, oscillation capacity) from the critical values."""
    levels = t.crit_levels
    bottom = t.at_level(levels[0])
    if len(bottom) != 1 or bottom[0].dim != 0:
        raise CapacityFormulaInapplicable("minimum must be an isolated point")
    return (Fraction(levels[1] - levels[0]), Fraction(levels[-1] - levels[0]))


# ---------------------------------------------------------------------------
# candidate sweep


class _Reject(Exception):
    """Internal: candidate fails a predicate; any other error is a bug and propagates."""


def _sweep_path(max_dim: int, k: int, total: CohClass | None, m: int):
    """Build the slice path for (k points, total surface class, m points).

    Returns (slices, blowdowns, exceptional), where exceptional[i] holds the
    (-1)-classes of the lattice of slices[i], built once per lattice.
    Generation fixes the level-one blow-down count (`_counts_for`,
    `_candidate_totals`), so a blow-down whose zero-area classes do not match
    the m points is a bug: VanishingCycleMismatch or NonDisjointBlowdown.
    """
    state = initial_slice(point(-3, MIN_WEIGHTS))
    exc = ()
    slices, blowdowns, exceptional = [], [], []

    def close(level):
        slices.append(state.with_interval(state.interval[0], level))
        exceptional.append(exc)

    if k:
        close(-1)
        state = blow_up(state, -1, k)
        exc = exceptional_classes(state.lattice)
    if total is not None:
        close(0)
        state = shift(state, 0, total)
    if m:
        close(1)
        state, vanishing = blow_down(state, 1, m, exc)
        blowdowns.append((1, vanishing))
        exc = exceptional_classes(state.lattice) if state.lattice.kind == BLOWUP else ()
    close(TOP_LEVEL[max_dim])
    return slices, blowdowns, exceptional


def _check_top(max_dim: int, top_slice: SliceState, exceptional):
    """Extremum-side predicates; returns data needed to build the top component.

    `exceptional` holds the (-1)-classes of the top slice's lattice.  That
    none collapses at a 4-dimensional maximum is the level-one count m = 0 of
    generation.
    """
    top = TOP_LEVEL[max_dim]
    if max_dim == 0:
        if top_slice.lattice.rank != 1 or not top_slice.omega(3).is_zero():
            raise _Reject("path does not close up at an isolated maximum")
        return None
    if max_dim == 2:
        if top_slice.lattice.rank != 2:
            raise _Reject("sphere maximum needs a rank-2 slice")
        if vanishing_classes(top_slice, 2, exceptional):
            raise _Reject("exceptional class collapses at the sphere maximum")
        fibers = [f for f in fiber_classes_of(top_slice.lattice) if area(top_slice, f, 2) == 0]
        if len(fibers) != 1:
            raise _Reject("no unique vanishing fiber class at the maximum")
        if top_slice.omega(2).is_zero():
            raise _Reject("reduced class dies entirely at the sphere maximum")
        b_max = bmax_from_euler(top_slice)
        if 2 + b_max < 1:
            raise _Reject("sphere maximum would have nonpositive area")
        return b_max
    if dh(top_slice, 1) <= 0:
        raise _Reject("reduced volume vanishes at the 4-dimensional maximum")
    return (top_slice.lattice, top_slice.euler)


def _check_slices(slices, max_dim: int, exceptional):
    """DH positivity and exceptional-area positivity along the whole path.

    exceptional[i] holds the (-1)-classes of the lattice of slices[i].
    """
    zero_ends = {Fraction(-3)}
    if max_dim == 0:
        zero_ends.add(Fraction(3))
    if max_dim == 2:
        zero_ends.add(Fraction(2))
    for s, exc in zip(slices, exceptional):
        if not positive_square_throughout(s, allow_zero_ends=zero_ends):
            raise _Reject("reduced class loses positivity")
        if exc:
            w_lo, w_hi = s.omega(s.interval[0]), s.omega(s.interval[1])
            for c in exc:
                alo, ahi = pair(w_lo, c), pair(w_hi, c)
                if alo < 0 or ahi < 0 or (alo == 0 and ahi == 0):
                    raise _Reject(f"exceptional class {c!r} loses area")


def _interior_components(slices, level, splitting) -> tuple[FixedComponent, ...]:
    below = next(s for s in slices if s.interval[1] == level)
    above = next(s for s in slices if s.interval[0] == level)
    comps = []
    for cls, genus in splitting:
        bplus = pair(above.euler, cls)
        bminus = -pair(below.euler, cls)
        comps.append(
            FixedComponent(level, InteriorSurface(cls, genus, (bplus, bminus)))
        )
    return tuple(comps)


def _assemble(max_dim, k, m, splitting, slices, blowdowns, top_data):
    comps = [point(-3, MIN_WEIGHTS)]
    comps += [point(-1, INDEX2_WEIGHTS) for _ in range(k)]
    if splitting:
        comps += list(_interior_components(slices, 0, splitting))
    comps += [point(1, INDEX4_WEIGHTS) for _ in range(m)]
    if max_dim == 0:
        comps.append(point(3, MAX_WEIGHTS))
    elif max_dim == 2:
        comps.append(FixedComponent(2, ExtremalSurface((top_data, 0))))
    else:
        lat, euler = top_data
        comps.append(FixedComponent(1, ExtremalFourManifold(lat, euler)))
    return TFD(None, max_dim, tuple(comps), tuple(slices), tuple(blowdowns))


def _candidate_totals(k: int, m: int):
    """Integral class candidates (a; b1, ..., bk) for the level-0 fixed surface.

    m index-four points sit at level one.  Above the minimum the reduced
    class is (t+3)u and the Euler class -u; the k blow-ups at level -1 add
    E1 + ... + Ek to the Euler class, so omega(0) = 3u - sum Ei = c1, and the
    surface shifts the Euler class by (a; b) to (a-1; b1+1, ..., bk+1).  So

        omega(1) = omega(0) - euler = (4-a; -(b1+2), ..., -(bk+2)).

    A total is yielded only if exactly m (-1)-classes have zero area under
    omega(1) and they are pairwise disjoint: these are the classes the m
    points contract (`blow_down`), and with m = 0 below a 4-dimensional
    maximum none may collapse there.  Tails are nondecreasing (one
    representative per index permutation).  Ei has area bi+2 at level one,
    so bi >= -2, or bi >= -1 when nothing is blown down, and then
    u - Ei - Ej keeps positive area -a-bi-bj too.  The predicates bound every
    range:

    - a <= 3.  omega(0) = c1 has u-coefficient 3 and omega is linear up to
      level one, so for a >= 4 the u-coefficient vanishes at some t in
      (0, 1], where omega^2 = -sum y^2 <= 0; `positive_square_throughout`
      allows zeros only at -3, 2 and 3 (the forward-cone condition of
      T.-J. Li and A.-K. Liu, 2001).
    - Lower limit on a (`_leading_coefficients`).
    - The level-one budget alone stops the tails (`_sorted_tails`).
    """
    lat = make_blowup_lattice(k)
    exc = exceptional_classes(lat)
    b_floor = -2 if m else -1
    for a in _leading_coefficients(k):
        for tail in _sorted_tails(k, b_floor, (4 - a) ** 2 - 1):
            if 3 * a + sum(tail) < 1:
                continue
            if k >= 2 and not m and a + tail[-1] + tail[-2] > -1:
                continue
            omega1 = CohClass(lat, (4 - a,) + tuple(-(b + 2) for b in tail))
            zero = [e for e in exc if pair(omega1, e) == 0]
            if len(zero) != m or any(pair(e, f) for e, f in itertools.combinations(zero, 2)):
                continue
            yield CohClass(lat, (a,) + tail)


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


def _counts_for(max_dim: int, crit: frozenset[int]):
    """Possible (k, m) point counts at levels -1 and +1.

    The counting identities tie m to k: m = k below a point maximum,
    m = k - 1 below a sphere maximum (so k >= 1), m = 0 below a 4-manifold
    maximum.  The level-one blow-down count bounds k:

    - With a level-0 surface, k runs while some leading coefficient passes
      (`_leading_coefficients`), that is k <= 4.
    - Without one, omega(1) = 4u - 2 sum Ei on P2#k.  The seven shapes of
      `exceptional_classes` pair with it to 2, 0, -2, -4, -6, -8 and -10, so
      the zero-area classes are exactly the C(k, 2) classes u - Ei - Ej.
      Their count must be m <= k, so k <= 3, where any two of them share an
      index and so are disjoint.  C(k, 2) = m leaves k = 3 at a point
      maximum, k <= 2 at a sphere maximum and k <= 1 at a 4-manifold
      maximum.
    """
    want_minus = -1 in crit
    want_plus = 1 in crit
    if not want_minus:
        ks = (0,)
    elif 0 in crit:
        ks = itertools.takewhile(_leading_coefficients, itertools.count(1))
    else:
        ks = itertools.takewhile(lambda k: math.comb(k, 2) <= k, itertools.count(1))
    out = []
    for k in ks:
        m = {0: k, 2: k - 1, 4: 0}[max_dim]
        if m < 0:
            continue  # the counting identity |Z_1| + 1 = |Z_-1| needs k >= 1
        if 0 not in crit and math.comb(k, 2) != m:
            continue
        if (m >= 1) != want_plus:
            continue
        out.append((k, m))
    return out


def enumerate_tfd(max_dim: int, crit) -> list[TFD]:
    """All topological fixed-point data above an isolated minimum.

    The maximum has dimension `max_dim` (0, 2 or 4) and `crit` holds the
    interior critical levels.  The searched classes range over what the
    predicates allow (see `_candidate_totals` and `component_splittings`).

    Betti symmetry and the localization identities (the integrals of 1 and
    c1 vanish) follow from the sweep, as the Laplace-transform side of
    Duistermaat-Heckman (Duistermaat and Heckman 1982, Atiyah and Bott 1984),
    so a failure raises InternalArithmeticError.  Write e- = (-1; 1, ..., 1),
    T = sum ci for the level-0 total, e0 = e- + T, and e+, c1+ for the top
    slice's Euler and anticanonical classes.

    - Betti: each part adds 1 to b2 and to b4, so b2 - b4 is k - m at a
      point maximum, k - m - 1 at a sphere and k + 1 - rank at a 4-manifold;
      `_counts_for` makes each zero.
    - Localization: a part has b+ = e0.ci and b- = -e-.ci, so
      sum(b- - b+) = -2 e-.T - T.T, and sum vol(ci) = c1.T by adjunction.
      With the point terms, ONE = 1 - k + m + 2 e-.T + T.T + t1 and
      C1 = 3 - k - m - c1.T + t2, where (t1, t2) is (-1, 3), (b_max,
      2 - b_max) and (-e+.e+, c1+.e+) at a point, sphere and 4-manifold
      maximum.  As e-.e- = 1 - k and c1.e- = k - 3, ONE = e0.e0 + m + t1 and
      C1 = t2 - m - c1.e0.  The m contracted classes E have c1.E = e0.E = 1,
      so e+.e+ = e0.e0 + m and c1+.e+ = c1.e0 + m.  Every slice keeps
      omega(t) = c1 - t e, so DH closure makes both vanish: at a point,
      omega(3) = 0 on P2 gives e+ = u; at a sphere, b_max = -e+.e+ and
      omega(2) = (2 - e+.e+) f for the vanishing fiber f (c1.f = 2,
      c1.c1 = 8) gives c1+.e+ = 2 + e+.e+; at a 4-manifold, m = 0, e+ = e0.
    """
    if max_dim not in (0, 2, 4):
        raise ValueError(f"maximum dimension {max_dim} not in (0,2,4)")
    crit = frozenset(crit)
    if not crit <= {-1, 0, 1}:
        raise ValueError(f"interior critical levels {sorted(crit)} outside -1..1")
    if max_dim == 4 and 1 in crit:
        return []  # level one is occupied by the maximum itself
    found: dict[tuple, TFD] = {}
    for k, m in _counts_for(max_dim, crit):
        totals = _candidate_totals(k, m) if 0 in crit else [None]
        for total in totals:
            try:
                slices, blowdowns, exceptional = _sweep_path(max_dim, k, total, m)
                top_data = _check_top(max_dim, slices[-1], exceptional[-1])
                _check_slices(slices, max_dim, exceptional)
            except _Reject:
                continue
            splittings = [()] if total is None else component_splittings(total.lattice, total)
            for splitting in splittings:
                tfd = _assemble(max_dim, k, m, splitting, slices, blowdowns, top_data)
                if not (integrate(tfd, ONE).is_zero() and integrate(tfd, C1).is_zero()):
                    raise InternalArithmeticError(f"localization fails on {serialization(tfd)}")
                canon = _canonicalize(tfd, k)
                found.setdefault(serialization(canon), canon)
    return sorted(found.values(), key=sort_key)


def _canonicalize(tfd: TFD, k: int) -> TFD:
    """Minimize the serialization over permutations of the exceptional indices.

    A permutation of E1..Ek is an isometry of P2#k fixing c1 and e-, so its
    sweep rejects nothing.  It keeps the point descriptors and a sphere
    maximum's -e+.e+; a 4-manifold maximum's Euler class is e- + T.  Level 0
    is serialized before the top, so the sorted permuted splitting alone
    orders the permuted candidates, and only a winner other than `tfd` is
    swept.
    """
    parts = [(fc.spec.surface_class.coeffs, fc.spec.genus) for fc in tfd.interior_surfaces]

    def permuted(perm):
        return tuple(sorted(((c[0],) + tuple(c[1 + p] for p in perm), g) for c, g in parts))

    best = min(map(permuted, itertools.permutations(range(k))))
    if best == permuted(range(k)):
        return tfd
    lat = make_blowup_lattice(k)
    split = tuple((CohClass(lat, c), g) for c, g in best)
    m = sum(1 for fc in tfd.components if fc.level == 1 and fc.dim == 0)
    total = sum((c for c, _ in split), lat.zero())
    try:
        slices, blowdowns, exceptional = _sweep_path(tfd.max_dim, k, total, m)
        top_data = _check_top(tfd.max_dim, slices[-1], exceptional[-1])
    except _Reject as err:
        raise InternalArithmeticError(f"an index permutation was rejected: {err}") from err
    return _assemble(tfd.max_dim, k, m, split, slices, blowdowns, top_data)


def serialization(tfd: TFD):
    """Canonical nested-tuple form of a TFD, used for ordering and matching."""
    per_level = []
    for level in tfd.crit_levels:
        descs = sorted(fc.spec.descriptor() for fc in tfd.at_level(level))
        per_level.append((level, tuple(descs)))
    lat = tfd.reduced_lattice
    return (tfd.max_dim, (lat.kind, lat.blowups), tuple(per_level))


def sort_key(tfd: TFD):
    crit = tfd.interior_crit
    k = len([fc for fc in tfd.components if fc.level == -1 and fc.dim == 0])
    interior = tuple(sorted(fc.spec.surface_class.coeffs for fc in tfd.interior_surfaces))
    return (tfd.max_dim, len(crit), crit, k, interior, serialization(tfd))


def classify_all(strict: bool = True) -> list[TFD]:
    """Classify over every profile and interior critical set, labeled and sorted.

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
    rows: dict[tuple, TFD] = {}
    for max_dim in (0, 2, 4):
        levels = (-1, 0, 1) if max_dim != 4 else (-1, 0)
        for r in range(len(levels) + 1):
            for crit in itertools.combinations(levels, r):
                for tfd in enumerate_tfd(max_dim, crit):
                    rows.setdefault(serialization(tfd), tfd)
    ordered = sorted(rows.values(), key=sort_key)
    return tuple(_attach_labels(ordered))


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
            label = f"{base}{'b' if extra_idx == 1 else chr(ord('b') + extra_idx - 1)}"
        else:
            prev_label = label
            extra_idx = 0
        out.append(TFD(label, tfd.max_dim, tfd.components, tfd.slices, tfd.blowdowns))
    return out
