"""The unpruned six-dimensional search, kept as a reference for the pruned one.

This is the search before the level-one blow-down count and closure at the
maximum moved into generation: k runs over 1..8 at level -1, level-0 totals
are filtered by area and volume only, a blow-down whose zero-area classes do
not match is a rejection, the predicates below reject a candidate whose path
does not close at the maximum or loses positivity, and canonicalization
sweeps all k! index permutations.  The reference keeps its own (-1)-classes,
the seven shapes of P2#k for k <= 8 (`exceptional_classes`), where the
package has the closed form for the k <= 4 it builds, and its own slice path
(`sweep_path`) from the package's crossing rules.  The predicates are the
package's former ones, which the pruned search derives instead.  The level-0
class is split by the former backtracking search over every admissible part
(`search_splittings`), which `component_splittings` replaces with a closed
form.
"""

import itertools
import math
from fractions import Fraction

from hamfix.classify6 import (
    MAX_WEIGHTS,
    TOP_LEVEL,
    _assemble,
    _attach_labels,
    _sorted_tails,
    sort_key,
)
from hamfix.errors import (
    NoExceptionalBasis,
    NonDisjointBlowdown,
    NotASphereMaximum,
    VanishingCycleMismatch,
)
from hamfix.lattice import (
    BLOWUP,
    PRODUCT,
    CohClass,
    adjunction_genus,
    li_positive,
    make_blowup_lattice,
    pair,
)
from hamfix.localization import (
    C1,
    ONE,
    ExtremalFourManifold,
    ExtremalSurface,
    IsolatedPoint,
    betti,
    integrate,
)
from hamfix.reduction import (
    blow_down,
    blow_up,
    bmax_from_euler,
    dh,
    dh_quadratic,
    initial_slice,
    shift,
    vanishing_classes,
)


# (-1)-classes of the k-fold blow-up of the plane, k <= 8, as the leading
# coefficient u and up to two (value, multiplicity) groups of E-coefficients.
_EXCEPTIONAL_SHAPES = (
    (0, (1, 1), (0, 0)),
    (1, (-1, 2), (0, 0)),
    (2, (-1, 5), (0, 0)),
    (3, (-2, 1), (-1, 6)),
    (4, (-2, 3), (-1, 5)),
    (5, (-2, 6), (-1, 2)),
    (6, (-3, 1), (-2, 7)),
)


def exceptional_classes(lattice):
    """All integral classes C with C.C = -1 and anticanonical pairing 1, sorted.

    On the k-fold blow-up of the plane, k <= 8, these are exactly the index
    permutations of seven shapes (u; E1, ..., Ek): (0; 1), (1; -1^2),
    (2; -1^5), (3; -2, -1^6), (4; -2^3, -1^5), (5; -2^6, -1^2) and
    (6; -3, -2^7), with zeros in the unused places (Manin, Cubic Forms,
    section 26).  Each shape is placed by choosing the positions of its two
    coefficient groups, so no permutation is built twice.
    """
    if lattice.kind == PRODUCT:
        raise NoExceptionalBasis("product lattice has no square -1 classes")
    k = lattice.blowups
    found = []
    for a, (v1, n1), (v2, n2) in _EXCEPTIONAL_SHAPES:
        for first in itertools.combinations(range(k), n1):
            rest = [i for i in range(k) if i not in first]
            for second in itertools.combinations(rest, n2):
                tail = [0] * k
                for i in first:
                    tail[i] = v1
                for i in second:
                    tail[i] = v2
                found.append((a, *tail))
    found.sort()
    return tuple(CohClass(lattice, coeffs) for coeffs in found)


class Reject(Exception):
    """A candidate fails a predicate."""


REJECTIONS = (Reject, VanishingCycleMismatch, NonDisjointBlowdown)


def fiber_classes_of(lat):
    """Square-zero degree-two classes of a rank-2 lattice (fiber candidates)."""
    if lat.rank != 2:
        raise NotASphereMaximum("fiber classes need a rank-2 lattice")
    if lat.kind == PRODUCT:
        candidates = [lat.basis_class(0), lat.basis_class(1)]
    else:
        candidates = [lat.basis_class(0) - lat.basis_class(1)]
    return tuple(
        c for c in candidates if pair(c, c) == 0 and pair(lat.anticanonical, c) == 2
    )


def check_top(max_dim, top_slice, exceptional):
    """Extremum-side predicates; returns the top component."""
    if max_dim == 0:
        if top_slice.lattice.rank != 1 or not top_slice.omega(3).is_zero():
            raise Reject("path does not close up at an isolated maximum")
        return IsolatedPoint(3, MAX_WEIGHTS)
    if max_dim == 2:
        if top_slice.lattice.rank != 2:
            raise Reject("sphere maximum needs a rank-2 slice")
        if vanishing_classes(top_slice, 2, exceptional):
            raise Reject("exceptional class collapses at the sphere maximum")
        w = top_slice.omega(2)
        fibers = [f for f in fiber_classes_of(top_slice.lattice) if pair(w, f) == 0]
        if len(fibers) != 1:
            raise Reject("no unique vanishing fiber class at the maximum")
        if w.is_zero():
            raise Reject("reduced class dies entirely at the sphere maximum")
        b_max = bmax_from_euler(top_slice)
        if 2 + b_max < 1:
            raise Reject("sphere maximum would have nonpositive area")
        return ExtremalSurface(2, b_max)
    if vanishing_classes(top_slice, 1, exceptional):
        raise Reject("exceptional class collapses at the 4-dimensional maximum")
    if dh(top_slice, 1) <= 0:
        raise Reject("reduced volume vanishes at the 4-dimensional maximum")
    return ExtremalFourManifold(1, top_slice.euler)


def positive_square_throughout(state, allow_zero_ends=()) -> bool:
    """Exact positivity of dh on the closed slice interval.

    dh is quadratic in t, so checking both endpoints plus the interior vertex
    decides the sign; endpoint zeros are tolerated only where listed.
    """
    lo, hi = state.interval
    c0, c1, c2 = dh_quadratic(state)

    def value(t):
        return c0 + c1 * t + c2 * t * t

    for t in (lo, hi):
        v = value(t)
        if v < 0:
            return False
        if v == 0 and t not in allow_zero_ends:
            return False
    if c2 > 0:
        vertex = Fraction(-c1, 2 * c2)
        if lo < vertex < hi and value(vertex) <= 0:
            return False
    return True


def slice_exceptional(slices):
    """The (-1)-classes of each slice's lattice."""
    return [exceptional_classes(s.lattice) if s.lattice.kind == BLOWUP else () for s in slices]


def check_slices(slices, max_dim, exceptional):
    """DH positivity and exceptional-area positivity along the whole path."""
    zero_ends = {Fraction(-3)}
    if max_dim < 4:
        zero_ends.add(Fraction(TOP_LEVEL[max_dim]))
    for s, exc in zip(slices, exceptional):
        if not positive_square_throughout(s, allow_zero_ends=zero_ends):
            raise Reject("reduced class loses positivity")
        w_lo, w_hi = s.omega(s.interval[0]), s.omega(s.interval[1])
        for c in exc:
            alo, ahi = pair(w_lo, c), pair(w_hi, c)
            if alo < 0 or ahi < 0 or (alo == 0 and ahi == 0):
                raise Reject(f"exceptional class {c!r} loses area")


def counts_for(max_dim, crit):
    """Possible (k, m) point counts at levels -1 and +1, k in 1..8."""
    want_minus = -1 in crit
    want_plus = 1 in crit
    ks = range(1, 9) if want_minus else (0,)
    out = []
    for k in ks:
        if max_dim == 0:
            m = k
        elif max_dim == 2:
            if k == 0:
                continue
            m = k - 1
        else:
            m = 0
        if (m >= 1) != want_plus:
            continue
        out.append((k, m))
    return out


def candidate_totals(k, has_blowdown):
    """Level-0 totals filtered by area and volume at level one only."""
    lat = make_blowup_lattice(k)
    b_floor = -2 if has_blowdown else -1

    def reachable(a):
        need = 2 * k + 1 - 3 * a
        return need <= 0 or need * need <= k * ((4 - a) ** 2 - 1)

    for a in reversed(list(itertools.takewhile(reachable, itertools.count(3, -1)))):
        for tail in _sorted_tails(k, b_floor, (4 - a) ** 2 - 1):
            if 3 * a + sum(tail) < 1:
                continue
            if k >= 2 and not has_blowdown and a + tail[-1] + tail[-2] > -1:
                continue
            yield CohClass(lat, (a,) + tail)


def sweep_path(max_dim, k, total, m):
    """The slice path for (k points, total surface class, m points), the
    blow-down contracting among this reference's (-1)-classes."""
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


def sweep(max_dim, k, total, m):
    """Slices and top component, or one of REJECTIONS."""
    slices = sweep_path(max_dim, k, total, m)
    exceptional = slice_exceptional(slices)
    top = check_top(max_dim, slices[-1], exceptional[-1])
    check_slices(slices, max_dim, exceptional)
    return slices, top


def enumerate_tfd(max_dim, crit):
    crit = frozenset(crit)
    if max_dim == 4 and 1 in crit:
        return []
    found = {}
    for k, m in counts_for(max_dim, crit):
        totals = list(candidate_totals(k, m > 0)) if 0 in crit else [None]
        for total in totals:
            try:
                slices, top = sweep(max_dim, k, total, m)
            except REJECTIONS:
                continue
            splittings = search_splittings(total.lattice, total) if total is not None else [()]
            for splitting in splittings:
                tfd = _assemble(k, m, splitting, slices, top)
                if not integrate(tfd, ONE).is_zero() or not integrate(tfd, C1).is_zero():
                    continue
                b = betti(tfd)
                if b != tuple(reversed(b)):
                    continue
                canon = canonicalize(tfd, k)
                found.setdefault(row_key(canon), canon)
    return sorted(found.values(), key=sort_key)


def row_key(tfd):
    """What this search minimizes over permutations and de-duplicates by.

    The profile, critical levels and k, then the sorted interior parts with
    their genera.  With k the interior parts fix the slice path, so the key
    fixes the whole row.
    """
    k = sum(1 for fc in tfd.components if fc.level == -1 and fc.dim == 0)
    parts = sorted((fc.surface_class.coeffs, fc.genus) for fc in tfd.interior_surfaces)
    return (tfd.max_dim, tfd.crit_levels, k, tuple(parts))


def canonicalize(tfd, k):
    """Minimize `row_key` over all k! permutations of the exceptional indices."""
    if k <= 1:
        return tfd
    best = None
    interior = tfd.interior_surfaces
    m = sum(1 for fc in tfd.components if fc.level == 1 and fc.dim == 0)
    lat = make_blowup_lattice(k)
    for perm in itertools.permutations(range(k)):
        total = lat.zero()
        split = []
        for fc in interior:
            tail = fc.surface_class.coeffs[1:]
            c = CohClass(lat, (fc.surface_class.coeffs[0],) + tuple(tail[p] for p in perm))
            split.append((c, fc.genus))
            total = total + c
        split.sort(key=lambda t: t[0].coeffs)
        try:
            slices, top = sweep(tfd.max_dim, k, total if interior else None, m)
        except REJECTIONS:
            continue
        cand = _assemble(k, m, tuple(split), slices, top)
        if best is None or row_key(cand) < row_key(best):
            best = cand
    return best


def classify_all():
    """Every profile and interior critical set, sorted and labeled."""
    rows = {}
    for max_dim in (0, 2, 4):
        levels = (-1, 0, 1) if max_dim != 4 else (-1, 0)
        for r in range(len(levels) + 1):
            for crit in itertools.combinations(levels, r):
                for tfd in enumerate_tfd(max_dim, crit):
                    rows.setdefault(row_key(tfd), tfd)
    return _attach_labels(sorted(rows.values(), key=sort_key))


def search_splittings(lattice, total):
    """All decompositions of `total` into disjoint embedded surface classes, by search.

    This is the search that `component_splittings` replaced with its closed
    form, kept as the reference it is compared against.

    Each splitting is a multiset of (class, genus) pairs: the classes are
    integral, sum to `total`, are pairwise orthogonal, have anticanonical
    degree >= 1 and a valid adjunction genus, and every class of nonnegative
    square meets each exceptional class nonnegatively.  The lattice is a
    blow-up of the plane (the level-0 reduced space of an isolated minimum);
    the product lattice raises NoExceptionalBasis.

    A part (a; b1, ..., bk) has degree d = 3a + sum b in [1, volume], since
    the degrees are >= 1 and sum to `volume`.  Twice its genus is
    (a-1)(a-2) - sum b(b+1), so (a-1)(a-2) is a budget that the entries
    draw from one by one, as b(b+1) >= 0 (`_adjunction_tails`).  With
    k sum b^2 >= (sum b)^2 the budget gives (9-k)a^2 - 6da + d^2 + kd - 2k <= 0,
    whose quarter discriminant k(d^2 - (9-k)d + 18 - 2k) is >= 0 for k <= 8
    (`_part_leading`).
    """
    exc = exceptional_classes(lattice)
    volume = pair(lattice.anticanonical, total)
    if volume <= 0:
        return []
    candidates = []
    for a in _part_leading(lattice.blowups, volume):
        for tail in _adjunction_tails(lattice.blowups, (a - 1) * (a - 2)):
            vol = 3 * a + sum(tail)  # anticanonical degree
            if not 1 <= vol <= volume:
                continue
            c = CohClass(lattice, (a,) + tail)
            g = adjunction_genus(lattice, c)
            if g is None or not li_positive(c, exc):
                continue
            candidates.append((c, g, vol))
    candidates.sort(key=lambda t: t[0].coeffs)
    out: list[tuple[tuple[CohClass, int], ...]] = []
    _split_search(lattice, total, volume, candidates, 0, [], out)
    return out


def _part_leading(k: int, volume: int) -> list[int]:
    """The integers a between the roots (3d -+ sqrt(D))/(9-k) for some d in 1..volume.

    D is the quarter discriminant of `search_splittings`; flooring its
    square root keeps both integer ends exact.
    """
    q = 9 - k
    found = set()
    for d in range(1, volume + 1):
        root = math.isqrt(k * (d * d - q * d + 18 - 2 * k))
        found.update(range(-((root - 3 * d) // q), (3 * d + root) // q + 1))
    return sorted(found)


def _adjunction_tails(n, budget):
    """Tuples of length n with sum b(b+1) <= budget, lexicographic.

    b(b+1) <= budget exactly for -r-1 <= b <= r, r = (isqrt(4 budget + 1) - 1) // 2.
    """
    if n == 0:
        yield ()
        return
    r = (math.isqrt(4 * budget + 1) - 1) // 2
    for b in range(-r - 1, r + 1):
        for rest in _adjunction_tails(n - 1, budget - b * (b + 1)):
            yield (b,) + rest


def _split_search(lattice, remaining, vol_left, candidates, start, chosen, out):
    if remaining.is_zero():
        if chosen:
            out.append(tuple(chosen))
        return
    if vol_left <= 0:
        return
    for i in range(start, len(candidates)):
        c, g, vol = candidates[i]
        if vol > vol_left:
            continue
        if any(pair(c, prev) != 0 for prev, _ in chosen):
            continue
        chosen.append((c, g))
        _split_search(lattice, remaining - c, vol_left - vol, candidates, i, chosen, out)
        chosen.pop()
