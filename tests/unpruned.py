"""The unpruned six-dimensional search, kept as a reference for the pruned one.

This is the search before the level-one blow-down count and closure at the
maximum moved into generation: k runs over 1..8 at level -1, level-0 totals
are filtered by area and volume only, a blow-down whose zero-area classes do
not match is a rejection, the predicates below reject a candidate whose path
does not close at the maximum or loses positivity, and canonicalization
sweeps all k! index permutations.  The slice path (`_sweep_path`) is shared
with the package; the predicates are the package's former ones, which the
pruned search derives instead.
"""

import itertools
from fractions import Fraction

from hamfix.classify6 import (
    TOP_LEVEL,
    _assemble,
    _attach_labels,
    _sorted_tails,
    _sweep_path,
    serialization,
    sort_key,
)
from hamfix.errors import NonDisjointBlowdown, NotASphereMaximum, VanishingCycleMismatch
from hamfix.lattice import (
    BLOWUP,
    PRODUCT,
    CohClass,
    component_splittings,
    exceptional_classes,
    make_blowup_lattice,
    pair,
)
from hamfix.localization import C1, ONE, betti, integrate
from hamfix.reduction import bmax_from_euler, dh, dh_quadratic, vanishing_classes


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
    """Extremum-side predicates; returns data needed to build the top component."""
    if max_dim == 0:
        if top_slice.lattice.rank != 1 or not top_slice.omega(3).is_zero():
            raise Reject("path does not close up at an isolated maximum")
        return None
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
        return b_max
    if vanishing_classes(top_slice, 1, exceptional):
        raise Reject("exceptional class collapses at the 4-dimensional maximum")
    if dh(top_slice, 1) <= 0:
        raise Reject("reduced volume vanishes at the 4-dimensional maximum")
    return top_slice.euler


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


def sweep(max_dim, k, total, m):
    """Slices and top data, or one of REJECTIONS."""
    slices = _sweep_path(max_dim, k, total, m)
    exceptional = slice_exceptional(slices)
    top_data = check_top(max_dim, slices[-1], exceptional[-1])
    check_slices(slices, max_dim, exceptional)
    return slices, top_data


def enumerate_tfd(max_dim, crit):
    crit = frozenset(crit)
    if max_dim == 4 and 1 in crit:
        return []
    found = {}
    for k, m in counts_for(max_dim, crit):
        totals = list(candidate_totals(k, m > 0)) if 0 in crit else [None]
        for total in totals:
            try:
                slices, top_data = sweep(max_dim, k, total, m)
            except REJECTIONS:
                continue
            splittings = component_splittings(total.lattice, total) if total is not None else [()]
            for splitting in splittings:
                tfd = _assemble(max_dim, k, m, splitting, slices, top_data)
                if not integrate(tfd, ONE).is_zero() or not integrate(tfd, C1).is_zero():
                    continue
                b = betti(tfd)
                if b != tuple(reversed(b)):
                    continue
                canon = canonicalize(tfd, k)
                found.setdefault(serialization(canon), canon)
    return sorted(found.values(), key=sort_key)


def canonicalize(tfd, k):
    """Minimize the serialization over all k! permutations of the exceptional indices."""
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
            tail = fc.spec.surface_class.coeffs[1:]
            c = CohClass(lat, (fc.spec.surface_class.coeffs[0],) + tuple(tail[p] for p in perm))
            split.append((c, fc.spec.genus))
            total = total + c
        split.sort(key=lambda t: t[0].coeffs)
        try:
            slices, top_data = sweep(tfd.max_dim, k, total if interior else None, m)
        except REJECTIONS:
            continue
        cand = _assemble(tfd.max_dim, k, m, tuple(split), slices, top_data)
        if best is None or serialization(cand) < serialization(best):
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
                    rows.setdefault(serialization(tfd), tfd)
    return _attach_labels(sorted(rows.values(), key=sort_key))
