"""The unpruned six-dimensional search, kept as a reference for the pruned one.

This is the search before the level-one blow-down count moved into
generation: k runs over 1..8 at level -1, level-0 totals are filtered by
area and volume only, a blow-down whose zero-area classes do not match is a
rejection, and canonicalization sweeps all k! index permutations.  The
slice path and its predicates (`_sweep_path`, `_check_top`,
`_check_slices`) are shared with the package, plus the one predicate the
count replaced: no (-1)-class collapses at a 4-dimensional maximum.
"""

import itertools

from hamfix.classify6 import (
    _Reject,
    _assemble,
    _attach_labels,
    _check_slices,
    _check_top,
    _sorted_tails,
    _sweep_path,
    serialization,
    sort_key,
)
from hamfix.errors import NonDisjointBlowdown, VanishingCycleMismatch
from hamfix.lattice import CohClass, component_splittings, make_blowup_lattice
from hamfix.localization import C1, ONE, betti, integrate
from hamfix.reduction import vanishing_classes

REJECTIONS = (_Reject, VanishingCycleMismatch, NonDisjointBlowdown)


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
    """Slices, blow-downs and top data, or one of REJECTIONS."""
    slices, blowdowns, exceptional = _sweep_path(max_dim, k, total, m)
    if max_dim == 4 and vanishing_classes(slices[-1], 1, exceptional[-1]):
        raise _Reject("exceptional class collapses at the 4-dimensional maximum")
    top_data = _check_top(max_dim, slices[-1], exceptional[-1])
    _check_slices(slices, max_dim, exceptional)
    return slices, blowdowns, top_data


def enumerate_tfd(max_dim, crit):
    crit = frozenset(crit)
    if max_dim == 4 and 1 in crit:
        return []
    found = {}
    for k, m in counts_for(max_dim, crit):
        totals = list(candidate_totals(k, m > 0)) if 0 in crit else [None]
        for total in totals:
            try:
                slices, blowdowns, top_data = sweep(max_dim, k, total, m)
            except REJECTIONS:
                continue
            splittings = component_splittings(total.lattice, total) if total is not None else [()]
            for splitting in splittings:
                tfd = _assemble(max_dim, k, m, splitting, slices, blowdowns, top_data)
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
            slices, blowdowns, top_data = sweep(tfd.max_dim, k, total if interior else None, m)
        except REJECTIONS:
            continue
        cand = _assemble(tfd.max_dim, k, m, tuple(split), slices, blowdowns, top_data)
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
