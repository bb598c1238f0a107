"""Reduced-space bookkeeping along the moment interval.

A slice is the Euler class of the circle bundle over the reduced space on
an interval [lo, hi] of regular values; the Euler class carries the
intersection lattice of the reduced space.  The action is monotone with a
balanced moment map, so [omega] = c1(M) and the reduced class is
omega(t) = c1 - t * euler on every slice, c1 the lattice's anticanonical
class (Duistermaat and Heckman 1982; Guillemin and Sternberg 1989).
Crossing a critical level transforms the slice: index-two points blow up,
interior surfaces shift the Euler class, index-four points blow down the
exceptional classes whose area vanishes at the level.
"""

from __future__ import annotations

import itertools

from .errors import (
    InternalArithmeticError,
    NonDisjointBlowdown,
    NotASphereMaximum,
    OutOfInterval,
    VanishingCycleMismatch,
)
from .lattice import (
    CohClass,
    SurfaceLattice,
    make_blowup_lattice,
    pair,
    product_lattice,
)
from .record import record


@record
class SliceState:
    """The Euler class of the circle bundle on an interval of regular values;
    its ends are critical levels, so ints, and omega is integral at every
    integer level."""

    euler: CohClass
    interval: tuple[int, int]

    def __post_init__(self):
        lo, hi = self.interval
        if type(lo) is not int or type(hi) is not int:
            raise InternalArithmeticError(f"slice {self.interval} has non-integral ends")

    @property
    def lattice(self) -> SurfaceLattice:
        return self.euler.lattice

    def omega(self, t: int) -> CohClass:
        """The reduced class c1 - t * euler at an integer level."""
        if type(t) is not int:
            raise InternalArithmeticError(f"reduced class at non-integral level {t!r}")
        return self.lattice.anticanonical - t * self.euler

    def with_interval(self, lo: int, hi: int) -> SliceState:
        """The same slice on [lo, hi]."""
        return SliceState(self.euler, (lo, hi))


def initial_slice() -> SliceState:
    """Slice just above the isolated minimum at level -3: the plane, Euler class -u.

    Its reduced class c1 - t * euler = (t + 3)u vanishes at the minimum.
    """
    return SliceState(-1 * make_blowup_lattice(0).basis_class(0), (-3, 3))


def dh(state: SliceState, t):
    """Duistermaat-Heckman value, a `Fraction`: the square of the reduced class at a
    rational level t."""
    from fractions import Fraction  # only --emit-dh samples rational levels
    t = Fraction(t)
    lo, hi = state.interval
    if not lo <= t <= hi:
        raise OutOfInterval(f"{t} outside [{lo}, {hi}]")
    c0, c1, c2 = dh_quadratic(state)
    return c0 + c1 * t + c2 * t * t


def dh_quadratic(state: SliceState):
    """Coefficients (q0, q1, q2) of dh(t) = (c1 - t e)^2 as an exact quadratic in t."""
    c, e = state.lattice.anticanonical, state.euler
    return (pair(c, c), -2 * pair(c, e), pair(e, e))


def vanishing_classes(state: SliceState, level, exceptional) -> tuple[CohClass, ...]:
    """The classes in `exceptional` whose area vanishes at the given level."""
    w = state.omega(level)
    return tuple(c for c in exceptional if pair(w, c) == 0)


def blow_up(state: SliceState, level, k: int) -> SliceState:
    """Cross k index-two points: each adds an exceptional class of zero area.

    The slice is a blow-up of the plane: the sweep blows up only at level -1,
    below every blow-down that could reach the product of spheres.
    """
    old = state.lattice.blowups
    new_lat = make_blowup_lattice(old + k)
    euler = sum(
        (new_lat.basis_class(old + 1 + i) for i in range(k)),
        CohClass(new_lat, state.euler.coeffs + (0,) * k),
    )
    return SliceState(euler, (level, state.interval[1]))


def shift(state: SliceState, level, total: CohClass) -> SliceState:
    """Cross fixed surfaces of total class `total`: the Euler class shifts by it."""
    return SliceState(state.euler + total, (level, state.interval[1]))


def blow_down(state: SliceState, level, m: int, exceptional):
    """Cross m index-four points: contract the zero-area exceptional classes.

    `exceptional` holds the (-1)-classes of the slice lattice.  The
    contracted classes must be exactly m pairwise disjoint ones.
    """
    vanishing = vanishing_classes(state, level, exceptional)
    if len(vanishing) != m:
        raise VanishingCycleMismatch(
            f"{len(vanishing)} zero-area exceptional classes for {m} blow-downs: "
            f"{[repr(v) for v in vanishing]}"
        )
    for a, b in itertools.combinations(vanishing, 2):
        if pair(a, b) != 0:
            raise NonDisjointBlowdown(f"{a!r}.{b!r} = {pair(a, b)}")
    _, push = blowdown_lattice(state.lattice, vanishing, exceptional)
    return SliceState(push(sum(vanishing, state.euler)), (level, state.interval[1]))


def blowdown_lattice(lattice: SurfaceLattice, vanishing, exceptional):
    """Contract pairwise-orthogonal exceptional classes to a lattice of rank 1 or 2.

    `exceptional` holds the (-1)-classes of the lattice.

    Returns the standard lattice of the blown-down space together with the
    pushforward map on classes orthogonal to every contracted class (the
    Euler class plus the contracted classes is one, and so is c1 + sum V).

    The sweep blows down only at level one, on P2#k, below a point maximum
    (m = k) or a sphere maximum (m = k - 1), so the contracted classes V leave
    rank r = k + 1 - m = 1 or 2; another r raises InternalArithmeticError.
    V spans a diagonal unimodular sublattice, so its orthogonal complement L'
    is unimodular of rank r, with anticanonical class c1' = c1 + sum V.  By
    the reduced-form argument of B.-H. Li and T.-J. Li ("Symplectic genus,
    minimal genus and diffeomorphisms", 2002) for the blow-down of Guillemin
    and Sternberg (1989), (L', c1') is the plane, the plane blown up once, or,
    when L' is even, the product of spheres.  The (-1)-classes of L' are those
    of the lattice orthogonal to V; r - 1 of them (none, or the first)
    complete to the basis u = (c1' + sum E')/3.  With none at r = 2, L' is the
    product, and its two square-zero degree-two classes are e + v for the two
    (-1)-classes e meeting the first contracted class v once and the others
    not at all.  Coordinates pair with the dual basis.  The slices above read
    their reduced class off the new lattice's anticanonical class, so c1' must
    push to it.
    """
    c1 = sum(vanishing, lattice.anticanonical)
    r = lattice.rank - len(vanishing)
    if not 1 <= r <= 2:
        raise InternalArithmeticError(f"blow-down to rank {r}: level one leaves rank 1 or 2")
    free = [e for e in exceptional if all(pair(e, v) == 0 for v in vanishing)]
    if r == 1 or free:
        chosen = tuple(free[: r - 1])
        new_lat = make_blowup_lattice(r - 1)
        triple_u = sum(chosen, c1)
        if any(c % 3 for c in triple_u.coeffs):
            raise InternalArithmeticError(f"c1' + sum E' = {triple_u!r} is not divisible by 3")
        u = CohClass(lattice, tuple(c // 3 for c in triple_u.coeffs))
        dual = [u] + [-1 * e for e in chosen]
    else:
        v, *rest = vanishing
        fibers = [
            e + v for e in exceptional
            if pair(e, v) == 1 and all(pair(e, w) == 0 for w in rest)
        ]
        if len(fibers) != 2:
            raise InternalArithmeticError("complement lattice not recognized")
        new_lat, dual = product_lattice(), fibers[::-1]

    def push(cls: CohClass) -> CohClass:
        for v in vanishing:
            if pair(cls, v) != 0:
                raise InternalArithmeticError(f"{cls!r} does not descend")
        return CohClass(new_lat, tuple(pair(cls, d) for d in dual))

    if push(c1) != new_lat.anticanonical:
        raise InternalArithmeticError(f"c1' = {c1!r} does not push to the anticanonical class")
    return new_lat, push


def bmax_from_euler(state: SliceState) -> int:
    """Normal-bundle degree of a sphere maximum just above this slice."""
    if state.lattice.rank != 2:
        raise NotASphereMaximum("top slice below a sphere maximum has rank 2")
    return -pair(state.euler, state.euler)
