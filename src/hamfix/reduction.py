"""Reduced-space bookkeeping along the moment interval.

A slice records the intersection lattice of the reduced space, the Euler
class of the circle bundle, and an affine path of reduced symplectic classes
omega(t) = anchor - (t - t0) * euler.  Crossing a critical level transforms
the slice: index-two points blow up, interior surfaces shift the Euler class,
index-four points blow down the exceptional classes whose area vanishes at
the level.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InternalArithmeticError,
    NonDisjointBlowdown,
    NotAdjacentSlices,
    NotAMinimum,
    NotASphereMaximum,
    OutOfInterval,
    VanishingCycleMismatch,
)
from .lattice import (
    BLOWUP,
    PRODUCT,
    CohClass,
    SurfaceLattice,
    exceptional_classes,
    make_blowup_lattice,
    pair,
    product_lattice,
)
from .localization import (
    ExtremalFourManifold,
    ExtremalSurface,
    FixedComponent,
    InteriorSurface,
    IsolatedPoint,
)


@dataclass(frozen=True)
class SliceState:
    """Reduced space data on an interval of regular values."""

    lattice: SurfaceLattice
    euler: CohClass
    anchor_level: Fraction
    anchor_class: CohClass
    interval: tuple[Fraction, Fraction]

    def omega(self, t) -> CohClass:
        return self.anchor_class - (Fraction(t) - self.anchor_level) * self.euler

    def with_interval(self, lo, hi) -> SliceState:
        return SliceState(
            self.lattice, self.euler, self.anchor_level, self.anchor_class,
            (Fraction(lo), Fraction(hi)),
        )


@dataclass(frozen=True)
class CrossingEvent:
    """All fixed components sitting on one critical level."""

    level: int
    components: tuple[FixedComponent, ...]

    def __post_init__(self):
        for fc in self.components:
            if fc.level != self.level:
                raise ValueError(f"component at level {fc.level} in event at {self.level}")


def _state(lattice, euler, anchor_level, anchor_class, lo, hi) -> SliceState:
    return SliceState(
        lattice, euler, Fraction(anchor_level), anchor_class,
        (Fraction(lo), Fraction(hi)),
    )


def initial_slice(min_component: FixedComponent) -> SliceState:
    """Slice just above the minimal fixed component.

    The reduced class path is pinned by monotonicity: omega(t) equals the
    anticanonical class minus t times the Euler class on every slice.
    """
    s = min_component.spec
    if isinstance(s, IsolatedPoint):
        if min_component.level != -3 or min_component.index != 0:
            raise NotAMinimum("isolated minimum must sit at level -3 with index 0")
        lat = make_blowup_lattice(0)
        euler = -1 * lat.basis_class(0)
        return _state(lat, euler, -3, lat.zero(), -3, 3)
    if isinstance(s, ExtremalSurface):
        if min_component.level != -2:
            raise NotAMinimum("sphere minimum must sit at level -2")
        b = s.normal_degrees[0] + s.normal_degrees[1]
        if b % 2 == 0:
            lat = product_lattice()
            fiber = lat.basis_class(0)
            section = lat.basis_class(1)
            alpha = b // 2
        else:
            lat = make_blowup_lattice(1)
            u, e1 = lat.basis_class(0), lat.basis_class(1)
            fiber, section = u - e1, e1
            alpha = (b - 1) // 2
        # fiber area vanishes at the minimum level: euler.fiber = -1
        euler = alpha * fiber - section
        return _state(lat, euler, 0, lat.anticanonical, -2, 2)
    if isinstance(s, ExtremalFourManifold):
        if min_component.level != -1:
            raise NotAMinimum("4-dimensional minimum must sit at level -1")
        lat = s.lattice
        euler = s.euler_at_boundary
        return _state(lat, euler, 0, lat.anticanonical, -1, 3)
    raise NotAMinimum(f"not an extremal minimum: {s!r}")


def dh(state: SliceState, t):
    """Duistermaat-Heckman value: the square of the reduced class at level t."""
    t = Fraction(t)
    lo, hi = state.interval
    if not lo <= t <= hi:
        raise OutOfInterval(f"{t} outside [{lo}, {hi}]")
    w = state.omega(t)
    return pair(w, w)


def dh_quadratic(state: SliceState):
    """Coefficients (c0, c1, c2) of dh(t) as an exact quadratic in t."""
    w0 = state.omega(0)
    e = state.euler
    return (pair(w0, w0), -2 * pair(w0, e), pair(e, e))


def area(state: SliceState, c: CohClass, t):
    """Symplectic area of the class c at level t (affine in t)."""
    return pair(state.omega(t), c)


def vanishing_classes(state: SliceState, level, bound: int = 6) -> tuple[CohClass, ...]:
    """Exceptional classes whose area vanishes at the given level."""
    if state.lattice.kind != BLOWUP or state.lattice.blowups == 0:
        return ()
    exc = exceptional_classes(state.lattice, bound)
    w = state.omega(level)
    return tuple(c for c in exc if pair(w, c) == 0)


def cross(state: SliceState, event: CrossingEvent, bound: int = 6) -> SliceState:
    """Push the slice through a critical level."""
    c = Fraction(event.level)
    lo, hi = state.interval
    if not lo < c <= hi:
        raise OutOfInterval(f"crossing level {c} outside ({lo}, {hi}]")
    kinds = {type(fc.spec) for fc in event.components}
    if len(kinds) > 1:
        raise ValueError("mixed component types on one level")
    n = len(event.components)
    if kinds == {IsolatedPoint}:
        indices = {fc.index for fc in event.components}
        if indices == {2}:
            return blow_up(state, event.level, n)
        if indices == {4}:
            return blow_down(state, event.level, n, bound)[0]
        raise ValueError(f"unsupported isolated-point indices {indices}")
    if kinds == {InteriorSurface}:
        total = sum((fc.spec.surface_class for fc in event.components), state.lattice.zero())
        return shift(state, event.level, total)
    raise ValueError("crossing events carry isolated points or interior surfaces")


def blow_up(state: SliceState, level, k: int) -> SliceState:
    """Cross k index-two points: each adds an exceptional class of zero area."""
    omega_c = state.omega(level)
    lat = state.lattice
    if lat.kind == PRODUCT:
        # one blow-up turns the product into a two-fold blow-up of the plane
        new_lat = make_blowup_lattice(2)
        u, e1, e2 = (new_lat.basis_class(i) for i in range(3))

        def lift(cls: CohClass) -> CohClass:
            return cls.coeffs[0] * (u - e1) + cls.coeffs[1] * (u - e2)

        euler = lift(state.euler) + (u - e1 - e2)
        state = _state(new_lat, euler, level, lift(omega_c), level, state.interval[1])
        return state if k == 1 else blow_up(state, level, k - 1)
    old = lat.blowups
    new_lat = make_blowup_lattice(old + k)

    def extend(cls: CohClass) -> CohClass:
        return CohClass(new_lat, cls.coeffs + (0,) * k)

    euler = sum((new_lat.basis_class(old + 1 + i) for i in range(k)), extend(state.euler))
    omega = extend(omega_c)  # new exceptional classes have zero area at the crossing
    return _state(new_lat, euler, level, omega, level, state.interval[1])


def shift(state: SliceState, level, total: CohClass) -> SliceState:
    """Cross fixed surfaces of total class `total`: the Euler class shifts by it."""
    return _state(
        state.lattice, state.euler + total, level, state.omega(level), level, state.interval[1]
    )


def blow_down(state: SliceState, level, m: int, bound: int = 6):
    """Cross m index-four points: contract the zero-area exceptional classes.

    Returns the new slice and the contracted classes, which must be exactly m
    pairwise disjoint ones.
    """
    vanishing = vanishing_classes(state, level, bound)
    if len(vanishing) != m:
        raise VanishingCycleMismatch(
            f"{len(vanishing)} zero-area exceptional classes for {m} blow-downs: "
            f"{[repr(v) for v in vanishing]}"
        )
    for a, b in itertools.combinations(vanishing, 2):
        if pair(a, b) != 0:
            raise NonDisjointBlowdown(f"{a!r}.{b!r} = {pair(a, b)}")
    new_lat, push = blowdown_lattice(state.lattice, vanishing)
    euler = push(sum(vanishing, state.euler))
    omega = push(state.omega(level))
    return _state(new_lat, euler, level, omega, level, state.interval[1]), vanishing


def blowdown_lattice(lattice: SurfaceLattice, vanishing):
    """Contract pairwise-orthogonal exceptional classes.

    Returns the canonical lattice of the blown-down space together with the
    pushforward map on classes orthogonal to every contracted class (the
    Euler and reduced classes at the crossing level are).
    """
    n = lattice.rank
    gram = lattice.gram
    rows = []
    for v in vanishing:
        rows.append(tuple(sum(gram[i][j] * v.coeffs[j] for j in range(n)) for i in range(n)))
    kernel = _integer_kernel(rows, n)
    if len(kernel) != n - len(vanishing):
        raise InternalArithmeticError("complement rank mismatch")
    sub_gram = [
        [sum(kernel[a][i] * gram[i][j] * kernel[b][j] for i in range(n) for j in range(n))
         for b in range(len(kernel))]
        for a in range(len(kernel))
    ]
    inv = _integer_inverse(sub_gram)
    c1_plus = lattice.anticanonical
    for v in vanishing:
        c1_plus = c1_plus + v

    def complement_coords(cls: CohClass):
        # coords = (cls . kernel_b) * inv, exact since sub_gram is unimodular
        dots = [pair(cls, CohClass(lattice, tuple(kb))) for kb in kernel]
        return tuple(
            sum(dots[a] * inv[a][b] for a in range(len(kernel)))
            for b in range(len(kernel))
        )

    new_lat, transform = _canonical_form(
        tuple(tuple(r) for r in sub_gram), complement_coords(c1_plus)
    )

    def push(cls: CohClass) -> CohClass:
        for v in vanishing:
            if pair(cls, v) != 0:
                raise InternalArithmeticError(f"{cls!r} does not descend")
        raw = complement_coords(cls)
        return CohClass(new_lat, transform(raw))

    return new_lat, push


def _integer_kernel(rows, n):
    """Basis of the integer kernel of the linear forms given by `rows`."""
    basis = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    values = [list(r) for r in zip(*rows)] if rows else [[] for _ in range(n)]
    # values[i] = image of basis vector i under the forms
    active = list(range(n))
    for form in range(len(rows)):
        live = [i for i in active if values[i][form] != 0]
        while len(live) > 1:
            live.sort(key=lambda i: abs(values[i][form]))
            i0 = live[0]
            for i in live[1:]:
                q = values[i][form] // values[i0][form]
                if q:
                    values[i] = [a - q * b for a, b in zip(values[i], values[i0])]
                    basis[i] = [a - q * b for a, b in zip(basis[i], basis[i0])]
            live = [i for i in live if values[i][form] != 0]
        if live:
            active.remove(live[0])
    return [tuple(basis[i]) for i in sorted(active)]


def _integer_inverse(m):
    """Inverse of a small integer matrix with determinant +-1."""
    n = len(m)
    det, adj = _det_adjugate(m)
    if det not in (1, -1):
        raise InternalArithmeticError(f"non-unimodular complement (det {det})")
    return [[adj[i][j] * det for j in range(n)] for i in range(n)]


def _det_adjugate(m):
    n = len(m)
    if n == 1:
        return m[0][0], [[1]]
    det = 0
    cof = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [m[a][b] for b in range(n) if b != j] for a in range(n) if a != i
            ]
            sign = -1 if (i + j) % 2 else 1
            cof[i][j] = sign * _det(minor)
    for j in range(n):
        det += m[0][j] * cof[0][j]
    adj = [[cof[j][i] for j in range(n)] for i in range(n)]
    return det, adj


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


def _canonical_form(gram, c1_coords, search_bound: int = 6):
    """Identify an abstract unimodular pair (gram, c1) with a standard lattice.

    Returns the standard SurfaceLattice plus a coordinate transform taking
    abstract coordinates to canonical ones.
    """
    n = len(gram)

    def dot(a, b):
        return sum(a[i] * gram[i][j] * b[j] for i in range(n) for j in range(n))

    vectors = list(itertools.product(range(-search_bound, search_bound + 1), repeat=n))

    def find(square, degree, orth=()):
        for v in vectors:
            if all(c == 0 for c in v):
                continue
            if dot(v, v) == square and dot(c1_coords, v) == degree and all(
                dot(v, o) == 0 for o in orth
            ):
                yield v

    if n == 1:
        for target in (make_blowup_lattice(0),):
            for g in find(1, 3):
                return target, _transform_from_basis(gram, [g])
        raise InternalArithmeticError("rank-1 complement is not the plane")
    # product of spheres: two square-zero degree-2 classes meeting once
    for v in find(0, 2):
        for w in find(0, 2):
            if dot(v, w) == 1:
                return product_lattice(), _transform_from_basis(gram, [v, w])
        break
    # blow-up basis: degree-3 square-1 class plus orthogonal exceptional classes
    for u in find(1, 3):
        exc = []
        for e in find(-1, 1, orth=[u] + exc):
            exc.append(e)
            if len(exc) == n - 1:
                break
        if len(exc) == n - 1:
            return make_blowup_lattice(n - 1), _transform_from_basis(gram, [u] + exc)
        break
    raise InternalArithmeticError("complement lattice not recognized")


def _transform_from_basis(gram, basis):
    """Coordinate change onto the span of `basis` (assumed unimodular)."""
    n = len(gram)
    r = len(basis)
    bg = [
        [sum(basis[a][i] * gram[i][j] * basis[b][j] for i in range(n) for j in range(n))
         for b in range(r)]
        for a in range(r)
    ]
    inv = _integer_inverse(bg)

    def transform(coords):
        dots = [
            sum(coords[i] * gram[i][j] * basis[b][j] for i in range(n) for j in range(n))
            for b in range(r)
        ]
        return tuple(sum(dots[a] * inv[a][b] for a in range(r)) for b in range(r))

    return transform


def check_dh_decrease(before: SliceState, after: SliceState, k: int) -> bool:
    """Whether crossing k index-two points drops DH by exactly k t^2."""
    c = before.interval[1]
    if after.interval[0] != c:
        raise NotAdjacentSlices(f"{before.interval} then {after.interval}")
    # expand both quadratics around the crossing level c
    def around_c(state):
        c0, c1, c2 = dh_quadratic(state)
        return (c0 + c1 * c + c2 * c * c, c1 + 2 * c2 * c, c2)

    b0, b1, b2 = around_c(before)
    a0, a1, a2 = around_c(after)
    return (b0 - a0, b1 - a1, b2 - a2) == (0, 0, k)


def bmax_from_euler(state: SliceState) -> int:
    """Normal-bundle degree of a sphere maximum just above this slice."""
    if state.lattice.rank != 2:
        raise NotASphereMaximum("top slice below a sphere maximum has rank 2")
    return -pair(state.euler, state.euler)


def fiber_classes_of(lat: SurfaceLattice) -> tuple[CohClass, ...]:
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


def positive_square_throughout(state: SliceState, allow_zero_ends=()) -> bool:
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
