"""Intersection lattices of monotone symplectic 4-manifolds and exact cohomology classes.

Two lattice presentations cover every reduced space that can occur: the
blow-up basis (u, E1, ..., Ek) of a k-fold blow-up of the plane with
intersection form diag(1, -1, ..., -1), and the product basis (x, y) of a
product of spheres with form [[0,1],[1,0]].  All arithmetic is exact.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import InvalidBlowupCount, LatticeMismatch, NoExceptionalBasis
from .record import record

BLOWUP = "blowup"
PRODUCT = "product"


@record
class SurfaceLattice:
    """Second cohomology of a reduced space with its intersection pairing."""

    kind: str
    blowups: int = 0

    @property
    def rank(self) -> int:
        return 2 if self.kind == PRODUCT else self.blowups + 1

    @property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        if self.kind == PRODUCT:
            return ((0, 1), (1, 0))
        n = self.rank
        return tuple(
            tuple((1 if i == 0 else -1) if i == j else 0 for j in range(n))
            for i in range(n)
        )

    @property
    def anticanonical(self) -> CohClass:
        if self.kind == PRODUCT:
            return CohClass(self, (2, 2))
        return CohClass(self, (3,) + (-1,) * self.blowups)

    def basis_names(self) -> tuple[str, ...]:
        if self.kind == PRODUCT:
            return ("x", "y")
        return ("u",) + tuple(f"E{i}" for i in range(1, self.blowups + 1))

    def zero(self) -> CohClass:
        return CohClass(self, (0,) * self.rank)

    def basis_class(self, i: int) -> CohClass:
        return CohClass(self, tuple(1 if j == i else 0 for j in range(self.rank)))

    def __repr__(self) -> str:
        if self.kind == PRODUCT:
            return "SurfaceLattice(S2xS2)"
        return f"SurfaceLattice(P2#{self.blowups})"


def make_blowup_lattice(k: int) -> SurfaceLattice:
    """Lattice of the k-fold blow-up of the plane, 0 <= k <= 8."""
    if not 0 <= k <= 8:
        raise InvalidBlowupCount(f"blow-up count {k} outside 0..8")
    return SurfaceLattice(BLOWUP, k)


def product_lattice() -> SurfaceLattice:
    """Lattice of a product of two spheres."""
    return SurfaceLattice(PRODUCT)


@record
class CohClass:
    """Exact coefficient vector over a SurfaceLattice."""

    lattice: SurfaceLattice
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.lattice.rank:
            raise LatticeMismatch(
                f"{len(self.coeffs)} coefficients for rank {self.lattice.rank}"
            )
        object.__setattr__(self, "coeffs", tuple(_normalize(c) for c in self.coeffs))

    @property
    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.coeffs)

    def __add__(self, other: CohClass) -> CohClass:
        _check_same(self, other)
        return CohClass(self.lattice, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: CohClass) -> CohClass:
        _check_same(self, other)
        return CohClass(self.lattice, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> CohClass:
        return CohClass(self.lattice, tuple(-a for a in self.coeffs))

    def __rmul__(self, scalar) -> CohClass:
        return CohClass(self.lattice, tuple(scalar * a for a in self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __repr__(self) -> str:
        names = self.lattice.basis_names()
        terms = []
        for c, n in zip(self.coeffs, names):
            if c == 0:
                continue
            if c == 1:
                terms.append(f"+{n}")
            elif c == -1:
                terms.append(f"-{n}")
            else:
                terms.append(f"{c:+}{n}")
        if not terms:
            return "0"
        out = "".join(terms)
        return out[1:] if out.startswith("+") else out


def _normalize(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def _check_same(a: CohClass, b: CohClass) -> None:
    if a.lattice != b.lattice:
        raise LatticeMismatch(f"{a.lattice} vs {b.lattice}")


def pair(a: CohClass, b: CohClass):
    """Intersection pairing a.gram.b, exact, in the closed form of each gram."""
    _check_same(a, b)
    x, y = a.coeffs, b.coeffs
    if a.lattice.kind == PRODUCT:
        return _normalize(x[0] * y[1] + x[1] * y[0])
    return _normalize(x[0] * y[0] - sum(p * q for p, q in zip(x[1:], y[1:])))


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


def exceptional_classes(lattice: SurfaceLattice) -> tuple[CohClass, ...]:
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


def adjunction_genus(lattice: SurfaceLattice, c: CohClass):
    """Genus of a connected embedded surface in class c, or None if impossible.

    g = (c.c - K'.c + 2)/2 with K' the anticanonical class; classes whose
    genus is negative or fractional admit no connected embedded
    representative.
    """
    if not c.is_integral:
        return None
    self_int = pair(c, c)
    degree = pair(lattice.anticanonical, c)
    twice = self_int - degree + 2
    if twice % 2 != 0:
        return None
    g = twice // 2
    return g if g >= 0 else None


def li_positive(c: CohClass, exceptional) -> bool:
    """Positivity against every exceptional class, required when c.c >= 0."""
    return pair(c, c) < 0 or all(pair(c, e) >= 0 for e in exceptional)


def component_splittings(
    lattice: SurfaceLattice, total: CohClass
) -> list[tuple[tuple[CohClass, int], ...]]:
    """All decompositions of `total` into disjoint embedded surface classes.

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
    if not total.is_integral:
        raise ValueError("total class must be integral")
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

    D is the quarter discriminant of `component_splittings`; flooring its
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
