"""Intersection lattices of monotone symplectic 4-manifolds and integral cohomology classes.

Two lattice presentations cover every reduced space that can occur: the
blow-up basis (u, E1, ..., Ek) of a k-fold blow-up of the plane with
intersection form diag(1, -1, ..., -1), and the product basis (x, y) of a
product of spheres with form [[0,1],[1,0]].  Class coefficients are ints,
so all arithmetic is exact.  The (-1)-classes, Ei and u - Ei - Ej, and the
splittings of a class into disjoint embedded surfaces are closed forms.
"""

from __future__ import annotations

import itertools
import operator

from .errors import InvalidBlowupCount, LatticeMismatch, NoExceptionalBasis
from .record import record

BLOWUP = "blowup"
PRODUCT = "product"


@record
class SurfaceLattice:
    """Second cohomology of a reduced space with its intersection pairing."""

    kind: str
    blowups: int = 0

    def __post_init__(self):
        top = {BLOWUP: 8, PRODUCT: 0}.get(self.kind)
        if top is None:
            raise ValueError(f"unknown lattice kind {self.kind!r}")
        if not 0 <= self.blowups <= top:  # P2#9 has infinitely many (-1)-classes
            raise InvalidBlowupCount(f"blow-up count {self.blowups} outside 0..{top}")
        # derived, not a field, so `==` and hash ignore it
        c1 = (2, 2) if self.kind == PRODUCT else (3,) + (-1,) * self.blowups
        object.__setattr__(self, "anticanonical", CohClass(self, c1))

    @property
    def rank(self) -> int:
        return 2 if self.kind == PRODUCT else self.blowups + 1

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
    return SurfaceLattice(BLOWUP, k)


def product_lattice() -> SurfaceLattice:
    """Lattice of a product of two spheres."""
    return SurfaceLattice(PRODUCT)


@record
class CohClass:
    """Integral coefficient vector over a SurfaceLattice."""

    lattice: SurfaceLattice
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.lattice.rank:
            raise LatticeMismatch(
                f"{len(self.coeffs)} coefficients for rank {self.lattice.rank}"
            )
        for c in self.coeffs:
            if type(c) is not int:
                raise TypeError(f"class coefficient {c!r} is not an int")

    def __add__(self, other: CohClass) -> CohClass:
        _check_same(self, other)
        return CohClass(self.lattice, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: CohClass) -> CohClass:
        _check_same(self, other)
        return CohClass(self.lattice, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

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


def _check_same(a: CohClass, b: CohClass) -> None:
    if a.lattice is not b.lattice and a.lattice != b.lattice:  # mostly one object
        raise LatticeMismatch(f"{a.lattice} vs {b.lattice}")


def pair(a: CohClass, b: CohClass) -> int:
    """Intersection pairing: u^2 = 1, Ei^2 = -1, or x.y = 1 on the product."""
    _check_same(a, b)
    x, y = a.coeffs, b.coeffs
    if a.lattice.kind == PRODUCT:
        return x[0] * y[1] + x[1] * y[0]
    return 2 * x[0] * y[0] - sum(map(operator.mul, x, y))  # x0 y0 minus the E-terms


def exceptional_classes(lattice: SurfaceLattice) -> tuple[CohClass, ...]:
    """All integral classes C with C.C = -1 and anticanonical pairing 1, sorted.

    The search builds P2#k only for k <= 4: `blow_up` runs only at level -1,
    on the plane, `_leading_coefficients` admits no level-0 total for k >= 5
    and `_cells` keeps k <= 3 without one.  There these are the k classes Ei
    and the C(k, 2) classes u - Ei - Ej: a class (a; b) has sum b^2 = a^2 + 1
    and sum b = 1 - 3a, and Cauchy-Schwarz, (1 - 3a)^2 <= k(a^2 + 1), leaves
    a = 0 (one Ei) and a = 1 (two entries -1).  The other shapes, (2; -1^5)
    to (6; -3, -2^7), need five blow-ups or more (Manin, Cubic Forms, section
    26), so P2#5..8 raise InvalidBlowupCount rather than return a short list.
    """
    if lattice.kind == PRODUCT:
        raise NoExceptionalBasis("product lattice has no square -1 classes")
    k = lattice.blowups
    if k > 4:
        raise InvalidBlowupCount(f"(-1)-classes of P2#{k}: the search blows up 0..4 times")
    found = sorted(
        (a,) + tuple(v if i in chosen else 0 for i in range(k))
        for a, v, n in ((0, 1, 1), (1, -1, 2))  # Ei and u - Ei - Ej
        for chosen in itertools.combinations(range(k), n)
    )
    return tuple(CohClass(lattice, coeffs) for coeffs in found)


def adjunction_genus(lattice: SurfaceLattice, c: CohClass):
    """Genus of a connected embedded surface in class c, or None if impossible.

    g = (c.c - K'.c + 2)/2 with K' the anticanonical class; classes whose
    genus is negative or fractional admit no connected embedded
    representative.
    """
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
    square meets each exceptional class nonnegatively.  Parts are sorted by
    coefficients and splittings by their parts.  The lattice is a blow-up of
    the plane (the level-0 reduced space of an isolated minimum); the
    product lattice raises NoExceptionalBasis.

    The splittings are found in closed form.  Write T = `total` and c1 for
    the anticanonical class, so a part C of genus g has 2g - 2 = C.C - c1.C.
    As c1 is characteristic, C.C and c1.C have the same parity.

    1. A part C of square < 0 has 2g - 2 = C.C - c1.C <= -2, as c1.C >= 1,
       so g = 0 and C.C = c1.C - 2 >= -1: C is a (-1)-class.
    2. A part of square 0 has g = 0 and c1.C = 2, as g >= 1 would force
       c1.C <= 0.
    3. In signature (1, k), two orthogonal nonzero classes of square >= 0
       are isotropic and proportional (the light-cone lemma; T.-J. Li and
       A.-K. Liu 2001).  So at most one part has positive square, the parts
       of square 0 never sit beside a positive part, and they are all
       copies of one fiber class F, as proportional classes with c1.F = 2
       are equal.
    4. Each (-1)-part E meets only itself, so T.E = E.E = -1.  The
       (-1)-parts are a pairwise-disjoint subset S of the (-1)-classes with
       T.E = -1, each at most once, as E.E != 0.
    5. The rest R = T - sum S is the sum of the parts of square >= 0, and
       R.E = T.E - E.E = 0 for each E in S.  By 3 it is one of three
       things: zero; one part with R.R > 0, a valid adjunction genus,
       c1.R >= 1 and Li-Liu positivity; or j = c1.R / 2 copies of
       F = R / j, where R.R = 0 and F is integral and Li-Liu positive.

    So each subset S gives at most one splitting; the zero class has one, ().
    """
    exc = exceptional_classes(lattice)
    subsets: list[tuple[CohClass, ...]] = [()]
    for e in exc:
        if pair(total, e) == -1:
            subsets += [s + (e,) for s in subsets if all(pair(e, f) == 0 for f in s)]
    out = []
    for s in subsets:
        parts = [(e, 0) for e in s]
        rest = total - sum(s, lattice.zero())
        if not rest.is_zero():
            square, degree = pair(rest, rest), pair(lattice.anticanonical, rest)
            if square < 0 or degree < 1 or not li_positive(rest, exc):
                continue
            if square > 0:
                g = adjunction_genus(lattice, rest)
                if g is None:
                    continue
                parts.append((rest, g))
            else:
                j = degree // 2
                if any(c % j for c in rest.coeffs):
                    continue
                parts += [(CohClass(lattice, tuple(c // j for c in rest.coeffs)), 0)] * j
        out.append(tuple(sorted(parts, key=lambda p: p[0].coeffs)))
    return sorted(out, key=lambda s: [c.coeffs for c, _ in s])
