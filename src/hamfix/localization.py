"""Exact equivariant localization sums over fixed-point data.

Every integral is a finite sum of fixed-component contributions, each an
exact Laurent polynomial in the degree-two generator x of the classifying
space.  Surface contributions are computed in a rank-one nilpotent extension
(q^2 = 0 on a 2-sphere or torus); contributions of 4-dimensional extrema are
expanded as Laurent series in 1/x with cohomology truncated above the top
degree of the surface.

The four kinds of fixed component (isolated point, interior surface,
extremal sphere, extremal 4-manifold) each carry their own behaviour:
validation at a level, index, dimension, Poincare terms, contribution,
orientation reversal, and the descriptors that serialization, the report
columns and the toric matcher read (`toric_descriptor(omega)` takes a
callable giving the reduced class at the component's level, which points
never call).  Other modules call these methods and never test a component's
type.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import InvalidFixedComponent
from .lattice import PRODUCT, CohClass, SurfaceLattice, pair
from .record import record

ONE = "one"
C1 = "c1"
C1_CUBED = "c1cubed"
INTEGRANDS = (ONE, C1, C1_CUBED)

_POWER = {ONE: 0, C1: 1, C1_CUBED: 3}


@record
class LaurentPoly:
    """Finitely supported map from integer x-degrees to ints and Fractions."""

    terms: tuple[tuple[int, int | Fraction], ...]

    @staticmethod
    def from_dict(d: dict) -> LaurentPoly:
        return LaurentPoly(tuple(sorted((k, v) for k, v in d.items() if v != 0)))

    @staticmethod
    def zero() -> LaurentPoly:
        return LaurentPoly(())

    @staticmethod
    def x_power(degree: int, coeff=1) -> LaurentPoly:
        return LaurentPoly.from_dict({degree: coeff})

    def coeff(self, degree: int) -> int | Fraction:
        for d, c in self.terms:
            if d == degree:
                return c
        return 0

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        d = dict(self.terms)
        for deg, c in other.terms:
            d[deg] = d.get(deg, 0) + c
        return LaurentPoly.from_dict(d)

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        d: dict[int, int | Fraction] = {}
        for d1, c1 in self.terms:
            for d2, c2 in other.terms:
                deg = d1 + d2
                d[deg] = d.get(deg, 0) + c1 * c2
        return LaurentPoly.from_dict(d)

    def scale(self, s) -> LaurentPoly:
        return LaurentPoly.from_dict({d: c * s for d, c in self.terms})

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for d, c in reversed(self.terms):
            piece = f"+{c}" if c > 0 else f"{c}"
            if d == 1:
                piece += "*x"
            elif d != 0:
                piece += f"*x^{d}"
            bits.append(piece)
        return " ".join(bits)


@record
class IsolatedPoint:
    """Isolated fixed point with semifree tangent weights."""

    weights: tuple[int, int, int]

    dim = 0

    def validate(self, level: int) -> None:
        if sorted(abs(w) for w in self.weights) != [1, 1, 1]:
            raise InvalidFixedComponent(f"weights {self.weights} not semifree")
        if level != -sum(self.weights):
            raise InvalidFixedComponent(
                f"level {level} != -sum{self.weights} (balanced condition)"
            )

    def index(self, level: int) -> int:
        return 2 * sum(1 for w in self.weights if w < 0)

    def poincare(self):
        return ((0, 1),)

    def contribution(self, level: int, p: int) -> LaurentPoly:
        # semifree weights are +-1, so 1 / prod w = prod w
        w = self.weights
        return LaurentPoly.x_power(p - 3, sum(w) ** p * w[0] * w[1] * w[2])

    def flipped(self) -> IsolatedPoint:
        return IsolatedPoint(tuple(-w for w in self.weights))

    def descriptor(self):
        return ("pt", self.weights)

    def column(self) -> str:
        return "pt"

    def toric_descriptor(self, omega):
        return ("pt", tuple(sorted(self.weights)))


@record
class InteriorSurface:
    """Fixed surface at an interior level, embedded in the reduced space."""

    surface_class: CohClass
    genus: int
    bplus: int  # degree of the positive normal bundle

    dim = 2

    @property
    def normal_degrees(self) -> tuple[int, int]:
        """(b+, b-): the two normal bundles split the self-intersection Z.Z."""
        return self.bplus, pair(self.surface_class, self.surface_class) - self.bplus

    def validate(self, level: int) -> None:
        if self.genus < 0:
            raise InvalidFixedComponent("negative genus")

    def index(self, level: int) -> int:
        return 2

    def poincare(self):
        return ((0, 1), (1, 2 * self.genus), (2, 1))

    def contribution(self, level: int, p: int) -> LaurentPoly:
        # Normal weights (+1, -1): equivariant Euler class (x + b+ q)(-x + b- q)
        # with q^2 = 0, so the inverse is -x^-2 - (b- - b+) q x^-3.  The
        # restricted first Chern class is Vol(Z) q, hence the cube contributes
        # nothing.
        bplus, bminus = self.normal_degrees
        volume = pair(self.surface_class, self.surface_class) + 2 - 2 * self.genus
        if p == 0:  # fiber integration keeps the q-coefficient
            return LaurentPoly.x_power(-3, -(bminus - bplus))
        if p == 1:
            return LaurentPoly.x_power(-2, -volume)
        return LaurentPoly.zero()  # (Vol q)^3 = 0

    def flipped(self) -> InteriorSurface:
        return InteriorSurface(self.surface_class, self.genus, self.normal_degrees[1])

    def descriptor(self):
        return ("surface", self.surface_class.coeffs, self.genus)

    def column(self) -> str:
        head = {0: "S2", 1: "T2"}.get(self.genus, f"g{self.genus}")
        return f"{head}[{self.surface_class!r}]"

    def toric_descriptor(self, omega):
        if self.genus != 0:
            return None  # toric fixed surfaces are rational
        return ("sphere", pair(omega(), self.surface_class))


@record
class ExtremalSurface:
    """Extremal fixed 2-sphere with the degree of its normal bundle."""

    normal_degree: int

    dim = 2

    def validate(self, level: int) -> None:
        if level not in (-2, 2):
            raise InvalidFixedComponent("extremal sphere must sit at level +-2")

    def index(self, level: int) -> int:
        return 4 if level > 0 else 0

    def poincare(self):
        return ((0, 1), (2, 1))

    def contribution(self, level: int, p: int) -> LaurentPoly:
        # Maximum at +2: weights (-1,-1); minimum at -2: weights (+1,+1).
        # With q^2 = 0 the Euler class (wx + d1 q)(wx + d2 q) of any split
        # d1 + d2 = d_sum is x^2 + w d_sum x q, inverse x^-2 - w d_sum q x^-3;
        # restriction of c1 is 2wx + (d_sum + 2) q.
        d_sum = self.normal_degree
        w = -1 if level > 0 else 1
        inv_const = LaurentPoly.x_power(-2)
        inv_q = LaurentPoly.x_power(-3, -w * d_sum)
        if p == 0:
            return inv_q
        # (2wx + (d_sum+2) q)^p, keeping at most one q
        num_const = LaurentPoly.x_power(p, (2 * w) ** p)
        num_q = LaurentPoly.x_power(p - 1, p * (2 * w) ** (p - 1) * (d_sum + 2))
        return num_const * inv_q + num_q * inv_const

    def flipped(self) -> ExtremalSurface:
        return self

    def descriptor(self):
        return ("sphere", self.normal_degree)

    def column(self) -> str:
        return f"S2(vol {2 + self.normal_degree})"

    def toric_descriptor(self, omega):
        return ("sphere", 2 + self.normal_degree)


@record
class ExtremalFourManifold:
    """Extremal 4-dimensional fixed component, identified with a reduced space."""

    euler_at_boundary: CohClass

    dim = 4

    @property
    def lattice(self) -> SurfaceLattice:
        return self.euler_at_boundary.lattice

    def validate(self, level: int) -> None:
        if level not in (-1, 1):
            raise InvalidFixedComponent("4-dim extremum must sit at level +-1")

    def index(self, level: int) -> int:
        return 2 if level > 0 else 0

    def poincare(self):
        return ((0, 1), (2, self.lattice.rank), (4, 1))

    def contribution(self, level: int, p: int) -> LaurentPoly:
        # Maximum at +1 (normal weight -1): Euler class -x - e, restricted c1 is
        # c1(S) - x - e; the mirrored minimum at -1 carries x + e and
        # c1(S) + x + e, where e is the Euler class of the circle bundle on the
        # boundary slice.
        e = self.euler_at_boundary
        c1 = self.lattice.anticanonical
        w = -1 if level > 0 else 1
        a_class = c1 - e if level > 0 else c1 + e
        # the Euler class is w(x + e): max 1/(-x-e) = -x^-1 + e x^-2 - e^2 x^-3,
        # min 1/(x+e) = x^-1 - e x^-2 + e^2 x^-3; expand
        # (a + wx)^p = sum binom(p, j) a^j (wx)^(p-j) and keep the terms of
        # total cohomology degree 4, a^j e^(2-j), which fiber integration reads
        scalars = (pair(e, e), pair(a_class, e), pair(a_class, a_class))
        out = LaurentPoly.zero()
        for j in range(0, min(p, 2) + 1):
            pa = LaurentPoly.x_power(p - j, comb(p, j) * w ** (p - j))
            pe = LaurentPoly.x_power(j - 3, w if j % 2 == 0 else -w)
            out = out + (pa * pe).scale(scalars[j])
        return out

    def flipped(self) -> ExtremalFourManifold:
        return ExtremalFourManifold(-1 * self.euler_at_boundary)

    def descriptor(self):
        lat = self.lattice
        return ("fourmanifold", lat.kind, lat.blowups, self.euler_at_boundary.coeffs)

    def column(self) -> str:
        if self.lattice.kind == PRODUCT:
            return "S2xS2"
        return "P2" if self.lattice.blowups == 0 else f"P2#{self.lattice.blowups}"

    def toric_descriptor(self, omega):
        lat = self.lattice
        w = omega()
        return ("fourmanifold", lat.kind, lat.blowups, Fraction(pair(w, w), 2))


_SPECS = (IsolatedPoint, InteriorSurface, ExtremalSurface, ExtremalFourManifold)


@record
class FixedComponent:
    """A fixed component together with its balanced moment-map level."""

    level: int
    spec: object

    def __post_init__(self):
        if not isinstance(self.spec, _SPECS):
            raise InvalidFixedComponent(f"unknown component spec {self.spec!r}")
        self.spec.validate(self.level)

    @property
    def index(self) -> int:
        """Morse-Bott index (twice the number of negative weights)."""
        return self.spec.index(self.level)

    @property
    def dim(self) -> int:
        return self.spec.dim


def point(level: int, weights: tuple[int, int, int]) -> FixedComponent:
    return FixedComponent(level, IsolatedPoint(tuple(weights)))


def contribution(fc: FixedComponent, alpha: str) -> LaurentPoly:
    """Localization summand of the component for one of the three integrands."""
    if alpha not in _POWER:
        raise ValueError(f"unknown integrand {alpha!r}")
    return fc.spec.contribution(fc.level, _POWER[alpha])


def integrate(components, alpha: str) -> LaurentPoly:
    """Sum of localization contributions over all fixed components."""
    comps = getattr(components, "components", components)
    total: dict[int, int | Fraction] = {}
    for fc in comps:
        for deg, c in contribution(fc, alpha).terms:
            total[deg] = total.get(deg, 0) + c
    return LaurentPoly.from_dict(total)


def chern_number(tfd) -> int:
    """c1^3 of a classified row: 3 times the integral of omega(t)^2 over its slices.

    c1^3 = 6 vol(M), and vol(M) integrates omega(t)^2 / 2 (Duistermaat and
    Heckman 1982).  A slice with omega(lo + u) = A - u e on [lo, lo + n]
    adds 3(A.A)n - 3(A.e)n^2 + (e.e)n^3, an integer as slice ends are
    integers.  The tests check it against `integrate(tfd, C1_CUBED)`.
    """
    total = 0
    for s in tfd.slices:
        n, big_a, e = s.interval[1] - s.interval[0], s.anchor_class, s.euler
        total += 3 * pair(big_a, big_a) * n - 3 * pair(big_a, e) * n * n + pair(e, e) * n**3
    return total


def betti(components) -> tuple[int, ...]:
    """Betti numbers b_0..b_6 from the perfect Morse-Bott decomposition."""
    comps = getattr(components, "components", components)
    b = [0] * 7
    for fc in comps:
        for deg, mult in fc.spec.poincare():
            b[fc.index + deg] += mult
    return tuple(b)

