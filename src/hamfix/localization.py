"""Exact equivariant localization sums over fixed-point data.

The equivariant integral of a degree-2p class over the six-manifold lies in
H^(2p-6)(BS^1) = Z x^(p-3), where x is the degree-two generator of the
classifying space, and localization (Atiyah and Bott 1984) writes it as a
sum over the fixed components.  Each summand is one integer times x^(p-3),
by degree counting: on a component of complex codimension r the integrand
divided by the normal Euler class has degree 2p - 2r, and integrating over
the component, of real dimension 2(3 - r), lowers that by 2(3 - r).  So
`contribution` returns that integer, and `integrate` sums them into a
`LaurentPoly` of at most the one term (p - 3, total).  Surface contributions
are computed in a rank-one nilpotent extension (q^2 = 0 on a 2-sphere or
torus); contributions of 4-dimensional extrema expand the inverse Euler
class in 1/x and keep the terms of cohomology degree 4 on the component.

The four kinds of fixed component (isolated point, interior surface,
extremal sphere, extremal 4-manifold) each carry their balanced moment-map
level as their first field, checked when the component is built, and their
own behaviour: Morse-Bott index (twice the number of negative weights),
dimension, Poincare terms, contribution, orientation reversal, the report
column, and the key the toric matcher reads (`toric_descriptor()`, whose
areas come from the reduced class c1 - level e: c1 at an interior surface's
level 0).  Other modules call these methods and never test a component's
type.
"""

from __future__ import annotations

from math import comb

from .errors import InvalidFixedComponent
from .lattice import PRODUCT, CohClass, SurfaceLattice, pair
from .record import record
from .reduction import dh_quadratic

ONE = "one"
C1 = "c1"
C1_CUBED = "c1cubed"
INTEGRANDS = (ONE, C1, C1_CUBED)

_POWER = {ONE: 0, C1: 1, C1_CUBED: 3}


@record
class LaurentPoly:
    """An equivariant integral: at most one term (p - 3, n), n an int, in x."""

    terms: tuple[tuple[int, int], ...]

    def coeff(self, degree: int) -> int:
        for d, c in self.terms:
            if d == degree:
                return c
        return 0

    def is_zero(self) -> bool:
        return not self.terms

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

    level: int
    weights: tuple[int, int, int]

    dim = 0

    def __post_init__(self):
        if type(self.weights) is not tuple:  # a list would be unequal to it and unhashable
            raise InvalidFixedComponent(f"weights {self.weights!r} are not a tuple")
        if sorted(abs(w) for w in self.weights) != [1, 1, 1]:
            raise InvalidFixedComponent(f"weights {self.weights} not semifree")
        if self.level != -sum(self.weights):
            raise InvalidFixedComponent(
                f"level {self.level} != -sum{self.weights} (balanced condition)"
            )

    @property
    def index(self) -> int:
        return 2 * sum(1 for w in self.weights if w < 0)

    def poincare(self):
        return ((0, 1),)

    def contribution(self, p: int) -> int:
        # semifree weights are +-1, so 1 / prod w = prod w
        w = self.weights
        return sum(w) ** p * w[0] * w[1] * w[2]

    def flipped(self) -> IsolatedPoint:
        return IsolatedPoint(-self.level, tuple(-w for w in self.weights))

    def column(self) -> str:
        return "pt"

    def toric_descriptor(self):
        return ("pt", tuple(sorted(self.weights)))


@record
class InteriorSurface:
    """Fixed surface at an interior level, embedded in the reduced space."""

    level: int
    surface_class: CohClass
    genus: int
    bplus: int  # degree of the positive normal bundle

    dim = 2
    index = 2  # one negative normal weight

    @property
    def normal_degrees(self) -> tuple[int, int]:
        """(b+, b-): the two normal bundles split the self-intersection Z.Z."""
        return self.bplus, pair(self.surface_class, self.surface_class) - self.bplus

    def __post_init__(self):
        if self.level != 0:  # the normal weights (+1, -1) sum to 0
            raise InvalidFixedComponent(f"level {self.level} != -sum(1, -1) (balanced condition)")
        if self.genus < 0:
            raise InvalidFixedComponent("negative genus")

    def poincare(self):
        return ((0, 1), (1, 2 * self.genus), (2, 1))

    def contribution(self, p: int) -> int:
        # Normal weights (+1, -1): equivariant Euler class (x + b+ q)(-x + b- q)
        # with q^2 = 0, so the inverse is -x^-2 - (b- - b+) q x^-3.  The
        # restricted first Chern class is Vol(Z) q, hence the cube contributes
        # nothing.  Fiber integration keeps the q-coefficient.
        bplus, bminus = self.normal_degrees
        if p == 0:
            return bplus - bminus
        if p == 1:
            return -(pair(self.surface_class, self.surface_class) + 2 - 2 * self.genus)
        return 0  # (Vol q)^p = 0 for p >= 2

    def flipped(self) -> InteriorSurface:
        return InteriorSurface(-self.level, self.surface_class, self.genus, self.normal_degrees[1])

    def column(self) -> str:
        head = {0: "S2", 1: "T2"}.get(self.genus, f"g{self.genus}")
        return f"{head}[{self.surface_class!r}]"

    def toric_descriptor(self):
        if self.genus != 0:
            return None  # toric fixed surfaces are rational
        # at level 0 the reduced class is c1, so the area is the volume
        return ("sphere", pair(self.surface_class.lattice.anticanonical, self.surface_class))


@record
class ExtremalSurface:
    """Extremal fixed 2-sphere with the degree of its normal bundle."""

    level: int
    normal_degree: int

    dim = 2

    def __post_init__(self):
        if self.level not in (-2, 2):
            raise InvalidFixedComponent("extremal sphere must sit at level +-2")

    @property
    def index(self) -> int:
        return 4 if self.level > 0 else 0

    def poincare(self):
        return ((0, 1), (2, 1))

    def contribution(self, p: int) -> int:
        # Maximum at +2: weights (-1,-1); minimum at -2: weights (+1,+1).
        # With q^2 = 0 the Euler class (wx + d1 q)(wx + d2 q) of any split
        # d1 + d2 = d_sum is x^2 + w d_sum x q, inverse x^-2 - w d_sum q x^-3;
        # restriction of c1 is 2wx + (d_sum + 2) q.  The q-coefficient of
        # (2wx + (d_sum + 2) q)^p times the inverse is
        # (2w)^p (-w d_sum) x^(p-3) + p (2w)^(p-1) (d_sum + 2) x^(p-3).
        d_sum = self.normal_degree
        w = -1 if self.level > 0 else 1
        total = (2 * w) ** p * -w * d_sum
        if p:
            total += p * (2 * w) ** (p - 1) * (d_sum + 2)
        return total

    def flipped(self) -> ExtremalSurface:
        return ExtremalSurface(-self.level, self.normal_degree)

    def column(self) -> str:
        return f"S2(vol {2 + self.normal_degree})"

    def toric_descriptor(self):
        return ("sphere", 2 + self.normal_degree)


@record
class ExtremalFourManifold:
    """Extremal 4-dimensional fixed component, identified with a reduced space."""

    level: int
    euler_at_boundary: CohClass

    dim = 4

    @property
    def lattice(self) -> SurfaceLattice:
        return self.euler_at_boundary.lattice

    @property
    def reduced_class(self) -> CohClass:
        """c1 - level e: the reduced class of the boundary slice at the
        component's level, and the restriction of c1(M) less its x term."""
        return self.lattice.anticanonical - self.level * self.euler_at_boundary

    def __post_init__(self):
        if self.level not in (-1, 1):
            raise InvalidFixedComponent("4-dim extremum must sit at level +-1")

    @property
    def index(self) -> int:
        return 2 if self.level > 0 else 0

    def poincare(self):
        return ((0, 1), (2, self.lattice.rank), (4, 1))

    def contribution(self, p: int) -> int:
        # Maximum at +1 (normal weight -1): Euler class -x - e, restricted c1 is
        # c1(S) - x - e; the mirrored minimum at -1 carries x + e and
        # c1(S) + x + e, where e is the Euler class of the circle bundle on the
        # boundary slice.
        e, a_class = self.euler_at_boundary, self.reduced_class
        w = -self.level
        # the Euler class is w(x + e): max 1/(-x-e) = -x^-1 + e x^-2 - e^2 x^-3,
        # min 1/(x+e) = x^-1 - e x^-2 + e^2 x^-3; expand
        # (a + wx)^p = sum binom(p, j) a^j (wx)^(p-j) and keep the terms of
        # total cohomology degree 4, a^j e^(2-j) x^(p-3) with coefficient
        # binom(p, j) w^(p-j) (+-w), which fiber integration reads
        scalars = (pair(e, e), pair(a_class, e), pair(a_class, a_class))
        return sum(
            comb(p, j) * w ** (p - j) * (w if j % 2 == 0 else -w) * scalars[j]
            for j in range(min(p, 2) + 1)
        )

    def flipped(self) -> ExtremalFourManifold:
        return ExtremalFourManifold(-self.level, -1 * self.euler_at_boundary)

    def column(self) -> str:
        if self.lattice.kind == PRODUCT:
            return "S2xS2"
        return "P2" if self.lattice.blowups == 0 else f"P2#{self.lattice.blowups}"

    def toric_descriptor(self):
        from fractions import Fraction  # only the toric matcher reads areas
        lat, w = self.lattice, self.reduced_class
        return ("fourmanifold", lat.kind, lat.blowups, Fraction(pair(w, w), 2))


def contribution(fc, alpha: str) -> int:
    """Localization summand of the component for one of the three integrands.

    It is the coefficient of x^(p-3), for the integrand c1^p.
    """
    if alpha not in _POWER:
        raise ValueError(f"unknown integrand {alpha!r}")
    return fc.contribution(_POWER[alpha])


def integrate(components, alpha: str) -> LaurentPoly:
    """Sum of localization contributions over all fixed components."""
    comps = getattr(components, "components", components)
    total = sum(contribution(fc, alpha) for fc in comps)
    return LaurentPoly(((_POWER[alpha] - 3, total),) if total else ())


def chern_number(tfd) -> int:
    """c1^3 of a classified row: 3 times the integral of omega(t)^2 over its slices.

    c1^3 = 6 vol(M), and vol(M) integrates omega(t)^2 / 2 (Duistermaat and
    Heckman 1982).  Over a slice [lo, hi] the quadratic q0 + q1 t + q2 t^2 of
    `dh_quadratic` integrates exactly: q1 = -2 c1.e is even and the slice
    ends are ints, so each term is an int.  The tests check it against
    `integrate(tfd, C1_CUBED)`.
    """
    total = 0
    for s in tfd.slices:
        lo, hi = s.interval
        q0, q1, q2 = dh_quadratic(s)
        total += 3 * q0 * (hi - lo) + 3 * q1 * (hi * hi - lo * lo) // 2 + q2 * (hi**3 - lo**3)
    return total


def betti(components) -> tuple[int, ...]:
    """Betti numbers b_0..b_6 from the perfect Morse-Bott decomposition."""
    comps = getattr(components, "components", components)
    b = [0] * 7
    for fc in comps:
        for deg, mult in fc.poincare():
            b[fc.index + deg] += mult
    return tuple(b)

