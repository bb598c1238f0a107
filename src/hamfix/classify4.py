"""Classification of semifree circle actions on monotone symplectic 4-manifolds.

Every reduced space is a sphere, so the bookkeeping is one-dimensional: the
reduced class is 2 - t*e on the rank-one lattice generated by the point dual
u, and the area function replaces the quadratic volume of the 6-dimensional
case.  Critical levels lie in {-2,-1,0,1,2}: isolated extrema at +-2, sphere
extrema at +-1, interior points at 0.
"""

from __future__ import annotations

from . import golden
from .record import record


@record
class TFD4:
    """One four-dimensional fixed-point data row."""

    label: str | None
    min_level: int  # -2 isolated point, -1 sphere
    max_level: int  # +2 isolated point, +1 sphere
    k: int  # interior fixed points at level 0
    euler_min: int  # u-coefficient of the Euler class just above the minimum

    @property
    def crit_levels(self) -> tuple[int, ...]:
        levels = [self.min_level, self.max_level]
        if self.k:
            levels.append(0)
        return tuple(sorted(levels))

    @property
    def betti(self) -> tuple[int, int, int, int, int]:
        b2 = self.k
        b2 += 1 if self.min_level == -1 else 0
        b2 += 1 if self.max_level == 1 else 0
        return (1, 0, b2, 0, 1)


def enumerate_case3_tuples() -> set[tuple[int, int, int]]:
    """Integer data (a, b, k) for actions with two sphere extrema.

    a is the area of the minimal sphere, b the Euler coefficient above it and
    k the interior point count.  Monotonicity forces a - b = 2, so the
    maximal sphere has area a - 2b - k = 4 - a - k, and both spheres keep
    positive area: a >= 1 and a + k <= 3.  So a is 1, 2 or 3 and k runs
    from 0 to 3 - a.
    """
    return {(a, a - 2, k) for a in (1, 2, 3) for k in range(4 - a)}


def flip_case3_tuple(t: tuple[int, int, int]) -> tuple[int, int, int]:
    """Orientation reversal on case-III data; an involution."""
    a, b, k = t
    return (a - 2 * b - k, -b - k, k)


def dedupe_case3(tuples) -> list[tuple[int, int, int]]:
    """One representative per flip orbit: smallest |Euler coefficient| wins."""
    reps = set()
    for t in tuples:
        orbit = {t, flip_case3_tuple(t)}
        reps.add(min(orbit, key=lambda s: (abs(s[1]), s[1], s)))
    return sorted(reps)


def classify4() -> list[TFD4]:
    """All eight rows of the four-dimensional classification.

    Above an isolated minimum at -2 the reduced sphere has area 2 - t e with
    e = -1, so its area 0 at -2 closes the minimum; the k interior points
    at level 0 raise e by k, leaving area 2 - t(k - 1) above level 0.

    - Isolated minimum and maximum (case I): the area dies at level 2,
      2 - 2(k - 1) = 0, so k = 2.
    - Isolated minimum, sphere maximum (case II): the maximal sphere at
      level 1 keeps positive integral area 3 - k >= 1, so k <= 2.
    - Two sphere extrema (case III): `enumerate_case3_tuples`.
    """
    rows = [TFD4(None, -2, 2, 2, -1)]
    rows += [TFD4(None, -2, 1, k, -1) for k in (0, 1, 2)]
    for a, b, k in dedupe_case3(enumerate_case3_tuples()):
        rows.append(TFD4(None, -1, 1, k, b))
    rows.sort(key=lambda r: (r.min_level != -2, r.max_level != 2, r.k, -r.euler_min))
    reference = {
        (g["crit"], g["components"], g["euler_min"]): g["label"] for g in golden.GOLDEN4
    }
    labeled = []
    for r in rows:
        cols = golden.report_row_from_tfd4(r)
        label = reference.get((cols["crit"], cols["components"], cols["euler_min"]))
        labeled.append(TFD4(label, r.min_level, r.max_level, r.k, r.euler_min))
    return labeled

