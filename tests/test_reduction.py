"""Slice states, wall crossings, DH values, blow-down bookkeeping."""

from fractions import Fraction

import pytest

from hamfix.errors import (
    InternalArithmeticError,
    NonDisjointBlowdown,
    NotASphereMaximum,
    OutOfInterval,
    VanishingCycleMismatch,
)
from hamfix.lattice import (
    CohClass,
    exceptional_classes,
    make_blowup_lattice,
    pair,
    product_lattice,
)
from hamfix.reduction import (
    SliceState,
    blow_down,
    blow_up,
    blowdown_lattice,
    bmax_from_euler,
    dh,
    initial_slice,
    shift,
    vanishing_classes,
)
from tfd_slices import dh_jump
import unpruned

P2 = make_blowup_lattice(0)


def blow_down_at_one(state, m):
    """Cross m index-four points at level one, as the sweep does."""
    return blow_down(state, 1, m, exceptional_classes(state.lattice))


def test_initial_slice_isolated_minimum():
    s = initial_slice()
    assert s.euler == CohClass(P2, (-1,))
    assert s.omega(0) == CohClass(P2, (3,))
    assert s.omega(-3).is_zero()


def test_cross_three_index2_points():
    s0 = initial_slice().with_interval(-3, -1)
    s1 = blow_up(s0, -1, 3)
    assert s1.lattice == make_blowup_lattice(3)
    assert s1.euler.coeffs == (-1, 1, 1, 1)
    assert s1.omega(-1).coeffs == (2, 0, 0, 0)


def test_cross_interior_surface():
    s0 = initial_slice().with_interval(-3, 0)
    from hamfix.localization import InteriorSurface

    conic = InteriorSurface(0, CohClass(P2, (2,)), 0, 2)
    s1 = shift(s0, 0, conic.surface_class)
    assert s1.euler == CohClass(P2, (1,))
    assert s1.omega(3).is_zero()


def test_cross_blowdown_three_lines():
    # three blow-ups then three simultaneous blow-downs land back on the plane
    s0 = initial_slice().with_interval(-3, -1)
    s1 = blow_up(s0, -1, 3).with_interval(-1, 1)
    vanish = vanishing_classes(s1, 1, exceptional_classes(s1.lattice))
    assert {v.coeffs for v in vanish} == {
        (1, -1, -1, 0), (1, -1, 0, -1), (1, 0, -1, -1)
    }
    assert all(pair(s1.omega(1), v) == 0 for v in vanish)
    s2 = blow_down_at_one(s1, 3)
    assert s2.lattice == P2
    assert s2.euler == CohClass(P2, (1,))
    assert s2.omega(3).is_zero()
    assert dh(s1, 1) == dh(s2.with_interval(1, 3), 1) == 4


def test_dh_values():
    s0 = initial_slice()
    assert dh(s0, -3) == 0
    s1 = blow_up(s0.with_interval(-3, -1), -1, 3)
    assert dh(s1.with_interval(-1, 1), 1) == 16 - 4 * 3
    with pytest.raises(OutOfInterval):
        dh(s0.with_interval(-3, -1), 0)


def test_dh_case_iii3():
    # interior conic on the plane: reduced class (4 - a) u at the top, a = 2
    from hamfix.localization import InteriorSurface

    s0 = initial_slice().with_interval(-3, 0)
    conic = InteriorSurface(0, CohClass(P2, (2,)), 0, 2)
    s1 = shift(s0, 0, conic.surface_class)
    assert dh(s1.with_interval(0, 1), 1) == 4


def test_check_dh_decrease():
    s0 = initial_slice().with_interval(-3, -1)
    s1 = blow_up(s0, -1, 3)
    assert dh_jump(s0, s1.with_interval(-1, 1), -1) == (0, 0, -3)

    one = blow_up(s0, -1, 1)
    assert dh_jump(s0, one.with_interval(-1, 1), -1) == (0, 0, -1)
    # no crossing at all: the same path extends with zero drop
    flat = s0.with_interval(-1, 1)
    assert dh_jump(s0, flat, -1) == (0, 0, 0)


def test_blowdown_count_mismatch():
    # two blow-downs cannot swallow the three simultaneous vanishing classes
    s0 = initial_slice().with_interval(-3, -1)
    s1 = blow_up(s0, -1, 3).with_interval(-1, 1)
    with pytest.raises(VanishingCycleMismatch):
        blow_down_at_one(s1, 2)


def test_blowdown_disjointness():
    two = make_blowup_lattice(2)
    # Euler class 2u - E1 kills both E1 and u - E1 - E2, which meet
    state = SliceState(CohClass(two, (2, -1, 0)), (0, 1))
    assert {v.coeffs for v in vanishing_classes(state, 1, exceptional_classes(two))} == {
        (0, 1, 0), (1, -1, -1)
    }
    with pytest.raises(NonDisjointBlowdown):
        blow_down_at_one(state, 2)


def test_bmax_examples():
    two = make_blowup_lattice(2)

    def top_state(euler_coeffs, lattice):
        return SliceState(CohClass(lattice, euler_coeffs), (0, 2))

    assert bmax_from_euler(top_state((2, -1), make_blowup_lattice(1))) == -3
    s = top_state((1, -1), make_blowup_lattice(1))
    assert bmax_from_euler(s) == 0
    assert 2 + bmax_from_euler(s) == 2
    # accepted sphere maxima carry volume 2 + b_max >= 1
    s31 = top_state((-1, 2), make_blowup_lattice(1))
    assert 2 + bmax_from_euler(s31) == 5
    with pytest.raises(NotASphereMaximum):
        bmax_from_euler(initial_slice())
    assert pair(CohClass(two, (2, -1, 0)), CohClass(two, (2, -1, 0))) == 3


def test_fiber_classes():
    from unpruned import fiber_classes_of

    hirzebruch = make_blowup_lattice(1)
    (f,) = fiber_classes_of(hirzebruch)
    assert f.coeffs == (1, -1)
    prod = product_lattice()
    assert {c.coeffs for c in fiber_classes_of(prod)} == {(1, 0), (0, 1)}


def test_positive_square_vertex_detection():
    from unpruned import positive_square_throughout

    # reduced class (3 - 5t) u dies at t = 3/5 inside the interval
    state = SliceState(CohClass(P2, (5,)), (0, 1))
    assert not positive_square_throughout(state)
    good = initial_slice()
    assert positive_square_throughout(good, allow_zero_ends={Fraction(-3), Fraction(3)})


def _disjoint_families(lat):
    """Prefixes of greedy disjoint families of the reference's (-1)-classes
    from spread-out starts."""
    exc = unpruned.exceptional_classes(lat)
    for start in exc[:: max(1, len(exc) // 12)]:
        chosen = [start]
        yield tuple(chosen)
        for e in exc:
            if all(pair(e, c) == 0 for c in chosen):
                chosen.append(e)
                yield tuple(chosen)


def test_blowdown_lattice_oracle():
    # contractions whose complement has rank 1 or 2 (the plane, the plane
    # blown up once or the product of spheres); a level-one blow-down leaves
    # no other rank, so rank >= 3 raises
    seen = set()
    for k in range(1, 9):
        lat = make_blowup_lattice(k)
        exc = unpruned.exceptional_classes(lat)
        for vanishing in _disjoint_families(lat):
            r = lat.rank - len(vanishing)
            if r >= 3:
                with pytest.raises(InternalArithmeticError, match=f"rank {r}"):
                    blowdown_lattice(lat, vanishing, exc)
                continue
            new_lat, push = blowdown_lattice(lat, vanishing, exc)
            assert new_lat.rank == r
            free = [e for e in exc if all(pair(e, v) == 0 for v in vanishing)]
            assert (new_lat.kind == "product") == (r == 2 and not free)
            seen.add((r, new_lat.kind))
            # the projections of the basis classes span the complement of V
            span = [
                b + sum((pair(b, v) * v for v in vanishing), lat.zero())
                for b in map(lat.basis_class, range(lat.rank))
            ]
            for a in span:
                for b in span:
                    assert pair(push(a), push(b)) == pair(a, b)
            assert push(sum(vanishing, lat.anticanonical)) == new_lat.anticanonical
            for v in vanishing:
                with pytest.raises(InternalArithmeticError):
                    push(v)
    assert seen == {(1, "blowup"), (2, "blowup"), (2, "product")}


def test_blowdown_lattice_contracts_only_to_rank_one_or_two():
    # E1 on P2#3 leaves P2#2, of rank 3, which no level-one blow-down reaches
    three = make_blowup_lattice(3)
    exc = exceptional_classes(three)
    with pytest.raises(InternalArithmeticError, match="rank 3"):
        blowdown_lattice(three, (three.basis_class(1),), exc)


def test_blowdown_lattice_reads_r_minus_1_free_classes():
    # a genuine complement of rank 1 holds no (-1)-class and one of rank 2
    # at most one, so the basis takes none or the first; at rank 1 a further
    # class orthogonal to the contracted E1, here u, is not read, as
    # c1' + u = 4u is not divisible by 3
    one = make_blowup_lattice(1)
    u, e1 = one.basis_class(0), one.basis_class(1)
    new_lat, push = blowdown_lattice(one, (e1,), (e1, u))
    assert new_lat == P2
    assert push(u) == P2.basis_class(0)


def test_blowdown_lattice_needs_c1_plus_basis_divisible_by_3():
    # u = (c1' + sum E')/3 must be integral; a class E' orthogonal to the
    # contracted E1 that is no (-1)-class gives c1' + E' = (4; 0, 0)
    two = make_blowup_lattice(2)
    e1, fake = CohClass(two, (0, 1, 0)), CohClass(two, (1, 0, 1))
    with pytest.raises(InternalArithmeticError, match="not divisible by 3"):
        blowdown_lattice(two, (e1,), (e1, fake))


def test_blowdown_lattice_pushes_c1_prime_to_the_anticanonical_class():
    # the slices above a blow-down read their reduced class off the new
    # lattice's anticanonical class; E' = (3; 0, 1) orthogonal to E1 passes
    # the divisibility check, (c1' + E')/3 = 2u, but c1' = (3; 0, -1) pushes
    # to (6; -10)
    two = make_blowup_lattice(2)
    e1, fake = CohClass(two, (0, 1, 0)), CohClass(two, (3, 0, 1))
    with pytest.raises(InternalArithmeticError, match="does not push to the anticanonical class"):
        blowdown_lattice(two, (e1,), (e1, fake))
