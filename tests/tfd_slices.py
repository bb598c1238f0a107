"""Slices of a fixed-point data record next to a critical level: the classes
contracted there and the DH jump there."""


def slice_below(t, level):
    """The slice of t whose interval ends at level."""
    return next(s for s in t.slices if s.interval[1] == level)


def slice_above(t, level):
    """The slice of t whose interval starts at level."""
    return next(s for s in t.slices if s.interval[0] == level)


def contracted_classes(t, level):
    """The (-1)-classes of zero area on the slice below level, which points there contract."""
    from hamfix.lattice import exceptional_classes
    from hamfix.reduction import vanishing_classes

    below = slice_below(t, level)
    return vanishing_classes(below, level, exceptional_classes(below.lattice))


def dh_jump(before, after, level):
    """Change of DH across `level`, as (a0 - b0, a1 - b1, a2 - b2).

    Both slices' DH quadratics are expanded in powers of (t - level); k
    index-two points give (0, 0, -k) and m index-four points (0, 0, m).
    """
    from hamfix.reduction import dh_quadratic

    def around(state):
        c0, c1, c2 = dh_quadratic(state)
        return (c0 + c1 * level + c2 * level * level, c1 + 2 * c2 * level, c2)

    (b0, b1, b2), (a0, a1, a2) = around(before), around(after)
    return (a0 - b0, a1 - b1, a2 - b2)
