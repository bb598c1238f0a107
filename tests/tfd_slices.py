"""Find the slice of a fixed-point data record next to a critical level."""


def slice_below(t, level):
    """The slice of t whose interval ends at level."""
    return next(s for s in t.slices if s.interval[1] == level)


def slice_above(t, level):
    """The slice of t whose interval starts at level."""
    return next(s for s in t.slices if s.interval[0] == level)
