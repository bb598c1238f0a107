"""Exception types raised by the classification toolkit."""


class HamfixError(Exception):
    """Base class for all toolkit errors."""


class InvalidBlowupCount(HamfixError):
    """Blow-up count outside 0..8, or outside 0..4 where (-1)-classes are asked for."""


class LatticeMismatch(HamfixError):
    """Operands live over different intersection lattices."""


class NoExceptionalBasis(HamfixError):
    """The lattice has no square -1 classes (even intersection form)."""


class InvalidFixedComponent(HamfixError):
    """Fixed component data violates its structural invariants."""


class InternalArithmeticError(HamfixError):
    """Exact arithmetic produced something structurally impossible."""


class VanishingCycleMismatch(HamfixError):
    """Zero-area exceptional classes do not match the blow-down count."""


class NonDisjointBlowdown(HamfixError):
    """Candidate vanishing classes are not pairwise orthogonal."""


class OutOfInterval(HamfixError):
    """Evaluation level lies outside the slice interval."""


class NotASphereMaximum(HamfixError):
    """The slice is not the top slice below a two-sphere maximum."""


class ClassificationMismatch(HamfixError):
    """Recomputed classification differs from the embedded golden table."""

    def __init__(self, message, extra=(), missing=()):
        super().__init__(message)
        self.extra = tuple(extra)
        self.missing = tuple(missing)


class CapacityFormulaInapplicable(HamfixError):
    """Capacity formula needs an isolated minimum."""


class NotDelzant(HamfixError):
    """Polytope fails the Delzant vertex condition."""


class NotReflexive(HamfixError):
    """Polytope is not reflexive around its interior lattice point."""


class NoMatchingTFD(HamfixError):
    """Polytope fixed-point data matches no classified row."""
