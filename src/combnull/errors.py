"""Exception hierarchy for the combnull library.

Errors fall into four groups: operand mismatches, structural preconditions,
gating (Condition (D) failures produce a distinct outcome rather than a
boolean verdict), and internal consistency failures that indicate a bug in
the library itself rather than bad input.
"""


class CombnullError(Exception):
    """Base class for all library errors."""


class ParseError(CombnullError, ValueError):
    """Malformed ring, element, polynomial, or grid text."""


class RingMismatch(CombnullError):
    """Operands belong to different coefficient rings."""


class ArityMismatch(CombnullError):
    """Operands disagree on the number of variables."""


class NotMonic(CombnullError):
    """A polynomial required to be monic has no greatest support point
    with coefficient one."""


class NonPositiveMultiplicity(CombnullError):
    """A multiset multiplicity is not a positive integer."""


class InfiniteComplement(CombnullError):
    """The complement of the requested upset is not finite."""


class GammaExceedsAlpha(CombnullError):
    """Punctured count requires the inner exponent vector to be dominated."""


class ZeroPolynomial(CombnullError):
    """The operation is undefined for the zero polynomial."""


class UncertifiedBasis(CombnullError):
    """Normal forms are only unique once the family is a certified
    Groebner basis."""


class NotInIdeal(CombnullError):
    """A polynomial expected to satisfy the defining vanishing conditions
    does not."""


class NotCertified(CombnullError):
    """The Groebner certification prerequisite did not hold."""


class NotMember(CombnullError):
    """Certificate requested for a polynomial that is not a member."""


class Inapplicable(CombnullError):
    """Condition (D) fails on some axis; the requested test has no
    truth value in this configuration."""

    def __init__(self, axes, message=None):
        self.axes = tuple(axes)
        super().__init__(message or f"Condition (D) fails on axes {self.axes}")


class EmptyPuncture(CombnullError):
    """The puncture subgrid is empty (some axis has no punctured points)."""


class UnsupportedField(CombnullError):
    """Only prime fields are available; extension fields are out of scope."""


class ScaleExceeded(CombnullError):
    """The work an input asks for, counted up front or as it goes, passes a
    module bound such as ``MAX_BASIS_TERMS`` or ``MAX_SEARCH_TESTS``."""


class InternalInvariantError(CombnullError):
    """A consequence guaranteed by the theory failed to hold; this is a
    library bug, surfaced loudly rather than silently misreported."""


class NonzeroRemainder(InternalInvariantError):
    """Division of a certified member left a nonzero remainder."""
