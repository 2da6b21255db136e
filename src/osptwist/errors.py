"""Exception types shared across the package.

Every failure mode that a caller can reasonably branch on gets its own
class here; everything inherits from OspTwistError so library users can
catch the whole family at once.
"""


class OspTwistError(Exception):
    """Base class for all errors raised by this package."""


class NonInvertibleLeadingCoefficient(OspTwistError):
    """Series inversion needs a leading coefficient that is a unit."""


class ConstantTermPresent(OspTwistError):
    """log/exp of a (truncated) element requires no constant / grade-zero term."""


class MixedAlgebra(OspTwistError):
    """Operands belong to different algebra instances, even two of one
    rank: each instance keys terms in its own multiplication table."""


class HeterogeneousOperand(OspTwistError):
    """Operands live in tensor spaces with a different number of legs."""


class NotNilpotent(OspTwistError):
    """A matrix exponential/logarithm was asked of a non-nilpotent argument."""


class IrrationalExpansionPoint(OspTwistError):
    """A series expansion was requested around a point that is not rational."""


class LegMismatch(OspTwistError):
    """Leg indices passed to an embedding are out of range or collide."""


class NotInAlgebra(OspTwistError, ValueError):
    """A matrix does not lie in the span of the algebra's basis."""


class NotHomogeneous(OspTwistError, ValueError):
    """An operand that must be parity-homogeneous mixes parities."""


class MissingAlias(OspTwistError):
    """A generator alias was requested that this algebra does not define."""


class DivisionByNonUnit(OspTwistError):
    """Exact division was attempted by a scalar that is not invertible."""


class NegativePowerSurvives(OspTwistError):
    """A Laurent object still carries negative powers where a polynomial
    (or a regular limit) was required."""


class NotFirstOrderLie(OspTwistError):
    """The first-order part of a quantum object is not a pure Lie tensor
    (legs of enveloping-algebra degree one), so no classical limit exists."""


class CubeNotZero(OspTwistError):
    """A matrix expected to cube to zero failed to do so."""


class UnknownSuite(OspTwistError):
    """The CLI was asked to run a verification suite it does not know."""


class InvalidOption(OspTwistError):
    """A CLI option has an out-of-range or unparsable value."""
