"""Exact symbolic verification of orthosymplectic triangular deformation
structures: the Lie superalgebra osp(1|2n) in its defining representation,
constant and trigonometric solutions of the graded classical Yang-Baxter
equation, twist chains with their cocycle certificates, and the resulting
quantum R- and L-operators, all over exact rational arithmetic.
"""

from .algebra import OspAlgebra, build_osp
from .errors import (
    ConstantTermPresent,
    CubeNotZero,
    DivisionByNonUnit,
    HeterogeneousOperand,
    IrrationalExpansionPoint,
    LegMismatch,
    MissingAlias,
    MixedAlgebra,
    NegativePowerSurvives,
    NonInvertibleLeadingCoefficient,
    NotFirstOrderLie,
    NotInAlgebra,
    NotNilpotent,
    OspTwistError,
    UnknownSuite,
    InvalidOption,
)
from .scalars import LaurentSeries, Poly

__all__ = [
    "OspAlgebra",
    "build_osp",
    "Poly",
    "LaurentSeries",
    "OspTwistError",
]

__version__ = "0.1.0"
