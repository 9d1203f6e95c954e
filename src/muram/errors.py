"""Exception types shared across the package.

The hierarchy mirrors how the CLI maps failures to exit codes: inputs
outside the class of models we can certify raise ModelRejection (exit 2),
violated mathematical invariants raise InternalInvariant (exit 3), and
the remaining classes are plain usage/programming errors.
"""


class ExactArithError(Exception):
    """Base class for all library errors."""


class ModelRejection(ExactArithError):
    """The input model is outside the class this library certifies."""


class InternalInvariant(ExactArithError):
    """A mathematically guaranteed invariant failed; indicates a bug."""


# base arithmetic

class ZeroPolynomial(ExactArithError):
    pass


class ZeroElement(ExactArithError):
    pass


class CharMismatch(ExactArithError):
    pass


class NotInvertible(ModelRejection):
    pass


# groups

class GroupMismatch(ExactArithError):
    pass


# covering data

class ZeroEntry(ModelRejection):
    pass


class NonIntegralCocycle(ModelRejection):
    pass


class UnsupportedDecomposition(ModelRejection):
    pass


# divisors

class ChartMismatch(ExactArithError):
    pass


class UndeclaredSymbolicDegree(ExactArithError):
    pass


class MissingIndex(ExactArithError):
    pass


# local models / ramification

class NonNormalModel(ModelRejection):
    pass


class NonIntegralModel(ModelRejection):
    pass


class UnsupportedPartialRamification(ModelRejection):
    pass


class NotTotallyRamified(ModelRejection):
    pass


class NotASubgroup(ModelRejection):
    pass


# length oracle

class CancellationRisk(ModelRejection):
    pass


class NotTorsion(ModelRejection):
    pass


# duality

class SizeLimit(ModelRejection):
    pass


class UnsupportedGroup(ModelRejection):
    pass


# global assembly

class HypothesisFailure(ModelRejection):
    """One or more hypotheses of the genus formula failed.

    Carries ``failures``, a list of (check name, detail string) pairs.
    """

    def __init__(self, failures):
        self.failures = list(failures)
        super().__init__("; ".join(f"{name}: {detail}" for name, detail in self.failures))
