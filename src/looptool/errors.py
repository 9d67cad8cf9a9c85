"""Exception hierarchy shared across the package.

The five intermediate classes mirror the CLI exit-code taxonomy:
parse/usage errors (1), mathematical domain errors (2), cross-check
disagreements (3), singular linear systems (4), holdout mismatches (5).
"""


class LoopToolError(Exception):
    pass


class ParseError(LoopToolError):
    """Malformed input file, schema violation, or invalid user data."""


class MathDomainError(LoopToolError):
    """Operation evaluated outside its mathematical domain."""


class CrossCheckError(LoopToolError):
    """Two routes that must agree exactly did not."""


class SingularError(LoopToolError):
    """A linear system or matrix that had to be invertible was singular."""


class HoldoutMismatchError(LoopToolError):
    """Reconstructed object failed validation on held-out values."""


# -- exactfield -------------------------------------------------------------

class ZeroInverse(MathDomainError, ZeroDivisionError):
    pass


class PrecisionUnreachable(MathDomainError):
    pass


# -- laurent ----------------------------------------------------------------

class ZeroBase(MathDomainError, ZeroDivisionError):
    pass


class SingularMatrix(SingularError):
    pass


# -- nz ---------------------------------------------------------------------

class ValidationError(ParseError):
    pass


class NotDivisible(MathDomainError):
    pass


class SingularAtRoot(MathDomainError):
    pass


# -- feynman ----------------------------------------------------------------

class MissingVertexFactor(ParseError):
    pass


class GradeMismatch(MathDomainError):
    pass


# -- rootsum ----------------------------------------------------------------

class RootOfUnityPole(MathDomainError):
    pass


class ResonantRoot(MathDomainError):
    pass


class PoleOnTorus(MathDomainError):
    pass


# -- cyclic covers ----------------------------------------------------------

class CoverOrderError(MathDomainError, ValueError):
    """A cyclic cover order n < 1, or an n or block size N that disagrees
    with the cover."""


def check_cover_order(n: int) -> None:
    """The one check that an n-fold cyclic cover has n >= 1."""
    if n < 1:
        raise CoverOrderError(f"n must be >= 1, got {n}")


# -- powersum ---------------------------------------------------------------

class SingularSystem(SingularError):
    pass


class UnitCircleRoot(MathDomainError):
    pass
