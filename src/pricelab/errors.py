"""Exception taxonomy shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; plain ValueError is reserved for argument-domain mistakes.
"""


class PricelabError(Exception):
    """Base class for all package-specific failures."""


class ChainParseError(PricelabError):
    """A chain CSV row failed validation. Carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class NoArbitrageViolation(PricelabError):
    """A quoted price sits outside the static no-arbitrage band."""


class NoConvergence(PricelabError):
    """A bracketed root search exhausted its bracket expansion."""


class DegenerateGeometry(PricelabError):
    """Scatter points do not span two dimensions (collinear or too few)."""


class DegenerateDispersion(PricelabError):
    """A coordinate has zero spread, so a dispersion-based bandwidth is undefined."""


class NumericalUnderflow(PricelabError):
    """Kernel weights underflowed the representable floor at this query."""


class DomainViolation(PricelabError):
    """Parameters fall outside the model's admissible domain."""


class CalibrationFailure(PricelabError):
    """The calibration simplex stalled before meeting its tolerance."""


class NoAtmPairs(PricelabError):
    """No at-the-money call/put pairs exist to estimate a dividend curve from."""


class InsufficientData(PricelabError):
    """Too few usable quotes to fit the requested estimator."""
