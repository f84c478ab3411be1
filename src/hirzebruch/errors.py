"""Typed errors raised by the library.

Validation errors collect every violated constraint so a single failed build
reports the full diagnostic list, not just the first problem.
"""

from __future__ import annotations


class HirzebruchError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(HirzebruchError):
    """Invalid cluster data; ``violations`` lists every broken constraint."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ChainBroken(ConfigurationError):
    """A point's parent is not the previous point of the chain."""


class BadSatellite(ConfigurationError):
    """An extra proximity points at a divisor no longer visible at that stage."""


class BadIncidence(ConfigurationError):
    """Curve incidence flags do not describe smooth initial chains."""


class SemigroupOverflow(HirzebruchError):
    """The semigroup computation would exceed the configured value bound."""


class TooManyPoints(HirzebruchError):
    """The configuration has more points than the library accepts."""


class NotRealizable(HirzebruchError):
    """The given value sequence does not arise from any valuation."""


class DimensionMismatch(HirzebruchError):
    """Operands are indexed by different numbers of cluster points."""


class NotATree(HirzebruchError):
    """The intersection graph of exceptional curves is not a tree."""


class NotPseudoeffective(HirzebruchError):
    """The divisor class admits no Zariski decomposition."""


class NegativePartOnEr(HirzebruchError):
    """The last exceptional curve entered a negative part during a sweep."""


class NotNPI(HirzebruchError):
    """The valuation is not non-positive at infinity."""


class EtaNotNPI(NotNPI):
    """The truncated valuation at the flag divisor is not non-positive at infinity."""


class NotBig(HirzebruchError):
    """The divisor class is not big."""


class NotNefBig(NotBig):
    """The operation requires a divisor that is both nef and big."""


class MinimalValuation(HirzebruchError):
    """The operation is only defined for non-minimal valuations."""


class VerificationFailed(HirzebruchError):
    """A cross-check of the computed body against its oracles failed."""

    def __init__(self, clause, detail):
        self.clause = clause
        self.detail = detail
        super().__init__(f"{clause}: {detail}")


class InvariantBroken(VerificationFailed):
    """An internal invariant of the library failed; ``clause`` names it."""


class CaseFormatError(HirzebruchError):
    """A case file does not follow the documented schema."""


class NumberTooLarge(HirzebruchError):
    """A result is too large to write out: an integer past the int-to-str
    digit limit, or a plotted coordinate past the float range."""


def raise_config_errors(violations):
    """Raise the class of the first violation, carrying all messages."""
    if violations:
        cls = violations[0][0]
        raise cls([msg for _, msg in violations])
