"""Exception hierarchy shared across the package."""

from __future__ import annotations


class QfsError(Exception):
    """Base class for all qfractal errors."""


class DimensionMismatchError(QfsError):
    """Operands disagree on local dimension, qudit count, or phase order."""


class AmplitudeOverflowError(QfsError):
    """Colliding amplitudes do not net to a single ring element.

    The sparse amplitude ring only represents unit phases times radical
    magnitudes, so a sum outside the ring is refused rather than rounded.
    """


class GuardExceededError(QfsError):
    """A desk-scale size ceiling (entries, qudits, key bits, dense dimension) was hit."""


class ScaleRuleError(QfsError):
    """A scale rule is structurally invalid or cannot be applied."""


class CodeError(QfsError):
    """Encoding or decoding failed (malformed register, wrong code kind)."""


class AnalysisError(QfsError):
    """An analysis precondition failed (non-uniform support, non-snappable value)."""


class FormatError(QfsError):
    """A state or rule file violates the text format."""
