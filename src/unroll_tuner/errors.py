"""Exception hierarchy shared across the tuner pipeline."""

from __future__ import annotations


class UnrollTunerError(Exception):
    """Base class for every error raised by this package."""


# --- IR / schedule ---------------------------------------------------------

class UnknownLevel(UnrollTunerError):
    pass


class FactorNotPowerOfTwo(UnrollTunerError):
    pass


class FactorOutOfRange(UnrollTunerError):
    pass


class InvalidFactor(UnrollTunerError):
    pass


class DepthExceedsMax(UnrollTunerError):
    pass


# --- featurize / dataset ---------------------------------------------------

class EmptyTrainingSet(UnrollTunerError):
    pass


class LabelNotInClassSet(UnrollTunerError):
    pass


class HeaderMismatch(UnrollTunerError):
    pass


class MalformedRow(UnrollTunerError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class AllClassesBelowMinimum(UnrollTunerError):
    pass


class TooFewRows(UnrollTunerError):
    pass


# --- backend ---------------------------------------------------------------

class ToolchainMissing(UnrollTunerError):
    pass


class CompileError(UnrollTunerError):
    def __init__(self, diagnostics: str):
        super().__init__(f"kernel compilation failed:\n{diagnostics}")
        self.diagnostics = diagnostics


class RunTimeout(UnrollTunerError):
    pass


class KernelRunError(UnrollTunerError):
    """A kernel that compiled exited non-zero or printed unparseable output."""


class KernelMismatch(UnrollTunerError):
    """Unrolled variants of one schedule computed different outputs."""


# --- mlp / eval ------------------------------------------------------------

class DimensionMismatch(UnrollTunerError):
    pass


class EmptySplit(UnrollTunerError):
    pass


class ModelNotTrained(UnrollTunerError):
    pass


class FormatVersionMismatch(UnrollTunerError):
    pass


class CorruptFile(UnrollTunerError):
    pass


class NonPositiveTime(UnrollTunerError):
    pass


class EmptyTestSet(UnrollTunerError):
    pass


class ParseError(UnrollTunerError):
    """Raised by the program/schedule text parser."""
