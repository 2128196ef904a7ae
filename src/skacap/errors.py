"""Semantic exception hierarchy.

Every error raised on purpose by this package derives from SkacapError so
callers (and the CLI exit-code mapping) can tell deliberate rejections from
genuine bugs.
"""


class SkacapError(Exception):
    """Base class for all errors raised by skacap."""


class ModelError(SkacapError):
    """Invalid model, schema violation, or broken type invariant."""


class LpError(SkacapError):
    """Base class for linear-program solver failures."""


class LpUnboundedError(LpError):
    """The LP objective is unbounded below."""


class LpIterationLimitError(LpError):
    """Pivot cap reached before optimality."""


class LpCertificationError(LpError):
    """A computed optimum failed the post-solve feasibility/duality check."""


class ConvergenceError(SkacapError):
    """An iterative routine hit its iteration cap.

    Carries the final certified gap so callers can decide whether the
    partial answer is usable.
    """

    def __init__(self, message, gap=None):
        super().__init__(message)
        self.gap = gap


class InternalConsistencyError(SkacapError):
    """Two routes to the same quantity disagreed beyond float noise."""


class RateInfeasibleError(SkacapError):
    """Requested key rate exceeds the per-edge extraction budget."""

    def __init__(self, message, max_feasible_rate=None):
        super().__init__(message)
        self.max_feasible_rate = max_feasible_rate


class DecodeBudgetError(SkacapError):
    """Block length too large for the exhaustive syndrome decoder."""
