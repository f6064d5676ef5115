"""Exception hierarchy for the qpn package.

Every error raised by the library derives from QpnError so callers can catch
broadly; the CLI maps subclasses onto exit codes.
"""

from __future__ import annotations


class QpnError(Exception):
    """Base class for all qpn errors.

    ``step_index`` is the index of the firing within a run at which the error
    arose (None outside a run); when set, the message ends with it.
    """

    step_index: int | None = None

    def __str__(self) -> str:
        text = super().__str__()
        return text if self.step_index is None else f"{text} (at step {self.step_index})"


# --- expression language ---------------------------------------------------


class ExprError(QpnError):
    """Base class for weight-expression errors."""


class ExprSyntaxError(ExprError):
    """Malformed expression text.

    Carries the 1-based line/column of the offending token and the set of
    token descriptions that would have been accepted there.
    """

    def __init__(self, message: str, line: int, column: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.column = column
        self.expected = expected
        suffix = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at line {line}, column {column}{suffix}")


class UnknownFunctionError(ExprSyntaxError):
    """Function name other than cos/sin/sqrt."""


class MalformedNumberError(ExprSyntaxError):
    """Numeric literal that cannot be read as a decimal."""


class EvaluationError(ExprError):
    """Weight expression failed to evaluate against a marking."""


class DivisionByZeroError(EvaluationError):
    pass


class NegativeSqrtError(EvaluationError):
    pass


class NonFiniteResultError(EvaluationError):
    pass


class UnknownPlaceError(EvaluationError):
    """Marking reference to a place the net does not declare."""


# --- net structure and execution -------------------------------------------


class NetDefinitionError(QpnError):
    """Structurally invalid net (dangling arc endpoints, duplicate ids...)."""


class NotEnabledError(QpnError):
    """fire() called on a transition that is not enabled."""


class CounterViolationError(QpnError):
    """A counter place would take a negative or non-integer token count."""


class ZeroWeightGroupError(QpnError):
    """Every member of the chosen conflict group has zero squared output weight."""


class DeterminismViolationError(QpnError):
    """A run expected to be conflict-free reached a marking with several enabled transitions."""


class StepLimitError(QpnError):
    """Run exceeded max_steps where quiescence was required."""


# --- quantum mapping --------------------------------------------------------


class NotNormalizedError(QpnError):
    """measure() without normalize on a distribution whose total is not 1."""


class AllZeroError(QpnError):
    """measure() on a marking with zero probability everywhere."""


# --- oracles and analysis ---------------------------------------------------


class InvalidParamsError(QpnError):
    """Protocol parameters outside their documented domain."""


class MultipleGroupsError(QpnError):
    """Exact distribution requested for a marking with several conflict groups."""


class NotIntegerNetError(QpnError):
    """Reachability requested on a net with amplitude places or non-integer weights."""


class StateExplosionError(QpnError):
    """Bounded exploration exceeded its state budget."""


class NonConstantWeightsError(QpnError):
    """Incidence matrix requested for a net with marking-dependent weights."""


class PredicateError(QpnError):
    """Malformed or unevaluable marking predicate."""


# --- net files ---------------------------------------------------------------


class NetFileError(QpnError):
    """Base class for .qpn parsing errors; carries the offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class NetFileSyntaxError(NetFileError):
    pass


class DuplicateIdError(NetFileError):
    pass


class UndeclaredReferenceError(NetFileError):
    pass


class InvalidInitialMarkingError(NetFileError):
    pass
