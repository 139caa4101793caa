"""Exception hierarchy shared across the package."""


class RecourseError(Exception):
    """Base class for all errors raised by this package."""


# --- input validation -------------------------------------------------------

class DimensionMismatch(RecourseError):
    """Vectors or matrices of inconsistent dimension."""


class NotPositiveDefinite(RecourseError):
    """A covariance matrix is not symmetric positive definite."""


class InvalidWeights(RecourseError):
    """Mixture weights are not a probability vector."""


class BadBudget(RecourseError):
    """Cost budget, margin or weight budget out of range."""


# --- worst-case / objective -------------------------------------------------

class ZeroAction(RecourseError):
    """The all-zero action, where the worst-case formulas are 0/0."""


class InfeasibleMargin(RecourseError):
    """Some component has theta^T x - rho*||x|| <= 0, so its worst-case
    probability saturates at the upper end and the gradient is undefined."""

    def __init__(self, components, message=None):
        self.components = tuple(components)
        super().__init__(message or f"robust margin violated for components {self.components}")


class ObjectiveOverflow(RecourseError):
    """One of a = -m^T x, b = sqrt(x^T S x) and c = rho*||x|| is not finite:
    the belief's moments or the action overflow the float range."""


class DualSolveFailed(RecourseError):
    """Inner (lambda, eta) minimization did not reach tolerance."""


# --- feasibility / projection ----------------------------------------------

class DegenerateDirection(RecourseError):
    """A cone constraint with zero classifier direction."""


class EmptyFeasibleSet(RecourseError):
    """The constraint sets have empty intersection (a conflicting spec, or
    a Farkas certificate from the conic kernel)."""


class MaxIterExceeded(RecourseError):
    """Iterative routine hit its iteration cap without converging."""


class Unattainable(RecourseError):
    """No cost budget makes the constraint set nonempty."""


# --- optimizer ---------------------------------------------------------------

class BudgetTooSmall(RecourseError):
    """delta is below delta_min, so the feasible set is empty."""


# --- estimation --------------------------------------------------------------

class NotConvergedWarning(UserWarning):
    """Training stopped short of gradient tolerance: iteration cap or failed line search."""


class EmptyCluster(RecourseError):
    """k-means could not avoid an empty cluster within the restart cap."""


class TooFewSamples(RecourseError):
    """Not enough parameter samples for the requested number of clusters."""


# --- harness / IO ------------------------------------------------------------

class ParseError(RecourseError):
    """Malformed CSV input; carries row/column diagnostics."""


class MissingLabel(RecourseError):
    """Label column absent from the CSV header."""


class NonNumeric(RecourseError):
    """A feature cell could not be parsed as a number."""


class EmptyInput(RecourseError):
    """An operation received an empty list of instances or recourses."""
