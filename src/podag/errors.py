"""Exception types shared across the package."""


class PodagError(Exception):
    """Base class for all errors raised by this package."""


class CycleError(PodagError):
    """Raised when an edge set contains a directed cycle."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("edge set contains a directed cycle: " + " -> ".join(map(str, self.cycle)))


class InconsistencyError(PodagError):
    """Raised when orientation rules force an edge in both directions.

    Carries the offending node pair (and triple, when known) as indices;
    the message names the nodes by ``labels`` when given.  Conflicts
    indicate contradictory separating sets, which are worth reporting
    rather than silently arbitrating.
    """

    def __init__(self, pair, triple=None, message=None, labels=None):
        self.pair = tuple(pair)
        self.triple = tuple(triple) if triple is not None else None

        def names(nodes):
            return "(" + ", ".join(str(v) if labels is None else labels[v] for v in nodes) + ")"

        msg = message or f"conflicting orientations for edge {names(self.pair)}"
        if self.triple is not None:
            msg += f" (triple {names(self.triple)})"
        super().__init__(msg)


class SingularityError(PodagError):
    """Raised when a conditioning covariance block is numerically singular."""

    def __init__(self, context=None, message="singular conditioning covariance"):
        self.context = context
        if context is not None:
            message = f"{message} for (i, j, S) = {context}"
        super().__init__(message)


class InsufficientDataError(PodagError):
    """Raised when the sample size cannot support the requested computation."""


class DegenerateDataError(PodagError):
    """Raised when the data are degenerate (e.g. a constant column)."""


class SelectionError(PodagError):
    """Raised when model selection cannot pick a value (e.g. no converged fit)."""


class LabelMismatchError(PodagError):
    """Raised when node labels disagree between inputs."""

    def __init__(self, offending, message="node labels do not match"):
        self.offending = sorted(offending)
        super().__init__(f"{message}: {self.offending}")

