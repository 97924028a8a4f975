"""Exception hierarchy shared across the package.

Every error class maps to a distinct CLI exit code (see ``seirsde.cli``).
"""


class SeirSdeError(Exception):
    """Base class for all package errors."""


class ConfigError(SeirSdeError):
    """Invalid run configuration or config file."""


class SimplexError(SeirSdeError):
    """State rejected at construction: coordinates off the unit simplex."""


class DomainError(SeirSdeError):
    """An operation was evaluated outside its mathematical domain.

    Carries the offending grid index when one is known.
    """

    def __init__(self, message, index=None):
        super().__init__(message if index is None else f"{message} (row {index})")
        self.index = index


class PositivityError(SeirSdeError):
    """A simulated coordinate left [0, 1]; names the first step that did."""

    def __init__(self, step, component, value):
        super().__init__(
            f"component {component!r} left [0, 1] at step {step}: {value!r}"
        )
        self.step = step
        self.component = component
        self.value = value


class ZeroSigmaError(SeirSdeError):
    """sigma = 0 where the operation divides by the noise intensity."""


class EmptySeriesError(SeirSdeError):
    """An incidence series with no records."""


class LengthMismatchError(SeirSdeError):
    """Sequences whose lengths must agree (or meet a minimum) do not."""


class DegenerateDenominatorError(SeirSdeError):
    """A denominator integral fell below the degeneracy guard."""


class SingularSystemError(SeirSdeError):
    """The 2x2 normal-equations system is numerically singular."""


class MissingIncrementsError(SeirSdeError):
    """No Wiener increments available and none were supplied."""


class TooFewPointsError(SeirSdeError):
    """Sample too short for the requested statistic."""


class DegenerateSampleError(SeirSdeError):
    """Sample statistic undefined (zero variance)."""


class WindowViolatedError(SeirSdeError):
    """Every replicate at a study horizon violated the hypothesis window."""


class ParseError(SeirSdeError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class NegativeCountError(SeirSdeError):
    """Incidence counts must be nonnegative."""


class ReplicateError(SeirSdeError):
    """One or more replicates of a Monte Carlo run failed.

    ``failures`` maps replicate index to the underlying exception.
    """

    def __init__(self, failures):
        idx = sorted(failures)
        head = ", ".join(f"{i}: {failures[i]}" for i in idx[:3])
        more = "" if len(idx) <= 3 else f" (+{len(idx) - 3} more)"
        super().__init__(f"{len(idx)} replicate(s) failed: {head}{more}")
        self.failures = dict(failures)
