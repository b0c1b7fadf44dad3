"""Exception and warning types shared across the package, and the frame
rule its warnings are attributed by."""

import sys


class QhoCalError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(QhoCalError, ValueError):
    """Invalid configuration input (bad key, unparsable value, broken invariant)."""


class SimulationError(QhoCalError, RuntimeError):
    """Numerical failure during simulation or integration (underflow,
    positivity loss, truncation blow-up, quadrature non-convergence)."""


class GridMismatchError(QhoCalError, ValueError):
    """Requested time is not on the checkpoint grid, or two grids disagree."""


class InsufficientDataError(QhoCalError, ValueError):
    """Too few samples to form the requested statistic."""


class TruncationWarning(UserWarning):
    """Population is leaking into the highest Fock level kept."""


class RegimeWarning(UserWarning):
    """Parameters leave the regime an approximation was derived for."""


class PrecisionLossWarning(UserWarning):
    """Result may have lost precision (extreme quantum numbers)."""


def outside_stacklevel() -> int:
    """The ``warnings.warn`` stacklevel, for a warning raised by the caller of
    this function, of the first stack frame outside this package. A package
    function may be called by others in it, and a generator is resumed by
    whoever calls next() on it, so a fixed stacklevel would attribute a
    warning to a line of the package instead of to its user. A module run
    as ``python -m`` is named ``__main__``, so its ``__spec__`` is read too."""
    frame, level = sys._getframe(1), 1
    while frame is not None and _in_package(frame.f_globals):
        frame, level = frame.f_back, level + 1
    return level


def _in_package(module_globals: dict) -> bool:
    spec = module_globals.get("__spec__")
    names = (module_globals.get("__name__", ""), getattr(spec, "name", None) or "")
    return any(name.split(".")[0] == __package__ for name in names)
