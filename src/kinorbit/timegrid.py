"""The fixed-step time grid shared by the float integrators and the CLI.

It needs no NumPy, so the CLI checks a run's step budget, and catches an
integration failure, without loading the float layer.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from numbers import Real
from operator import indexOf

from .records import CatalogError, checked_float

__all__ = [
    "MAX_STEPS", "ROW_BLOCK", "IntegrationError", "first_non_finite", "grid_times", "step_count",
]

# Largest step count a fixed-step run may take; it bounds the state table
# (and the CLI's output rows) before anything is allocated.
MAX_STEPS = 1_000_000

# Rows formed or written at a time; their lists and text stay near a MB.
ROW_BLOCK = 4096


class IntegrationError(RuntimeError):
    """Raised when an integration produces a non-finite state."""

    def __init__(self, message: str, step: int) -> None:
        super().__init__(message)
        self.step = step


def step_count(t_end: float, dt: float) -> int:
    """Number of fixed steps on [0, t_end]: ``round(t_end/dt)``, at least one.

    A ``bool``, or a value that is no real number, raises
    :class:`~kinorbit.records.CatalogError` naming ``t_end`` or ``dt``.
    Raises ``ValueError`` unless both values are positive and finite and
    the count stays within :data:`MAX_STEPS`.  An ``int`` or ``Fraction``
    that no float holds (it overflows, or rounds to 0) raises the
    :class:`OverflowError` of :func:`~kinorbit.records.checked_float`
    naming it, before anything is divided.
    """
    grid = (("t_end", t_end), ("dt", dt))
    for name, value in grid:
        if isinstance(value, bool) or not isinstance(value, Real):
            raise CatalogError(f"{name} must be a real number, got {value!r}")
    if not (0 < t_end < math.inf and 0 < dt < math.inf):
        raise ValueError(
            f"t_end and dt must be positive and finite, got t_end={t_end!r}, dt={dt!r}"
        )
    t_float, dt_float = (
        checked_float(value, name) if isinstance(value, (int, Fraction)) else value
        for name, value in grid
    )
    ratio = t_end / dt  # of the values as given: a Fraction grid counts exactly
    if not ratio <= MAX_STEPS:
        raise ValueError(
            f"t_end/dt = {t_float / dt_float:.6g} exceeds the step budget of {MAX_STEPS} steps"
        )
    return max(1, int(round(ratio)))


def grid_times(t_end: float, n_steps: int) -> array:
    """The ``n_steps + 1`` times of the grid on [0, t_end]: i*h with
    h = t_end/n_steps, and exactly ``t_end`` at the end, as ``np.linspace``
    forms them.  They are formed :data:`ROW_BLOCK` at a time."""
    h = t_end / n_steps
    times = array("d")
    for start in range(0, n_steps + 1, ROW_BLOCK):
        times.fromlist([i * h for i in range(start, min(start + ROW_BLOCK, n_steps + 1))])
    times[-1] = t_end
    return times


def first_non_finite(values) -> int | None:
    """The index of the first inf or nan in ``values``, or None."""
    try:
        return indexOf(map(math.isfinite, values), False)
    except ValueError:
        return None
