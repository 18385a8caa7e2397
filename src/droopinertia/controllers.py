"""FFR power-regulation strategies and the slow generator governor.

Every strategy is a droop law: regulating power = -k * omega, where k is
the total droop coefficient of all FFRs. The strategies differ only in how
k evolves with time elapsed since the imbalance:

* no control          k = 0
* constant droop      k = k_total
* VDIC                k = clamp(target_inertia / elapsed, lower, upper)

The VDIC coefficient follows an inverse-time schedule so that the delivered
regulating power mimics a constant inertia increase of ``target_inertia``
seconds; the clamp bounds keep it realizable (finite power electronics
limits above, retained steady-state frequency support below).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import _require_bool, _require_nonnegative, _require_positive


@dataclass(frozen=True)
class DroopSchedule:
    """Bounded inverse-time droop schedule.

    Attributes:
        target_inertia: inertia increase the schedule emulates, seconds.
        upper_bound: saturation value of the droop coefficient near
            elapsed = 0 (the 1/t law diverges there).
        lower_bound: floor keeping steady-state frequency support; usually
            the steady-state-optimal constant droop coefficient.
    """

    target_inertia: float
    upper_bound: float
    lower_bound: float

    def __post_init__(self):
        _require_positive("DroopSchedule.target_inertia", self.target_inertia)
        _require_positive("DroopSchedule.upper_bound", self.upper_bound)
        _require_positive("DroopSchedule.lower_bound", self.lower_bound)
        if self.lower_bound > self.upper_bound:
            raise ValidationError(
                f"DroopSchedule.lower_bound ({self.lower_bound}) exceeds "
                f"upper_bound ({self.upper_bound})"
            )


@dataclass(frozen=True)
class GovernorSpec:
    """Slow primary frequency control of the aggregated generators.

    Modeled as a first-order lag tracking -droop_gain * omega. Disabled by
    default; enable only for case replication, never for closed-form
    verification runs. enabled must be a bool. Its gain and time constant
    are checked whether or not it is enabled.
    """

    enabled: bool = False
    droop_gain: float = 25.0
    time_constant: float = 8.0

    def __post_init__(self):
        _require_bool("GovernorSpec.enabled", self.enabled)
        _require_positive("GovernorSpec.droop_gain", self.droop_gain)
        _require_positive("GovernorSpec.time_constant", self.time_constant)


# --------------------------------------------------------------------------
# controller objects consumed by the simulator
# --------------------------------------------------------------------------

class Controller:
    """Base droop-law controller. A subclass defines its law once, as
    coefficients(elapsed): the total droop coefficient at each of an array of
    post-onset elapsed times, elementwise. The integrator evaluates it over
    its substeps, and a trace's droop_active over its post-onset samples."""

    def coefficients(self, elapsed: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def segments(self) -> tuple[tuple[float, float, str, float], ...]:
        """The law's pieces in order over elapsed time, (start, end, kind,
        value): kind "constant" is k = value, "inverse" k = value / t. Empty
        when they are not known; the integrator then plans equal substeps."""
        return ()


class ConstantDroop(Controller):
    def __init__(self, k_total: float):
        self.k_total = _require_nonnegative("k_total", k_total)

    def coefficients(self, elapsed: np.ndarray) -> np.ndarray:
        return np.full(elapsed.shape, self.k_total)


class NoControl(ConstantDroop):
    """Constant droop at k = 0: FFRs idle, only inertia and the governor act."""

    def __init__(self):
        super().__init__(0.0)


class Vdic(Controller):
    def __init__(self, schedule: DroopSchedule):
        if not isinstance(schedule, DroopSchedule):
            raise ValidationError(f"schedule must be a DroopSchedule, got {schedule!r}")
        self.schedule = schedule

    def coefficients(self, elapsed: np.ndarray) -> np.ndarray:
        if (elapsed < 0.0).any():
            raise ValidationError(f"elapsed must be >= 0, got {elapsed.min()}")
        s = self.schedule
        with np.errstate(divide="ignore", over="ignore"):  # elapsed 0 takes the upper bound
            k = np.minimum(s.upper_bound, np.maximum(s.lower_bound, s.target_inertia / elapsed))
        return np.where(elapsed > 0.0, k, s.upper_bound)

    def segments(self) -> tuple[tuple[float, float, str, float], ...]:
        """Saturated at the upper bound up to T/U, T/t in the band, and the
        floor from T/L on."""
        s = self.schedule
        t_sat, t_floor = s.target_inertia / s.upper_bound, s.target_inertia / s.lower_bound
        return ((0.0, t_sat, "constant", s.upper_bound),
                (t_sat, t_floor, "inverse", s.target_inertia),
                (t_floor, math.inf, "constant", s.lower_bound))
