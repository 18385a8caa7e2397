"""Scalar reference forms that the tests check the package against. They are
written independently of the package's vectorised code and are not part of
its API."""

import math

from droopinertia import CONDITIONING_FLOOR, DroopSchedule, ValidationError


def vdic_coefficient(schedule: DroopSchedule, elapsed: float) -> float:
    """The bounded schedule's droop coefficient at ``elapsed`` seconds:
    clamp(target_inertia / elapsed, lower, upper), the upper bound at 0."""
    if elapsed < 0.0:
        raise ValidationError(f"elapsed must be >= 0, got {elapsed}")
    if elapsed == 0.0:
        return schedule.upper_bound
    return min(schedule.upper_bound,
               max(schedule.lower_bound, schedule.target_inertia / elapsed))


def equivalent_inertia_from_regulation(t_j: float, delta_pf: float, delta_pr: float) -> float:
    """Equivalent inertia increment (seconds) delivered by regulation delta_pr:
    -t_j * delta_pr / (delta_pf + delta_pr), math.inf below the conditioning
    floor."""
    residual = delta_pf + delta_pr
    if abs(residual) < CONDITIONING_FLOOR:
        return math.inf
    return -t_j * delta_pr / residual


def initial_rocof(delta_pf: float, t_j: float, delta_tj: float = 0.0) -> float:
    """RoCoF right after onset with inertia t_j + delta_tj."""
    return delta_pf / (t_j + delta_tj)
