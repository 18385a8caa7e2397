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


def uniform_pieces(cap: float, a: float, b: float):
    """(start, length) substeps splitting [a, b] into equal pieces no longer
    than cap."""
    if b - a <= cap:
        yield a, b - a
        return
    m = math.ceil((b - a) / cap)
    h = (b - a) / m
    t = a
    for _ in range(m):
        yield t, h
        t = t + h


def vdic_pieces(t_sat: float, t_floor: float, cap_sat: float, cap_floor: float,
                q: float, a: float, b: float):
    """(start, length) substeps covering [a, b] under a bounded VDIC schedule:
    cut at the clamp crossovers, capped in the saturated and floor segments,
    the fraction q of elapsed time in the 1/t band; a piece leaving less
    than 1e-15 * b of [a, b] takes the rest, and ends the step at b."""
    t = a
    while t < b:
        if t < t_sat:
            h = min(b - t, t_sat - t, cap_sat)
        elif t < t_floor:
            h = min(b - t, t_floor - t, q * t)
        else:
            h = min(b - t, cap_floor)
        tail = b - (t + h) < 1e-15 * b
        yield t, b - t if tail else h
        t = b if tail else t + h
