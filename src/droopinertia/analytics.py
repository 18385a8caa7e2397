"""Closed-form frequency solutions and the equivalent-inertia estimator.

The central quantity is the equivalent inertia increment delta_tj: the
inertia increase that would reproduce the same RoCoF as a given total FFR
power regulation delta_pr under imbalance delta_pf,

    delta_tj = -t_j * delta_pr / (delta_pf + delta_pr).

Everything in this module is pure arithmetic on scalars or trace arrays;
these functions double as independent oracles for the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .integrate import Trace, _onset_index
from .model import _require_nonnegative

#: below this |delta_pf + delta_pr| the equivalent inertia is unbounded
#: (regulation fully offsets the imbalance) and estimates are flagged invalid
CONDITIONING_FLOOR = 1e-9


@dataclass(frozen=True)
class InertiaEstimate:
    """Time-resolved equivalent inertia recovered from a trace.

    delta_tj is math.inf where the estimate is unbounded; valid_mask is False
    there and on all pre-onset samples.
    """

    sample_times: np.ndarray
    delta_tj: np.ndarray
    valid_mask: np.ndarray


def estimate_from_trace(trace: Trace, t_j: float, delta_pf: float) -> InertiaEstimate:
    """Samplewise equivalent inertia from a trace's recorded FFR power.

    Uses the recorded regulating power directly (the relation is algebraic
    in delta_pr), so no numerical differentiation enters.
    """
    if delta_pf == 0.0 or not math.isfinite(delta_pf):
        raise ValidationError(f"delta_pf must be finite and nonzero, got {delta_pf}")
    t = trace.sample_times
    i_on = _onset_index(t, trace.onset_time, trace.time_step)
    if i_on == t.size:
        raise ValidationError("trace has no post-onset samples to estimate from")
    residual = delta_pf + trace.ffr_power
    conditioned = np.abs(residual) >= CONDITIONING_FLOOR
    delta_tj = np.where(
        conditioned,
        -t_j * trace.ffr_power / np.where(conditioned, residual, 1.0),
        math.inf,
    )
    conditioned[:i_on] = False  # so it is the valid mask
    return InertiaEstimate(
        sample_times=t,
        delta_tj=delta_tj,
        valid_mask=conditioned,
    )


def _elapsed(elapsed) -> np.ndarray:
    """elapsed, scalar or array, as an array, refused if any of it is < 0."""
    elapsed = np.asarray(elapsed)
    if np.any(elapsed < 0.0):
        raise ValidationError("elapsed must be >= 0")
    return elapsed


def closed_form_omega_constant_droop(delta_pf: float, k_total: float, t_j: float,
                                     elapsed) -> float | np.ndarray:
    """Frequency deviation under constant-droop regulation:
    (delta_pf / k_total) * (1 - exp(-k_total * elapsed / t_j)).

    Accepts scalar or array elapsed. For k_total = 0 use
    closed_form_omega_constant_inertia with delta_tj = 0 instead.
    """
    if k_total <= 0.0:
        raise ValidationError(
            f"k_total must be > 0 (got {k_total}); the zero-droop response is "
            "the linear constant-inertia form"
        )
    # -expm1 keeps the small-time limit accurate
    return (delta_pf / k_total) * -np.expm1(-k_total * _elapsed(elapsed) / t_j)


def equivalent_inertia_constant_droop(k_total: float, t_j: float,
                                      elapsed) -> float | np.ndarray:
    """Equivalent inertia increment of constant droop at a given elapsed time:
    t_j * (exp(k_total * elapsed / t_j) - 1).

    Grows from 0 (no inertia benefit immediately after onset) without bound;
    independent of the imbalance by construction.
    """
    _require_nonnegative("k_total", k_total)
    return t_j * np.expm1(k_total * _elapsed(elapsed) / t_j)


def closed_form_omega_constant_inertia(delta_pf: float, t_j: float, delta_tj: float,
                                       elapsed) -> float | np.ndarray:
    """Frequency deviation with inertia t_j + delta_tj and no regulation:
    the linear ramp delta_pf * elapsed / (t_j + delta_tj)."""
    if t_j + delta_tj <= 0.0:
        raise ValidationError(f"t_j + delta_tj must be > 0, got {t_j + delta_tj}")
    return delta_pf * _elapsed(elapsed) / (t_j + delta_tj)
