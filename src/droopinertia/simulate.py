"""Fixed-step integration of the aggregated swing equation.

The state is the per-unit frequency deviation omega (plus the governor lag
output when a governor is enabled). The imbalance switches on at the event
onset and is held constant; controllers see time elapsed since onset and
are inert before it, so the trace is identically zero up to the onset and
the integration starts exactly there.

Numerics notes, all load-bearing:

* Classic RK4 on the uniform output grid (explicit Euler kept as a config
  option so convergence order can be demonstrated).
* State accumulation is Kahan-compensated. At millisecond steps the RK4
  truncation error sits near 1e-17 p.u., below plain-summation roundoff;
  without compensation a measured convergence order would be noise.
* The VDIC coefficient varies like 1/t right after onset and has kinks at
  its two clamp crossovers. Inside an output step the integrator cuts
  pieces at the crossovers and, while in the 1/t band, limits each internal
  substep to a fixed fraction of elapsed time (geometric refinement toward
  the onset). Output samples stay on the uniform grid; the refinement is a
  deterministic function of the schedule parameters only. A constant
  coefficient k splits an output step into equal substeps with k*h/t_j
  within RK4's stability bound.
* One dispatch (_select_kernel) picks the loop. Under RK4, NoControl,
  ConstantDroop and Vdic themselves (not subclasses) run a kernel from the
  kernels module, specialised to a constant coefficient or to the inline
  clamp(T/t, L, U), with the governor on or off. A kernel does the
  floating-point operations of the generic loop in the same order, so its
  traces are bit-identical to the generic loop's; tests pin the sha256 of
  the output bits. Custom Controller subclasses and integrator="euler"
  take the generic loop, which calls controller.coefficient at each stage.
* A non-finite state is reported as the first non-finite output sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .controllers import Controller, ConstantDroop, GovernorSpec, NoControl, Vdic
from .errors import SimulationDivergedError, ValidationError
from .model import ImbalanceEvent, SimConfig, SystemModel

# fraction of elapsed time used as substep length inside the 1/t band
_BAND_STEP_FRACTION = 0.125
# max lambda*h inside the saturated segment of a VDIC schedule
_SAT_STEP_LIMIT = 0.35
# distinct coefficients allocated at once, which bounds the fixpoint's
# temporaries for a large fleet
_ALLOCATION_CHUNK = 2048


@dataclass(frozen=True)
class Trace:
    """Uniformly sampled simulation output.

    per_ffr_power has one row per FFR id, in roster order; rows sum to
    ffr_power at every sample. It is read-only, and a broadcast of one row
    when every FFR has the same margin and cap or none regulates. rocof is
    the exact ODE right-hand side at each sample state, not a finite
    difference.

    A trace read from CSV may hold omega, droop_active and per_ffr_power
    deferred: the first access to any of them parses all three.
    """

    sample_times: np.ndarray
    omega: np.ndarray
    rocof: np.ndarray
    ffr_power: np.ndarray
    droop_active: np.ndarray
    per_ffr_power: np.ndarray
    ffr_ids: tuple[str, ...]
    onset_time: float

    @property
    def time_step(self) -> float:
        return float(self.sample_times[1] - self.sample_times[0])

    @classmethod
    def _lazy(cls, load, **eager) -> Trace:
        """A trace with the eager fields set and load() -> (omega,
        droop_active, per_ffr_power) called on first access to one of those."""
        trace = object.__new__(cls)
        trace.__dict__.update(eager, _load=load)
        return trace

    def __getattr__(self, name: str):
        # reached only for an attribute that is not set, so a simulated trace
        # never comes here
        load = self.__dict__.get("_load")
        if load is None or name not in _DEFERRED:
            raise AttributeError(f"'Trace' object has no attribute {name!r}")
        self.__dict__.update(zip(_DEFERRED, load()))
        self.__dict__.pop("_load", None)
        return self.__dict__[name]


_DEFERRED = ("omega", "droop_active", "per_ffr_power")


def _roster_check(model: SystemModel, controller: Controller) -> None:
    k_max = controller.max_coefficient
    if k_max <= 0.0:
        return
    if not model.ffrs:
        raise ValidationError(
            "controller requests droop regulation but the model has no FFRs"
        )
    # the margin-weighted split gives an FFR without margin no share, so
    # only the caps of the others can carry the coefficient
    caps = [f.droop_upper_bound for f in model.ffrs if f.regulation_margin > 0.0]
    if not caps:
        raise ValidationError(
            "droop allocation needs at least one FFR with a positive regulation margin"
        )
    if k_max > sum(caps) * (1.0 + 1e-12):
        raise ValidationError(
            f"controller peak droop coefficient {k_max} exceeds the summed "
            f"per-FFR bounds {sum(caps)} of the FFRs with a positive regulation margin"
        )


def simulate(model: SystemModel, event: ImbalanceEvent, controller: Controller,
             config: SimConfig, governor: GovernorSpec | None = None) -> Trace:
    """Integrate the swing equation under the given controller.

    Deterministic: identical inputs give bit-identical traces. An onset at
    or beyond the duration yields an identically-zero trace. Raises
    SimulationDivergedError if the state turns non-finite (for instance a
    controller coefficient evaluating to NaN).
    """
    _roster_check(model, controller)
    gov = governor if governor is not None else GovernorSpec(enabled=False)

    dt = config.time_step
    n = int(round(config.duration / dt))
    times = np.arange(n + 1) * dt
    elapsed = times - event.onset_time
    tol = 1e-9 * dt
    elapsed[np.abs(elapsed) <= tol] = 0.0
    i_first = int(np.searchsorted(elapsed, 0.0, side="left"))

    omega = np.zeros(n + 1)
    gov_series = np.zeros(n + 1)

    t_j = float(model.total_inertia)
    g = float(gov.droop_gain) if gov.enabled else 0.0
    tg = float(gov.time_constant) if gov.enabled else 1.0
    kernel = _select_kernel(controller, t_j, config.integrator == "rk4", gov.enabled)
    kernel(elapsed, i_first, omega, gov_series, float(event.delta_pf), t_j, g, tg)

    finite = np.isfinite(omega) & np.isfinite(gov_series)
    if not finite.all():
        j = int(np.argmin(finite))
        raise SimulationDivergedError(
            f"non-finite state at sample {j} (t = {times[j]:.6g} s); "
            "check controller parameters", j
        )
    return _assemble_trace(model, event, controller, times, elapsed, omega, gov_series)


def _select_kernel(controller: Controller, t_j: float, rk4: bool, governed: bool):
    """The integration loop for this run, as a callable
    (elapsed, i_first, omega, gov_series, delta_pf, t_j, gain, time_constant)
    that fills omega and gov_series from sample i_first on.

    Built-in controllers fix the substep plan; exactly-typed built-ins under
    RK4 get a specialised kernel, everything else the generic loop."""
    # imported here so that commands which never integrate, such as
    # estimate, do not compile it at start-up
    from . import kernels

    stability = 2.0 if rk4 else 1.0
    if isinstance(controller, Vdic):
        sch = controller.schedule
        plan = (sch.saturation_end, sch.floor_start, _SAT_STEP_LIMIT * t_j / sch.upper_bound,
                stability * t_j / sch.lower_bound, _BAND_STEP_FRACTION)
        if rk4 and type(controller) is Vdic:
            kernel = kernels.rk4_vdic_governed if governed else kernels.rk4_vdic
            return partial(kernel, float(sch.target_inertia), float(sch.upper_bound),
                           float(sch.lower_bound), *plan)
        pieces = partial(_vdic_pieces, *plan)
    else:
        k = float(controller.k_total) if isinstance(controller, ConstantDroop) else 0.0
        cap = stability * t_j / k if k > 0.0 else math.inf
        if rk4 and type(controller) in (ConstantDroop, NoControl):
            kernel = kernels.rk4_constant_governed if governed else kernels.rk4_constant
            return partial(kernel, k, cap)
        pieces = partial(_uniform_pieces, cap)
    return partial(_generic, controller.coefficient, pieces, rk4)


def _uniform_pieces(cap: float, a: float, b: float):
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


def _vdic_pieces(t_sat: float, t_floor: float, cap_sat: float, cap_floor: float,
                 q: float, a: float, b: float):
    """(start, length) substeps covering [a, b] under a bounded VDIC schedule:
    cut at the clamp crossovers, capped in the saturated and floor segments,
    the fraction q of elapsed time in the 1/t band."""
    t = a
    while t < b:
        if t < t_sat:
            h = min(b - t, t_sat - t, cap_sat)
        elif t < t_floor:
            h = min(b - t, t_floor - t, q * t)
        else:
            h = min(b - t, cap_floor)
        if b - (t + h) < 1e-15 * b:
            h = b - t
        yield t, h
        t = t + h


def _generic(coef, pieces, rk4, elapsed, i_first, omega, gov_series, dpf, t_j, g, tg):
    """RK4 or explicit Euler over any controller's coefficient(elapsed)."""
    w = cw = p = cp = 0.0  # state + Kahan compensations
    a = 0.0
    for j in range(i_first, elapsed.size):
        b = elapsed[j]
        if b > a:
            if rk4:
                for t0, h in pieces(a, b):
                    half = 0.5 * h
                    tm = t0 + half
                    k1w = (dpf - coef(t0) * w + p) / t_j
                    k1p = (-g * w - p) / tg
                    w2 = w + half * k1w
                    p2 = p + half * k1p
                    km = coef(tm)
                    k2w = (dpf - km * w2 + p2) / t_j
                    k2p = (-g * w2 - p2) / tg
                    w3 = w + half * k2w
                    p3 = p + half * k2p
                    k3w = (dpf - km * w3 + p3) / t_j
                    k3p = (-g * w3 - p3) / tg
                    w4 = w + h * k3w
                    p4 = p + h * k3p
                    k4w = (dpf - coef(t0 + h) * w4 + p4) / t_j
                    k4p = (-g * w4 - p4) / tg
                    inc = (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
                    y = inc - cw
                    s = w + y
                    cw = (s - w) - y
                    w = s
                    inc = (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
                    y = inc - cp
                    s = p + y
                    cp = (s - p) - y
                    p = s
            else:
                for t0, h in pieces(a, b):
                    inc = h * ((dpf - coef(t0) * w + p) / t_j)
                    incp = h * ((-g * w - p) / tg)
                    y = inc - cw
                    s = w + y
                    cw = (s - w) - y
                    w = s
                    y = incp - cp
                    s = p + y
                    cp = (s - p) - y
                    p = s
            a = b
        omega[j] = w
        gov_series[j] = p
        if not (math.isfinite(w) and math.isfinite(p)):
            return  # simulate reports the first non-finite sample


def _assemble_trace(model, event, controller, times, elapsed, omega, gov_series) -> Trace:
    post = elapsed >= 0.0
    droop_active = _coefficient_series(controller, elapsed, post)
    ffr_power = -droop_active * omega
    rocof = np.where(post, (event.delta_pf + ffr_power + gov_series) / model.total_inertia, 0.0)

    ffrs = model.ffrs
    if not ffrs or controller.max_coefficient <= 0.0:
        per_ffr_power = np.broadcast_to(0.0, (len(ffrs), times.size))
    else:
        # the split of one coefficient does not depend on the sample, so it
        # is computed once per distinct bit pattern (-0.0 and NaN included)
        distinct, inverse = np.unique(droop_active.view(np.int64), return_inverse=True)
        distinct = distinct.view(np.float64)
        identical = len({(f.regulation_margin, f.droop_upper_bound) for f in ffrs}) == 1
        rows = 1 if identical else len(ffrs)  # identical FFRs get bit-identical rows
        per_ffr_coef = np.empty((rows, distinct.size))
        for lo in range(0, distinct.size, _ALLOCATION_CHUNK):
            chunk = slice(lo, lo + _ALLOCATION_CHUNK)
            per_ffr_coef[:, chunk] = _allocate_series(distinct[chunk], ffrs)[:rows]
        # read-only, and a view of one row for identical FFRs
        per_ffr_power = np.broadcast_to(per_ffr_coef[:, inverse] * -omega, (len(ffrs), times.size))

    return Trace(
        sample_times=times,
        omega=omega,
        rocof=rocof,
        ffr_power=ffr_power,
        droop_active=droop_active,
        per_ffr_power=per_ffr_power,
        ffr_ids=tuple(f.id for f in model.ffrs),
        onset_time=event.onset_time,
    )


def _coefficient_series(controller: Controller, elapsed: np.ndarray,
                        post: np.ndarray) -> np.ndarray:
    """Vectorized controller.coefficient over the sample grid (0 before onset)."""
    k = np.zeros_like(elapsed)
    if isinstance(controller, Vdic):
        sch = controller.schedule
        pos = elapsed > 0.0
        with np.errstate(divide="ignore"):
            k[pos] = np.minimum(
                sch.upper_bound,
                np.maximum(sch.lower_bound, sch.target_inertia / elapsed[pos]),
            )
        k[post & ~pos] = sch.upper_bound
    elif isinstance(controller, ConstantDroop):
        k[post] = controller.k_total
    elif not isinstance(controller, NoControl):
        # custom controller: fall back to per-sample queries
        idx = np.nonzero(post)[0]
        k[idx] = [controller.coefficient(float(e)) for e in elapsed[idx]]
    return k


def _allocate_series(k_total: np.ndarray, ffrs) -> np.ndarray:
    """Margin-proportional allocation with per-FFR caps, vectorized over samples:
    a share over its cap is pinned there and the rest split the surplus."""
    margins = np.array([f.regulation_margin for f in ffrs])
    caps = np.array([f.droop_upper_bound for f in ffrs])
    n = len(ffrs)
    s = k_total.size
    out = np.zeros((n, s))
    active = np.ones((n, s), dtype=bool)
    remaining = k_total.copy()
    for _ in range(n + 1):
        weight = np.where(active, margins[:, None], 0.0).sum(axis=0)
        safe_weight = np.where(weight > 0.0, weight, 1.0)
        share = np.where(
            active, remaining[None, :] * margins[:, None] / safe_weight[None, :], 0.0
        )
        over = active & (share > caps[:, None])
        if not over.any():
            out = np.where(active, share, out)
            break
        out = np.where(over, caps[:, None], out)
        remaining = remaining - np.where(over, caps[:, None], 0.0).sum(axis=0)
        active &= ~over
    return out
