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
  deterministic function of the schedule parameters only. Any other law
  splits an output step into equal substeps with k*h/t_j within the
  integrator's stability bound, k the law's peak over the samples.
* Every controller takes one path: plan, evaluate, step. For a block of
  output samples numpy plans the substeps (_vdic_plan for a Vdic, whose
  breakpoints are the only thing read off a controller's type, else
  _uniform_plan), controller.coefficients is evaluated over their starts,
  midpoints and ends, and a loop of the kernels module steps the state
  through them: RK4 with the governor off or on, or Euler. A subclass that
  keeps a built-in's law gets its bits; tests pin the sha256 of the output
  bits. droop_active is the same law over the samples.
* A non-finite state is reported as the first non-finite output sample.
* The fleet's split of the law, per_ffr_power, is allocated on its first
  read, from the trace's own omega and droop_active; simulate checks only
  that the fleet can carry the law's peak. A caller that summarizes and
  estimates never pays for it, and one that writes the trace pays the same,
  later.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np

from .controllers import Controller, GovernorSpec, Vdic
from .errors import SimulationDivergedError, ValidationError
from .model import ImbalanceEvent, SimConfig, SystemModel

# fraction of elapsed time used as substep length inside the 1/t band
_BAND_STEP_FRACTION = 0.125
# max lambda*h inside the saturated segment of a VDIC schedule
_SAT_STEP_LIMIT = 0.35
# distinct coefficients allocated at once, which bounds the fixpoint's
# temporaries for a large fleet
_ALLOCATION_CHUNK = 2048
# output samples whose substeps are planned, and the law evaluated over, at
# once, and the substeps a block is sized to hold when a sample has several
_PLAN_BLOCK = 1024
_PLAN_SUBSTEPS = 8192
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class Trace:
    """Uniformly sampled simulation output.

    per_ffr_power has one row per FFR id, in roster order; rows sum to
    ffr_power at every sample. It is read-only, and a broadcast of one row
    when every FFR has the same margin and cap or none regulates. rocof is
    the exact ODE right-hand side at each sample state, not a finite
    difference.

    A trace may hold fields deferred, computed together on the first access
    to one of them: simulate defers per_ffr_power, which it allocates then
    from omega and droop_active as they are at that access, and
    read_trace_csv defers omega, droop_active and per_ffr_power.
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
        """A trace with the eager fields set and load() -> {field: value} of
        the other fields called on first access to one of those."""
        trace = object.__new__(cls)
        trace.__dict__.update(eager, _load=load)
        return trace

    def __getattr__(self, name: str):
        # reached only for an attribute that is not set: a deferred field
        # before its first access, or no field at all
        load = self.__dict__.get("_load")
        if load is None or name not in self.__dataclass_fields__:
            raise AttributeError(f"'Trace' object has no attribute {name!r}")
        self.__dict__.update(load())
        del self.__dict__["_load"]
        return self.__dict__[name]


def _roster_check(model: SystemModel, peak: float) -> None:
    if peak <= 0.0:
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
    if peak > sum(caps) * (1.0 + 1e-12):
        raise ValidationError(
            f"controller peak droop coefficient {peak} exceeds the summed "
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
    gov = governor if governor is not None else GovernorSpec(enabled=False)

    dt = config.time_step
    steps = config.duration / dt
    try:
        times = np.arange(round(steps) + 1) * dt
        omega, gov_series = np.zeros(times.size), np.zeros(times.size)
    except (MemoryError, OverflowError, ValueError) as exc:
        raise ValidationError(f"a grid of {steps + 1:.6g} samples (sim.duration_s / "
                              f"sim.time_step_s + 1) cannot be allocated: {exc}") from exc
    elapsed = times - event.onset_time
    tol = 1e-9 * dt
    elapsed[np.abs(elapsed) <= tol] = 0.0
    i_first = int(np.searchsorted(elapsed, 0.0, side="left"))

    # the law over the samples; its peak is what the fleet must carry and
    # what bounds a uniform substep
    droop_active = np.zeros_like(elapsed)
    droop_active[i_first:] = _checked_law(controller, elapsed[i_first:])
    peak = float(droop_active.max())
    _roster_check(model, peak)

    t_j = float(model.total_inertia)
    g = float(gov.droop_gain) if gov.enabled else 0.0
    tg = float(gov.time_constant) if gov.enabled else 1.0
    rk4 = config.integrator == "rk4"
    stability = 2.0 if rk4 else 1.0
    if isinstance(controller, Vdic):
        sch = controller.schedule
        plan = partial(_vdic_plan, sch.saturation_end, sch.floor_start,
                       _SAT_STEP_LIMIT * t_j / sch.upper_bound,
                       stability * t_j / sch.lower_bound, _BAND_STEP_FRACTION)
    else:
        plan = partial(_uniform_plan, stability * t_j / peak if peak > 0.0 else math.inf)
    # imported here so that commands which never integrate, such as
    # estimate, do not compile the loops at start-up
    from . import kernels

    step = (kernels.rk4_governed if gov.enabled else kernels.rk4) if rk4 else kernels.euler
    step(chain.from_iterable(_substeps(controller, plan, elapsed, i_first)),
         omega, gov_series, float(event.delta_pf), t_j, g, tg)

    finite = np.isfinite(omega) & np.isfinite(gov_series)
    if not finite.all():
        j = int(np.argmin(finite))
        raise SimulationDivergedError(
            f"non-finite state at sample {j} (t = {times[j]:.6g} s); "
            "check controller parameters", j
        )
    return _assemble_trace(model, event, times, i_first, droop_active, peak, omega, gov_series)


def _checked_law(controller: Controller, elapsed: np.ndarray) -> np.ndarray:
    """controller.coefficients(elapsed), once it is a float ndarray of
    elapsed's shape with no negative value (NaN passes, and diverges)."""
    law = controller.coefficients(elapsed)
    name = type(controller).__name__
    if not (isinstance(law, np.ndarray) and law.dtype.kind == "f"
            and law.shape == elapsed.shape):
        raise ValidationError(
            f"{name}.coefficients must return a float ndarray of shape {elapsed.shape}, "
            f"got {type(law).__name__} of shape {np.asarray(law, dtype=object).shape}")
    _refuse_negative(controller, law, elapsed)
    return law


def _refuse_negative(controller: Controller, law: np.ndarray, elapsed: np.ndarray) -> None:
    """Raise ValidationError naming the earliest elapsed time where law, the
    controller's coefficients there, is negative."""
    negative = np.flatnonzero(law < 0.0)
    if negative.size:
        j = negative[np.argmin(elapsed[negative])]
        raise ValidationError(f"{type(controller).__name__}.coefficients is negative "
                              f"({float(law[j])!r}) at elapsed time {float(elapsed[j])!r} "
                              "s after the onset")


def _substeps(controller, plan, elapsed, i_first):
    """Per block of output samples from i_first on, a zip of
    (sample index, h, k1, km, k4) over the substeps that plan(a, b) gives
    for the samples' steps [a, b] (a = 0 at i_first), with the controller's
    law evaluated at once over their starts, midpoints and ends, none of
    them negative. The first block is one sample. Each next one holds
    _PLAN_BLOCK samples, or fewer if at the last block's substeps per sample
    that many would hold more than _PLAN_SUBSTEPS substeps, so that a stiff
    run plans a few at a time."""
    first, n = i_first, 1
    while first < elapsed.size:
        b = elapsed[first:first + n]
        a = np.concatenate(([elapsed[first - 1] if first > i_first else 0.0], b[:-1]))
        steps = np.flatnonzero(b > a)
        owner, t0, h = plan(a[steps], b[steps])
        times = np.concatenate((t0, t0 + 0.5 * h, t0 + h))
        law = controller.coefficients(times)
        _refuse_negative(controller, law, times)
        yield zip((steps[owner] + first).tolist(), h.tolist(), *law.reshape(3, -1).tolist())
        first += n
        if h.size:  # only the sample at elapsed 0 plans nothing
            n = max(1, min(_PLAN_BLOCK, _PLAN_SUBSTEPS * n // h.size))


def _uniform_plan(cap: float, a: np.ndarray, b: np.ndarray):
    """(owner, start, length) arrays of the substeps splitting each step
    [a, b] into m = ceil((b - a) / cap) equal pieces, one if b - a <= cap,
    the starts by t = t + h; owner is the step's index."""
    d = b - a
    m = np.where(d <= cap, 1, np.ceil(d / cap)).astype(np.int64)
    h = d / m
    # a row per step: a, then h repeated; accumulating along the row is the
    # recurrence t = t + h, one rounding per piece
    rows = np.empty((a.size, m.max(initial=1)))
    rows[:, 0] = a
    rows[:, 1:] = h[:, None]
    piece = np.arange(rows.shape[1]) < m[:, None]
    return (np.repeat(np.arange(a.size), m), np.add.accumulate(rows, axis=1)[piece],
            np.repeat(h, m))


def _vdic_plan(t_sat: float, t_floor: float, cap_sat: float, cap_floor: float,
               q: float, a: np.ndarray, b: np.ndarray):
    """(owner, start, length) arrays of the substeps covering each step
    [a, b] under a bounded VDIC schedule, owner the step's index: cut at the
    clamp crossovers, capped in the saturated and floor segments, the
    fraction q of elapsed time in the 1/t band; a piece leaving less than
    1e-15 * b of its step takes the rest.

    Each round plans, for every step not yet covered, its run of whole band
    pieces q * t, then one piece by the rules above. As q is 1/8, q * t is
    exact and t + q * t rounds as t * (1 + q) does, so one
    multiply.accumulate gives the starts of a run however long it is."""
    owner, t, parts = np.arange(a.size), a, []
    while True:
        rest = b - t
        # the steps whose next piece is a whole band piece: within the band
        # and the step, leaving more than the tail, and of a t large enough
        # that q * t is exact; none if no step has room for q times its t
        whole = rest.size and q * t.min() <= rest.max() and (
            (t >= max(t_sat, 8.0 * _TINY)) & (q * t <= t_floor - t) & (q * t <= rest)
            & (b - t * (1.0 + q) >= 1e-15 * b))
        if np.any(whole):
            i = np.flatnonzero(whole)
            t_i, b_i = t[i], b[i][:, None]
            # the pieces up to the first cut, at b or at t_floor, plus one
            width = 2 + int(np.log(np.minimum(b_i[:, 0], t_floor) / t_i).max() / math.log1p(q))
            rows = np.empty((i.size, min(width, _PLAN_SUBSTEPS // i.size + 2)))
            rows[:, 0] = t_i
            rows[:, 1:] = 1.0 + q
            s = np.multiply.accumulate(rows, axis=1)
            s0, s1 = s[:, :-1], s[:, 1:]
            run = np.logical_and.accumulate((q * s0 <= t_floor - s0) & (q * s0 <= b_i - s0)
                                            & (b_i - s1 >= 1e-15 * b_i), axis=1)
            pieces = run.sum(axis=1)
            parts.append((np.repeat(owner[i], pieces), s0[run], q * s0[run]))
            t = t.copy()
            t[i] = s[np.arange(i.size), pieces]
            rest = b - t
        h = np.minimum(rest, np.where(t < t_sat, np.minimum(t_sat - t, cap_sat),
                                      np.where(t < t_floor, np.minimum(t_floor - t, q * t),
                                               cap_floor)))
        h = np.where(b - (t + h) < 1e-15 * b, rest, h)
        parts.append((owner, t, h))
        t = t + h
        more = t < b
        owner, t, b = owner[more], t[more], b[more]
        if not owner.size:
            break
    if len(parts) == 1:  # one piece per step, already in order
        return parts[0]
    owner, start, length = map(np.concatenate, zip(*parts))
    order = np.argsort(owner, kind="stable")  # a step's pieces stay in round order
    return owner[order], start[order], length[order]


def _assemble_trace(model, event, times, i_first, droop_active, peak, omega,
                    gov_series) -> Trace:
    ffr_power = -droop_active * omega
    rocof = np.zeros_like(omega)
    post = slice(i_first, None)
    rocof[post] = (event.delta_pf + ffr_power[post] + gov_series[post]) / model.total_inertia
    # per_ffr_power waits for its first read, which a sweep that summarizes
    # and estimates never makes
    return Trace._lazy(
        partial(_per_ffr_power, model.ffrs, peak, droop_active, omega),
        sample_times=times,
        omega=omega,
        rocof=rocof,
        ffr_power=ffr_power,
        droop_active=droop_active,
        ffr_ids=tuple(f.id for f in model.ffrs),
        onset_time=event.onset_time,
    )


def _per_ffr_power(ffrs, peak, droop_active, omega) -> dict[str, np.ndarray]:
    """{"per_ffr_power": each FFR's share of -droop_active * omega, a row per
    FFR of the roster ffrs}, peak the largest value of droop_active."""
    if not ffrs or peak <= 0.0:
        return {"per_ffr_power": np.broadcast_to(0.0, (len(ffrs), omega.size))}
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
    return {"per_ffr_power": np.broadcast_to(per_ffr_coef[:, inverse] * -omega,
                                             (len(ffrs), omega.size))}


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
