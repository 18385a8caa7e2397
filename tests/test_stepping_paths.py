"""simulate's stepping paths on random plans.

check_stepping_paths: a run of a custom piecewise-constant law (segments()
empty, so the uniform plan) must give the omega and rocof bits of the full
loop alone (kernels.rk4, rk4_governed or euler) fed one (sample, h, k1, km,
k4) row per substep, the rows built here from the scalar plan oracle and the
law evaluated at every substep's start, midpoint and end. The draws put
breakpoints inside plan blocks and in the last or first step of one, hold
+0.0 and -0.0 beside nonzero values, and size the law so that samples take
one substep, a step equal to the cap, or several.

check_scaling_law: scaling delta_pf by 2**j scales omega, rocof and
ffr_power bit for bit on random built-in runs (ROADMAP item 3), since the
model is linear from a zero state and the loops do only + - * / on it.

check_per_unit_base: doubling every power and inertia of a random built-in
run, a base of half the MVA, keeps the bits of omega and rocof and doubles
ffr_power and per_ffr_power bit for bit.
"""

from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from droopinertia import (
    ConstantDroop,
    Controller,
    DroopSchedule,
    FfrSpec,
    GeneratorSpec,
    GovernorSpec,
    ImbalanceEvent,
    NoControl,
    SimConfig,
    SystemModel,
    Vdic,
    simulate,
)
from droopinertia import integrate, kernels
from oracles import uniform_pieces

EXAMPLES = 200


def _settings(examples):
    return settings(max_examples=examples, deadline=None, derandomize=True, database=None)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


class Steps(Controller):
    """k = values[0] before breaks[0] and values[j] from breaks[j - 1] on."""

    def __init__(self, breaks, values):
        self.breaks, self.values = np.array(breaks, dtype=float), np.array(values, dtype=float)

    def coefficients(self, elapsed):
        return self.values[np.searchsorted(self.breaks, elapsed, side="right")]


def _elapsed(n, dt, onset):
    """The samples' elapsed times and the first at or after the onset, as
    simulate computes them."""
    elapsed = np.arange(n) * dt - onset
    elapsed[np.abs(elapsed) <= 1e-9 * dt] = 0.0
    return elapsed, int(np.searchsorted(elapsed, 0.0, side="left"))


# samples after the onset, and the offsets from the first one of the
# samples whose step may end or begin a plan block: the first block is one
# sample, and so is the second when the first sample sits at elapsed 0
_POST = (1030, 2200)
_EDGES = [e + integrate._PLAN_BLOCK * j for j in range(3) for e in range(4)]


@st.composite
def law_runs(draw):
    """(t_j, dt, samples, onset, delta_pf, governor, integrator, breaks,
    values): a Steps law whose largest value, held to the end, gives about
    `pieces` substeps per sample. With t_j and dt powers of two and pieces 1,
    a step on the grid equals the cap."""
    exact = draw(st.booleans())
    t_j = 2.0 ** draw(st.integers(0, 6)) if exact else draw(st.floats(1.0, 60.0))
    dt = 2.0 ** -10 if exact else draw(st.sampled_from([1e-3, 2e-3, 5e-3]))
    lead = draw(st.integers(0, 40))
    onset = (lead + draw(st.sampled_from([0.0, 0.0, 0.3, 0.999]))) * dt
    samples = lead + 1 + draw(st.integers(*_POST))
    delta_pf = draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(1e-3, 1.0))
    governor = draw(st.none() | st.builds(GovernorSpec, st.just(True), st.floats(0.1, 50.0),
                                          st.floats(0.5, 10.0)))
    integrator = draw(st.sampled_from(["rk4", "rk4", "euler"]))
    stability = 2.0 if integrator == "rk4" else 1.0
    top = draw(st.sampled_from([0.5, 1.0, 1.0, 2.5, 4.0])) * stability * t_j / dt
    elapsed, first = _elapsed(samples, dt, onset)
    breaks = []
    for _ in range(draw(st.integers(1, 5))):
        # a breakpoint in the step that ends at sample r, at a fraction of it
        r = first + (draw(st.sampled_from(_EDGES)) if draw(st.booleans())
                     else draw(st.integers(0, samples - 1 - first)))
        r = min(max(r, first + 1), samples - 1)
        lo, hi = float(elapsed[r - 1]), float(elapsed[r])
        breaks.append(lo + draw(st.sampled_from([1.0, 0.5, 1e-3])) * (hi - lo))
    breaks.sort()
    values = [draw(st.sampled_from([0.0, -0.0, top, 0.5 * top]) | st.floats(0.0, top))
              for _ in breaks] + [top]
    return t_j, dt, samples, onset, delta_pf, governor, integrator, breaks, values


def _model(t_j):
    return SystemModel(1000.0, [GeneratorSpec(1000.0, t_j)], [FfrSpec("agg", 1e12, 1.0, 1.0)])


def _full_loop(law, model, event, config, governor, droop_active):
    """(omega, rocof) of the full loop fed one row per substep of the
    scalar plan, from a zero state, and the rocof simulate assembles."""
    t_j, dpf = model.total_inertia, event.delta_pf
    elapsed, first = _elapsed(droop_active.size, config.time_step, event.onset_time)
    rk4 = config.integrator == "rk4"
    peak = float(droop_active.max())
    cap = (2.0 if rk4 else 1.0) * t_j / peak if peak > 0.0 else np.inf
    pieces, a = [], 0.0
    for j in range(first, elapsed.size):
        b = float(elapsed[j])
        if b > a:
            pieces += [(j, t, h) for t, h in uniform_pieces(cap, a, b)]
        a = b
    sample, t0, h = (np.array(x) for x in zip(*pieces))
    k = law.coefficients(np.concatenate((t0, t0 + 0.5 * h, t0 + h))).reshape(3, -1)
    rows = zip(sample.tolist(), h.tolist(), *k.tolist())
    loop = (kernels.rk4_governed if governor else kernels.rk4) if rk4 else kernels.euler
    g, tg = (governor.droop_gain, governor.time_constant) if governor else (0.0, 1.0)
    omega, gov_series = np.zeros(elapsed.size), np.zeros(elapsed.size)
    loop(rows, omega, gov_series, dpf, t_j, g, tg, (0.0, 0.0, 0.0, 0.0))
    rocof = np.zeros(elapsed.size)
    rocof[first:] = (dpf + -droop_active[first:] * omega[first:] + gov_series[first:]) / t_j
    return omega, rocof


def check_stepping_paths(examples: int) -> None:
    """Assert, over examples derandomized draws, that simulate gives the
    full loop's omega and rocof bits on the law_runs draws."""

    # a block of +0.0 and -0.0 beside 100.0 (governor off, RK4), and then a
    # zero block stepped by Euler, which has no free loop
    @example((16.0, 2.0 ** -10, 2100, 0.0, -0.5, None, "rk4",
              [0.2, 0.3, 0.4, 1.5], [0.0, -0.0, 100.0, 0.0, 100.0]))
    @example((16.0, 2.0 ** -10, 2100, 0.0, -0.5, None, "euler",
              [0.5, 0.7, 1.9], [-0.0, 0.0, -0.0, 8.0]))
    @_settings(examples)
    @given(law_runs())
    def compare(run):
        t_j, dt, samples, onset, delta_pf, governor, integrator, breaks, values = run
        model, event, law = _model(t_j), ImbalanceEvent(delta_pf, onset), Steps(breaks, values)
        config = SimConfig(dt, (samples - 1) * dt, integrator)
        trace = simulate(model, event, law, config, governor=governor)
        omega, rocof = _full_loop(law, model, event, config, governor, trace.droop_active)
        assert np.array_equal(_bits(trace.omega), _bits(omega))
        assert np.array_equal(_bits(trace.rocof), _bits(rocof))

    compare()


def test_stepping_paths_match_the_full_loop():
    check_stepping_paths(EXAMPLES)


@st.composite
def builtin_runs(draw):
    """(model, event, controller, config, governor) of a built-in law on a
    random fleet, in the normal range: no control, added inertia, constant
    droop or bounded VDIC, onset at 0, on the grid or off it."""
    caps = draw(st.lists(st.floats(4.0, 64.0), min_size=1, max_size=16))
    ffrs = [FfrSpec(f"f{i}", cap, draw(st.floats(0.1, 1.0)) * cap, draw(st.floats(0.05, 1.0)))
            for i, cap in enumerate(caps)]
    model = SystemModel(1000.0, [GeneratorSpec(1000.0, draw(st.floats(10.0, 60.0)))], ffrs)
    kind = draw(st.sampled_from(["no_control", "added_inertia", "constant_droop", "vdic"]))
    if kind == "added_inertia":
        model = model.with_added_inertia(draw(st.floats(1.0, 80.0)))
    if kind == "vdic":
        lower = draw(st.floats(1.0, sum(caps)))
        controller = Vdic(DroopSchedule(draw(st.floats(10.0, 60.0)),
                                        draw(st.floats(lower, sum(caps))), lower))
    else:
        controller = (ConstantDroop(draw(st.floats(1.0, sum(caps)))) if kind == "constant_droop"
                      else NoControl())
    dt = draw(st.sampled_from([1e-3, 2e-3, 5e-3]))
    onset = (draw(st.integers(0, 40)) + draw(st.sampled_from([0.0, 0.3]))) * dt
    delta_pf = draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(1e-3, 1.0))
    governor = draw(st.none() | st.builds(GovernorSpec, st.just(True), st.floats(0.1, 50.0),
                                          st.floats(0.5, 10.0)))
    config = SimConfig(dt, draw(st.integers(*_POST)) * dt)
    return model, ImbalanceEvent(delta_pf, onset), controller, config, governor


def check_scaling_law(examples: int) -> None:
    """Assert, over examples derandomized draws, that delta_pf times 2**j
    gives omega, rocof and ffr_power times 2**j, bit for bit."""

    @_settings(examples)
    @given(builtin_runs(), st.sampled_from([-3, -1, 1, 2]))
    def compare(run, j):
        model, event, controller, config, governor = run
        base = simulate(model, event, controller, config, governor=governor)
        scaled = simulate(model, ImbalanceEvent(2.0 ** j * event.delta_pf, event.onset_time),
                          controller, config, governor=governor)
        for name in ("omega", "rocof", "ffr_power"):
            assert np.array_equal(_bits(2.0 ** j * getattr(base, name)),
                                  _bits(getattr(scaled, name))), name

    compare()


def test_power_of_two_delta_pf_scales_bit_for_bit():
    check_scaling_law(EXAMPLES)


def check_per_unit_base(examples: int) -> None:
    """Assert, over examples derandomized draws, that each generator's
    inertia (delta_tj included), delta_pf, the governor gain, k, the VDIC
    schedule and each FFR's cap and optimum doubled keep the bits of omega
    and rocof and double ffr_power and per_ffr_power bit for bit."""

    @_settings(examples)
    @given(builtin_runs())
    def compare(run):
        model, event, controller, config, governor = run
        doubled = SystemModel(model.system_base,
                              [replace(g, inertia_constant=2.0 * g.inertia_constant)
                               for g in model.generators],
                              [replace(f, droop_upper_bound=2.0 * f.droop_upper_bound,
                                       droop_optimal=2.0 * f.droop_optimal)
                               for f in model.ffrs])
        s = getattr(controller, "schedule", None)
        law = (Vdic(DroopSchedule(2.0 * s.target_inertia, 2.0 * s.upper_bound,
                                  2.0 * s.lower_bound)) if s
               else ConstantDroop(2.0 * controller.k_total))
        base = simulate(model, event, controller, config, governor=governor)
        scaled = simulate(doubled, replace(event, delta_pf=2.0 * event.delta_pf), law, config,
                          governor=governor and replace(governor,
                                                        droop_gain=2.0 * governor.droop_gain))
        for name in ("omega", "rocof"):
            assert np.array_equal(_bits(getattr(base, name)), _bits(getattr(scaled, name))), name
        for name in ("ffr_power", "per_ffr_power"):
            assert np.array_equal(_bits(2.0 * getattr(base, name)),
                                  _bits(getattr(scaled, name))), name

    compare()


def test_per_unit_base_keeps_frequency_and_doubles_power_bit_for_bit():
    check_per_unit_base(EXAMPLES)
