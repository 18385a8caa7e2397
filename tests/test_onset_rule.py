"""One onset rule, integrate._sample_at, for simulate, summarize, the
estimator and estimate's provenance checks.

check_onset_rule draws onsets on a sample, and 1e-9 * dt (the grid
tolerance) and 1e-9 * dt * (1 +- 2**-52) before or after one: there a
rounded t - onset and a comparison on t can disagree. The draws take steps
from 1e-4 to 1/3 s, each subcase's law, and the governor on or off. For each
it asserts that simulate's first nonzero-rocof sample is the rule's onset
sample, that omega is 0 there when the rule puts the onset on the grid, that
the estimate of the trace equals that of its CSV, and that estimate's
provenance check accepts the trace and its CSV.

check_onset_rule(n) runs the check over n examples; tier-1 runs EXAMPLES.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from droopinertia import (
    DroopSchedule,
    GovernorSpec,
    ImbalanceEvent,
    SimConfig,
    emit_trace_csv,
    estimate_from_trace,
    read_trace_csv,
    simulate,
)
from droopinertia.cli import _check_provenance
from droopinertia.integrate import _sample_at
from droopinertia.scenario import SUBCASES, ScenarioConfig, _controller_for
from conftest import make_model

EXAMPLES = 100

SAMPLES = 40
# an onset's distance from its sample, in units of 1e-9 * dt
OFFSETS = [0.0] + [sign * scale for sign in (1.0, -1.0)
                   for scale in (1.0, 1.0 - 2.0 ** -52, 1.0 + 2.0 ** -52)]


@st.composite
def onset_runs(draw):
    """A ScenarioConfig of SAMPLES samples whose onset is near a sample."""
    dt = draw(st.sampled_from([1e-4, 1e-3, 1e-2, 0.05, 1 / 3]))
    t = np.arange(SAMPLES) * dt  # simulate's grid
    onset = float(t[draw(st.integers(1, SAMPLES - 3))]) + draw(st.sampled_from(OFFSETS)) * (
        1e-9 * dt)
    return ScenarioConfig(make_model(), ImbalanceEvent(-0.3, onset),
                          SimConfig(dt, (SAMPLES - 1) * dt), draw(st.sampled_from(SUBCASES)),
                          GovernorSpec(draw(st.booleans()), 20.0, 5.0), k_total=32.0,
                          vdic_schedule=DroopSchedule(40.0, 128.0, 32.0), added_inertia=40.0)


def check_onset_rule(examples: int) -> None:
    """Assert, over examples derandomized draws of onset_runs, that every
    module takes the onset sample _sample_at gives."""

    @settings(max_examples=examples, deadline=None, derandomize=True, database=None)
    @given(onset_runs())
    def check(cfg):
        controller, model = _controller_for(cfg)
        trace = simulate(model, cfg.event, controller, cfg.sim, governor=cfg.governor)
        i_on, on_grid = _sample_at(trace.sample_times, cfg.event.onset_time, cfg.sim.time_step)
        assert int(np.argmax(trace.rocof != 0.0)) == i_on
        assert trace.omega[i_on] == 0.0 or not on_grid
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.csv"
            emit_trace_csv(trace, path)
            back = read_trace_csv(path)
            est, est_back = (estimate_from_trace(x, model.total_inertia, cfg.event.delta_pf)
                             for x in (trace, back))
            for name in ("sample_times", "delta_tj", "valid_mask"):
                assert np.array_equal(getattr(est, name), getattr(est_back, name)), name
            for x in (trace, back):
                _check_provenance(x, cfg, path)

    check()


def test_every_module_takes_the_onset_sample_of_one_rule():
    check_onset_rule(EXAMPLES)
