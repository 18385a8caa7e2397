import math

import numpy as np
import pytest

from droopinertia import (
    ConstantDroop,
    DroopSchedule,
    FfrSpec,
    ImbalanceEvent,
    NoControl,
    SimConfig,
    ValidationError,
    Vdic,
    closed_form_omega_constant_droop,
    closed_form_omega_constant_inertia,
    emit_trace_csv,
    equivalent_inertia_constant_droop,
    estimate_from_trace,
    read_trace_csv,
    simulate,
)
from conftest import make_model, vdic_at
from oracles import equivalent_inertia_from_regulation

T_J = 39.2


class TestClosedFormConstantDroop:
    def test_long_time_limit(self):
        assert closed_form_omega_constant_droop(-0.3, 32.0, T_J, 1e6) == pytest.approx(
            -0.3 / 32.0, rel=1e-12
        )

    def test_initial_condition(self):
        assert closed_form_omega_constant_droop(-0.3, 32.0, T_J, 0.0) == 0.0

    def test_one_time_constant(self):
        # elapsed = t_j / k makes the exponent -1
        expected = (-0.3 / 32.0) * (1.0 - math.exp(-1.0))
        got = closed_form_omega_constant_droop(-0.3, 32.0, T_J, T_J / 32.0)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_zero_droop_rejected(self):
        with pytest.raises(ValidationError):
            closed_form_omega_constant_droop(-0.3, 0.0, T_J, 1.0)


class TestEquivalentInertiaConstantDroop:
    def test_zero_at_onset(self):
        assert equivalent_inertia_constant_droop(32.0, T_J, 0.0) == 0.0

    @pytest.mark.parametrize("k_total", [-1.0, math.nan, math.inf])
    def test_refuses_negative_or_nonfinite_droop(self, k_total):
        with pytest.raises(ValidationError, match="k_total must be"):
            equivalent_inertia_constant_droop(k_total, T_J, 1.0)

    def test_doubling_time_identity(self):
        # exp(ln 2) - 1 = 1, so the increment equals t_j itself
        elapsed = (T_J / 32.0) * math.log(2.0)
        assert equivalent_inertia_constant_droop(32.0, T_J, elapsed) == pytest.approx(
            T_J, rel=1e-13
        )

    def test_strictly_increasing_in_elapsed_and_droop(self):
        grid = np.linspace(0.0, 5.0, 40)
        vals = equivalent_inertia_constant_droop(32.0, T_J, grid)
        assert np.all(np.diff(vals) > 0.0)
        ks = np.linspace(1.0, 128.0, 30)
        by_k = [equivalent_inertia_constant_droop(k, T_J, 2.0) for k in ks]
        assert np.all(np.diff(by_k) > 0.0)

    def test_consistency_with_frequency_solution(self):
        # RoCoF via the inertia form equals RoCoF via the droop form at all t:
        # delta_pf/(t_j + dtj(t)) == (delta_pf - k*omega(t))/t_j
        k = 32.0
        t = np.linspace(0.0, 10.0, 501)
        omega = closed_form_omega_constant_droop(-0.3, k, T_J, t)
        dtj = equivalent_inertia_constant_droop(k, T_J, t)
        lhs = -0.3 / (T_J + dtj)
        rhs = (-0.3 - k * omega) / T_J
        assert np.max(np.abs(lhs - rhs) / np.abs(lhs)) < 1e-12


class TestClosedFormConstantInertia:
    def test_raised_inertia_ramp(self):
        assert closed_form_omega_constant_inertia(-0.3, T_J, 40.0, 1.0) == pytest.approx(
            -0.3 / 79.2, rel=1e-14
        )

    def test_unmodified_ramp(self):
        assert closed_form_omega_constant_inertia(-0.3, T_J, 0.0, 1.0) == pytest.approx(
            -0.3 / 39.2, rel=1e-14
        )

    def test_zero_elapsed(self):
        assert closed_form_omega_constant_inertia(-0.3, T_J, 40.0, 0.0) == 0.0



@pytest.mark.parametrize("form", [
    lambda elapsed: closed_form_omega_constant_droop(-0.3, 32.0, T_J, elapsed),
    lambda elapsed: equivalent_inertia_constant_droop(32.0, T_J, elapsed),
    lambda elapsed: closed_form_omega_constant_inertia(-0.3, T_J, 40.0, elapsed),
], ids=["omega_constant_droop", "inertia_constant_droop", "omega_constant_inertia"])
@pytest.mark.parametrize("elapsed", [-1e-3, np.array([0.0, 1.0, -1e-300])],
                         ids=["scalar", "array"])
def test_closed_forms_refuse_negative_elapsed(form, elapsed):
    with pytest.raises(ValidationError, match="elapsed must be >= 0"):
        form(elapsed)


class TestUnboundedSchedule:
    """Bounds far outside the band leave the pure delta_tj / elapsed law."""

    UNBOUNDED = DroopSchedule(40.0, 1e12, 1e-12)

    def test_direct_value(self):
        assert vdic_at(self.UNBOUNDED, 0.5) == 80.0

    def test_upper_crossover(self):
        assert vdic_at(self.UNBOUNDED, 0.3125) == 128.0

    def test_lower_crossover(self):
        assert vdic_at(self.UNBOUNDED, 1.25) == 32.0


class TestEstimateFromTrace:
    def test_no_control_gives_zero(self, model, event):
        trace = simulate(model, event, NoControl(), SimConfig(1e-3, 2.0))
        est = estimate_from_trace(trace, T_J, -0.3)
        assert np.all(est.delta_tj[est.valid_mask] == 0.0)
        assert est.valid_mask.all()

    def test_constant_droop_matches_growth_curve(self, model, event):
        trace = simulate(model, event, ConstantDroop(32.0), SimConfig(1e-3, 5.0))
        est = estimate_from_trace(trace, T_J, -0.3)
        t = trace.sample_times
        window = (t >= 0.01) & (t <= 5.0)
        ref = equivalent_inertia_constant_droop(32.0, T_J, t[window])
        rel = np.abs(est.delta_tj[window] - ref) / ref
        assert rel.max() < 1e-8

    def test_unbounded_vdic_constant(self, event):
        model = make_model([FfrSpec("agg", 1e12, 1.0, 1.0)])
        sched = DroopSchedule(40.0, 1e12, 1e-12)
        trace = simulate(model, event, Vdic(sched), SimConfig(1e-3, 5.0))
        est = estimate_from_trace(trace, T_J, -0.3)
        mask = est.valid_mask & (trace.sample_times >= 0.01)
        assert np.max(np.abs(est.delta_tj[mask] - 40.0)) / 40.0 < 1e-8

    def test_equals_scalar_formula_per_sample(self, model, event):
        # by 30 s the droop offsets the imbalance to below the conditioning
        # floor, so the run holds finite and unbounded estimates
        trace = simulate(model, event, ConstantDroop(32.0), SimConfig(1e-2, 30.0))
        est = estimate_from_trace(trace, T_J, -0.3)
        oracle = np.array([equivalent_inertia_from_regulation(T_J, -0.3, p)
                           for p in trace.ffr_power.tolist()])
        assert np.isinf(oracle).any() and np.isfinite(oracle).any()
        assert np.array_equal(est.delta_tj, oracle)
        assert np.array_equal(est.valid_mask, np.isfinite(oracle))

    def test_zero_imbalance_rejected(self, model, event):
        trace = simulate(model, event, ConstantDroop(32.0), SimConfig(1e-2, 1.0))
        with pytest.raises(ValidationError):
            estimate_from_trace(trace, T_J, 0.0)

    def test_pre_onset_masked(self, model):
        event = ImbalanceEvent(-0.3, onset_time=1.0)
        trace = simulate(model, event, ConstantDroop(32.0), SimConfig(1e-2, 3.0))
        est = estimate_from_trace(trace, T_J, -0.3)
        pre = trace.sample_times < 1.0
        assert not est.valid_mask[pre].any()
        assert est.valid_mask[~pre].all()

    @pytest.mark.parametrize("offset", [0.0, 5e-13, -5e-13])
    def test_simulated_trace_and_its_csv_agree(self, model, tmp_path, offset):
        # an onset within 1e-9 * dt of a sample falls on that sample, in
        # simulate and in the onset a CSV's rocof column gives back alike
        event = ImbalanceEvent(-0.3, onset_time=1.0 + offset)
        trace = simulate(model, event, ConstantDroop(32.0), SimConfig(1e-3, 2.0))
        emit_trace_csv(trace, tmp_path / "trace.csv")
        est = estimate_from_trace(trace, T_J, -0.3)
        back = estimate_from_trace(read_trace_csv(tmp_path / "trace.csv"), T_J, -0.3)
        assert est.valid_mask[1000] and not est.valid_mask[999]
        assert np.array_equal(est.sample_times, back.sample_times)
        assert np.array_equal(est.delta_tj, back.delta_tj)
        assert np.array_equal(est.valid_mask, back.valid_mask)

    def test_requires_post_onset_samples(self, model):
        event = ImbalanceEvent(-0.3, onset_time=100.0)
        trace = simulate(model, event, NoControl(), SimConfig(1e-2, 3.0))
        # onset never happens inside the trace; the estimator must refuse
        with pytest.raises(ValidationError):
            estimate_from_trace(trace, T_J, -0.3)

    def test_imbalance_independent(self, model):
        # same controller, three different imbalances: identical estimates
        cfg = SimConfig(1e-2, 3.0)
        results = []
        for dpf in (-0.1, -0.3, -0.6):
            trace = simulate(model, ImbalanceEvent(dpf), ConstantDroop(32.0), cfg)
            est = estimate_from_trace(trace, T_J, dpf)
            sel = trace.sample_times >= 0.05
            results.append(est.delta_tj[sel])
        for other in results[1:]:
            assert np.max(np.abs(other - results[0]) / results[0]) < 1e-9

    def test_lengths_and_finiteness_invariant(self, model, event):
        trace = simulate(model, event, ConstantDroop(32.0), SimConfig(1e-2, 3.0))
        est = estimate_from_trace(trace, T_J, -0.3)
        assert est.delta_tj.size == est.valid_mask.size == trace.sample_times.size
        assert np.all(np.isfinite(est.delta_tj[est.valid_mask]))
