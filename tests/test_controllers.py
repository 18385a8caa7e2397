import math
import random

import numpy as np
import pytest

from droopinertia import (
    ConstantDroop,
    Controller,
    DroopSchedule,
    FfrSpec,
    GovernorSpec,
    ImbalanceEvent,
    NoControl,
    SimConfig,
    ValidationError,
    Vdic,
    simulate,
)
from conftest import make_model, vdic_at
from oracles import vdic_coefficient

SCHEDULE = DroopSchedule(target_inertia=40.0, upper_bound=128.0, lower_bound=32.0)
# breakpoints T / U and T / L inexact in binary
INEXACT = DroopSchedule(target_inertia=37.3, upper_bound=111.1, lower_bound=13.7)


class TestConstantDroopPower:
    """The fleet's regulating power -k * omega, read from simulated traces."""

    def test_offsets_reference_imbalance_at_steady_state(self, model, event):
        trace = simulate(model, event, ConstantDroop(32.0), SimConfig(1e-3, 30.0))
        assert trace.ffr_power[-1] == pytest.approx(-event.delta_pf, abs=1e-9)

    def test_zero_deviation(self, model):
        trace = simulate(model, ImbalanceEvent(-0.3, 0.5), ConstantDroop(32.0),
                         SimConfig(1e-2, 2.0))
        still = trace.omega == 0.0
        assert still.sum() == 51  # every sample up to and including the onset
        assert not trace.ffr_power[still].any()

    def test_disabled_droop(self, model, event):
        trace = simulate(model, event, ConstantDroop(0.0), SimConfig(1e-2, 2.0))
        assert trace.omega[-1] < 0.0
        assert not trace.ffr_power.any()

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValidationError):
            ConstantDroop(-1.0)

    def test_odd_in_omega(self, model):
        cfg = SimConfig(1e-2, 3.0)
        down = simulate(model, ImbalanceEvent(-0.3), ConstantDroop(17.0), cfg)
        up = simulate(model, ImbalanceEvent(0.3), ConstantDroop(17.0), cfg)
        assert np.array_equal(up.ffr_power, -down.ffr_power)

    @pytest.mark.parametrize("controller", [NoControl(), ConstantDroop(32.0), Vdic(SCHEDULE)],
                             ids=["no_control", "constant_droop", "vdic"])
    def test_power_is_minus_coefficient_times_omega(self, model, controller):
        trace = simulate(model, ImbalanceEvent(-0.3, 0.25), controller, SimConfig(1e-3, 3.0))
        assert np.array_equal(trace.ffr_power, -trace.droop_active * trace.omega)


class TestDroopSchedule:
    def test_crossovers(self):
        assert SCHEDULE.saturation_end == 0.3125
        assert SCHEDULE.floor_start == 1.25
        assert SCHEDULE.saturation_end <= SCHEDULE.floor_start

    def test_bounds_ordering_enforced(self):
        with pytest.raises(ValidationError):
            DroopSchedule(target_inertia=40.0, upper_bound=32.0, lower_bound=128.0)

    @pytest.mark.parametrize("target,hi,lo", [(0.0, 128.0, 32.0), (40.0, 0.0, 32.0),
                                              (40.0, 128.0, 0.0),
                                              (math.inf, 128.0, 32.0)])
    def test_nonpositive_or_nonfinite_rejected(self, target, hi, lo):
        with pytest.raises(ValidationError):
            DroopSchedule(target, hi, lo)


class TestVdicCoefficient:
    def test_inside_band(self):
        assert vdic_at(SCHEDULE, 1.0) == 40.0

    def test_saturates_at_singularity(self):
        assert vdic_at(SCHEDULE, 0.0) == 128.0

    def test_clamps_to_floor(self):
        # 40/2 = 20 would undercut the floor; crossover is at 1.25 s
        assert vdic_at(SCHEDULE, 2.0) == 32.0

    def test_negative_elapsed_rejected(self):
        with pytest.raises(ValidationError):
            Vdic(SCHEDULE).coefficients(np.array([0.0, 1.0, -0.1]))

    def test_nonincreasing_and_bounded(self):
        grid = np.array([0.0, 1e-6, 0.01, 0.1, 0.3125, 0.4, 0.8, 1.25, 2.0, 50.0, 1e6])
        values = Vdic(SCHEDULE).coefficients(grid)
        assert np.all(values[1:] <= values[:-1])
        assert np.all((32.0 <= values) & (values <= 128.0))

    def test_band_realizes_target_inertia(self):
        # inside the unclamped band, coefficient * elapsed recovers the target
        band = np.array([0.33, 0.5, 0.625, 1.0, 1.2])
        for t, k in zip(band, Vdic(SCHEDULE).coefficients(band)):
            assert k * t == pytest.approx(40.0, rel=1e-14)


class TestVdicPower:
    """The regulating power of a VDIC fleet, read from simulated traces."""

    def test_composes_with_linear_ramp(self, event):
        # unbounded, the schedule keeps omega on the 79.2 s constant-inertia
        # ramp; at 0.5 s its coefficient is 40 / 0.5 = 80
        model = make_model([FfrSpec("agg", 1e12, 1.0, 1.0)])
        trace = simulate(model, event, Vdic(DroopSchedule(40.0, 1e12, 1e-12)),
                         SimConfig(1e-3, 1.0))
        assert trace.droop_active[500] == 80.0
        assert trace.ffr_power[500] == pytest.approx(12.0 / 79.2, rel=1e-9)

    def test_zero_omega(self, model):
        trace = simulate(model, ImbalanceEvent(-0.3, 0.5), Vdic(SCHEDULE),
                         SimConfig(1e-2, 2.0))
        still = trace.omega == 0.0
        assert trace.droop_active[still][-1] == 128.0  # the onset sample
        assert not trace.ffr_power[still].any()

    def test_floored_coefficient(self, model, event):
        trace = simulate(model, event, Vdic(SCHEDULE), SimConfig(1e-2, 10.0))
        assert trace.droop_active[-1] == 32.0
        assert trace.ffr_power[-1] == -32.0 * trace.omega[-1]

    def test_odd_in_omega(self, model):
        cfg = SimConfig(1e-3, 3.0)
        down = simulate(model, ImbalanceEvent(-0.3), Vdic(SCHEDULE), cfg)
        up = simulate(model, ImbalanceEvent(0.3), Vdic(SCHEDULE), cfg)
        assert np.array_equal(up.ffr_power, -down.ffr_power)


class TestGovernorSpec:
    def test_enabled_requires_positive_parameters(self):
        with pytest.raises(ValidationError):
            GovernorSpec(enabled=True, droop_gain=0.0)
        with pytest.raises(ValidationError):
            GovernorSpec(enabled=True, time_constant=0.0)


def per_ffr_coefficients(model, controller, config=SimConfig(1e-2, 2.0)):
    """Each FFR's droop coefficient at every post-onset sample but the onset
    (where omega is 0), read off a simulated trace as power / -omega."""
    trace = simulate(model, ImbalanceEvent(-0.3), controller, config)
    return trace.per_ffr_power[:, 1:] / -trace.omega[1:]


class TestAllocateDroop:
    """The split of the fleet's droop coefficient by regulation margin under
    per-FFR caps, as simulate allocates it into Trace.per_ffr_power."""

    def test_reference_fleet_pins_at_caps(self, model):
        # saturated at 128 for the first 0.3125 s, on four caps of 32
        coef = per_ffr_coefficients(model, Vdic(SCHEDULE), SimConfig(1e-3, 1.0))
        assert coef[:, :312] == pytest.approx(np.full((4, 312), 32.0), rel=1e-12)

    def test_proportional_split(self):
        model = make_model([FfrSpec("a", 100.0, 1.0, 3.0), FfrSpec("b", 100.0, 1.0, 1.0)])
        coef = per_ffr_coefficients(model, ConstantDroop(40.0))
        assert coef[0] == pytest.approx(np.full(coef.shape[1], 30.0), rel=1e-12)
        assert coef[1] == pytest.approx(np.full(coef.shape[1], 10.0), rel=1e-12)

    def test_zero_total(self, model, event):
        for controller in (NoControl(), ConstantDroop(0.0)):
            trace = simulate(model, event, controller, SimConfig(1e-2, 2.0))
            assert trace.per_ffr_power.shape == (4, trace.sample_times.size)
            assert not trace.per_ffr_power.any()

    def test_cap_surplus_redistributed(self):
        # the margin split (30, 10) pins a at its cap of 20; b takes the surplus
        model = make_model([FfrSpec("a", 20.0, 1.0, 3.0), FfrSpec("b", 100.0, 1.0, 1.0)])
        coef = per_ffr_coefficients(model, ConstantDroop(40.0))
        assert coef == pytest.approx(np.full(coef.shape, 20.0), rel=1e-12)

    def test_permutation_equivariant(self):
        rng = random.Random(7)
        ffrs = [FfrSpec(f"f{i}", cap, 1.0, margin)
                for i, (cap, margin) in enumerate([(12.0, 2.0), (40.0, 5.0),
                                                   (7.0, 1.0), (25.0, 0.5)])]
        controller = Vdic(DroopSchedule(20.0, 80.0, 10.0))
        base = per_ffr_coefficients(make_model(ffrs), controller)
        for _ in range(10):
            perm = list(range(len(ffrs)))
            rng.shuffle(perm)
            shuffled = per_ffr_coefficients(make_model([ffrs[i] for i in perm]), controller)
            assert shuffled == pytest.approx(base[perm], rel=1e-12)

    def test_scale_linear_below_saturation(self):
        model = make_model([FfrSpec("a", 1000.0, 1.0, 3.0), FfrSpec("b", 1000.0, 1.0, 2.0)])
        one = per_ffr_coefficients(model, ConstantDroop(10.0))
        three = per_ffr_coefficients(model, ConstantDroop(30.0))
        assert three == pytest.approx(3.0 * one, rel=1e-12)

    def test_sums_to_total_when_feasible(self):
        rng = random.Random(21)
        for _ in range(25):
            n = rng.randint(1, 6)
            ffrs = [FfrSpec(f"f{i}", rng.uniform(1.0, 50.0), 0.5,
                            rng.uniform(0.0, 4.0)) for i in range(n)]
            cap_sum = sum(f.droop_upper_bound for f in ffrs)
            upper = rng.uniform(0.0, cap_sum)
            # a schedule sweeps the total through every pinning pattern below it
            controller = rng.choice([ConstantDroop(upper),
                                     Vdic(DroopSchedule(1.0, upper, 0.1 * upper))])
            trace = simulate(make_model(ffrs), ImbalanceEvent(-0.3), controller,
                             SimConfig(1e-2, 2.0))
            rows = trace.per_ffr_power
            assert rows.sum(axis=0) == pytest.approx(trace.ffr_power, rel=1e-12, abs=0.0)
            caps = np.array([f.droop_upper_bound for f in ffrs])[:, None]
            assert np.all(np.abs(rows) <= caps * np.abs(trace.omega) * (1 + 1e-12))

    def test_infeasible_total_flagged(self, model, event):
        # a schedule whose saturation value outruns the four caps of 32 is
        # refused before any step, not clipped at the caps
        with pytest.raises(ValidationError, match="exceeds the summed"):
            simulate(model, event, Vdic(DroopSchedule(40.0, 200.0, 32.0)), SimConfig())

    def test_all_zero_margins_rejected(self, event):
        ffrs = [FfrSpec("a", 32.0, 8.0, 0.0), FfrSpec("b", 32.0, 8.0, 0.0)]
        with pytest.raises(ValidationError, match="positive regulation margin"):
            simulate(make_model(ffrs), event, ConstantDroop(10.0), SimConfig())

    def test_negative_total_rejected(self):
        # every built-in controller refuses a negative total at construction
        with pytest.raises(ValidationError):
            ConstantDroop(-1.0)
        with pytest.raises(ValidationError):
            DroopSchedule(40.0, 128.0, -1.0)
        with pytest.raises(ValidationError):
            DroopSchedule(40.0, -1.0, -2.0)


class TestControllerObjects:
    def test_coefficient_matches_schedule(self):
        times = (0.0, 0.2, 0.9, 5.0)
        got = Vdic(SCHEDULE).coefficients(np.array(times))
        assert got.tolist() == [vdic_coefficient(SCHEDULE, t) for t in times]

    def test_max_coefficient(self):
        assert NoControl().max_coefficient == 0.0
        assert ConstantDroop(32.0).max_coefficient == 32.0
        assert Vdic(SCHEDULE).max_coefficient == 128.0


class _Ramp(Controller):
    """A custom law."""

    def coefficients(self, elapsed: np.ndarray) -> np.ndarray:
        return np.minimum(50.0, 3.0 * elapsed + 0.1)

    @property
    def max_coefficient(self) -> float:
        return 50.0


def _elapsed_probes() -> np.ndarray:
    """0, its upper neighbour, a few band and floor times, and every VDIC
    breakpoint of both schedules with its neighbours on each side."""
    probes = [0.0, np.nextafter(0.0, 1.0), 1e-3, 0.1, 0.5, 2.0, 100.0]
    for sch in (SCHEDULE, INEXACT):
        for bp in (sch.saturation_end, sch.floor_start):
            probes += [np.nextafter(bp, 0.0), bp, np.nextafter(bp, np.inf)]
    return np.array(probes)


@pytest.mark.parametrize("controller", [NoControl(), ConstantDroop(32.0), Vdic(SCHEDULE),
                                        Vdic(INEXACT), _Ramp()],
                         ids=["no_control", "constant_droop", "vdic", "vdic_inexact", "custom"])
def test_coefficients_equal_per_sample_coefficient_bit_for_bit(controller):
    # a law is elementwise: its value at a time does not depend on the rest of
    # the array, so the integrator's substep arrays and a trace's samples agree
    elapsed = _elapsed_probes()
    vectorised = controller.coefficients(elapsed)
    per_sample = np.array([controller.coefficients(elapsed[i:i + 1])[0]
                           for i in range(elapsed.size)])
    assert vectorised.dtype == np.float64
    assert np.array_equal(vectorised.view(np.int64), per_sample.view(np.int64))
    if isinstance(controller, Vdic):
        oracle = np.array([vdic_coefficient(controller.schedule, float(e)) for e in elapsed])
        assert np.array_equal(vectorised.view(np.int64), oracle.view(np.int64))
