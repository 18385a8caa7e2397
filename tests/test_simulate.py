import copy
import hashlib
import pickle
from dataclasses import replace

import numpy as np
import pytest

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
    SimulationDivergedError,
    SystemModel,
    ValidationError,
    Vdic,
    closed_form_omega_constant_droop,
    closed_form_omega_constant_inertia,
    estimate_from_trace,
    load_config,
    run_case_study,
    simulate,
    summarize,
)
from droopinertia import integrate, kernels
from droopinertia.scenario import SUBCASES, default_config_path
from conftest import make_ffrs, make_model


class TestSwingDerivative:
    """The swing equation's right-hand side, as a trace's rocof."""

    def test_reference_shortage(self, model, event):
        trace = simulate(model, event, ConstantDroop(32.0), SimConfig(1e-3, 1.0))
        assert trace.rocof[0] == -0.3 / 39.2

    def test_raised_inertia(self, event):
        heavy = make_model().with_added_inertia(40.0)
        trace = simulate(heavy, event, NoControl(), SimConfig(1e-3, 1.0))
        assert trace.rocof[0] == -0.3 / 79.2

    def test_exact_offset_freezes_frequency(self, model, event):
        # at the constant-droop steady state the regulation offsets delta_pf
        trace = simulate(model, event, ConstantDroop(32.0), SimConfig(1e-3, 30.0))
        assert abs(trace.rocof[-1]) < 1e-12

    def test_inert_before_onset(self, model):
        event = ImbalanceEvent(-0.3, onset_time=10.0)
        trace = simulate(model, event, ConstantDroop(32.0), SimConfig(1e-2, 12.0))
        pre = trace.sample_times < 10.0
        assert pre.sum() == 1000
        assert np.all(trace.rocof[pre] == 0.0)


class TestNoControlRun:
    def test_linear_ramp(self, model, event):
        cfg = SimConfig(time_step=1e-3, duration=2.0)
        trace = simulate(model, event, NoControl(), cfg)
        ramp = closed_form_omega_constant_inertia(-0.3, 39.2, 0.0, trace.sample_times)
        assert np.max(np.abs(trace.omega - ramp)) < 1e-13

    def test_slope_from_samples(self, model, event):
        cfg = SimConfig(time_step=1e-3, duration=2.0)
        trace = simulate(model, event, NoControl(), cfg)
        slopes = np.diff(trace.omega) / np.diff(trace.sample_times)
        assert slopes == pytest.approx(-0.3 / 39.2, rel=1e-9)

    def test_onset_beyond_duration_is_quiescent(self, model):
        event = ImbalanceEvent(-0.3, onset_time=30.0)
        cfg = SimConfig(time_step=1e-3, duration=20.0)
        trace = simulate(model, event, NoControl(), cfg)
        assert not trace.omega.any()
        assert not trace.rocof.any()
        assert not trace.ffr_power.any()


class TestConstantDroopRun:
    def test_matches_closed_form(self, model, event):
        cfg = SimConfig(time_step=1e-3, duration=10.0)
        trace = simulate(model, event, ConstantDroop(32.0), cfg)
        ref = closed_form_omega_constant_droop(-0.3, 32.0, 39.2, trace.sample_times)
        assert np.max(np.abs(trace.omega - ref)) < 1e-12

    def test_omega_nonincreasing_until_offset(self, model, event):
        cfg = SimConfig(time_step=1e-3, duration=10.0)
        trace = simulate(model, event, ConstantDroop(32.0), cfg)
        regulating = trace.ffr_power < abs(event.delta_pf)
        steps = np.diff(trace.omega)
        assert np.all(steps[regulating[:-1]] <= 0.0)

    def test_droop_active_series(self, model):
        event = ImbalanceEvent(-0.3, onset_time=0.5)
        cfg = SimConfig(time_step=1e-2, duration=2.0)
        trace = simulate(model, event, ConstantDroop(32.0), cfg)
        pre = trace.sample_times < 0.5
        assert np.all(trace.droop_active[pre] == 0.0)
        assert np.all(trace.droop_active[~pre] == 32.0)


class TestOnsetHandling:
    def test_omega_zero_at_onset_sample(self, model):
        event = ImbalanceEvent(-0.3, onset_time=10.0)
        cfg = SimConfig(time_step=1e-3, duration=20.0)
        trace = simulate(model, event, ConstantDroop(32.0), cfg)
        i_on = int(np.searchsorted(trace.sample_times, 10.0 - 1e-12))
        assert trace.omega[i_on] == 0.0
        assert np.all(trace.omega[:i_on] == 0.0)
        # rocof steps to delta_pf / t_j exactly at onset
        assert trace.rocof[i_on] == pytest.approx(-0.3 / 39.2, rel=1e-15)
        assert np.all(trace.rocof[:i_on] == 0.0)

    def test_off_grid_onset(self, model):
        # onset strictly between grid points: first step is partial
        event = ImbalanceEvent(-0.3, onset_time=0.0005)
        cfg = SimConfig(time_step=1e-3, duration=1.0)
        trace = simulate(model, event, NoControl(), cfg)
        expect = np.where(
            trace.sample_times >= 0.0005,
            -0.3 * (trace.sample_times - 0.0005) / 39.2,
            0.0,
        )
        assert np.max(np.abs(trace.omega - expect)) < 1e-15


class TestVdicRun:
    def test_bounded_schedule_continuity(self, model, event):
        sched = DroopSchedule(40.0, 128.0, 32.0)
        cfg = SimConfig(time_step=1e-3, duration=5.0)
        trace = simulate(model, event, Vdic(sched), cfg)
        # coefficient series honors the clamp at the sampled times
        k = trace.droop_active
        t = trace.sample_times
        assert k[0] == 128.0
        band = (t > 0.3125) & (t < 1.25)
        assert np.allclose(k[band] * t[band], 40.0, rtol=1e-12)
        assert np.all(k[t >= 1.25] == 32.0)
        # no glitches: omega stays strictly between 0 and the droop floor's
        # steady state for a shortage
        assert np.all(trace.omega[1:] < 0.0)
        assert trace.omega.min() > -0.3 / 32.0

    def test_unbounded_band_tracks_constant_inertia_ramp(self, event):
        model = make_model([FfrSpec("agg", 1e12, 1.0, 1.0)])
        sched = DroopSchedule(40.0, 1e12, 1e-12)
        cfg = SimConfig(time_step=1e-3, duration=5.0)
        trace = simulate(model, event, Vdic(sched), cfg)
        ramp = closed_form_omega_constant_inertia(-0.3, 39.2, 40.0, trace.sample_times)
        assert np.max(np.abs(trace.omega - ramp)) < 1e-12


class TestTraceInvariants:
    def test_per_ffr_sum(self, model, event):
        cfg = SimConfig(time_step=1e-3, duration=5.0)
        for controller in (ConstantDroop(32.0), Vdic(DroopSchedule(40.0, 128.0, 32.0))):
            trace = simulate(model, event, controller, cfg)
            gap = np.abs(trace.per_ffr_power.sum(axis=0) - trace.ffr_power)
            assert gap.max() <= 1e-12

    def test_series_lengths(self, model, event):
        cfg = SimConfig(time_step=1e-2, duration=3.0)
        trace = simulate(model, event, ConstantDroop(32.0), cfg)
        n = trace.sample_times.size
        assert n == 301
        for series in (trace.omega, trace.rocof, trace.ffr_power, trace.droop_active):
            assert series.size == n
        assert trace.per_ffr_power.shape == (4, n)

    def test_deterministic(self, model, event):
        cfg = SimConfig(time_step=1e-3, duration=3.0)
        sched = DroopSchedule(40.0, 128.0, 32.0)
        a = simulate(model, event, Vdic(sched), cfg)
        b = simulate(model, event, Vdic(sched), cfg)
        for x, y in ((a.omega, b.omega), (a.rocof, b.rocof),
                     (a.ffr_power, b.ffr_power), (a.per_ffr_power, b.per_ffr_power)):
            assert np.array_equal(x, y)


class TestGovernor:
    def test_disabled_equals_absent(self, model, event):
        cfg = SimConfig(time_step=1e-3, duration=3.0)
        a = simulate(model, event, ConstantDroop(32.0), cfg)
        b = simulate(model, event, ConstantDroop(32.0), cfg,
                     governor=GovernorSpec(enabled=False))
        assert np.array_equal(a.omega, b.omega)

    def test_governor_arrests_ramp(self, model, event):
        gov = GovernorSpec(enabled=True, droop_gain=25.0, time_constant=8.0)
        cfg = SimConfig(time_step=1e-3, duration=60.0)
        trace = simulate(model, event, NoControl(), cfg, governor=gov)
        # without the governor omega would pass -0.3*60/39.2 = -0.459; with it
        # the deviation turns around near delta_pf/gain = -0.012
        assert trace.omega.min() > -0.05
        assert trace.omega[-1] == pytest.approx(-0.012, rel=0.15)


class TestValidation:
    def test_droop_needs_ffrs(self, event):
        bare = SystemModel(1000.0, [GeneratorSpec(1000.0, 39.2)], [])
        with pytest.raises(ValidationError):
            simulate(bare, event, ConstantDroop(32.0), SimConfig())

    def test_controller_exceeding_fleet_caps(self, model, event):
        with pytest.raises(ValidationError):
            simulate(model, event, ConstantDroop(129.0), SimConfig())

    def test_zero_margin_fleet_rejected(self, event):
        ffrs = [FfrSpec("a", 32.0, 8.0, 0.0)]
        with pytest.raises(ValidationError):
            simulate(make_model(ffrs), event, ConstantDroop(10.0), SimConfig())

    def test_unallocatable_grid_rejected(self, model, event):
        # 1e18 samples, beyond any address space, so nothing is allocated
        with pytest.raises(ValidationError, match=r"1e\+18 samples \(sim\.duration_s"):
            simulate(model, event, NoControl(), SimConfig(1e-3, 1e15))

    # the bundled fleet at dt 10 ms, as in the reports of these three laws
    def test_law_returning_a_scalar_rejected(self, model, event):
        with pytest.raises(ValidationError, match=r"_Law\.coefficients .* got float64 "
                                                  r"of shape \(\)"):
            simulate(model, event, _Law(lambda e: np.float64(16.0)), SimConfig(1e-2, 10.0))

    def test_law_returning_a_list_rejected(self, model, event):
        with pytest.raises(ValidationError, match=r"_Law\.coefficients .* shape \(1001,\), "
                                                  r"got list of shape \(1001,\)"):
            simulate(model, event, _Law(lambda e: [16.0] * e.size), SimConfig(1e-2, 10.0))

    @pytest.mark.parametrize("onset, first", [(0.0, "0.0"), (2.0, "1.5")])
    def test_negative_law_rejected_at_its_first_negative_time(self, model, onset, first):
        # -5 everywhere ran and broke the per-FFR row sum; the second law
        # turns negative 1.5 s after a later onset
        law = (lambda e: np.full(e.size, -5.0)) if onset == 0.0 else (
            lambda e: np.where(e < 1.5, 16.0, -5.0))
        with pytest.raises(ValidationError, match=rf"_Law\.coefficients is negative "
                                                  rf"\(-5\.0\) at elapsed time {first} s"):
            simulate(model, ImbalanceEvent(-0.3, onset), _Law(law), SimConfig(1e-2, 10.0))


    def test_law_negative_between_samples_rejected(self, model, event):
        # 16 on the 10 ms grid and -1 off it: the samples pass, and the first
        # substep's midpoint, 5 ms after the onset, is refused
        def law(e):
            return np.where(np.abs(e / 0.01 - np.round(e / 0.01)) < 1e-6, 16.0, -1.0)

        assert (law(np.arange(1001) * 0.01) == 16.0).all()
        with pytest.raises(ValidationError, match=r"_Law\.coefficients is negative "
                                                  r"\(-1\.0\) at elapsed time 0\.005 s"):
            simulate(model, event, _Law(law), SimConfig(1e-2, 10.0))


class _Law(Controller):
    """A custom controller whose coefficients are whatever law returns."""

    def __init__(self, law):
        self.law = law

    def coefficients(self, elapsed):
        return self.law(elapsed)


class _PoisonController(Controller):
    """Turns to NaN after 1 s; exercises the divergence guard."""

    def coefficients(self, elapsed: np.ndarray) -> np.ndarray:
        return np.where(elapsed > 1.0, np.nan, 0.0)


GOVERNOR = GovernorSpec(enabled=True, droop_gain=25.0, time_constant=8.0)
_TINY_VDIC = DroopSchedule(1e-3, 1e-6, 1e-7)

# name: (t_j, controller, governor, delta_pf, onset, first non-finite sample)
DIVERGING = {
    "constant_droop-governor": (1e-9, ConstantDroop(1e-6), GOVERNOR, -0.3, 0.0, 54),
    "constant_droop-governor-onset": (1e-9, ConstantDroop(1e-6), GOVERNOR, -0.3, 0.2345, 288),
    "constant_droop-huge_imbalance": (1e-10, ConstantDroop(1e-6), None, 1e300, 0.0, 1),
    "no_control-huge_imbalance": (1e-10, NoControl(), None, 1e300, 0.0, 1),
    "vdic-governor-onset": (1e-9, Vdic(_TINY_VDIC), GOVERNOR, -0.3, 0.1, 128),
    "vdic-huge_imbalance": (1e-9, Vdic(_TINY_VDIC), None, 1e300, 0.0, 1),
}


class TestDivergence:
    def test_nan_controller_reported_with_sample_index(self, model, event):
        cfg = SimConfig(time_step=1e-2, duration=5.0)
        with pytest.raises(SimulationDivergedError) as err:
            simulate(model, event, _PoisonController(), cfg)
        # first poisoned sample is just past t = 1 s
        assert err.value.sample_index == pytest.approx(101, abs=1)

    @pytest.mark.parametrize("name", sorted(DIVERGING))
    def test_builtin_overflow_reported_with_sample_index(self, name):
        # inertia far below the governor's reach, or an imbalance near the
        # float range, overflows the state under every built-in at a pinned sample
        t_j, controller, governor, delta_pf, onset, index = DIVERGING[name]
        model = SystemModel(1000.0, [GeneratorSpec(1000.0, t_j)], make_ffrs(1))
        cfg = SimConfig(time_step=1e-3, duration=1.0)
        with pytest.raises(SimulationDivergedError) as err:
            simulate(model, ImbalanceEvent(delta_pf, onset), controller, cfg,
                     governor=governor)
        assert err.value.sample_index == index


class TestLoopChoice:
    """Each plan block takes the free loop where the law it evaluated is zero
    at every substep, and the full loop elsewhere, with the state carried
    from block to block: the bits of the full loop alone."""

    @pytest.mark.parametrize("governor", [None, GOVERNOR])
    def test_run_that_switches_loops_gets_the_full_loop_bits(self, model, monkeypatch,
                                                                governor):
        rows, taken = [], []

        def recording(name):
            loop = getattr(kernels, name)

            def run(substeps, *args):
                block = list(substeps)
                rows.extend(r + (0.0,) * (5 - len(r)) for r in block)  # the law is 0.0 there
                taken.append((name, len(block)))
                return loop(iter(block), *args)
            return run

        full = kernels.rk4_governed if governor else kernels.rk4
        for name in ("rk4", "rk4_free", "rk4_governed", "rk4_governed_free"):
            monkeypatch.setattr(kernels, name, recording(name))
        # zero up to 1.5 s, inside the second block of 1024 samples (1026 to
        # 2049), then 20: free blocks, then full ones
        law = _Law(lambda elapsed: np.where(elapsed > 1.5, 20.0, 0.0))
        event = ImbalanceEvent(-0.3)
        trace = simulate(model, event, law, SimConfig(1e-3, 3.0), governor=governor)
        assert {name for name, size in taken if size} == {full.__name__,
                                                          full.__name__ + "_free"}

        omega, gov_series = np.zeros(trace.omega.size), np.zeros(trace.omega.size)
        g, tg = (governor.droop_gain, governor.time_constant) if governor else (0.0, 1.0)
        full(iter(rows), omega, gov_series, event.delta_pf, model.total_inertia, g, tg,
             (0.0, 0.0, 0.0, 0.0))
        rocof = (event.delta_pf + -trace.droop_active * omega + gov_series) / model.total_inertia
        assert _same_bits(trace.omega, omega)
        assert _same_bits(trace.rocof, rocof)


class TestEulerOption:
    def test_euler_first_order_error(self, model, event):
        cfg = SimConfig(time_step=1e-3, duration=10.0, integrator="euler")
        trace = simulate(model, event, ConstantDroop(32.0), cfg)
        ref = closed_form_omega_constant_droop(-0.3, 32.0, 39.2, trace.sample_times)
        err = np.max(np.abs(trace.omega - ref))
        assert 1e-7 < err < 1e-5  # O(dt) truncation, orders above RK4's

    def test_rk4_convergence_order(self, model, event):
        errs = []
        for dt in (8e-3, 4e-3):
            cfg = SimConfig(time_step=dt, duration=10.0)
            trace = simulate(model, event, ConstantDroop(32.0), cfg)
            ref = closed_form_omega_constant_droop(-0.3, 32.0, 39.2, trace.sample_times)
            errs.append(np.max(np.abs(trace.omega - ref)))
        assert errs[0] / errs[1] >= 8.0

    def test_rk4_step_halving_governed_inexact_vdic(self):
        # bundled model and governor, breakpoints inexact in binary, onset at
        # 10 s: the gap to a 0.5 ms run shrinks about 16-fold per halving of
        # dt (at 1 ms it reaches roundoff, so that pair is left out)
        cfg = load_config(default_config_path())
        controller = Vdic(_INEXACT[0])
        event = ImbalanceEvent(-0.3, 10.0)

        def omega(dt):
            return simulate(cfg.model, event, controller, SimConfig(dt, 15.0),
                            governor=cfg.governor).omega

        ref = omega(5e-4)
        gaps = [np.max(np.abs(omega(dt) - ref[::round(dt / 5e-4)])) for dt in (8e-3, 4e-3, 2e-3)]
        assert gaps[0] / gaps[1] >= 12.0
        assert gaps[1] / gaps[2] >= 12.0


def _sha256(series: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(series, dtype="<f8").tobytes()).hexdigest()


_BOUNDED = DroopSchedule(40.0, 128.0, 32.0)
_UNBOUNDED = DroopSchedule(40.0, 1e12, 1e-12)
# floor breakpoints inexact in binary: T / (T / L) rounds below L, so the
# coefficient at the end of the last band substep comes from the clamp; the
# scenarios using them are ones where that clamp changes omega's bits
_INEXACT = (DroopSchedule(37.3, 111.1, 13.7), DroopSchedule(56.9, 123.7, 24.6))
_STEP_1MS = SimConfig(time_step=1e-3, duration=3.0)
# k * dt = 80 > 2 * t_j = 78.4: every output step splits into two substeps
_MULTIPIECE = (make_ffrs(4, cap=2000.0), ConstantDroop(8000.0), SimConfig(1e-2, 5.0))

# name: () -> (model, event, controller, config, governor)
GOLDEN_CASES = {
    "no_control-x4": lambda: (
        make_model(), ImbalanceEvent(-0.3), NoControl(), _STEP_1MS, None),
    "added_inertia-governor-onset-x1": lambda: (
        make_model(make_ffrs(1, cap=128.0)).with_added_inertia(40.0),
        ImbalanceEvent(-0.3, 1.25), NoControl(), _STEP_1MS, GOVERNOR),
    "constant_droop-onset-x16": lambda: (
        make_model(make_ffrs(16, cap=8.0)), ImbalanceEvent(0.2, 0.5),
        ConstantDroop(100.0), _STEP_1MS, None),
    "constant_droop-governor-x4": lambda: (
        make_model(), ImbalanceEvent(-0.3), ConstantDroop(32.0), _STEP_1MS, GOVERNOR),
    "constant_droop-multipiece-x4": lambda: (
        make_model(_MULTIPIECE[0]), ImbalanceEvent(-0.3), _MULTIPIECE[1], _MULTIPIECE[2], None),
    "constant_droop-multipiece-governor-onset-x4": lambda: (
        make_model(_MULTIPIECE[0]), ImbalanceEvent(-0.3, 0.123), _MULTIPIECE[1],
        _MULTIPIECE[2], GOVERNOR),
    "vdic-x4": lambda: (
        make_model(), ImbalanceEvent(-0.3), Vdic(_BOUNDED), _STEP_1MS, None),
    "vdic-governor-onset-x16": lambda: (
        make_model(make_ffrs(16, cap=8.0)), ImbalanceEvent(-0.3, 0.7775),
        Vdic(_BOUNDED), _STEP_1MS, GOVERNOR),
    "vdic_inexact-x4": lambda: (
        make_model(), ImbalanceEvent(-0.4), Vdic(_INEXACT[1]), _STEP_1MS, None),
    "vdic_inexact-governor-onset-x4": lambda: (
        make_model(), ImbalanceEvent(-0.15, 0.3247), Vdic(_INEXACT[0]),
        SimConfig(1e-3, 3.5), GOVERNOR),
    "vdic_unbounded-x1": lambda: (
        make_model([FfrSpec("agg", 1e12, 1.0, 1.0)]), ImbalanceEvent(-0.3),
        Vdic(_UNBOUNDED), _STEP_1MS, None),
    "vdic_unbounded-governor-onset-x4": lambda: (
        make_model(make_ffrs(4, cap=2.5e11, margin=1.0)), ImbalanceEvent(-0.3, 0.3),
        Vdic(_UNBOUNDED), _STEP_1MS, GOVERNOR),
}

# name: (sha256 of omega, sha256 of rocof), float64 little-endian bytes
GOLDEN = {
    "bundled-no_control": (
        "34af4b83e68e73c98bd434b58667a3bb1a3b46de77b73a628bb6f12a85322173",
        "660c41168a6ff4c3c4131dedbd5e4e64fd51eba38a54bc5427c790e25f43bc91"),
    "bundled-added_inertia": (
        "4da44042a8a104258930aa831b273ef045cb6396e03309f7e14cfc3b1a1fda0f",
        "1c2acfed34d7ff2ec2ac507cee73428002e51f8f1ef869496ee9e1daca199854"),
    "bundled-constant_droop": (
        "d6aa14f08de1511f8cf56bba98a00c2a7157bbe8945d6c18696225ec3e003aac",
        "b51cdbe6ef1fe4a5902790000eba9097b7ad8cb3920ace200e7a38174dd24deb"),
    "bundled-vdic": (
        "402e2607d4742c2883d5fe1c70e2ee3697be3cb9db9bccbae24b496ab5cf354a",
        "3873795ed8a9b2bf1ed93fc4fec50feb0bc5263916610d34aa5a75e35559daea"),
    "added_inertia-governor-onset-x1": (
        "8a49149dd4bfe952e88544cc1407644e12abf0ae2622347e8018aeeb276ff2d5",
        "855247f0bb355a5e415ee36c9a63318bc8bf5cf90a9066e41ecac94ee2937596"),
    "constant_droop-governor-x4": (
        "229e066bdb25a2615bd499392b0e14ec311d26ae2a9649d456d71aeae81a60ba",
        "16b92e263c23857c0d31c19a832f2f06b24ed4073d7b74256daf3d5c1588a2ac"),
    "constant_droop-multipiece-governor-onset-x4": (
        "c284516c48615ba771ee0fd99d42f5ff42d5c043719cd8df69df52faeba89d5b",
        "363e87cbf223b7ca947645878395d08ceeca5a5e6b1f15f1fc6777072615e15f"),
    "constant_droop-multipiece-x4": (
        "ca8ca38ec6f68ffb2b7f5afa4cc365637dedc80fdc4188eb127dd14001829e3c",
        "8f5611d32a1292b035d563cefdb7c384f2c706e190e859c9cbfd28f6a6bce986"),
    "constant_droop-onset-x16": (
        "d5e170206596251c5f9da8f0d92b008332483491f1a186edecc95355d9ea624a",
        "eab31bcf5bfa39c2ab76164425a13aea078b576ca3851b362d4e10d6e01bfb81"),
    "no_control-x4": (
        "ac56db1ef89dd4cde88cd3aecdd90bbc55ec744ee50c2f5c589ccd3b4487070a",
        "cc274ba389579088fb95dcb4071112698ef47bf8d824a188fc9054473f3194b0"),
    "vdic-governor-onset-x16": (
        "cd53afbdb9ce124227d20550048229beacd583be269c4af0bad2a400de2fdf32",
        "6fd435a4d067db7e9fb4e265edbe09569bab2d2c173d6a811307f030515940fa"),
    "vdic-x4": (
        "5b273187f709b39c8c6e7aa64b5e5e517fd99ac2ac730b1e7cc77c8a07f986c2",
        "cc4e765989af099035a9167c2f5801bba3cddd8eb13bb66cc231063811389070"),
    "vdic_inexact-governor-onset-x4": (
        "78c1cee63e3a078c3d9216e3432515cd798ff18348fcbb38bc26349dedcb3934",
        "9ab13b168cbbb53dd749b830cc4129716e9dc805aea9ca1727652faa7ea8a669"),
    "vdic_inexact-x4": (
        "67860274e2da5cc3dbba7c2482a13fec224de4a59ab63d4da56fe2663134d8c4",
        "092ae0dccf9a3bb34fb7b0592f32a0b2527876a269b5154f2ce8cfeab4d32657"),
    "vdic_unbounded-governor-onset-x4": (
        "7ec7f0440bb22b0b3bbb81d12df662b6ef1a0eddbf55d97f0cf0eece3539f6fc",
        "dbb9605d692f6832de5168a1ad3d8a364d0fdbf823abda2f8b7e336b1906eff8"),
    "vdic_unbounded-x1": (
        "173180c4d52c57f5719202f3918c1c4601796b5b25656d3d3caced6265815be8",
        "e02a907f851b019b50831536d30fedcf4ffc14649bda9fd1bcb50de80595ba52"),
}


class TestGoldenBits:
    """The integrator's output bits, pinned: any change to its arithmetic,
    the order of its operations or the substep plan shows up here."""

    @pytest.fixture(scope="class")
    def bundled(self):
        return run_case_study(load_config(default_config_path())).traces

    @pytest.mark.parametrize("sub", SUBCASES)
    def test_bundled_case_study(self, bundled, sub):
        trace = bundled[sub]
        assert (_sha256(trace.omega), _sha256(trace.rocof)) == GOLDEN[f"bundled-{sub}"]

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_fixed_set(self, name):
        model, event, controller, config, governor = GOLDEN_CASES[name]()
        trace = simulate(model, event, controller, config, governor=governor)
        assert (_sha256(trace.omega), _sha256(trace.rocof)) == GOLDEN[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_kernel_matches_generic_loop(self, name):
        # a subclass that leaves the law alone gets the built-in's bits: the
        # integrator reads the law, never the controller's exact type
        model, event, controller, config, governor = GOLDEN_CASES[name]()
        builtin = simulate(model, event, controller, config, governor=governor)
        clone = _as_subclass(controller)
        subclassed = simulate(model, event, clone, config, governor=governor)
        assert clone.calls > 1  # the integrator evaluated the law, not only droop_active
        assert np.array_equal(builtin.omega, subclassed.omega)
        assert np.array_equal(builtin.rocof, subclassed.rocof)

    @pytest.mark.parametrize("sub", ["constant_droop", "vdic"])
    def test_kernel_matches_generic_loop_across_plan_blocks(self, bundled, sub):
        # the same for the bundled run, which spans several plan blocks
        cfg = load_config(default_config_path())
        law = ConstantDroop(cfg.k_total) if sub == "constant_droop" else Vdic(cfg.vdic_schedule)
        clone = _as_subclass(law)
        subclassed = simulate(cfg.model, cfg.event, clone, cfg.sim, governor=cfg.governor)
        assert clone.calls > 1
        assert subclassed.sample_times.size > 2 * integrate._PLAN_BLOCK
        assert np.array_equal(bundled[sub].omega, subclassed.omega)
        assert np.array_equal(bundled[sub].rocof, subclassed.rocof)


def _as_subclass(controller: Controller) -> Controller:
    """The same controller as an instance of a subclass of its type that
    inherits the law. The clone counts its coefficients calls in ``calls``:
    droop_active takes one, and the integrator's plan blocks the others."""
    base = type(controller)

    def coefficients(self, elapsed: np.ndarray) -> np.ndarray:
        self.calls += 1
        return base.coefficients(self, elapsed)

    clone = copy.copy(controller)
    clone.__class__ = type(f"Generic{base.__name__}", (base,), {"coefficients": coefficients})
    clone.calls = 0
    return clone


class _VdicLaw(Controller):
    """Vdic's law on a plain Controller, with Vdic's pieces when given them."""

    def __init__(self, schedule: DroopSchedule, pieces: bool):
        self.vdic, self.pieces = Vdic(schedule), pieces

    def coefficients(self, elapsed: np.ndarray) -> np.ndarray:
        return self.vdic.coefficients(elapsed)

    def segments(self):
        return self.vdic.segments() if self.pieces else ()


class _OpaqueVdic(Vdic):
    """A Vdic that does not tell its pieces."""

    def segments(self):
        return ()


class TestPiecesPickThePlan:
    """The integrator plans from segments(), never from the controller's type."""

    def test_plain_controller_with_vdic_pieces_gets_the_vdic_bits(self):
        cfg = load_config(default_config_path())
        trace = simulate(cfg.model, cfg.event, _VdicLaw(cfg.vdic_schedule, pieces=True),
                         cfg.sim, governor=cfg.governor)
        assert (_sha256(trace.omega), _sha256(trace.rocof)) == GOLDEN["bundled-vdic"]

    @pytest.mark.parametrize("name", ["vdic-x4", "vdic_inexact-governor-onset-x4"])
    def test_vdic_without_pieces_gets_the_plain_controller_bits(self, name):
        model, event, controller, config, governor = GOLDEN_CASES[name]()
        opaque = simulate(model, event, _OpaqueVdic(controller.schedule), config,
                          governor=governor)
        plain = simulate(model, event, _VdicLaw(controller.schedule, pieces=False), config,
                         governor=governor)
        assert _same_bits(opaque.omega, plain.omega)
        assert _same_bits(opaque.rocof, plain.rocof)
        assert (_sha256(opaque.omega), _sha256(opaque.rocof)) != GOLDEN[name]


class _Half(ConstantDroop):
    """Half of k_total: a built-in's law changed in its one place."""

    def coefficients(self, elapsed: np.ndarray) -> np.ndarray:
        return 0.5 * super().coefficients(elapsed)


@pytest.mark.parametrize("governor", [None, GOVERNOR], ids=["free", "governor"])
def test_overridden_law_is_the_whole_law(governor):
    # the integrator and the trace read the same law, so every series of
    # _Half(32) is ConstantDroop(16)'s
    model = SystemModel(1000.0, [GeneratorSpec(1000.0, 19.6)], make_ffrs())
    cfg = SimConfig(1e-2, 20.0)
    half = simulate(model, ImbalanceEvent(-0.3), _Half(32.0), cfg, governor=governor)
    plain = simulate(model, ImbalanceEvent(-0.3), ConstantDroop(16.0), cfg, governor=governor)
    for name in ("omega", "rocof", "ffr_power", "droop_active", "per_ffr_power"):
        assert _same_bits(getattr(half, name), getattr(plain, name)), name


# delta_pf factors of the scaling relations, 1.0 the reference run
_FACTORS = (1.0, 2.0, 0.5, 3.0, -1.0)
_SCALED_CASES = [f"bundled-{sub}" for sub in SUBCASES] + sorted(GOLDEN_CASES)


def _scaled(event: ImbalanceEvent, factor: float) -> ImbalanceEvent:
    return replace(event, delta_pf=factor * event.delta_pf)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(a.view(np.int64), b.view(np.int64))


class TestScalingLaws:
    """The model is linear in (delta_pf, omega, p_gov) from a zero state, and
    the integrator does only elementwise + - * / on the state, so scaling
    delta_pf by a power of two scales omega, rocof and ffr_power bit for bit,
    barring overflow and subnormals. Checked on the bundled subcases and on
    every fixed case of the golden set."""

    @pytest.fixture(scope="class")
    def series(self):
        """name -> factor -> (omega, rocof, ffr_power)"""
        out = {name: {} for name in _SCALED_CASES}
        cfg = load_config(default_config_path())
        for f in _FACTORS:
            traces = run_case_study(replace(cfg, event=_scaled(cfg.event, f))).traces
            for sub, trace in traces.items():
                out[f"bundled-{sub}"][f] = (trace.omega, trace.rocof, trace.ffr_power)
            for name, case in GOLDEN_CASES.items():
                model, event, controller, config, governor = case()
                trace = simulate(model, _scaled(event, f), controller, config,
                                 governor=governor)
                out[name][f] = (trace.omega, trace.rocof, trace.ffr_power)
        return out

    @pytest.mark.parametrize("factor", (2.0, 0.5))
    @pytest.mark.parametrize("name", _SCALED_CASES)
    def test_power_of_two_scales_bit_for_bit(self, series, name, factor):
        for base, scaled in zip(series[name][1.0], series[name][factor], strict=True):
            assert _same_bits(factor * base, scaled)

    @pytest.mark.parametrize("name", _SCALED_CASES)
    def test_factor_three_scales_only_to_rounding(self, series, name):
        # the control: 3 * x rounds, so the bits differ and the relation
        # holds only to about 3e-16 of the signal
        omega, scaled = series[name][1.0][0], series[name][3.0][0]
        assert not _same_bits(3.0 * omega, scaled)
        assert np.max(np.abs(3.0 * omega - scaled)) <= 1e-15 * np.max(np.abs(scaled))

    @pytest.mark.parametrize("name", _SCALED_CASES)
    def test_sign_flip_scales_in_value(self, series, name):
        # only the sign of zeros may differ, so values are compared, not bits
        for base, flipped in zip(series[name][1.0], series[name][-1.0], strict=True):
            assert np.array_equal(-base, flipped)


def _per_unit_doubled(cfg):
    """cfg with every power and inertia on a base of half the MVA: each
    generator's inertia, delta_pf, the governor gain, k, the VDIC schedule,
    delta_tj and each FFR's cap and optimum doubled."""
    model, sched = cfg.model, cfg.vdic_schedule
    return replace(
        cfg,
        model=SystemModel(model.system_base,
                          [replace(g, inertia_constant=2.0 * g.inertia_constant)
                           for g in model.generators],
                          [replace(f, droop_upper_bound=2.0 * f.droop_upper_bound,
                                   droop_optimal=2.0 * f.droop_optimal) for f in model.ffrs]),
        event=_scaled(cfg.event, 2.0),
        governor=replace(cfg.governor, droop_gain=2.0 * cfg.governor.droop_gain),
        k_total=2.0 * cfg.k_total,
        vdic_schedule=DroopSchedule(2.0 * sched.target_inertia, 2.0 * sched.upper_bound,
                                    2.0 * sched.lower_bound),
        added_inertia=2.0 * cfg.added_inertia,
    )


class TestPerUnitBase:
    """Doubling every power and inertia of the bundled case study is a change
    of the per-unit base: the swing and governor equations and each droop law
    scale by two throughout, so frequency keeps its bits and every power
    doubles bit for bit. delta_pf doubled alone doubles ffr_power, so the
    estimator's ratio and conditioning keep theirs."""

    @pytest.fixture(scope="class")
    def cfg(self):
        return load_config(default_config_path())

    @pytest.fixture(scope="class")
    def runs(self, cfg):
        return {f: run_case_study(c).traces for f, c in
                ((1.0, cfg), (2.0, _per_unit_doubled(cfg)),
                 ("delta_pf", replace(cfg, event=_scaled(cfg.event, 2.0))))}

    @pytest.mark.parametrize("sub", SUBCASES)
    def test_frequency_keeps_its_bits(self, runs, sub):
        base, doubled = runs[1.0][sub], runs[2.0][sub]
        assert _same_bits(base.omega, doubled.omega)
        assert _same_bits(base.rocof, doubled.rocof)

    @pytest.mark.parametrize("sub", SUBCASES)
    def test_powers_double_bit_for_bit(self, runs, sub):
        base, doubled = runs[1.0][sub], runs[2.0][sub]
        assert _same_bits(2.0 * base.ffr_power, doubled.ffr_power)
        assert _same_bits(2.0 * base.per_ffr_power, doubled.per_ffr_power)

    @pytest.mark.parametrize("sub", SUBCASES)
    def test_estimate_keeps_its_bits_under_doubled_delta_pf(self, cfg, runs, sub):
        delta_pf, t_j = cfg.event.delta_pf, cfg.model.total_inertia
        base = estimate_from_trace(runs[1.0][sub], t_j, delta_pf)
        doubled = estimate_from_trace(runs["delta_pf"][sub], t_j, 2.0 * delta_pf)
        assert _same_bits(base.delta_tj, doubled.delta_tj)
        assert np.array_equal(base.valid_mask, doubled.valid_mask) and base.valid_mask.any()


class TestUntouchedPaths:
    """Substep plans that neither the bundled scenario nor the other tests reach."""

    @pytest.fixture(scope="class")
    def multipiece(self):
        ffrs, controller, cfg = _MULTIPIECE
        return simulate(make_model(ffrs), ImbalanceEvent(-0.3), controller, cfg)

    def test_multipiece_constant_droop_matches_closed_form(self, multipiece):
        ref = closed_form_omega_constant_droop(-0.3, 8000.0, 39.2, multipiece.sample_times)
        # lambda * h = 1.02 per substep, where one RK4 step is 2 % off exp(-lambda * h),
        # on a transient of |delta_pf| / k = 3.75e-5
        assert np.max(np.abs(multipiece.omega - ref)) < 5e-7

    def test_multipiece_constant_droop_takes_two_substeps(self, multipiece):
        # omega_n = omega_ss * (1 - R(z)^(2n)), R the RK4 amplification of a
        # substep of z = lambda * dt / 2: exact for the planned two substeps
        z = 8000.0 / 39.2 * (_MULTIPIECE[2].time_step / 2.0)
        r = 1.0 - z + z**2 / 2.0 - z**3 / 6.0 + z**4 / 24.0
        n = np.arange(multipiece.sample_times.size)
        ref = -0.3 / 8000.0 * (1.0 - r ** (2 * n))
        assert np.max(np.abs(multipiece.omega - ref)) < 1e-19

    @pytest.mark.parametrize("governor", [None, GOVERNOR], ids=["free", "governor"])
    @pytest.mark.parametrize("controller", [NoControl(), ConstantDroop(32.0), Vdic(_BOUNDED)],
                             ids=["no_control", "constant_droop", "vdic"])
    def test_onset_at_duration_plans_no_substep(self, model, controller, governor):
        # the only post-onset sample sits at elapsed 0, so its block plans
        # no substep at all
        trace = simulate(model, ImbalanceEvent(-0.3, 1.0), controller, SimConfig(1e-2, 1.0),
                         governor=governor)
        assert trace.sample_times[-1] == 1.0
        assert not trace.omega.any()

    @pytest.mark.parametrize("sched", _INEXACT)
    def test_inexact_breakpoint_does_not_round_trip(self, sched):
        # the golden vdic_inexact cases rely on this
        floor_start = Vdic(sched).segments()[2][0]
        assert sched.target_inertia / floor_start < sched.lower_bound


def _deferred_run(kind: str, n: int):
    """(trace, model) of a 2 s run of a fleet of n FFRs of distinct margins
    and caps, governor on, under constant droop or VDIC at 80 % of the fleet's
    caps."""
    model = make_model([FfrSpec(f"f{i}", 8.0 + i, 2.0, 0.1 + 0.05 * i) for i in range(n)])
    room = sum(f.droop_upper_bound for f in model.ffrs)
    controller = (ConstantDroop(0.8 * room) if kind == "constant_droop"
                  else Vdic(DroopSchedule(40.0, 0.8 * room, 0.2 * room)))
    trace = simulate(model, ImbalanceEvent(-0.3, 0.5), controller, SimConfig(1e-3, 2.0),
                     governor=GOVERNOR)
    return trace, model


_COPIES = {
    "replace": replace,
    "eq": lambda trace: trace if trace == trace else None,
    "deepcopy": copy.deepcopy,
    "pickle": lambda trace: pickle.loads(pickle.dumps(trace)),
}


@pytest.mark.parametrize("n", [1, 4, 16])
@pytest.mark.parametrize("kind", ["constant_droop", "vdic"])
class TestDeferredAllocation:
    """simulate allocates per_ffr_power on its first read, once; a sweep's
    simulate, summarize and estimate_from_trace never read it."""

    @pytest.fixture
    def allocations(self, monkeypatch):
        calls, allocate = [], integrate._allocate_series

        def counted(*args):
            calls.append(None)
            return allocate(*args)

        monkeypatch.setattr(integrate, "_allocate_series", counted)
        return calls

    def test_allocated_on_first_read_only(self, allocations, kind, n):
        trace, model = _deferred_run(kind, n)
        summarize(trace)
        estimate_from_trace(trace, model.total_inertia, -0.3)
        assert len(allocations) == 0
        rows = trace.per_ffr_power
        assert len(allocations) == 1  # 2001 samples: one chunk of distinct coefficients
        assert trace.per_ffr_power is rows and len(allocations) == 1
        assert rows.shape == (n, 2001) and rows.any()

    @pytest.mark.parametrize("copied", list(_COPIES.values()), ids=list(_COPIES))
    def test_unread_trace_copies_allocate_the_same_bits(self, kind, n, copied):
        expected = np.asarray(_deferred_run(kind, n)[0].per_ffr_power)
        trace = _deferred_run(kind, n)[0]
        assert "per_ffr_power" not in vars(trace)
        other = copied(trace)
        assert not other.per_ffr_power.flags.writeable
        assert _same_bits(np.asarray(other.per_ffr_power), expected)
        assert _same_bits(np.asarray(trace.per_ffr_power), expected)
