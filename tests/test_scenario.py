import json

import numpy as np
import pytest

from droopinertia import (
    ConfigError,
    GovernorSpec,
    ImbalanceEvent,
    ScenarioConfig,
    SimConfig,
    ValidationError,
    closed_form_omega_constant_droop,
    default_config_path,
    emit_case_study_csv,
    emit_trace_csv,
    equivalent_inertia_constant_droop,
    load_config,
    read_trace_csv,
    run_case_study,
    run_subcase,
    summarize,
)

from dataclasses import replace

from conftest import make_model
from oracles import initial_rocof


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def base_doc():
    return json.loads(default_config_path().read_text())


class TestLoadConfig:
    def test_bundled_default_is_reference_parameterization(self):
        cfg = load_config(default_config_path())
        assert cfg.model.total_inertia == 39.2
        assert cfg.model.system_base == 1000.0
        assert cfg.event.delta_pf == -0.3
        assert cfg.event.onset_time == 10.0
        assert cfg.vdic_schedule.target_inertia == 40.0
        assert cfg.vdic_schedule.upper_bound == 128.0
        assert cfg.vdic_schedule.lower_bound == 32.0
        assert cfg.k_total == 32.0
        assert cfg.added_inertia == 40.0
        assert len(cfg.model.ffrs) == 4
        assert all(f.droop_upper_bound == 32.0 for f in cfg.model.ffrs)
        assert all(f.droop_optimal == 8.0 for f in cfg.model.ffrs)
        assert cfg.governor.enabled

    def test_missing_schedule_block_named(self, tmp_path):
        doc = base_doc()
        del doc["vdic_schedule"]
        del doc["added_inertia"]  # avoid tripping the cross-check first
        with pytest.raises(ConfigError, match="vdic_schedule"):
            load_config(write_config(tmp_path, doc))

    def test_step_exceeding_duration_rejected(self, tmp_path):
        doc = base_doc()
        doc["sim"]["time_step_s"] = 120.0
        with pytest.raises(ConfigError, match="time_step"):
            load_config(write_config(tmp_path, doc))

    def test_duration_must_cover_onset(self, tmp_path):
        doc = base_doc()
        doc["sim"]["duration_s"] = 5.0  # onset at 10 s
        with pytest.raises(ConfigError, match="duration"):
            load_config(write_config(tmp_path, doc))

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"model": \n !}')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    def test_zero_imbalance_rejected(self, tmp_path):
        doc = base_doc()
        doc["event"]["delta_pf_pu"] = 0.0
        with pytest.raises(ConfigError, match="delta_pf"):
            load_config(write_config(tmp_path, doc))

    def test_missing_field_named(self, tmp_path):
        doc = base_doc()
        del doc["model"]["system_base_mva"]
        with pytest.raises(ConfigError, match="system_base_mva"):
            load_config(write_config(tmp_path, doc))

    def test_unsupported_schema_version(self, tmp_path):
        doc = base_doc()
        doc["schema_version"] = 99
        with pytest.raises(ConfigError, match="schema_version"):
            load_config(write_config(tmp_path, doc))


def quiet_config(subcase, **kwargs):
    """Reference system, onset at t=0, governor off, 10 s horizon."""
    from droopinertia import DroopSchedule

    defaults = dict(
        model=make_model(),
        event=ImbalanceEvent(-0.3, onset_time=0.0),
        sim=SimConfig(time_step=1e-3, duration=10.0),
        subcase=subcase,
        governor=GovernorSpec(enabled=False),
        k_total=32.0,
        vdic_schedule=DroopSchedule(40.0, 128.0, 32.0),
        added_inertia=40.0,
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


class TestScenarioConfigValidation:
    def test_subcase_parameter_requirements(self):
        with pytest.raises(ValidationError, match="constant_droop"):
            quiet_config("constant_droop", k_total=None)
        with pytest.raises(ValidationError, match="vdic_schedule"):
            quiet_config("vdic", vdic_schedule=None)
        with pytest.raises(ValidationError, match="added_inertia"):
            quiet_config("added_inertia", added_inertia=None)

    def test_unknown_subcase(self):
        with pytest.raises(ValidationError, match="subcase"):
            quiet_config("banana")


class TestRunSubcase:
    def test_no_control_initial_rocof(self):
        _, metrics = run_subcase(quiet_config("no_control"))
        assert metrics.initial_rocof == pytest.approx(-0.3 / 39.2, rel=1e-9)

    def test_added_inertia_initial_rocof(self):
        _, metrics = run_subcase(quiet_config("added_inertia"))
        assert metrics.initial_rocof == pytest.approx(-0.3 / 79.2, rel=1e-9)

    def test_constant_droop_window_mean(self):
        _, metrics = run_subcase(quiet_config("constant_droop"))
        # window mean of the closed-form response over the first 100 ms
        expect = closed_form_omega_constant_droop(-0.3, 32.0, 39.2, 0.1) / 0.1
        assert metrics.initial_rocof == pytest.approx(expect, rel=1e-9)

    def test_initial_rocof_tracks_midwindow_equivalent_inertia(self):
        # each subcase's measured window mean agrees with the analytic RoCoF
        # once the window-midpoint equivalent inertia is accounted for
        cases = {
            "no_control": 0.0,
            "added_inertia": 40.0,
            "constant_droop": equivalent_inertia_constant_droop(32.0, 39.2, 0.05),
            "vdic": equivalent_inertia_constant_droop(128.0, 39.2, 0.05),
        }
        for subcase, dtj in cases.items():
            _, metrics = run_subcase(quiet_config(subcase))
            assert metrics.initial_rocof == pytest.approx(
                initial_rocof(-0.3, 39.2, dtj), rel=0.02
            ), subcase

    def test_nadir_invariants(self):
        trace, metrics = run_subcase(quiet_config("constant_droop"))
        assert metrics.nadir <= 0.0
        assert metrics.nadir_time >= trace.onset_time
        assert metrics.steady_state_omega == pytest.approx(-0.3 / 32.0, rel=1e-3)


@pytest.fixture(scope="module")
def short_case_study():
    """Four governor-on subcases on a coarse grid; fast enough for unit tests."""
    from droopinertia import DroopSchedule

    cfg = ScenarioConfig(
        model=make_model(),
        event=ImbalanceEvent(-0.3, onset_time=10.0),
        sim=SimConfig(time_step=2e-3, duration=30.0),
        subcase="vdic",
        governor=GovernorSpec(enabled=True, droop_gain=25.0, time_constant=8.0),
        k_total=32.0,
        vdic_schedule=DroopSchedule(40.0, 128.0, 32.0),
        added_inertia=40.0,
    )
    return run_case_study(cfg)


class TestRunCaseStudy:
    def test_common_time_grid(self, short_case_study):
        grids = [t.sample_times for t in short_case_study.traces.values()]
        for g in grids[1:]:
            assert np.array_equal(g, grids[0])

    def test_qualitative_orderings(self, short_case_study):
        rep = short_case_study.report
        assert rep["initial_rocof_ordering"]["vdic_below_constant_droop"]
        assert rep["initial_rocof_ordering"]["constant_droop_below_no_control"]
        assert rep["initial_rocof_ordering"]["added_inertia_lowest"]
        assert rep["vdic_steady_state_tighter_than_added_inertia"]
        assert rep["early_window"]["max_abs_gap_no_control_vs_constant_droop"] < 1e-4

    def test_inconsistent_shared_added_inertia(self):
        cfg = quiet_config("vdic", added_inertia=39.0)
        with pytest.raises(ValidationError, match="inconsistent"):
            run_case_study(cfg)

    def test_requires_both_controller_blocks(self):
        with pytest.raises(ValidationError, match="constant_droop"):
            run_case_study(quiet_config("vdic", k_total=None))
        with pytest.raises(ValidationError, match="vdic_schedule"):
            run_case_study(quiet_config("no_control", vdic_schedule=None))


class TestCsvRoundTrip:
    def test_header_and_onset_row(self, tmp_path):
        trace, _ = run_subcase(quiet_config("constant_droop",
                                            event=ImbalanceEvent(-0.3, onset_time=1.0),
                                            sim=SimConfig(1e-2, 4.0)))
        path = tmp_path / "trace.csv"
        emit_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,omega,rocof,ffr_power,droop_active,p_hvdc1,p_hvdc2,p_hvdc3,p_hvdc4"
        onset_row = lines[1 + 100].split(",")  # t = 1.0 at dt = 1e-2
        assert float(onset_row[0]) == 1.0
        assert float(onset_row[1]) == 0.0

    def test_round_trip_bit_identical(self, tmp_path):
        trace, metrics = run_subcase(quiet_config("vdic", sim=SimConfig(1e-2, 5.0)))
        path = tmp_path / "trace.csv"
        emit_trace_csv(trace, path)
        back = read_trace_csv(path)
        assert np.array_equal(back.sample_times, trace.sample_times)
        assert np.array_equal(back.omega, trace.omega)
        assert np.array_equal(back.rocof, trace.rocof)
        assert np.array_equal(back.ffr_power, trace.ffr_power)
        assert np.array_equal(back.per_ffr_power, trace.per_ffr_power)
        assert back.ffr_ids == trace.ffr_ids
        assert back.onset_time == trace.onset_time
        assert summarize(back) == metrics

    def test_quiescent_trace_writes_zero_rows(self, tmp_path):
        from droopinertia import NoControl, simulate

        trace = simulate(make_model(), ImbalanceEvent(-0.3, onset_time=99.0),
                         NoControl(), SimConfig(1e-2, 3.0))
        path = tmp_path / "quiet.csv"
        emit_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 302
        assert all(float(line.split(",")[1]) == 0.0 for line in lines[1:])

    def test_case_study_csv_layout(self, short_case_study, tmp_path):
        path = tmp_path / "merged.csv"
        emit_case_study_csv(short_case_study, path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[0] == "t"
        assert "omega_vdic" in header and "rocof_no_control" in header
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape[1] == 9
        assert np.array_equal(
            data[:, 0], short_case_study.traces["vdic"].sample_times
        )
