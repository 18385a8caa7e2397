import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest

from dataclasses import replace
from pathlib import Path

from droopinertia import analytics, cli, scenario
from droopinertia.scenario import (
    SUBCASES,
    _write_csv,
    default_config_path,
    emit_case_study_csv,
    emit_trace_csv,
    load_config,
    run_case_study,
)


def run_cli(*argv):
    return cli.main(list(argv))


# name: (path to a value in the bundled config, its replacement, the field
# the error must name)
WRONG_TYPES = {
    "nominal_power-string": (("model", "generators", 0, "nominal_power_mva"), "1000",
                             "nominal_power"),
    "delta_pf-null": (("event", "delta_pf_pu"), None, "delta_pf"),
    "droop_upper_bound-string": (("model", "ffrs", 0, "droop_upper_bound"), "32",
                                 "droop_upper_bound"),
    "target_inertia-string": (("vdic_schedule", "target_inertia_s"), "40", "target_inertia"),
    "k_total-string": (("constant_droop", "k_total_pu"), "x", "k_total_pu"),
    "generators-number": (("model", "generators"), 5, "model.generators"),
    "ffrs-number": (("model", "ffrs"), 5, "model.ffrs"),
    "generator-number": (("model", "generators", 0), 3, "model.generators[0]"),
    "governor_enabled-string": (("governor", "enabled"), "false", "governor.enabled"),
    "time_step-bool": (("sim", "time_step_s"), True, "time_step"),
    "ffr_id-comma": (("model", "ffrs", 0, "id"), "a,b", "model.ffrs[0].id"),
    "ffr_id-number": (("model", "ffrs", 0, "id"), 5, "model.ffrs[0].id"),
    "schema_version-bool": (("schema_version",), True, "schema_version"),
}

# name: (path to a key the schema does not know, added to the bundled
# config, and the field the error must name); one per section
UNKNOWN_FIELDS = {
    "config": (("subcases",), "config.subcases"),
    "model": (("model", "base_mva"), "model.base_mva"),
    "generator": (("model", "generators", 0, "inertia_s"), "model.generators[0].inertia_s"),
    "ffr": (("model", "ffrs", 2, "margin"), "model.ffrs[2].margin"),
    "event": (("event", "onset_s"), "event.onset_s"),
    "sim": (("sim", "timestep_s"), "sim.timestep_s"),
    "governor": (("governor", "droop_gain"), "governor.droop_gain"),
    "constant_droop": (("constant_droop", "k_pu"), "constant_droop.k_pu"),
    "vdic_schedule": (("vdic_schedule", "upper_pu"), "vdic_schedule.upper_pu"),
    "added_inertia": (("added_inertia", "delta_tj"), "added_inertia.delta_tj"),
}

# each optional block set to a number
OPTIONAL_BLOCKS = ("governor", "constant_droop", "vdic_schedule", "added_inertia")


def _simulate_edited(tmp_path, capsys, path, value) -> tuple[int, str]:
    """Exit code and stderr of the simulate command on the bundled config
    with the value at path set (a new key if path ends in one)."""
    doc = json.loads(default_config_path().read_text())
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = run_cli("simulate", "--config", str(bad), "--out", str(tmp_path / "o"))
    return code, capsys.readouterr().err


class TestSimulateCommand:
    def test_writes_trace_and_summary(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli("simulate", "--out", str(out), "--duration", "20", "--dt", "0.002")
        assert code == 0
        assert (out / "trace_vdic.csv").exists()
        summary = json.loads((out / "summary_vdic.json").read_text())
        assert summary["subcase"] == "vdic"
        assert set(summary["metrics"]) == {
            "initial_rocof", "nadir", "nadir_time", "steady_state_omega", "settled",
        }

    def test_reproducible_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("simulate", "--out", str(out), "--duration", "15",
                           "--dt", "0.005") == 0
        assert (a / "trace_vdic.csv").read_bytes() == (b / "trace_vdic.csv").read_bytes()
        assert (a / "summary_vdic.json").read_bytes() == (b / "summary_vdic.json").read_bytes()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        doc = json.loads(default_config_path().read_text())
        del doc["vdic_schedule"]
        bad.write_text(json.dumps(doc))
        code = run_cli("simulate", "--config", str(bad), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "vdic_schedule" in capsys.readouterr().err

    def test_override_validation_exits_2(self, tmp_path):
        # dt bigger than a tenth of the duration
        code = run_cli("simulate", "--out", str(tmp_path / "o"),
                       "--duration", "20", "--dt", "5")
        assert code == 2

    def test_off_grid_duration_exits_2(self, tmp_path, capsys):
        # 11 s is 1571.43 steps of 7 ms: the last sample would miss the duration
        code = run_cli("simulate", "--out", str(tmp_path / "o"),
                       "--duration", "11", "--dt", "0.007")
        err = capsys.readouterr().err
        assert code == 2
        assert "SimConfig.duration (11.0) must be a whole multiple" in err
        code, err = _simulate_edited(tmp_path, capsys, ("sim", "duration_s"), 11.0005)
        assert code == 2
        assert "bad.json" in err and "SimConfig.duration (11.0005)" in err

    def test_unallocatable_grid_exits_2(self, tmp_path, capsys):
        # 1e18 samples at the bundled 1 ms step, beyond any address space
        code = run_cli("simulate", "--out", str(tmp_path / "o"), "--duration", "1e15")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: a grid of 1e+18 samples (sim.duration_s")
        assert not (tmp_path / "o" / "trace_vdic.csv").exists()

    @pytest.mark.parametrize("name", sorted(WRONG_TYPES))
    def test_value_of_wrong_type_exits_2(self, tmp_path, capsys, name):
        path, value, field = WRONG_TYPES[name]
        code, err = _simulate_edited(tmp_path, capsys, path, value)
        assert code == 2
        assert err.startswith("error:") and field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", sorted(UNKNOWN_FIELDS))
    def test_unknown_field_exits_2(self, tmp_path, capsys, name):
        # a misspelt optional field would otherwise run its default silently
        path, field = UNKNOWN_FIELDS[name]
        code, err = _simulate_edited(tmp_path, capsys, path, 0.002)
        assert code == 2
        assert err.startswith(f"error: {tmp_path / 'bad.json'}: unknown field {field}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("path, value", [(("constant_droop", "k_total_pu"), -5),
                                             (("added_inertia", "delta_tj_s"), -1)])
    def test_block_of_another_subcase_exits_2(self, tmp_path, capsys, path, value):
        # the bundled subcase is vdic, which reads neither block
        code, err = _simulate_edited(tmp_path, capsys, path, value)
        assert code == 2
        assert err.startswith(f"error: {tmp_path / 'bad.json'}: {'.'.join(path)} must be")

    @pytest.mark.parametrize("governor, field", [
        ({"enabled": False, "droop_gain_pu": "x"}, "GovernorSpec.droop_gain"),
        ({"enabled": False, "time_constant_s": -1}, "GovernorSpec.time_constant"),
        ({"enabled": False, "droop_gain_pu": float("nan")}, "GovernorSpec.droop_gain"),
    ], ids=["gain-string", "time_constant-negative", "gain-nan"])
    def test_disabled_governor_checked(self, tmp_path, capsys, governor, field):
        code, err = _simulate_edited(tmp_path, capsys, ("governor",), governor)
        assert code == 2
        assert err.startswith(f"error: {tmp_path / 'bad.json'}: {field} must be")

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        code = run_cli("simulate", "--config", str(missing), "--out", str(tmp_path / "o"))
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read config {missing}: ")

    @pytest.mark.parametrize("block", OPTIONAL_BLOCKS)
    def test_optional_block_not_an_object_exits_2(self, tmp_path, capsys, block):
        doc = json.loads(default_config_path().read_text())
        doc[block] = 5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = run_cli("simulate", "--config", str(bad), "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {bad}: config.{block} must be an object")
        assert "Traceback" not in err

    def test_config_nested_too_deep_exits_2(self, tmp_path, capsys):
        # the JSON parser's recursion limit, not a crash
        deep = tmp_path / "deep.json"
        deep.write_text('{"model": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code = run_cli("simulate", "--config", str(deep), "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {deep}: maximum recursion depth exceeded")
        assert "Traceback" not in err


class TestCaseStudyCommand:
    def test_writes_all_outputs(self, tmp_path):
        out = tmp_path / "cs"
        code = run_cli("case-study", "--out", str(out), "--duration", "30",
                       "--dt", "0.002")
        assert code == 0
        for sub in ("no_control", "added_inertia", "constant_droop", "vdic"):
            assert (out / f"trace_{sub}.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["initial_rocof_ordering"]["vdic_below_constant_droop"] is True
        merged = np.loadtxt(out / "case_study.csv", delimiter=",", skiprows=1)
        assert merged.shape[1] == 9
        # identical time grid shared by all subcases
        single = np.loadtxt(out / "trace_vdic.csv", delimiter=",", skiprows=1)
        assert np.array_equal(merged[:, 0], single[:, 0])


class TestDesignScheduleCommand:
    def test_prints_breakpoints(self, capsys):
        assert run_cli("design-schedule") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["saturation_end_s"] == 0.3125
        assert payload["floor_start_s"] == 1.25
        assert payload["upper_bound_pu"] == 128.0
        assert payload["lower_bound_pu"] == 32.0

    def test_stdout_on_bundled_scenario(self, capsys):
        # the whole output, byte for byte, so that a change to it is seen
        assert run_cli("design-schedule") == 0
        assert capsys.readouterr().out == (
            "{\n"
            '  "target_inertia_s": 40.0,\n'
            '  "upper_bound_pu": 128.0,\n'
            '  "lower_bound_pu": 32.0,\n'
            '  "saturation_end_s": 0.3125,\n'
            '  "floor_start_s": 1.25,\n'
            '  "segments": [\n'
            '    "k = 128 for t <= 0.3125 s",\n'
            '    "k = 40/t for 0.3125 s < t < 1.25 s",\n'
            '    "k = 32 for t >= 1.25 s"\n'
            "  ]\n"
            "}\n"
        )

    @pytest.mark.parametrize("option", ["--out", "--dt", "--duration"])
    def test_takes_only_config(self, capsys, option):
        with pytest.raises(SystemExit) as exc:
            run_cli("design-schedule", option, "100")
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} 100" in capsys.readouterr().err

    def test_needs_the_schedule_block(self, tmp_path, capsys):
        doc = json.loads(default_config_path().read_text())
        del doc["vdic_schedule"]
        doc["subcase"] = "constant_droop"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli("design-schedule", "--config", str(cfg)) == 2
        assert capsys.readouterr().err == (
            "error: design-schedule requires the vdic_schedule block\n")


class TestEstimateCommand:
    def test_recovers_target_from_trace(self, tmp_path, capsys):
        out = tmp_path / "run"
        # governor off so the recorded FFR power is the only regulation, and
        # bounds pushed outside the window so the pure 1/t schedule acts: the
        # estimator should then read back the constant 40 s target
        doc = json.loads(default_config_path().read_text())
        doc["governor"]["enabled"] = False
        doc["sim"]["duration_s"] = 20.0
        doc["model"]["ffrs"] = [
            {"id": "fleet", "droop_upper_bound": 1e12, "droop_optimal": 1.0,
             "regulation_margin": 1.0}
        ]
        doc["vdic_schedule"] = {"target_inertia_s": 40.0, "upper_bound_pu": 1e12,
                                "lower_bound_pu": 1e-12}
        del doc["added_inertia"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 0
        code = run_cli("estimate", str(out / "trace_vdic.csv"),
                       "--config", str(cfg), "--out", str(out))
        assert code == 0
        est = np.loadtxt(out / "inertia_estimate.csv", delimiter=",", skiprows=1)
        t, dtj, valid = est[:, 0], est[:, 1], est[:, 2].astype(bool)
        window = valid & (t >= 10.01)
        assert window.any()
        assert np.allclose(dtj[window], 40.0, rtol=1e-4)

    @pytest.mark.parametrize("duration, median", [("12", "46.0991"), ("12.001", "46.1117")])
    def test_median_without_numpy_ma(self, tmp_path, duration, median):
        # the printed median is np.median's, as printed before, for an odd
        # (2001) and an even (2002) count of valid samples, and numpy.ma,
        # which np.median imports, is never imported
        assert run_cli("simulate", "--out", str(tmp_path), "--duration", duration) == 0
        trace = scenario.read_trace_csv(tmp_path / "trace_vdic.csv")
        valid = analytics.estimate_from_trace(trace, 39.2, -0.3)
        assert f"{float(np.median(valid.delta_tj[valid.valid_mask])):.4f}" == median
        code = ("import sys; from droopinertia import cli; code = cli.main(sys.argv[1:]); "
                "print('numpy.ma' in sys.modules); sys.exit(code)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", code, "estimate",
                              str(tmp_path / "trace_vdic.csv"), "--out", str(tmp_path),
                              "--duration", duration], capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[0] == (
            f"valid samples: {valid.valid_mask.sum()}; median equivalent inertia {median} s")
        assert run.stdout.splitlines()[-1] == "False"

    def test_missing_trace_exits_2(self, tmp_path):
        code = run_cli("estimate", str(tmp_path / "nope.csv"),
                       "--out", str(tmp_path / "o"))
        assert code == 2

    def test_sample_count_overflow_exits_2(self, tmp_path, capsys):
        # 1e308 / 1e-300 is inf: with the trace's step matching --dt, the
        # row count round(inf) + 1 raised OverflowError, a traceback
        trace = tmp_path / "tiny.csv"
        trace.write_text("t,omega,rocof,ffr_power,droop_active\n"
                         + "".join(f"{i * 1e-300!r},0.0,0.0,0.0,0.0\n" for i in range(3)))
        assert run_cli("estimate", str(trace), "--out", str(tmp_path / "o"),
                       "--dt", "1e-300", "--duration", "1e308") == 2
        assert "SimConfig.duration / SimConfig.time_step" in capsys.readouterr().err


class TestEstimateRefusesAnotherConfigsTrace:
    """estimate exits 2, naming the field, when the trace's step, onset or
    onset rocof is not what its --config gives."""

    SHORT = ("--duration", "12", "--dt", "0.01")

    @pytest.fixture(scope="class")
    def traces(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("cs")
        assert run_cli("case-study", "--out", str(out), *self.SHORT) == 0
        return out

    def _config(self, tmp_path, edit):
        """The bundled config after edit(doc), written to a file."""
        doc = json.loads(default_config_path().read_text())
        edit(doc)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def _estimate(self, tmp_path, trace, edit=lambda doc: None, *extra):
        return run_cli("estimate", str(trace), "--config", self._config(tmp_path, edit),
                       "--out", str(tmp_path / "o"), *self.SHORT, *extra)

    @pytest.mark.parametrize("sub", ["no_control", "constant_droop", "vdic"])
    def test_bundled_config_accepts_its_traces(self, traces, tmp_path, sub):
        assert self._estimate(tmp_path, traces / f"trace_{sub}.csv") == 0

    def test_added_inertia_trace_needs_its_subcase(self, traces, tmp_path, capsys):
        # its onset rocof is delta_pf / (t_j + delta_tj)
        trace = traces / "trace_added_inertia.csv"
        assert self._estimate(tmp_path, trace) == 2
        assert "event.delta_pf_pu / total inertia" in capsys.readouterr().err
        assert self._estimate(tmp_path, trace, lambda d: d.update(subcase="added_inertia")) == 0

    def _refused(self, traces, tmp_path, capsys, edit, field, *extra):
        trace = traces / "trace_vdic.csv"
        assert self._estimate(tmp_path, trace, edit, *extra) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {trace}: ") and field in err

    def test_delta_pf(self, traces, tmp_path, capsys):
        # it printed a median of 209.42 s, against 50.38 s with its own -0.3
        self._refused(traces, tmp_path, capsys,
                      lambda d: d["event"].update(delta_pf_pu=-0.2), "event.delta_pf_pu")

    def test_inertia(self, traces, tmp_path, capsys):
        self._refused(traces, tmp_path, capsys,
                      lambda d: d["model"]["generators"][0].update(inertia_constant_s=30.0),
                      "total inertia")

    def test_onset(self, traces, tmp_path, capsys):
        self._refused(traces, tmp_path, capsys,
                      lambda d: d["event"].update(onset_time_s=9.0), "event.onset_time_s")

    def test_step(self, traces, tmp_path, capsys):
        self._refused(traces, tmp_path, capsys, lambda d: None, "sim.time_step_s",
                      "--dt", "0.005")

    @pytest.mark.parametrize("duration", [None, "12", "20.5"])
    def test_duration(self, tmp_path, capsys, duration):
        # a 20 s trace, against the bundled 60 s and two other durations
        assert run_cli("simulate", "--out", str(tmp_path / "s"),
                       "--duration", "20", "--dt", "0.01") == 0
        trace = tmp_path / "s" / "trace_vdic.csv"
        extra = () if duration is None else ("--duration", duration)
        assert run_cli("estimate", str(trace), "--out", str(tmp_path / "o"),
                       "--dt", "0.01", *extra) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {trace}: its 2001 rows are not the ")

    def test_off_grid_onset_accepts_its_trace(self, tmp_path):
        # the trace's onset is then the first sample past it, where omega is
        # not 0, so only the step and the onset are checked
        def edit(doc):
            doc["event"]["onset_time_s"] = 10.005

        assert run_cli("simulate", "--config", self._config(tmp_path, edit),
                       "--out", str(tmp_path / "s"), *self.SHORT) == 0
        assert self._estimate(tmp_path, tmp_path / "s" / "trace_vdic.csv", edit) == 0

    def test_onset_at_the_grid_tolerance_accepts_its_trace(self, tmp_path):
        # fl(10.0 - 10.000000000001) is -1.0000889e-12, just past 1e-9 * dt at
        # dt 1 ms: simulate put the onset at 10.001 s and estimate, by another
        # rule, expected it at 10.0 s, and refused the trace
        config = self._config(tmp_path, lambda d: d["event"].update(onset_time_s=10.000000000001))
        for argv in (("simulate",), ("estimate", str(tmp_path / "trace_vdic.csv"))):
            assert run_cli(*argv, "--config", config, "--out", str(tmp_path),
                           "--duration", "12") == 0


class TestDivergenceExitCode:
    def test_maps_to_exit_3(self, tmp_path, monkeypatch):
        from droopinertia.errors import SimulationDivergedError

        def boom(cfg):
            raise SimulationDivergedError("blew up", 7)

        monkeypatch.setattr(cli, "run_subcase", boom)
        code = run_cli("simulate", "--out", str(tmp_path / "o"))
        assert code == 3


# sha256 of every CSV/JSON the bundled scenario produces, computed with the
# original one-row-at-a-time writers; any change to a single output byte
# (number format, row order, line endings) fails here.
GOLDEN_SHA256 = {
    "case_study.csv": "c47361bc878d58756d849d425b52541e3a1d958a433cd88d026d3202b50c6ff0",
    "report.json": "92c14d6be2a340ae51eafd96e92d603b6d302d620dbdcbada94e6d0b58ac3281",
    "trace_added_inertia.csv": "36971dc44cd6d165a5a5572a4be2ddb76859a97e6308955f84dbb6197e70afbf",
    "trace_constant_droop.csv": "401cbf210e2f690d9f1d7d88341b8a33b5f61c90e99afbe80f8765c192eb0111",
    "trace_no_control.csv": "210def9ea81b66d490043237d515d6fd8c06f26a04788ba3a9ec847c1ac11088",
    "trace_vdic.csv": "3d19c6a111d8ddd1e8b6ea47fdf5575db9589576e2ec3b6d498e158044d683f9",
    "inertia_estimate.csv": "1f21bc4052eda53bd5269d3cd4e77ddded63fb60d77da0b3fb571c4808f4c483",
}


def test_bundled_outputs_match_golden_sha256(tmp_path):
    out = tmp_path / "cs"
    assert run_cli("case-study", "--out", str(out)) == 0
    assert run_cli("estimate", str(out / "trace_vdic.csv"), "--out", str(out)) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in GOLDEN_SHA256}
    assert digests == GOLDEN_SHA256


def _reference_csv(header, cols):
    """The row-at-a-time writer the block-wise one replaced."""
    lines = [header]
    for j in range(len(cols[0])):
        lines.append(",".join(repr(c[j].item()) for c in cols))
    return "\n".join(lines) + "\n"


SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e16, 1e22,
            -1e22, 0.1, 1.0, 123456789.0]


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2049])
def test_write_csv_matches_row_loop(tmp_path, n):
    rng = np.random.default_rng(n)
    normal = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    specials = rng.choice(SPECIALS, size=n)
    mixed = np.where(rng.random(n) < 0.5, specials, normal)
    # constant over the first block, varying after it
    blockwise = np.where(np.arange(n) < 1024, 0.25, normal)
    zeros = np.zeros(n)
    neg_zeros = np.full(n, -0.0)
    signs = np.where(rng.random(n) < 0.5, 0.0, -0.0)
    flags = (rng.random(n) < 0.5).astype(np.int64)
    int_zeros = np.zeros(n, dtype=np.int64)
    strided = np.repeat(mixed, 2)[::2]
    cols = [np.linspace(0.0, 1.0, n), normal, mixed, mixed.copy(), specials,
            blockwise, zeros, neg_zeros, signs, flags, int_zeros, zeros,
            np.full(n, np.nan), np.full(n, -np.inf), strided, normal]
    header = ",".join(f"c{i}" for i in range(len(cols)))
    path = tmp_path / "out.csv"
    _write_csv(path, header, cols, "test CSV")
    assert path.read_text() == _reference_csv(header, cols)


class TestUnwritableOutput:
    """An --out that cannot be written is a usage error: exit 2 with the
    path on stderr, never a traceback."""

    SHORT = ("--duration", "12", "--dt", "0.01")

    @pytest.fixture
    def trace(self, tmp_path):
        out = tmp_path / "src"
        assert run_cli("simulate", "--out", str(out), *self.SHORT) == 0
        return out / "trace_vdic.csv"

    def _argv(self, command, trace, out):
        if command == "estimate":
            return ["estimate", str(trace), "--out", str(out), *self.SHORT]
        return [command, "--out", str(out), *self.SHORT]

    @pytest.mark.parametrize("command", ["simulate", "case-study", "estimate"])
    def test_out_is_a_file(self, tmp_path, capsys, trace, command):
        out = tmp_path / "taken"
        out.write_text("")
        assert run_cli(*self._argv(command, trace, out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err

    @pytest.mark.parametrize("command", ["simulate", "case-study"])
    def test_out_is_checked_before_integrating(self, tmp_path, capsys, monkeypatch, command):
        def integrate(cfg):
            raise AssertionError("integrated before --out was checked")

        monkeypatch.setattr(cli, "run_subcase", integrate)
        monkeypatch.setattr(cli, "run_case_study", integrate)
        out = tmp_path / "taken"
        out.write_text("")
        assert run_cli(command, "--out", str(out)) == 2
        assert str(out) in capsys.readouterr().err

    @pytest.mark.parametrize("command, name", [
        ("simulate", "trace_vdic.csv"),
        ("case-study", "case_study.csv"),
        ("estimate", "inertia_estimate.csv"),
    ])
    def test_output_file_is_a_directory(self, tmp_path, capsys, trace, command, name):
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        assert run_cli(*self._argv(command, trace, out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and str(out / name) in err


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("chunks", [1, 2])
def test_write_csv_matches_row_loop_across_chunks(tmp_path, chunks, offset):
    # the writer formats _CHUNK_ROWS rows at a time: n = chunk - 1, chunk,
    # chunk + 1, 2 * chunk - 1, 2 * chunk and 2 * chunk + 1
    test_write_csv_matches_row_loop(tmp_path, chunks * scenario._CHUNK_ROWS + offset)


class TestWriter:
    """The one CSV writer formats in the calling process and raises no
    warning; a write that fails names its path and leaves no file open."""

    def test_writes_without_warnings(self, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            test_write_csv_matches_row_loop(tmp_path, 2 * scenario._CHUNK_ROWS + 517)
        assert caught == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_names_the_path(self):
        # every write to /dev/full fails with ENOSPC
        with pytest.raises(OSError, match=re.escape("cannot write test CSV to /dev/full: ")):
            _write_csv("/dev/full", "c", [np.arange(3 * scenario._CHUNK_ROWS) * 0.1],
                       "test CSV")

    def test_failed_formatting_closes_the_file(self, tmp_path, monkeypatch):
        # an unclosed file would raise ResourceWarning, an error under the
        # project's warning filter
        calls, format_block = [], scenario.csvblock.format_block

        def failing(cols):
            calls.append(None)
            if len(calls) > 2:
                raise MemoryError("formatting failed")
            return format_block(cols)

        monkeypatch.setattr(scenario.csvblock, "format_block", failing)
        with pytest.raises(MemoryError, match="formatting failed"):
            _write_csv(tmp_path / "out.csv", "c", [np.arange(4 * scenario._CHUNK_ROWS) * 0.1],
                       "test CSV")
        gc.collect()
        assert len(calls) == 3

    def test_case_study_needs_a_common_grid(self, tmp_path):
        cfg = load_config(default_config_path())
        result = run_case_study(replace(cfg, sim=replace(cfg.sim, time_step=0.01,
                                                         duration=20.0)))
        traces = dict(result.traces)
        traces["vdic"] = replace(traces["vdic"], sample_times=traces["vdic"].sample_times + 1.0)
        with pytest.raises(ValueError, match="common time grid"):
            emit_case_study_csv(replace(result, traces=traces), tmp_path / "case_study.csv")
        assert not (tmp_path / "case_study.csv").exists()


class TestNothingKeptAcrossWrites:
    """A write formats the arrays as they are when it is called, and holds
    none of them after it returns."""

    @pytest.fixture
    def result(self):
        cfg = load_config(default_config_path())
        return run_case_study(replace(cfg, sim=replace(cfg.sim, time_step=0.01,
                                                       duration=20.0)))

    def _merged_csv_after_traces(self, result, tmp_path, change):
        for sub in SUBCASES:
            emit_trace_csv(result.traces[sub], tmp_path / f"trace_{sub}.csv")
        change(result.traces["vdic"].omega)
        emit_case_study_csv(result, tmp_path / "case_study.csv")
        names = [(q, s) for q in ("omega", "rocof") for s in SUBCASES]
        header = "t" + "".join(f",{q}_{s}" for q, s in names)
        cols = [result.traces[SUBCASES[0]].sample_times,
                *(getattr(result.traces[s], q) for q, s in names)]
        assert (tmp_path / "case_study.csv").read_text() == _reference_csv(header, cols)

    def test_merged_csv_after_an_array_changed(self, result, tmp_path):
        # the same array, new values after its trace CSV was written
        def change(omega):
            omega[1024:] = omega[1024:] * 1.5 + 1e-3
        self._merged_csv_after_traces(result, tmp_path, change)

    def test_merged_csv_after_one_value_changed(self, result, tmp_path):
        # the first and last values of its chunk stay: only the chunk's whole
        # bytes tell it from the one the trace CSV wrote
        def change(omega):
            omega[1536] = omega[1536] * 1.5 + 1e-3
        self._merged_csv_after_traces(result, tmp_path, change)

    def test_trace_freed_after_its_csv(self, tmp_path):
        cfg = load_config(default_config_path())
        trace, _ = cli.run_subcase(replace(cfg, sim=replace(cfg.sim, time_step=0.01,
                                                            duration=20.0)))
        emit_trace_csv(trace, tmp_path / "trace.csv")
        arrays = [weakref.ref(trace.sample_times), weakref.ref(trace.omega),
                  weakref.ref(trace.rocof)]
        del trace
        gc.collect()
        assert [ref() for ref in arrays] == [None, None, None]
