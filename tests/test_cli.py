import gc
import hashlib
import json

import numpy as np
import pytest

from dataclasses import replace

from droopinertia import cli, scenario
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
}

# each optional block set to a number
OPTIONAL_BLOCKS = ("governor", "constant_droop", "vdic_schedule", "added_inertia")


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

    @pytest.mark.parametrize("name", sorted(WRONG_TYPES))
    def test_value_of_wrong_type_exits_2(self, tmp_path, capsys, name):
        path, value, field = WRONG_TYPES[name]
        doc = json.loads(default_config_path().read_text())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = run_cli("simulate", "--config", str(bad), "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and field in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("block", OPTIONAL_BLOCKS)
    def test_optional_block_not_an_object_exits_2(self, tmp_path, capsys, block):
        doc = json.loads(default_config_path().read_text())
        doc[block] = 5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = run_cli("simulate", "--config", str(bad), "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: config.{block} must be an object")
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

    def test_missing_trace_exits_2(self, tmp_path):
        code = run_cli("estimate", str(tmp_path / "nope.csv"),
                       "--out", str(tmp_path / "o"))
        assert code == 2


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
            return ["estimate", str(trace), "--out", str(out)]
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


def _kept_bytes():
    return sum(len(key[1]) + len(text) for key, text in scenario._KEPT.items())


class TestKeptBlocks:
    """The t, omega and rocof blocks that emit_trace_csv formats are kept for
    the merged CSV, within the budget, until emit_case_study_csv returns."""

    @pytest.fixture
    def result(self):
        cfg = load_config(default_config_path())
        scenario._KEPT.clear()
        return run_case_study(replace(cfg, sim=replace(cfg.sim, time_step=0.01,
                                                       duration=20.0)))

    def _emit_traces(self, result, out):
        for sub in SUBCASES:
            emit_trace_csv(result.traces[sub], out / f"trace_{sub}.csv")

    def test_keyed_by_content_not_by_object(self, result, tmp_path):
        self._emit_traces(result, tmp_path)
        omega = result.traces["vdic"].omega
        stale = (omega.dtype.str, omega[1024:2048].tobytes())
        assert stale in scenario._KEPT
        omega[1024:] = omega[1024:] * 1.5 + 1e-3  # the same array, new values
        emit_case_study_csv(result, tmp_path / "case_study.csv")
        names = [(q, s) for q in ("omega", "rocof") for s in SUBCASES]
        header = "t" + "".join(f",{q}_{s}" for q, s in names)
        cols = [result.traces[SUBCASES[0]].sample_times,
                *(getattr(result.traces[s], q) for q, s in names)]
        assert (tmp_path / "case_study.csv").read_text() == _reference_csv(header, cols)

    def test_emptied_when_emit_case_study_csv_returns(self, result, tmp_path):
        self._emit_traces(result, tmp_path)
        assert scenario._KEPT
        emit_case_study_csv(result, tmp_path / "case_study.csv")
        assert not scenario._KEPT and scenario._KEPT.nbytes == 0

    def test_emptied_when_emit_case_study_csv_raises(self, result, tmp_path):
        self._emit_traces(result, tmp_path)
        (tmp_path / "taken").mkdir()
        with pytest.raises(OSError):
            emit_case_study_csv(result, tmp_path / "taken")
        assert not scenario._KEPT and scenario._KEPT.nbytes == 0
        self._emit_traces(result, tmp_path)
        traces = dict(result.traces)
        traces["vdic"] = replace(traces["vdic"], sample_times=traces["vdic"].sample_times + 1.0)
        with pytest.raises(ValueError, match="common time grid"):
            emit_case_study_csv(replace(result, traces=traces), tmp_path / "case_study.csv")
        assert not scenario._KEPT and scenario._KEPT.nbytes == 0

    def test_within_budget_during_bundled_case_study(self, tmp_path, monkeypatch):
        scenario._KEPT.clear()
        held = []

        def write_csv(*args, **kwargs):
            _write_csv(*args, **kwargs)
            held.append(_kept_bytes())
            assert held[-1] == scenario._KEPT.nbytes

        monkeypatch.setattr(scenario, "_write_csv", write_csv)
        assert run_cli("case-study", "--out", str(tmp_path / "cs")) == 0
        assert len(held) == 5
        # the bundled traces fill the budget before the fourth trace CSV
        assert 0.9 * scenario._KEPT_BUDGET < max(held) <= scenario._KEPT_BUDGET
        assert not scenario._KEPT and scenario._KEPT.nbytes == 0

    def test_estimate_keeps_nothing(self, result, tmp_path):
        emit_trace_csv(result.traces["vdic"], tmp_path / "trace_vdic.csv")
        scenario._KEPT.clear()
        assert run_cli("estimate", str(tmp_path / "trace_vdic.csv"),
                       "--out", str(tmp_path)) == 0
        assert not scenario._KEPT and scenario._KEPT.nbytes == 0

    def test_dropped_with_the_trace(self, tmp_path):
        scenario._KEPT.clear()
        cfg = load_config(default_config_path())
        trace, _ = cli.run_subcase(replace(cfg, sim=replace(cfg.sim, time_step=0.01,
                                                            duration=20.0)))
        emit_trace_csv(trace, tmp_path / "trace.csv")
        assert scenario._KEPT
        del trace
        gc.collect()
        assert not scenario._KEPT and scenario._KEPT.nbytes == 0
