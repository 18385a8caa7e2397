import gc
import hashlib
import json
import os
import re
import sys
import warnings

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
        assert err.startswith(f"error: unknown field {field}")
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

    def test_off_grid_onset_accepts_its_trace(self, tmp_path):
        # the trace's onset is then the first sample past it, where omega is
        # not 0, so only the step and the onset are checked
        def edit(doc):
            doc["event"]["onset_time_s"] = 10.005

        assert run_cli("simulate", "--config", self._config(tmp_path, edit),
                       "--out", str(tmp_path / "s"), *self.SHORT) == 0
        assert self._estimate(tmp_path, tmp_path / "s" / "trace_vdic.csv", edit) == 0


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


class TestPackedText:
    """csvblock.pack stores a formatted text two characters a byte, and
    unpack gives the text back; a text pack cannot store is not kept."""

    ALPHABET = "0123456789.-e+, "

    @pytest.mark.parametrize("size", [0, 1, 2, 15, 16, 17, 1023, 1024])
    def test_round_trip(self, size):
        rng = np.random.default_rng(size)
        texts = [self.ALPHABET[:size], "".join(rng.choice(list(self.ALPHABET), size=size)),
                 *(c * size for c in self.ALPHABET)]
        for text in texts:
            text = text.rstrip(" ")
            packed = scenario.csvblock.pack(text)
            assert len(packed) == (len(text) + 1) // 2
            assert scenario.csvblock.unpack(packed) == text

    def test_specials_round_trip(self):
        numbers = [-0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308, -5e-324, 0.1]
        text = repr(numbers)[1:-1]
        assert "1e+16" in text and "1.7976931348623157e+308" in text and "1e-05" in text
        for part in (text, *text.split(", ")):
            assert scenario.csvblock.unpack(scenario.csvblock.pack(part)) == part

    @pytest.mark.parametrize("text", ["nan", "1.0, nan", "inf", "-inf, 2.0", "1.0, ",
                                      "1.0\n2.0", "12\n", "12\n\n34", "1.\t\t0", "0xab",
                                      "1E+16", "ab"])
    def test_refused(self, text):
        # a letter other than e, ASCII whitespace other than a space (which
        # bytes.fromhex skips between two bytes), or a trailing space (the
        # pad of an odd length)
        assert scenario.csvblock.pack(text) is None

    @pytest.mark.parametrize("special", [np.nan, np.inf, -np.inf])
    def test_column_holding_a_special_is_not_kept(self, tmp_path, special):
        scenario._KEPT.clear()
        n = 3 * scenario._BLOCK_ROWS
        col = np.linspace(1.0, 2.0, n)
        col[scenario._BLOCK_ROWS + 7] = special
        cols = [col, col * 3.0]
        _write_csv(tmp_path / "out.csv", "a,b", cols, "test CSV", keep=2)
        # the block holding the special is kept in neither column
        assert len(scenario._KEPT) == 4
        assert (col.dtype.str, col[scenario._BLOCK_ROWS:2 * scenario._BLOCK_ROWS].tobytes()) \
            not in scenario._KEPT
        _write_csv(tmp_path / "again.csv", "a,b", cols, "test CSV")
        assert (tmp_path / "again.csv").read_text() == _reference_csv("a,b", cols)
        scenario._KEPT.clear()


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

    def test_value_changed_inside_a_kept_block(self, result, tmp_path):
        # the first and last values of the block stay: only its whole bytes
        # tell it from the block that was kept
        self._emit_traces(result, tmp_path)
        omega = result.traces["vdic"].omega
        assert (omega.dtype.str, omega[1024:2048].tobytes()) in scenario._KEPT
        omega[1536] = omega[1536] * 1.5 + 1e-3
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
        held, blocks = [], []

        def write_csv(*args, **kwargs):
            _write_csv(*args, **kwargs)
            held.append(_kept_bytes())
            blocks.append(len(scenario._KEPT))
            assert held[-1] == scenario._KEPT.nbytes

        monkeypatch.setattr(scenario, "_write_csv", write_csv)
        assert run_cli("case-study", "--out", str(tmp_path / "cs")) == 0
        assert len(held) == 5
        # the bundled traces fill the budget during the fourth trace CSV
        assert 0.9 * scenario._KEPT_BUDGET < max(held) <= scenario._KEPT_BUDGET
        assert not scenario._KEPT and scenario._KEPT.nbytes == 0
        # packed, the kept texts leave the merged CSV 459 - 392 blocks to format
        assert blocks[3] >= 380

    def test_few_offers_refused_during_bundled_case_study(self, tmp_path, monkeypatch):
        # a text that cannot fit the room the store had when its block was
        # formatted is neither packed nor offered. The one refused fits on
        # its own, but not after an earlier column of its block
        monkeypatch.delattr(os, "posix_spawn", raising=False)  # the one-process schedule
        scenario._KEPT.clear()
        offers, keep = [], scenario._Kept.keep

        def counted(self, key, packed, source):
            held = len(self)
            keep(self, key, packed, source)
            offers.append(len(self) > held)

        monkeypatch.setattr(scenario._Kept, "keep", counted)
        assert run_cli("case-study", "--out", str(tmp_path / "cs")) == 0
        assert offers.count(True) == 392 and offers.count(False) == 1

    def test_estimate_keeps_nothing(self, result, tmp_path):
        emit_trace_csv(result.traces["vdic"], tmp_path / "trace_vdic.csv")
        scenario._KEPT.clear()
        assert run_cli("estimate", str(tmp_path / "trace_vdic.csv"), "--out", str(tmp_path),
                       "--dt", "0.01", "--duration", "20") == 0
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


def test_emptied_store_leaves_no_finalizer(tmp_path):
    # freeing a case study's traces ran one dead finalizer per kept block
    cfg = load_config(default_config_path())
    scenario._KEPT.clear()
    result = run_case_study(replace(cfg, sim=replace(cfg.sim, time_step=0.01, duration=20.0)))
    for sub in SUBCASES:
        emit_trace_csv(result.traces[sub], tmp_path / f"trace_{sub}.csv")
    finalizers = list(scenario._KEPT._finalizers.values())
    assert len(finalizers) == len(scenario._KEPT) and all(f.alive for f in finalizers)
    emit_case_study_csv(result, tmp_path / "case_study.csv")
    assert not scenario._KEPT._finalizers and not any(f.alive for f in finalizers)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


# a formatter that greets, takes one request and dies
_DYING_FORMATTER = """
import marshal, os, sys
marshal.dump(None, sys.stdout.buffer)
sys.stdout.flush()
os.read(0, 8)
os._exit(1)
"""


class TestSpawnedWriter:
    """A write of _SPAWN_BLOCK_COLUMNS blocks times columns or more formats
    them in two processes, with the bytes and the kept set of the in-process
    schedule, and leaves no process and no file descriptor behind."""

    @pytest.fixture
    def spawns(self, monkeypatch):
        """The pids the writer starts, with two CPUs whatever the host has;
        the writer waits for each process's greeting, so that the process
        formats its share of the blocks however slowly it starts."""
        if not hasattr(os, "posix_spawn"):
            pytest.skip("no os.posix_spawn on this platform")
        import select

        pids, spawn, poll = [], os.posix_spawn, select.select

        def counted(*args, **kwargs):
            pids.append(spawn(*args, **kwargs))
            return pids[-1]

        monkeypatch.setattr(os, "posix_spawn", counted)
        monkeypatch.setattr(select, "select", lambda r, w, x, timeout: poll(r, w, x))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        return pids

    @pytest.fixture
    def replies(self, monkeypatch):
        """How many messages, the greeting included, the writer receives."""
        got, load = [], scenario.marshal.load

        def counted(f):
            got.append(load(f))
            return got[-1]

        monkeypatch.setattr(scenario.marshal, "load", counted)
        return got

    # rows of a 16-column write just past the break-even, and of one just short of it
    LONG = -(-scenario._SPAWN_BLOCK_COLUMNS // 16) * scenario._BLOCK_ROWS + 517
    SHORT = (scenario._SPAWN_BLOCK_COLUMNS // 16 - 1) * scenario._BLOCK_ROWS

    def test_matches_row_loop(self, tmp_path, spawns, replies):
        fds = _open_fds()
        test_write_csv_matches_row_loop(tmp_path, self.LONG)
        # the greeting, then every other block from the second one on
        blocks = -(-self.LONG // scenario._BLOCK_ROWS)
        assert len(spawns) == 1 and len(replies) == 1 + (blocks - 1) // 2
        assert _open_fds() == fds
        _no_child_left()

    @pytest.mark.parametrize("pipe, queued", [(1 << 20, 2), (1 << 16, 1)])
    def test_blocks_queued(self, tmp_path, spawns, replies, monkeypatch, pipe, queued):
        # two blocks wait for the process while a request fits in the
        # requests pipe. In a 64 KiB pipe a request of 16 columns does not:
        # the writer could block on a second one while the process blocks
        # on a reply that the writer does not read yet
        import fcntl

        if not hasattr(fcntl, "F_SETPIPE_SZ"):
            pytest.skip("the writer sets pipe sizes on Linux only")
        setsize, spawn, events = fcntl.fcntl, scenario._spawn_formatter, []

        class Requests:
            def __init__(self, f):
                self.f = f

            def write(self, data):
                events.append(1)
                return self.f.write(data)

            def flush(self):
                self.f.flush()

            def close(self):
                self.f.close()

        def spawned():
            process, room = spawn()
            process.stdin = Requests(process.stdin)
            return process, room

        monkeypatch.setattr(fcntl, "fcntl", lambda fd, cmd, arg: setsize(fd, cmd, pipe))
        monkeypatch.setattr(scenario, "_spawn_formatter", spawned)
        load = scenario.marshal.load
        monkeypatch.setattr(scenario.marshal, "load", lambda f: events.append(-1) or load(f))
        test_write_csv_matches_row_loop(tmp_path, self.LONG)
        blocks = -(-self.LONG // scenario._BLOCK_ROWS)
        assert len(spawns) == 1 and len(replies) == 1 + (blocks - 1) // 2
        # the greeting is the first message received
        assert events[0] == -1 and max(np.cumsum(events[1:])) == queued
        _no_child_left()

    def test_in_process_below_break_even(self, tmp_path, spawns):
        test_write_csv_matches_row_loop(tmp_path, self.SHORT)
        assert spawns == []

    def test_in_process_on_one_cpu(self, tmp_path, spawns, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        test_write_csv_matches_row_loop(tmp_path, self.LONG)
        assert spawns == []

    def test_in_process_when_no_process_starts(self, tmp_path, monkeypatch):
        # out of processes: the write goes on in this process, and closes
        # the pipes it made
        def refused(*args, **kwargs):
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "posix_spawn", refused)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        fds = _open_fds()
        test_write_csv_matches_row_loop(tmp_path, self.LONG)
        assert _open_fds() == fds
        _no_child_left()

    def test_in_process_when_the_process_never_greets(self, tmp_path, spawns, monkeypatch):
        script = tmp_path / "silent.py"
        script.write_text("import os\nos._exit(1)\n")
        monkeypatch.setattr(scenario.csvblock, "__file__", str(script))
        test_write_csv_matches_row_loop(tmp_path, self.LONG)
        assert len(spawns) == 1
        _no_child_left()

    def test_silent_process_is_killed(self, tmp_path, monkeypatch):
        # a process that neither greets nor ends is killed once the writer
        # has formatted every block itself
        script = tmp_path / "silent.py"
        script.write_text("import time\ntime.sleep(600)\n")
        monkeypatch.setattr(scenario.csvblock, "__file__", str(script))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        test_write_csv_matches_row_loop(tmp_path, self.LONG)
        _no_child_left()

    def test_sigchld_ignored(self, tmp_path, spawns, replies):
        # the system reaps the process itself, and the writer must not fail
        import signal

        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            test_write_csv_matches_row_loop(tmp_path, self.LONG)
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert len(spawns) == 1 and len(replies) > 1
        _no_child_left()

    def test_kept_set_is_the_in_process_one(self, tmp_path, spawns, replies, monkeypatch):
        def case_study(out):
            """The kept set after each write of the bundled case study."""
            scenario._KEPT.clear()
            held = []

            def write_csv(*args, **kwargs):
                _write_csv(*args, **kwargs)
                held.append((dict(scenario._KEPT), scenario._KEPT.nbytes))

            monkeypatch.setattr(scenario, "_write_csv", write_csv)
            assert run_cli("case-study", "--out", str(out)) == 0
            return held

        shared = case_study(tmp_path / "shared")
        assert len(spawns) == 5 and len(replies) > 5 * 2
        monkeypatch.delattr(os, "posix_spawn")
        assert case_study(tmp_path / "in_process") == shared
        assert len(spawns) == 5 and shared[3][0]
        for name in ("case_study.csv", *(f"trace_{s}.csv" for s in SUBCASES)):
            assert ((tmp_path / "shared" / name).read_bytes()
                    == (tmp_path / "in_process" / name).read_bytes())

    def test_repeated_block_kept_once(self, tmp_path, spawns, monkeypatch):
        # in one process the later copies find the first one kept; the
        # formatter process formats its copies again, and the writer must
        # not keep them twice
        col = np.tile(np.arange(scenario._BLOCK_ROWS) * 0.1,
                      -(-self.LONG // scenario._BLOCK_ROWS) + 2)
        cols = [col] + [np.zeros(col.size)] * 15
        kept = []
        for _ in range(2):
            scenario._KEPT.clear()
            _write_csv(tmp_path / "out.csv", "c", cols, "test CSV", keep=1)
            kept.append((dict(scenario._KEPT), scenario._KEPT.nbytes))
            monkeypatch.delattr(os, "posix_spawn", raising=False)
        assert len(spawns) == 1 and kept[0] == kept[1] and len(kept[0][0]) == 1
        scenario._KEPT.clear()

    def test_unwritable_path_starts_nothing(self, tmp_path, spawns):
        with pytest.raises(OSError, match=re.escape(f"cannot write test CSV to {tmp_path}")):
            _write_csv(tmp_path, "c", [np.arange(self.LONG, dtype=float)] * 16, "test CSV")
        assert spawns == []
        _no_child_left()

    def test_failed_process_names_the_path(self, tmp_path, spawns, monkeypatch):
        script = tmp_path / "dying.py"
        script.write_text(_DYING_FORMATTER)
        monkeypatch.setattr(scenario.csvblock, "__file__", str(script))
        path = tmp_path / "out.csv"
        fds = _open_fds()
        with pytest.raises(OSError, match=re.escape(f"cannot write test CSV to {path}: the "
                                                    "formatting process ended early")):
            _write_csv(path, "c", [np.arange(self.LONG) * 0.1] * 16, "test CSV")
        assert len(spawns) == 1 and _open_fds() == fds
        _no_child_left()

    def test_failed_writer_ends_the_process(self, tmp_path, spawns, monkeypatch):
        # the writer stops reading: closing its ends of the pipes ends the
        # process, and the writer reaps it
        calls, format_block = [], scenario.csvblock.format_block

        def failing(*args):
            calls.append(None)
            if len(calls) > 4:
                raise MemoryError("writer failed")
            return format_block(*args)

        monkeypatch.setattr(scenario.csvblock, "format_block", failing)
        cols = [np.arange(self.LONG) * 0.1 for _ in range(16)]
        with pytest.raises(MemoryError, match="writer failed"):
            _write_csv(tmp_path / "out.csv", "c", cols, "test CSV")
        assert len(spawns) == 1
        _no_child_left()

    def test_writes_without_warnings(self, tmp_path, spawns):
        # python 3.12 and later warn on os.fork in a process with threads, as
        # numpy's BLAS has; the writer starts its process without a fork
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            test_write_csv_matches_row_loop(tmp_path, self.LONG)
        assert len(spawns) == 1 and caught == []

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts minor faults of private pages on Linux")
    def test_spawn_leaves_pages_writable(self, tmp_path, spawns):
        # a fork write-protects every private page of the writer, and each
        # page it rewrites after the write then faults once; a spawn leaves
        # them writable. 4 KiB pages, so that one fault stands for one page
        import mmap
        import resource

        pages = mmap.mmap(-1, 8 << 20, flags=mmap.MAP_PRIVATE)
        pages.madvise(mmap.MADV_NOHUGEPAGE)
        array = np.frombuffer(pages, np.uint8)
        array += 1
        _write_csv(tmp_path / "out.csv", "c", [np.arange(self.LONG) * 0.1] * 16, "test CSV")
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        array += 1
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        del array
        pages.close()
        assert faults < 64, f"{faults} minor faults on 2048 pages"
        assert len(spawns) == 1
