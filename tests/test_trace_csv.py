"""read_trace_csv: the eagerly and lazily parsed fields against a full parse
of the file, the dataclass behaviour of a read trace, and malformed traces
rejected with exit 2 by `estimate`."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droopinertia import (
    ConstantDroop,
    DroopSchedule,
    FfrSpec,
    ImbalanceEvent,
    NoControl,
    SimConfig,
    Trace,
    ValidationError,
    Vdic,
    cli,
    emit_trace_csv,
    estimate_from_trace,
    read_trace_csv,
    simulate,
)

from conftest import make_ffrs, make_model

SIM = SimConfig(time_step=1e-2, duration=6.0)
EVENT = ImbalanceEvent(-0.3, onset_time=1.0)


@pytest.fixture(scope="module")
def bundled_trace(tmp_path_factory):
    """trace_vdic.csv of the bundled scenario: 60 001 rows, four FFRs."""
    out = tmp_path_factory.mktemp("bundled")
    assert cli.main(["simulate", "--out", str(out)]) == 0
    return out / "trace_vdic.csv"


def _written(tmp_path, n_ffr, controller):
    trace = simulate(make_model(make_ffrs(n_ffr)), EVENT, controller, SIM)
    path = tmp_path / f"trace_{n_ffr}.csv"
    emit_trace_csv(trace, path)
    return path


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestFieldsMatchFullParse:
    def _check(self, path):
        full = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        trace = read_trace_csv(path)
        deferred = ("omega", "droop_active", "per_ffr_power")
        assert not set(deferred) & set(vars(trace))
        expected = {"sample_times": full[:, 0], "rocof": full[:, 2],
                    "ffr_power": full[:, 3], "omega": full[:, 1],
                    "droop_active": full[:, 4], "per_ffr_power": full[:, 5:].T}
        for name, column in expected.items():
            assert _same_bits(getattr(trace, name), column), name
        assert set(deferred) <= set(vars(trace))
        return trace

    def test_bundled_four_ffr_vdic(self, bundled_trace):
        trace = self._check(bundled_trace)
        assert trace.per_ffr_power.shape == (4, 60001)

    @pytest.mark.parametrize("n_ffr", [1, 16])
    def test_fleet(self, tmp_path, n_ffr):
        schedule = DroopSchedule(40.0, 16.0 * n_ffr, 4.0)
        trace = self._check(_written(tmp_path, n_ffr, Vdic(schedule)))
        assert trace.ffr_ids == tuple(f"hvdc{i}" for i in range(1, n_ffr + 1))

    def test_no_ffrs(self, tmp_path):
        trace = simulate(make_model([]), EVENT, NoControl(), SIM)
        path = tmp_path / "bare.csv"
        emit_trace_csv(trace, path)
        back = self._check(path)
        assert back.per_ffr_power.shape == (0, 601)
        assert back.ffr_ids == ()

    def test_estimate_parses_no_deferred_column(self, bundled_trace):
        trace = read_trace_csv(bundled_trace)
        estimate_from_trace(trace, 39.2, -0.3)
        assert "omega" not in vars(trace)


def _accepted(label):
    try:
        FfrSpec(label, 32.0, 8.0)
    except ValidationError:
        return False
    return True


# any id the constructor accepts
IDS = st.lists(st.text(min_size=1, max_size=6).filter(_accepted),
               min_size=1, max_size=3, unique=True)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(IDS)
def test_any_accepted_id_round_trips(tmp_path_factory, ids):
    ffrs = [FfrSpec(label, 32.0, 8.0, 0.25) for label in ids]
    trace = simulate(make_model(ffrs), EVENT, ConstantDroop(16.0), SimConfig(1e-2, 2.0))
    path = tmp_path_factory.mktemp("ids") / "trace.csv"
    emit_trace_csv(trace, path)
    back = read_trace_csv(path)
    assert back.ffr_ids == trace.ffr_ids
    for field in dataclasses.fields(Trace):
        value = getattr(trace, field.name)
        if isinstance(value, np.ndarray):
            assert _same_bits(np.asarray(getattr(back, field.name)), np.asarray(value))
        else:
            assert getattr(back, field.name) == value


class TestReadTraceIsATrace:
    @pytest.fixture
    def pair(self, tmp_path):
        path = _written(tmp_path, 4, ConstantDroop(32.0))
        return read_trace_csv(path), read_trace_csv(path)

    def test_isinstance_and_fields(self, pair):
        trace, _ = pair
        assert isinstance(trace, Trace)
        assert [f.name for f in dataclasses.fields(trace)] == [
            "sample_times", "omega", "rocof", "ffr_power", "droop_active",
            "per_ffr_power", "ffr_ids", "onset_time"]

    def test_eq(self, pair):
        trace, other = pair
        assert trace == trace
        assert trace != object()
        # arrays compare elementwise, so two distinct traces cannot use ==
        assert all(np.array_equal(getattr(trace, f.name), getattr(other, f.name))
                   for f in dataclasses.fields(Trace))

    def test_replace(self, pair):
        trace, _ = pair
        moved = dataclasses.replace(trace, onset_time=2.0)
        assert type(moved) is Trace and moved.onset_time == 2.0
        assert moved.omega is trace.omega
        assert moved.per_ffr_power is trace.per_ffr_power

    def test_repr(self, pair):
        trace, _ = pair
        text = repr(trace)
        assert text.startswith("Trace(sample_times=array(")
        assert "omega=array(" in text and "ffr_ids=('hvdc1'," in text

    def test_unknown_attribute(self, pair):
        trace, _ = pair
        with pytest.raises(AttributeError, match="nope"):
            trace.nope
        assert "omega" not in vars(trace)
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace.omega = None


def test_rewritten_file_rejected_on_first_deferred_access(tmp_path):
    path = _written(tmp_path, 4, ConstantDroop(32.0))
    trace = read_trace_csv(path)
    other = simulate(make_model(), EVENT, ConstantDroop(32.0), SimConfig(1e-2, 7.0))
    emit_trace_csv(other, path)
    for _ in range(2):
        with pytest.raises(ValidationError, match="changed after it was read"):
            trace.omega
    assert trace.ffr_power.size == 601


def _edit(src, dst, line, edit):
    lines = src.read_text().splitlines(keepends=True)
    lines[line - 1] = edit(lines[line - 1])
    dst.write_text("".join(lines))


def _set_field(column, value):
    def edit(line):
        fields = line.rstrip("\n").split(",")
        fields[column] = value
        return ",".join(fields) + "\n"
    return edit


class TestMalformedTraceExits2:
    """Each edit of the bundled trace makes `estimate` exit 2, with the file
    and the first bad line on stderr."""

    LINE = 20002  # t = 20.0 s, after the onset

    @pytest.mark.parametrize("line, edit, message", [
        (LINE, _set_field(3, "abc"), "could not convert"),
        (LINE, lambda row: ",".join(row.split(",")[:3]) + "\n", "invalid column index"),
        (1, lambda row: row.replace("p_hvdc3", "p_hvdc1"), "'p_hvdc1' is not a new p_<id>"),
        (LINE, _set_field(3, "nan"), "not finite"),
        (LINE, _set_field(0, "20.0005"), "uniform grid"),
    ], ids=["abc", "short_row", "duplicate_id", "nan_ffr_power", "nonuniform_t"])
    def test_estimate(self, bundled_trace, tmp_path, capsys, line, edit, message):
        bad = tmp_path / "bad.csv"
        _edit(bundled_trace, bad, line, edit)
        assert cli.main(["estimate", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}, line {line}: ")
        assert message in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("edit", [lambda row: row.rstrip("\n") + ",0.0\n",
                                      lambda row: row.rsplit(",", 1)[0] + "\n"],
                             ids=["long", "short"])
    def test_first_row_field_count(self, bundled_trace, tmp_path, edit):
        bad = tmp_path / "bad.csv"
        _edit(bundled_trace, bad, 2, edit)
        message = re.escape(f"{bad}, line 2: ") + ".* the header has 9"
        with pytest.raises(ValidationError, match=message):
            read_trace_csv(bad)

    @pytest.mark.parametrize("edit", [_set_field(1, "abc"), _set_field(8, "inf"),
                                      lambda row: row.rsplit(",", 1)[0] + "\n"],
                             ids=["abc_omega", "inf_p", "short_row"])
    def test_bad_deferred_column_raises_on_access(self, bundled_trace, tmp_path, edit):
        # estimate never parses these columns, so only an access finds them
        bad = tmp_path / "bad.csv"
        _edit(bundled_trace, bad, self.LINE, edit)
        trace = read_trace_csv(bad)
        with pytest.raises(ValidationError, match=re.escape(f"{bad}, line {self.LINE}: ")):
            trace.omega

    def test_t_must_increase(self, bundled_trace, tmp_path):
        bad = tmp_path / "bad.csv"
        _edit(bundled_trace, bad, 3, _set_field(0, "0.0"))
        with pytest.raises(ValidationError, match="line 3: t does not increase"):
            read_trace_csv(bad)

    @pytest.mark.parametrize("line", [2, 500], ids=["header_read", "body_parse"])
    def test_byte_not_utf8(self, bundled_trace, tmp_path, capsys, line):
        # line 2 fails in the header's read, line 500 in numpy's parse
        lines = bundled_trace.read_bytes().splitlines(keepends=True)
        lines[line - 1] = lines[line - 1][:5] + b"\xff" + lines[line - 1][5:]
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"".join(lines))
        assert cli.main(["estimate", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}, line {line}: byte 0xff is not UTF-8")
        assert not (tmp_path / "o").exists()

    def test_wrong_fixed_header(self, bundled_trace, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        _edit(bundled_trace, bad, 1, lambda row: row.replace("rocof", "dfdt"))
        assert cli.main(["estimate", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: unexpected trace header ")
        assert "'dfdt'" in err

    def test_too_few_rows(self, bundled_trace, tmp_path):
        bad = tmp_path / "bad.csv"
        lines = bundled_trace.read_text().splitlines(keepends=True)
        bad.write_text("".join(lines[:2]))
        with pytest.raises(ValidationError, match="at least two rows, got 1"):
            read_trace_csv(bad)
        bad.write_text(lines[0])
        with pytest.raises(ValidationError, match="line 2: 1 fields, the header has 9"):
            read_trace_csv(bad)
