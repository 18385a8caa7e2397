"""Scenario configs, the four-subcase case study, metrics, and CSV output.

Config files are JSON with a versioned schema; see the README for the full
field list. All powers are per-unit on the model's MVA base, times in
seconds.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, fields, replace
from functools import partial
from importlib import resources
from pathlib import Path

import numpy as np

from .controllers import (
    ConstantDroop,
    Controller,
    DroopSchedule,
    GovernorSpec,
    NoControl,
    Vdic,
)
from . import csvblock
from .errors import ConfigError, ValidationError
from .model import (FfrSpec, GeneratorSpec, ImbalanceEvent, SimConfig, SystemModel,
                    _require_bool, _require_label, _require_nonnegative, _require_positive)
from .integrate import Trace, _onset_index, simulate

SUBCASES = ("no_control", "added_inertia", "constant_droop", "vdic")

SCHEMA_VERSION = 1

#: settledness threshold on |RoCoF| at the end of a run, p.u./s
SETTLED_ROCOF = 1e-6


def default_config_path() -> Path:
    """Path of the bundled default scenario (single-machine 1000 MVA system,
    39.2 s inertia, -0.3 p.u. imbalance at t = 10 s, four HVDC FFRs)."""
    return Path(str(resources.files("droopinertia") / "data" / "default_scenario.json"))


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to run one subcase (or, with all optional blocks
    present, the whole four-subcase case study)."""

    model: SystemModel
    event: ImbalanceEvent
    sim: SimConfig
    subcase: str
    governor: GovernorSpec = GovernorSpec(enabled=False)
    k_total: float | None = None
    vdic_schedule: DroopSchedule | None = None
    added_inertia: float | None = None

    def __post_init__(self):
        if self.subcase not in SUBCASES:
            raise ValidationError(
                f"subcase must be one of {SUBCASES}, got {self.subcase!r}"
            )
        if self.sim.duration <= self.event.onset_time:
            raise ValidationError(
                "sim.duration_s must exceed event.onset_time_s "
                f"({self.sim.duration} <= {self.event.onset_time})"
            )
        if self.subcase == "constant_droop" and self.k_total is None:
            raise ValidationError(
                "subcase 'constant_droop' requires the constant_droop.k_total_pu block"
            )
        if self.subcase == "vdic" and self.vdic_schedule is None:
            raise ValidationError("subcase 'vdic' requires the vdic_schedule block")
        if self.subcase == "added_inertia" and self.added_inertia is None:
            raise ValidationError(
                "subcase 'added_inertia' requires the added_inertia.delta_tj_s block"
            )


@dataclass(frozen=True)
class SummaryMetrics:
    """Scalar summary of one trace.

    initial_rocof is the mean RoCoF over the first 100 ms after onset;
    steady_state_omega the mean deviation over the final 10% of the run;
    settled flags |RoCoF| < 1e-6 p.u./s at the last sample.
    """

    initial_rocof: float
    nadir: float
    nadir_time: float
    steady_state_omega: float
    settled: bool


# --------------------------------------------------------------------------
# config ingestion
# --------------------------------------------------------------------------

def _known(block: dict, ctx: str, keys: str) -> dict:
    """block, once each of its keys is one of the space-separated keys."""
    allowed = keys.split()
    for key in block:
        if key not in allowed:
            raise ValidationError(f"unknown field {ctx}.{key}")
    return block


def _build(cls, block: dict, ctx: str, keys: str, **checks):
    """cls from the JSON object block, whose keys, space-separated in the
    order of cls's fields, are at once the block's allow-list and its reads.
    A key present passes its value, through checks[key](name, value) if
    given; a key absent leaves its field's default, and is refused if the
    field has none."""
    _known(block, ctx, keys)
    args = {}
    for key, field in zip(keys.split(), fields(cls)):
        if key in block:
            check = checks.get(key)
            args[field.name] = block[key] if check is None else check(f"{ctx}.{key}", block[key])
        elif field.default is MISSING:
            raise ValidationError(f"missing field {ctx}.{key}")
    return cls(**args)


def _object(name: str, value) -> tuple[dict, str]:
    """value, if a JSON object, and the context of its fields' names: the
    top level's blocks are named without its "config." prefix."""
    if not isinstance(value, dict):
        raise ValidationError(f"{name} must be an object")
    return value, name.removeprefix("config.")


def _block(cls, keys: str, **checks):
    """A check building cls by _build from a JSON object."""
    return lambda name, value: _build(cls, *_object(name, value), keys, **checks)


def _entries(cls, keys: str, **checks):
    """A check building a list of cls by _build from a JSON list of objects."""
    entry = _block(cls, keys, **checks)
    def build(name: str, items) -> list:
        if not isinstance(items, list):
            raise ValidationError(f"{name} must be a list")
        return [entry(f"{name}[{i}]", item) for i, item in enumerate(items)]
    return build


def _sole(key: str, check):
    """A check reading a JSON object of the one field key through check."""
    def read(name: str, value):
        block, ctx = _object(name, value)
        if key not in _known(block, ctx, key):
            raise ValidationError(f"missing field {ctx}.{key}")
        return check(f"{ctx}.{key}", block[key])
    return read


def _unique(pairs: list) -> dict:
    """A JSON object from its pairs, refused when a key repeats."""
    block = {}
    for key, value in pairs:
        if key in block:
            raise ValidationError(f"repeated field {key}")
        block[key] = value
    return block


def load_config(path: str | Path) -> ScenarioConfig:
    """Parse and fully validate a scenario config file.

    Raises ConfigError with the file name plus the offending field (or JSON
    position for parse errors), also for a field the schema does not know,
    one that repeats, or nesting too deep to parse. All nested invariants
    are checked here, at load time, not when the simulation starts,
    whichever subcase runs. An absent optional field or block takes its
    class's default.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text, object_pairs_hook=_unique)
        if not isinstance(doc, dict):
            raise ValidationError("top level must be a JSON object")
        version = doc.pop("schema_version", SCHEMA_VERSION)
        if type(version) is not int or version != SCHEMA_VERSION:
            raise ValidationError(f"unsupported schema_version {version!r}")
        return _build(
            ScenarioConfig, doc, "config",
            "model event sim subcase governor constant_droop vdic_schedule added_inertia",
            model=_block(SystemModel, "system_base_mva generators ffrs",
                         generators=_entries(GeneratorSpec, "nominal_power_mva inertia_constant_s"),
                         ffrs=_entries(FfrSpec, "id droop_upper_bound droop_optimal regulation_margin",
                                       id=_require_label)),
            event=_block(ImbalanceEvent, "delta_pf_pu onset_time_s"),
            sim=_block(SimConfig, "time_step_s duration_s integrator"),
            subcase=lambda name, value: str(value),
            governor=_block(GovernorSpec, "enabled droop_gain_pu time_constant_s",
                            enabled=_require_bool),
            constant_droop=_sole("k_total_pu", _require_nonnegative),
            vdic_schedule=_block(DroopSchedule, "target_inertia_s upper_bound_pu lower_bound_pu"),
            added_inertia=_sole("delta_tj_s", _require_positive),
        )
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValidationError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise ConfigError(f"{path}: {exc}") from exc


# --------------------------------------------------------------------------
# running
# --------------------------------------------------------------------------

def _controller_for(config: ScenarioConfig) -> tuple[Controller, SystemModel]:
    if config.subcase == "no_control":
        return NoControl(), config.model
    if config.subcase == "added_inertia":
        return NoControl(), config.model.with_added_inertia(config.added_inertia)
    if config.subcase == "constant_droop":
        return ConstantDroop(config.k_total), config.model
    return Vdic(config.vdic_schedule), config.model


def run_subcase(config: ScenarioConfig) -> tuple[Trace, SummaryMetrics]:
    """Simulate one subcase and summarize its trace."""
    controller, model = _controller_for(config)
    trace = simulate(model, config.event, controller, config.sim,
                     governor=config.governor)
    return trace, summarize(trace)


def _onset_window(trace: Trace) -> tuple[int, int]:
    """Indices of the onset sample and of the sample 100 ms after it."""
    t, dt = trace.sample_times, trace.time_step
    i_on = _onset_index(t, trace.onset_time, dt)
    if i_on >= t.size - 1:
        raise ValidationError("trace has no post-onset samples to summarize")
    return i_on, min(t.size - 1, i_on + max(1, round(0.1 / dt)))


def summarize(trace: Trace) -> SummaryMetrics:
    """Compute SummaryMetrics from a trace.

    Works from the sampled series only (t, omega, rocof), so metrics
    recomputed from an emitted CSV reproduce the originals exactly.
    """
    t = trace.sample_times
    i_on, i_win = _onset_window(trace)
    initial = (trace.omega[i_win] - trace.omega[i_on]) / (t[i_win] - t[i_on])

    post = trace.omega[i_on:]
    k = int(np.argmin(post))
    i_tail = int(np.searchsorted(t, 0.9 * t[-1] - 1e-9 * trace.time_step, side="left"))

    return SummaryMetrics(
        initial_rocof=float(initial),
        nadir=float(post[k]),
        nadir_time=float(t[i_on + k]),
        steady_state_omega=float(np.mean(trace.omega[i_tail:])),
        settled=bool(abs(trace.rocof[-1]) < SETTLED_ROCOF),
    )


@dataclass(frozen=True)
class CaseStudyResult:
    traces: dict[str, Trace]
    metrics: dict[str, SummaryMetrics]
    report: dict


def run_case_study(config: ScenarioConfig) -> CaseStudyResult:
    """Run all four subcases off one shared model/event/sim/governor.

    The config must carry both the constant_droop and vdic_schedule blocks;
    an added_inertia block, if present, must agree with the schedule's
    target inertia (the added-inertia subcase uses that target). Every
    subcase's config is built, and so checked, before any is run.
    """
    if config.vdic_schedule is None:
        raise ValidationError("case study requires the vdic_schedule block")
    delta_tj = config.vdic_schedule.target_inertia
    if config.added_inertia is not None and config.added_inertia != delta_tj:
        raise ValidationError(
            "inconsistent shared parameters: added_inertia.delta_tj_s "
            f"({config.added_inertia}) differs from vdic_schedule.target_inertia_s "
            f"({delta_tj})"
        )
    configs = {sub: replace(config, subcase=sub, added_inertia=delta_tj) for sub in SUBCASES}

    traces: dict[str, Trace] = {}
    metrics: dict[str, SummaryMetrics] = {}
    for sub, sub_cfg in configs.items():
        traces[sub], metrics[sub] = run_subcase(sub_cfg)

    return CaseStudyResult(traces, metrics, _ordering_report(config, traces, metrics))


def _ordering_report(config: ScenarioConfig, traces: dict[str, Trace],
                     metrics: dict[str, SummaryMetrics]) -> dict:
    """Quantify the qualitative case-study claims: early RoCoF ordering,
    early agreement of the no-control and constant-droop runs, and the
    steady-state benefit of the droop floor."""
    rocof = {s: metrics[s].initial_rocof for s in SUBCASES}
    mag = {s: abs(v) for s, v in rocof.items()}
    rel_iv_ii = abs(rocof["vdic"] - rocof["added_inertia"]) / abs(rocof["added_inertia"])

    i_on, i_win = _onset_window(traces["no_control"])
    early_gap = float(
        np.max(
            np.abs(
                traces["no_control"].omega[i_on : i_win + 1]
                - traces["constant_droop"].omega[i_on : i_win + 1]
            )
        )
    )

    ss = {s: abs(metrics[s].steady_state_omega) for s in SUBCASES}
    return {
        "initial_rocof": rocof,
        "initial_rocof_ordering": {
            "added_inertia_lowest": bool(
                mag["added_inertia"] <= min(mag["vdic"], mag["constant_droop"], mag["no_control"])
            ),
            "vdic_below_constant_droop": bool(mag["vdic"] < mag["constant_droop"]),
            "constant_droop_below_no_control": bool(mag["constant_droop"] < mag["no_control"]),
            "vdic_vs_added_inertia_rel_diff": float(rel_iv_ii),
            "vdic_matches_added_inertia_within_2pct": bool(rel_iv_ii < 0.02),
        },
        "early_window": {
            "window_s": 0.1,
            "max_abs_gap_no_control_vs_constant_droop": early_gap,
        },
        "steady_state_abs_omega": ss,
        "vdic_steady_state_tighter_than_added_inertia": bool(ss["vdic"] < ss["added_inertia"]),
        "nadir": {s: metrics[s].nadir for s in SUBCASES},
        "nadir_time": {s: metrics[s].nadir_time for s in SUBCASES},
        "settled": {s: metrics[s].settled for s in SUBCASES},
    }


# --------------------------------------------------------------------------
# CSV emission / ingestion
# --------------------------------------------------------------------------

TRACE_COLUMNS = ("t", "omega", "rocof", "ffr_power", "droop_active")

_CHUNK_ROWS = 2048  # rows formatted at once; caps the formatter's arrays, and so peak memory


def _write_csv(path: str | Path, header: str, cols: list[np.ndarray], what: str) -> None:
    """Write equal-length columns of native numbers under a header, each value
    as exactly ``repr`` of its Python scalar, formatted _CHUNK_ROWS rows at a
    time by csvblock.format_block."""
    try:
        with open(path, "wb") as f:
            f.write(header.encode() + b"\n")
            for lo in range(0, len(cols[0]), _CHUNK_ROWS):
                f.write(csvblock.format_block([c[lo:lo + _CHUNK_ROWS] for c in cols]))
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from exc


def emit_trace_csv(trace: Trace, path: str | Path) -> None:
    """Write a trace as CSV: header then one full-precision row per sample.

    The package's one CSV writer puts out each value as exactly ``repr`` of
    its float (shortest round-trip form), so parsing the file back yields
    bit-identical values and identical recomputed metrics."""
    header = ",".join(TRACE_COLUMNS) + "".join(f",p_{i}" for i in trace.ffr_ids)
    cols = [trace.sample_times, trace.omega, trace.rocof, trace.ffr_power,
            trace.droop_active, *trace.per_ffr_power]
    _write_csv(path, header, [np.asarray(c, float) for c in cols], "trace CSV")


_EAGER_COLUMNS = (0, 2, 3)  # t, rocof, ffr_power: all that estimate_from_trace reads


def read_trace_csv(path: str | Path) -> Trace:
    """Parse a CSV produced by emit_trace_csv back into a Trace.

    t, rocof and ffr_power are parsed here. omega, droop_active and the
    ``p_<id>`` columns are parsed on the first access to one of them, if the
    file's size and mtime are still those of this read; a caller that never
    touches them, like estimate_from_trace, never pays for them. Values
    round-trip bit-exactly, since the writer writes repr.

    Raises ValidationError naming the file and the first bad line for: a
    wrong header or an FFR column that is not a new ``p_<id>``; a first data
    row whose field count differs from the header's; a value that does not
    parse or is not finite; fewer than two rows; a t column that does not
    increase or is off the uniform grid of its first step by more than
    1e-9 * dt. Values of the deferred columns, and rows past the
    first that are short only in them, are checked when they are parsed.

    The onset is recovered as the first sample with nonzero rocof (exact:
    the emitted rocof is identically 0.0 before onset and steps to
    delta_pf / t_j at it). A trace that never sees the onset gets
    onset_time = +inf, which downstream estimators reject.
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as f:
            header = f.readline().strip().split(",")
            first = f.readline().strip()
        stamp = _stamp(path)
    except OSError as exc:
        raise ValidationError(f"cannot read trace CSV {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc
    if tuple(header[: len(TRACE_COLUMNS)]) != TRACE_COLUMNS:
        raise ValidationError(
            f"{path}: unexpected trace header {header[:len(TRACE_COLUMNS)]}"
        )
    ffr_ids = []
    for name in header[len(TRACE_COLUMNS):]:
        if not name.startswith("p_") or name[2:] in ffr_ids or not name[2:]:
            raise ValidationError(f"{path}, line 1: column {name!r} is not a new p_<id>")
        ffr_ids.append(name[2:])
    if first.count(",") + 1 != len(header):
        raise ValidationError(f"{path}, line 2: {first.count(',') + 1} fields, "
                              f"the header has {len(header)}")
    data = _parse_columns(path, stamp, _EAGER_COLUMNS)
    if data.shape[0] < 2:
        raise ValidationError(f"{path}: a trace needs at least two rows, got {data.shape[0]}")
    t, rocof = data[:, 0], data[:, 1]
    dt = t[1] - t[0]
    if not dt > 0.0:
        raise ValidationError(f"{path}, line 3: t does not increase")
    off_grid = ~(np.abs(t - (t[0] + np.arange(t.size) * dt)) <= 1e-9 * dt)
    if off_grid.any():
        raise ValidationError(f"{path}, line {int(np.argmax(off_grid)) + 2}: t is not "
                              f"on the uniform grid of step {dt!r} set by its first two rows")
    nonzero = np.nonzero(rocof)[0]
    onset = float(t[nonzero[0]]) if nonzero.size else math.inf
    deferred = (1, 4, *range(len(TRACE_COLUMNS), len(header)))  # omega, droop_active, p_<id>
    return Trace._lazy(
        partial(_read_deferred, path, stamp, deferred),
        sample_times=t,
        rocof=rocof,
        ffr_power=data[:, 2],
        ffr_ids=tuple(ffr_ids),
        onset_time=onset,
    )


def _stamp(path: Path) -> tuple[int, int]:
    st = os.stat(path)
    return st.st_size, st.st_mtime_ns


def _parse_columns(path: Path, stamp: tuple[int, int], usecols: tuple[int, ...]) -> np.ndarray:
    """Parse the given columns of a trace body, every value finite, from a
    file whose (size, mtime) is ``stamp`` before and after. loadtxt gets the
    path, not an open file, which it would read line by line in Python."""
    try:
        data = (np.loadtxt(path, delimiter=",", skiprows=1, usecols=usecols, ndmin=2,
                           encoding="utf-8") if _stamp(path) == stamp else None)
        unchanged = data is not None and _stamp(path) == stamp
    except OSError as exc:
        raise ValidationError(f"cannot read trace CSV {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc
    except ValueError as exc:
        raise ValidationError(f"{path}, line {_first_bad_line(path, usecols)}: {exc}") from exc
    if not unchanged:
        raise ValidationError(f"{path}: the trace file changed after it was read")
    bad = ~np.isfinite(data).all(axis=1)
    if bad.any():
        raise ValidationError(f"{path}, line {int(np.argmax(bad)) + 2}: a value is not finite")
    return data


def _first_bad_line(path: Path, usecols: tuple[int, ...]) -> int | str:
    """Number of the first line that is not UTF-8, or of the first body line
    where a used column is missing or does not parse as a float, as numpy's
    messages number rows inconsistently."""
    with open(path, "rb") as f:
        for number, line in enumerate(f, start=1):
            try:  # a UnicodeDecodeError is a ValueError
                body = line.decode("utf-8").split("#")[0]
                if number > 1 and body.strip():
                    [float(body.split(",")[c]) for c in usecols]
            except (IndexError, ValueError):
                return number
    return "?"


def _not_utf8(path: Path, exc: UnicodeDecodeError) -> ValidationError:
    """The refusal of a trace file holding a byte that is not UTF-8, which is
    what the writer writes, naming the byte's line."""
    return ValidationError(f"{path}, line {_first_bad_line(path, ())}: byte "
                           f"{exc.object[exc.start]:#04x} is not UTF-8 ({exc.reason})")


def _read_deferred(path: Path, stamp: tuple[int, int], usecols: tuple[int, ...]):
    """{field: value} of omega, droop_active and per_ffr_power of a trace
    file that must not have changed since read_trace_csv read it."""
    data = _parse_columns(path, stamp, usecols)
    per_ffr_power = data[:, 2:].T
    per_ffr_power.flags.writeable = False  # as in a simulated trace
    return {"omega": data[:, 0], "droop_active": data[:, 1], "per_ffr_power": per_ffr_power}


def emit_case_study_csv(result: CaseStudyResult, path: str | Path) -> None:
    """Merged four-subcase CSV keyed by time: omega and rocof per subcase,
    each value exactly ``repr`` of its float, by the trace CSVs' writer."""
    t = result.traces[SUBCASES[0]].sample_times
    if not all(np.array_equal(result.traces[s].sample_times, t) for s in SUBCASES):
        raise ValidationError("case-study traces are not on a common time grid")
    names = [(q, s) for q in ("omega", "rocof") for s in SUBCASES]
    header = "t" + "".join(f",{q}_{s}" for q, s in names)
    cols = [t, *(getattr(result.traces[s], q) for q, s in names)]
    _write_csv(path, header, [np.asarray(c, float) for c in cols], "case-study CSV")
