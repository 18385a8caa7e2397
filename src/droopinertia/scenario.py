"""Scenario configs, the four-subcase case study, metrics, and CSV output.

Config files are JSON with a versioned schema; see the README for the full
field list. All powers are per-unit on the model's MVA base, times in
seconds.
"""

from __future__ import annotations

import json
import marshal
import math
import os
import select
import sys
import weakref
from contextlib import contextmanager, suppress
from dataclasses import dataclass, replace
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
                    _require_finite, _require_label)
from .integrate import Trace, simulate

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

def _get(section: dict, key: str, ctx: str):
    if key not in section:
        raise ConfigError(f"missing field {ctx}.{key}")
    return section[key]


def _known(block: dict, ctx: str, fields: str) -> dict:
    """block, once each of its keys is one of the space-separated fields."""
    for key in block:
        if key not in fields.split():
            raise ConfigError(f"unknown field {ctx}.{key}")
    return block


def _section(doc: dict, key: str, fields: str, required: bool = True) -> dict | None:
    """The object doc[key], holding only the given fields; None for an
    optional block that is absent."""
    if not required and key not in doc:
        return None
    block = _get(doc, key, "config")
    if not isinstance(block, dict):
        raise ConfigError(f"config.{key} must be an object")
    return _known(block, key, fields)


def _entries(items, ctx: str, fields: str) -> list[dict]:
    if not isinstance(items, list):
        raise ConfigError(f"{ctx} must be a list")
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise ConfigError(f"{ctx}[{i}] must be an object")
        _known(item, f"{ctx}[{i}]", fields)
    return items


def load_config(path: str | Path) -> ScenarioConfig:
    """Parse and fully validate a scenario config file.

    Raises ConfigError with the file name plus the offending field (or JSON
    position for parse errors), also for a field the schema does not know.
    All nested invariants are checked here, at load time, not when the
    simulation starts.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")

    version = doc.get("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ConfigError(f"{path}: unsupported schema_version {version!r}")

    try:
        _known(doc, "config", "schema_version model event sim subcase governor "
               "constant_droop vdic_schedule added_inertia")
        model_sec = _section(doc, "model", "system_base_mva generators ffrs")
        generators = [
            GeneratorSpec(
                nominal_power=_get(g, "nominal_power_mva", f"model.generators[{i}]"),
                inertia_constant=_get(g, "inertia_constant_s", f"model.generators[{i}]"),
            )
            for i, g in enumerate(_entries(_get(model_sec, "generators", "model"),
                                           "model.generators",
                                           "nominal_power_mva inertia_constant_s"))
        ]
        ffrs = [
            FfrSpec(
                id=_require_label(f"model.ffrs[{i}].id", _get(f, "id", f"model.ffrs[{i}]")),
                droop_upper_bound=_get(f, "droop_upper_bound", f"model.ffrs[{i}]"),
                droop_optimal=_get(f, "droop_optimal", f"model.ffrs[{i}]"),
                regulation_margin=f.get("regulation_margin", 0.0),
            )
            for i, f in enumerate(_entries(model_sec.get("ffrs", []), "model.ffrs",
                                           "id droop_upper_bound droop_optimal regulation_margin"))
        ]
        model = SystemModel(
            system_base=_get(model_sec, "system_base_mva", "model"),
            generators=generators,
            ffrs=ffrs,
        )

        event_sec = _section(doc, "event", "delta_pf_pu onset_time_s")
        event = ImbalanceEvent(
            delta_pf=_get(event_sec, "delta_pf_pu", "event"),
            onset_time=event_sec.get("onset_time_s", 0.0),
        )

        sim_sec = _section(doc, "sim", "time_step_s duration_s integrator")
        sim = SimConfig(
            time_step=sim_sec.get("time_step_s", 1e-3),
            duration=sim_sec.get("duration_s", 20.0),
            integrator=sim_sec.get("integrator", "rk4"),
        )

        # an absent governor block reads as the defaults, with enabled false
        gov_sec = _section(doc, "governor", "enabled droop_gain_pu time_constant_s",
                           required=False) or {}
        enabled = gov_sec.get("enabled", False)
        if not isinstance(enabled, bool):
            raise ConfigError(f"governor.enabled must be true or false, got {enabled!r}")
        governor = GovernorSpec(
            enabled=enabled,
            droop_gain=gov_sec.get("droop_gain_pu", 25.0),
            time_constant=gov_sec.get("time_constant_s", 8.0),
        )

        droop_sec = _section(doc, "constant_droop", "k_total_pu", required=False)
        k_total = None if droop_sec is None else _require_finite(
            "constant_droop.k_total_pu", _get(droop_sec, "k_total_pu", "constant_droop"))

        sched_sec = _section(doc, "vdic_schedule",
                             "target_inertia_s upper_bound_pu lower_bound_pu", required=False)
        schedule = None if sched_sec is None else DroopSchedule(
            target_inertia=_get(sched_sec, "target_inertia_s", "vdic_schedule"),
            upper_bound=_get(sched_sec, "upper_bound_pu", "vdic_schedule"),
            lower_bound=_get(sched_sec, "lower_bound_pu", "vdic_schedule"),
        )

        added_sec = _section(doc, "added_inertia", "delta_tj_s", required=False)
        added = None if added_sec is None else _require_finite(
            "added_inertia.delta_tj_s", _get(added_sec, "delta_tj_s", "added_inertia"))

        return ScenarioConfig(
            model=model,
            event=event,
            sim=sim,
            subcase=str(_get(doc, "subcase", "config")),
            governor=governor,
            k_total=k_total,
            vdic_schedule=schedule,
            added_inertia=added,
        )
    except ConfigError:
        raise
    except ValidationError as exc:
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
    i_on = int(np.searchsorted(t, trace.onset_time - 1e-9 * dt, side="left"))
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

_BLOCK_ROWS = 1024  # caps the formatted strings held at once, and so peak memory

#: fewest blocks times columns for which _write_csv starts a formatter
#: process; below it the start-up, the pipes and the reaping cost about what
#: the second CPU saves
_SPAWN_BLOCK_COLUMNS = 256

#: bytes of key plus packed text that _KEPT may hold
_KEPT_BUDGET = 7 << 20


class _Kept(dict):
    """Formatted blocks kept across writes as their text packed two
    characters a byte (csvblock.pack), keyed by a column slice's dtype string
    and bytes, with the bytes of key plus packed text they hold."""

    nbytes = 0

    def __init__(self):
        super().__init__()
        self._finalizers: dict[tuple[str, bytes], weakref.finalize] = {}

    def keep(self, key: tuple[str, bytes], packed: bytes, source: np.ndarray) -> None:
        """Keep packed under key if it is not kept yet and the budget has
        room, and only while the array it was formatted from lives, so that
        a process that writes traces and no case study does not hold their
        text."""
        size = len(key[1]) + len(packed)
        if key not in self and self.nbytes + size <= _KEPT_BUDGET:
            self[key] = packed
            self.nbytes += size
            self._finalizers[key] = weakref.finalize(source, self.drop, key)

    def drop(self, key: tuple[str, bytes]) -> None:
        packed = self.pop(key, None)
        if packed is not None:
            self.nbytes -= len(key[1]) + len(packed)
            del self._finalizers[key]

    def clear(self) -> None:
        """Empty the store and detach its finalizers, so that freeing the
        arrays later runs none of them."""
        super().clear()
        self.nbytes = 0
        for finalizer in self._finalizers.values():
            finalizer.detach()
        self._finalizers.clear()


# the trace CSVs keep their t, omega and rocof blocks here, and the merged
# case-study CSV, which repeats those columns, finds them;
# emit_case_study_csv empties it
_KEPT = _Kept()


def _block_parts(cols: list[np.ndarray], lo: int) -> list:
    """The parts of csvblock.format_block for the block of cols that starts
    at row lo: a column slice that _KEPT holds as its packed text, any other
    as its struct format and bytes."""
    parts = []
    for c in cols:
        part = c[lo : lo + _BLOCK_ROWS]
        data = part.tobytes()
        parts.append(_KEPT.get((part.dtype.str, data)) or (part.dtype.char, data))
    return parts


def _spawn_formatter():
    """(process, room) of a new subprocess.Popen that runs csvblock.py, room
    the bytes that its stdin pipe is known to hold (0 where unknown), or None
    where the host cannot spawn one, lets this process use one CPU only, or is
    out of pipes, processes or memory. With close_fds=False, Popen starts it
    with os.posix_spawn, not a fork."""
    affinity = getattr(os, "sched_getaffinity", None)
    if not hasattr(os, "posix_spawn") or (affinity is not None and len(affinity(0)) < 2):
        return None
    import fcntl  # POSIX only, as os.posix_spawn is
    import subprocess

    try:
        process = subprocess.Popen([sys.executable, "-I", "-S", csvblock.__file__],
                                   stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                   close_fds=False)
    except OSError:
        return None
    rooms = []
    for pipe in (process.stdin, process.stdout):
        try:  # Linux: a whole request or reply fits, where 64 KiB holds less than one
            rooms.append(fcntl.fcntl(pipe, fcntl.F_SETPIPE_SZ, 1 << 20))
        except (AttributeError, OSError):
            rooms.append(0)
    return process, rooms[0]


@contextmanager
def _formatted(cols: list[np.ndarray], keep: int):
    """An iterator over (lo, csvblock.format_block(parts, keep, room)) of each
    block of cols, in order of its first row lo, room the bytes that _KEPT
    could still take when the block was handed out.

    A write of _SPAWN_BLOCK_COLUMNS blocks times columns or more starts a
    formatter process (see _spawn_formatter and csvblock). Until it greets,
    this process formats every block; from then on it hands the process
    every other block, and keeps two of them queued: before it formats a
    block, it sends the process the next block and the one after the next
    but one, unless sent already. So the process finds its next block
    waiting when it finishes one. The second is sent only while a request
    fits in the requests pipe, so that neither process can block writing to
    the other while that one blocks writing too. Leaving the context closes
    both pipes, which ends the process, kills it if it has not greeted, and
    reaps it. The process shares no page with this one, so after it, unlike
    after a fork, this process finds none of its pages write-protected."""
    starts = range(0, len(cols[0]), _BLOCK_ROWS)
    process, room = (len(starts) * len(cols) >= _SPAWN_BLOCK_COLUMNS
                     and _spawn_formatter()) or (None, 0)
    greeted = False if process else None  # None: no process, or one that ended ungreeted

    def blocks():
        nonlocal greeted
        theirs: list[int] = []  # the blocks sent and not yet answered, in order
        for lo in starts:
            reply = None
            try:
                if theirs and theirs[0] == lo:
                    reply = marshal.load(process.stdout)
                    del theirs[0]
                else:
                    if greeted is False and select.select([process.stdout], [], [], 0)[0]:
                        try:
                            greeted = marshal.load(process.stdout) is None
                        except EOFError:  # it did not start: go on alone
                            greeted = None
                    for ahead in (lo + _BLOCK_ROWS, lo + 3 * _BLOCK_ROWS) if greeted else ():
                        if ahead < len(cols[0]) and (not theirs or ahead > theirs[-1]):
                            request = marshal.dumps((keep, _KEPT_BUDGET - _KEPT.nbytes,
                                                     _block_parts(cols, ahead)))
                            if theirs and len(request) > room:
                                break
                            process.stdin.write(request)
                            process.stdin.flush()
                            theirs.append(ahead)
            except (EOFError, BrokenPipeError):
                raise OSError("the formatting process ended early") from None
            yield lo, reply or csvblock.format_block(_block_parts(cols, lo), keep,
                                                     _KEPT_BUDGET - _KEPT.nbytes)

    if process is None:
        yield blocks()
        return
    with process:
        try:
            yield blocks()
        finally:
            process.stdout.close()  # first: a process blocked on a reply ends
            with suppress(OSError):  # the unsent rest of a request the process did not take
                process.stdin.close()
            if not greeted:
                process.kill()


def _write_csv(path: str | Path, header: str, cols: list[np.ndarray], what: str,
               keep: int = 0) -> None:
    """Write equal-length columns of native numbers under a header, each value
    as exactly ``repr`` of its Python scalar. Rows go out in blocks of
    _BLOCK_ROWS, each formatted by csvblock.format_block, in this process or,
    for a long write, in two (see _formatted); the bytes are the same either
    way. The non-constant blocks of the first ``keep`` columns are kept in
    _KEPT in block order, while _KEPT_BUDGET allows, and a block another write
    kept is not formatted again. The file is opened before any process
    starts."""
    try:
        with open(path, "w", newline="") as f, _formatted(cols, keep) as blocks:
            f.write(header + "\n")
            for lo, (rows, kept) in blocks:
                f.write(rows)
                for i, text in kept:
                    part = cols[i][lo : lo + _BLOCK_ROWS]
                    _KEPT.keep((part.dtype.str, part.tobytes()), text, cols[i])
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
    _write_csv(path, header, [np.asarray(c, float) for c in cols], "trace CSV", keep=3)


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
        with open(path, newline="") as f:
            header = f.readline().strip().split(",")
            first = f.readline().strip()
        stamp = _stamp(path)
    except OSError as exc:
        raise ValidationError(f"cannot read trace CSV {path}: {exc}") from exc
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
        data = (np.loadtxt(path, delimiter=",", skiprows=1, usecols=usecols, ndmin=2)
                if _stamp(path) == stamp else None)
        unchanged = data is not None and _stamp(path) == stamp
    except OSError as exc:
        raise ValidationError(f"cannot read trace CSV {path}: {exc}") from exc
    except ValueError as exc:
        raise ValidationError(f"{path}, line {_first_bad_line(path, usecols)}: {exc}") from exc
    if not unchanged:
        raise ValidationError(f"{path}: the trace file changed after it was read")
    bad = ~np.isfinite(data).all(axis=1)
    if bad.any():
        raise ValidationError(f"{path}, line {int(np.argmax(bad)) + 2}: a value is not finite")
    return data


def _first_bad_line(path: Path, usecols: tuple[int, ...]) -> int | str:
    """Number of the first body line where a used column is missing or does
    not parse as a float, as numpy's messages number rows inconsistently."""
    with open(path, newline="") as f:
        f.readline()
        for number, line in enumerate(f, start=2):
            body = line.split("#")[0]
            if body.strip():
                try:
                    [float(body.split(",")[c]) for c in usecols]
                except (IndexError, ValueError):
                    return number
    return "?"


def _read_deferred(path: Path, stamp: tuple[int, int], usecols: tuple[int, ...]):
    """{field: value} of omega, droop_active and per_ffr_power of a trace
    file that must not have changed since read_trace_csv read it."""
    data = _parse_columns(path, stamp, usecols)
    per_ffr_power = data[:, 2:].T
    per_ffr_power.flags.writeable = False  # as in a simulated trace
    return {"omega": data[:, 0], "droop_active": data[:, 1], "per_ffr_power": per_ffr_power}


def emit_case_study_csv(result: CaseStudyResult, path: str | Path) -> None:
    """Merged four-subcase CSV keyed by time: omega and rocof per subcase,
    each value exactly ``repr`` of its float, by the trace CSVs' writer. It
    reuses the blocks that emit_trace_csv kept, and empties that store."""
    try:
        t = result.traces[SUBCASES[0]].sample_times
        if not all(np.array_equal(result.traces[s].sample_times, t) for s in SUBCASES):
            raise ValidationError("case-study traces are not on a common time grid")
        names = [(q, s) for q in ("omega", "rocof") for s in SUBCASES]
        header = "t" + "".join(f",{q}_{s}" for q, s in names)
        cols = [t, *(getattr(result.traces[s], q) for q, s in names)]
        _write_csv(path, header, [np.asarray(c, float) for c in cols], "case-study CSV")
    finally:
        _KEPT.clear()
