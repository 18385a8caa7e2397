"""The benchmark's three workloads.

Each workload is a closed loop with one client: an op starts when the
previous one has ended, and CLI ops run as one child process at a time.

* case_study_cli  `droopinertia case-study` on the bundled scenario: the
  paper's headline artefact, dominated by CSV writing, then integration.
* param_sweep     in-process simulate -> summarize -> estimate_from_trace on
  seeded scenarios: integration and allocation, no I/O, no import per op.
* estimate_cli    `droopinertia estimate TRACE --config CFG` on traces
  written at set-up: import and CSV reading, no integration per op.

A workload's `op` is what the end-to-end metrics time. Its `replay` makes,
in-process and in the same order, the public calls that one op makes, with a
span around each call; the traced run compares it with the untraced op.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from droopinertia import (
    SUBCASES,
    CaseStudyResult,
    ConstantDroop,
    NoControl,
    Vdic,
    default_config_path,
    emit_case_study_csv,
    emit_trace_csv,
    estimate_from_trace,
    load_config,
    read_trace_csv,
    run_subcase,
    simulate,
    summarize,
)

import scenarios
from spans import NullTracer

# a CLI op still running after this long is killed and counts as failed
CLI_TIMEOUT_S = 45.0
_IMPORT_PROBE = ("import time; t = time.perf_counter(); import droopinertia; "
                 "print(time.perf_counter() - t)")


@dataclass
class Context:
    root: Path  # checkout holding src/droopinertia
    tmp: Path  # scratch directory, removed when the run ends
    seed: int

    @property
    def env(self) -> dict:
        path = [str(self.root / "src")]
        if os.environ.get("PYTHONPATH"):
            path.append(os.environ["PYTHONPATH"])
        return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


@dataclass
class Outcome:
    wall: float  # seconds
    samples: int  # trace samples simulated or read
    rss_mb: float  # peak resident memory of the process doing the work
    payload: object = None


def _run_cli(ctx: Context, args: list[str], out: Path) -> tuple[float, float, int]:
    """Run `python -m droopinertia ARGS` and wait for it.

    Returns (wall seconds, child peak RSS in MB, exit code). The child's
    stderr goes to OUT/stderr.txt so a full pipe can never block it.
    """
    with open(out / "stderr.txt", "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "droopinertia", *args],
                                env=ctx.env, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _exit_errors(rc: int, out: Path) -> list[str]:
    if rc == 0:
        return []
    tail = (out / "stderr.txt").read_text(errors="replace").strip().splitlines()[-3:]
    return [f"exit code {rc}: {' | '.join(tail)}"]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Workload:
    name = ""
    cli = False  # ops run the CLI in a child process
    cycle = 1  # ops per input cycle; runs end on a whole cycle

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.import_s: list[float] = []  # fresh-interpreter import times
        self.accuracy: dict[str, float] = {}
        self.notes: dict[str, float] = {}  # recorded values, not gated

    def _probe_import(self) -> None:
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=self.ctx.env,
                             capture_output=True, text=True, check=True)
        self.import_s.append(float(out.stdout))

    def setup(self) -> None:
        """Everything before the first op; repeated, and timed each time."""
        self._probe_import()

    def prepare(self, i: int) -> None:
        """Untimed preparation of op i and its replays: a fresh output
        directory for a CLI op."""
        if self.cli:
            _fresh_dir(self.ctx.tmp / f"op{i}")

    def op(self, i: int) -> Outcome:
        raise NotImplementedError

    def check(self, i: int, outcome: Outcome) -> list[str]:
        """Errors in op i's outputs; empty when they are right."""
        raise NotImplementedError

    def replay(self, i: int, tracer):
        """The public calls op i makes, in-process, each in a tracer span."""
        raise NotImplementedError

    def check_replay(self, i: int, outcome: Outcome | None, result) -> list[str]:
        """Errors in a replay's results, compared with op i's outputs (None
        for in-process workloads, whose untraced replay is the op)."""
        raise NotImplementedError

    def discard(self, i: int) -> None:
        """Remove op i's outputs."""
        for name in (f"op{i}", f"replay{i}"):
            shutil.rmtree(self.ctx.tmp / name, ignore_errors=True)

    def record_accuracy(self, d: scenarios.Draw, trace, estimate) -> list[str]:
        """Fold one governor-free closed-form draw into the accuracy metrics."""
        errors = []
        err = scenarios.closed_form_error(d, trace)
        key = f"accuracy.{d.oracle}.max_abs_err"
        self.accuracy[key] = max(self.accuracy.get(key, 0.0), err)
        if not err <= scenarios.CLOSED_FORM_TOL:
            errors.append(f"{d.kind}: closed-form error {err:.3e} > {scenarios.CLOSED_FORM_TOL}")
        if d.kind == "vdic_unbounded":
            rel = scenarios.estimator_error(d, estimate)
            key = "accuracy.estimator.max_rel_err"
            self.accuracy[key] = max(self.accuracy.get(key, 0.0), rel)
            if not rel <= scenarios.ESTIMATOR_TOL:
                errors.append(f"estimator error {rel:.3e} > {scenarios.ESTIMATOR_TOL}")
        return errors

    def oracle_checks(self) -> list[str]:
        """Run the closed-form oracle set; fills the accuracy metrics."""
        errors = []
        for d in scenarios.oracle_set(random.Random(self.ctx.seed)):
            model, event, controller, sim, governor = d.objects()
            trace = simulate(model, event, controller, sim, governor=governor)
            estimate = estimate_from_trace(trace, model.total_inertia, event.delta_pf)
            errors += self.record_accuracy(d, trace, estimate)
        return errors


def _subcase_objects(cfg, subcase: str):
    """(model, controller) of one case-study subcase, as run_case_study builds them."""
    if subcase == "added_inertia":
        return cfg.model.with_added_inertia(cfg.vdic_schedule.target_inertia), NoControl()
    if subcase == "constant_droop":
        return cfg.model, ConstantDroop(cfg.k_total)
    if subcase == "vdic":
        return cfg.model, Vdic(cfg.vdic_schedule)
    return cfg.model, NoControl()


class CaseStudyCli(Workload):
    """The bundled scenario whatever the seed: it is the case the paper and
    the byte-identical CSV outputs are about."""

    name = "case_study_cli"
    cli = True
    outputs = tuple(f"trace_{s}.csv" for s in SUBCASES) + ("case_study.csv", "report.json")

    def setup(self) -> None:
        super().setup()
        self.config_path = default_config_path()
        cfg = load_config(self.config_path)
        self.rows = int(round(cfg.sim.duration / cfg.sim.time_step)) + 1

    def op(self, i: int) -> Outcome:
        out = self.ctx.tmp / f"op{i}"
        wall, rss, rc = _run_cli(self.ctx, ["case-study", "--out", str(out)], out)
        return Outcome(wall, len(SUBCASES) * self.rows, rss, (rc, out))

    def check(self, i: int, outcome: Outcome) -> list[str]:
        rc, out = outcome.payload
        errors = _exit_errors(rc, out)
        missing = [n for n in self.outputs if not (out / n).is_file()]
        if missing:
            errors.append(f"missing outputs {missing}")
        if errors:
            return errors
        for sub in SUBCASES:
            trace = read_trace_csv(out / f"trace_{sub}.csv")
            if trace.sample_times.size != self.rows:
                errors.append(f"trace_{sub}.csv: {trace.sample_times.size} rows, "
                              f"expected {self.rows}")
            gap = scenarios.allocation_error(trace.per_ffr_power, trace.ffr_power)
            if not gap <= scenarios.ALLOCATION_TOL:
                errors.append(f"trace_{sub}.csv: per-FFR power misses ffr_power by {gap:.3e}")
        report = json.loads((out / "report.json").read_text())
        ordering = report["initial_rocof_ordering"]
        for claim in ("added_inertia_lowest", "vdic_below_constant_droop",
                      "constant_droop_below_no_control"):
            if ordering[claim] is not True:
                errors.append(f"report.json: {claim} does not hold")
        if report["vdic_steady_state_tighter_than_added_inertia"] is not True:
            errors.append("report.json: VDIC steady state is not tighter than added inertia")
        # the known-red 2 % clause (criterion 6a): recorded as is, not gated
        self.notes["case_study.vdic_vs_added_inertia_rel_diff"] = float(
            ordering["vdic_vs_added_inertia_rel_diff"])
        return errors

    def replay(self, i: int, tracer):
        """load_config, simulate + summarize per subcase, emit_trace_csv x4,
        emit_case_study_csv; the ordering report and JSON stay in the CLI residual."""
        out = self.ctx.tmp / f"replay{i}"
        out.mkdir(exist_ok=True)
        with tracer.span("scenario.load_config"):
            cfg = load_config(self.config_path)
        traces, metrics = {}, {}
        for sub in SUBCASES:
            model, controller = _subcase_objects(cfg, sub)
            with tracer.span("simulate", kind=sub) as s:
                traces[sub] = simulate(model, cfg.event, controller, cfg.sim,
                                       governor=cfg.governor)
            s.attrs["samples"] = traces[sub].sample_times.size
            with tracer.span("scenario.summarize"):
                metrics[sub] = summarize(traces[sub])
        for sub in SUBCASES:
            path = out / f"trace_{sub}.csv"
            with tracer.span("scenario.emit_trace_csv") as s:
                emit_trace_csv(traces[sub], path)
            s.attrs["bytes"] = path.stat().st_size
        path = out / "case_study.csv"
        with tracer.span("scenario.emit_case_study_csv") as s:
            emit_case_study_csv(CaseStudyResult(traces, metrics, {}), path)
        s.attrs["bytes"] = path.stat().st_size
        return out, metrics

    def check_replay(self, i: int, outcome: Outcome | None, result) -> list[str]:
        replay_out, metrics = result
        _, out = outcome.payload
        errors = [f"replay {name} differs from the CLI's" for name in self.outputs[:-1]
                  if _sha256(replay_out / name) != _sha256(out / name)]
        report = json.loads((out / "report.json").read_text())
        for sub in SUBCASES:
            if metrics[sub].initial_rocof != report["initial_rocof"][sub]:
                errors.append(f"replay initial RoCoF of {sub} differs from the CLI's")
        return errors


class ParamSweep(Workload):
    """Seeded scenarios over every controller kind, governor on and off,
    onset at 0 and later, and fleets of 1, 4 and 16 FFRs, 10 s at 1 ms."""

    name = "param_sweep"
    cycle = len(scenarios.KINDS) * len(scenarios.FLEET_SIZES) * 4

    def setup(self) -> None:
        super().setup()
        self.rng = random.Random(self.ctx.seed)
        self.draws = scenarios.sweep_cycle(self.rng)
        # every controller kind runs once before timing, so that first-call
        # costs land in set-up rather than in the first timed ops
        for kind in scenarios.KINDS:
            i = next(j for j, d in enumerate(self.draws) if d.kind == kind)
            self.prepare(i)
            self.replay(i, NullTracer())

    def prepare(self, i: int) -> None:
        while i >= len(self.draws):
            self.draws += scenarios.sweep_cycle(self.rng)
        self.objects = self.draws[i].objects()

    def op(self, i: int) -> Outcome:
        start = perf_counter()
        result = self.replay(i, NullTracer())
        wall = perf_counter() - start
        return Outcome(wall, self.draws[i].samples, _self_rss_mb(), result)

    def replay(self, i: int, tracer):
        model, event, controller, sim, governor = self.objects
        with tracer.span("simulate", kind=_kind_label(self.draws[i])) as s:
            trace = simulate(model, event, controller, sim, governor=governor)
        s.attrs["samples"] = trace.sample_times.size
        with tracer.span("scenario.summarize"):
            metrics = summarize(trace)
        with tracer.span("analytics.estimate_from_trace"):
            estimate = estimate_from_trace(trace, model.total_inertia, event.delta_pf)
        return trace, metrics, estimate

    def check(self, i: int, outcome: Outcome) -> list[str]:
        return self._check_result(i, outcome.payload)

    def check_replay(self, i: int, outcome: Outcome | None, result) -> list[str]:
        return self._check_result(i, result)

    def _check_result(self, i: int, result) -> list[str]:
        d = self.draws[i]
        trace, metrics, estimate = result
        errors = []
        if trace.sample_times.size != d.samples:
            errors.append(f"{trace.sample_times.size} samples, expected {d.samples}")
        if not all(np.isfinite(a).all() for a in (trace.omega, trace.rocof, trace.ffr_power)):
            errors.append("non-finite trace values")
        gap = scenarios.allocation_error(trace.per_ffr_power, trace.ffr_power)
        if not gap <= scenarios.ALLOCATION_TOL:
            errors.append(f"per-FFR power misses ffr_power by {gap:.3e}")
        if not np.isfinite(metrics.nadir):
            errors.append("non-finite nadir")
        if d.has_closed_form:
            errors += self.record_accuracy(d, trace, estimate)
        return [f"{d.kind} x{len(d.caps)}: {e}" for e in errors]


def _kind_label(d: scenarios.Draw) -> str:
    return "vdic" if d.kind == "vdic_unbounded" else d.kind


class EstimateCli(Workload):
    """Traces of three fixed (controller kind, fleet size, duration) shapes
    with seeded physics, taken in turn, so that every run, whatever its seed,
    reads and writes the same mix of file sizes."""

    name = "estimate_cli"
    cli = True
    shapes = (("constant_droop", 1, 40.0), ("vdic", 4, 30.0), ("vdic_unbounded", 16, 20.0))
    cycle = len(shapes)

    def setup(self) -> None:
        super().setup()
        rng = random.Random(self.ctx.seed)
        inputs = _fresh_dir(self.ctx.tmp / "inputs")
        self.inputs = []
        for j, (kind, n_ffr, duration) in enumerate(self.shapes):
            d = scenarios.draw(rng, kind, n_ffr, rng.random() < 0.5, rng.random() < 0.5, duration)
            cfg_path, trace_path = inputs / f"config{j}.json", inputs / f"trace{j}.csv"
            cfg_path.write_text(json.dumps(d.config_doc(), indent=2))
            cfg = load_config(cfg_path)
            trace, _ = run_subcase(cfg)
            emit_trace_csv(trace, trace_path)
            self.inputs.append((cfg_path, trace_path, cfg, trace.sample_times.size))
        self.expected = {}

    def _input(self, i: int):
        return self.inputs[i % len(self.inputs)]

    def _expected(self, i: int):
        """In-process estimate of op i's trace file."""
        j = i % len(self.inputs)
        if j not in self.expected:
            _, trace_path, cfg, _ = self.inputs[j]
            self.expected[j] = estimate_from_trace(read_trace_csv(trace_path),
                                                   cfg.model.total_inertia, cfg.event.delta_pf)
        return self.expected[j]

    def op(self, i: int) -> Outcome:
        cfg_path, trace_path, _, rows = self._input(i)
        out = self.ctx.tmp / f"op{i}"
        wall, rss, rc = _run_cli(self.ctx, ["estimate", str(trace_path), "--config",
                                            str(cfg_path), "--out", str(out)], out)
        return Outcome(wall, rows, rss, (rc, out))

    def check(self, i: int, outcome: Outcome) -> list[str]:
        rc, out = outcome.payload
        errors = _exit_errors(rc, out)
        path = out / "inertia_estimate.csv"
        if not path.is_file():
            errors.append("missing inertia_estimate.csv")
        if errors:
            return errors
        with open(path) as f:
            header = f.readline().strip()
            data = np.loadtxt(f, delimiter=",", ndmin=2)
        expected = self._expected(i)
        if header != "t,delta_tj,valid":
            errors.append(f"unexpected header {header!r}")
        elif data.shape[0] != expected.sample_times.size:
            errors.append(f"{data.shape[0]} rows, trace has {expected.sample_times.size}")
        elif not data[:, 2].any():
            errors.append("no valid samples")
        elif not (np.array_equal(data[:, 1], expected.delta_tj)
                  and np.array_equal(data[:, 2].astype(bool), expected.valid_mask)):
            errors.append("estimate differs from the in-process estimate of the trace file")
        return errors

    def replay(self, i: int, tracer):
        """load_config, read_trace_csv, estimate_from_trace; the estimate
        CSV writer is the CLI's own code and stays in the CLI residual."""
        cfg_path, trace_path, _, _ = self._input(i)
        with tracer.span("scenario.load_config"):
            cfg = load_config(cfg_path)
        with tracer.span("scenario.read_trace_csv") as s:
            trace = read_trace_csv(trace_path)
        s.attrs["bytes"] = trace_path.stat().st_size
        with tracer.span("analytics.estimate_from_trace"):
            return estimate_from_trace(trace, cfg.model.total_inertia, cfg.event.delta_pf)

    def check_replay(self, i: int, outcome: Outcome | None, result) -> list[str]:
        expected = self._expected(i)
        if np.array_equal(result.delta_tj, expected.delta_tj) and np.array_equal(
                result.valid_mask, expected.valid_mask):
            return []
        return ["replayed estimate differs from the in-process estimate of the trace file"]


WORKLOADS = {w.name: w for w in (CaseStudyCli, ParamSweep, EstimateCli)}
