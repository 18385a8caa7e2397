"""Command-line entry points.

Subcommands:
    simulate          run the configured subcase, write trace CSV + summary JSON
    case-study        run all four subcases, write per-subcase CSVs, a merged
                      CSV keyed by time, and an ordering report JSON
    design-schedule   print the bounded droop schedule's breakpoints
    estimate          recover time-resolved equivalent inertia from a trace CSV

Exit codes: 0 success, 2 config, validation or output problem, 3 simulation divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .analytics import estimate_from_trace
from .controllers import Vdic
from .errors import ConfigError, SimulationDivergedError, ValidationError
from .integrate import _onset_index
from .scenario import (
    SUBCASES,
    ScenarioConfig,
    _controller_for,
    _write_csv,
    default_config_path,
    emit_case_study_csv,
    emit_trace_csv,
    load_config,
    read_trace_csv,
    run_case_study,
    run_subcase,
)


def _add_config(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, default=None,
                   help="scenario config JSON (default: bundled scenario)")


def _add_common(p: argparse.ArgumentParser) -> None:
    _add_config(p)
    p.add_argument("--out", type=Path, default=Path("out"),
                   help="output directory (created if missing)")
    p.add_argument("--dt", type=float, default=None,
                   help="override sim.time_step_s")
    p.add_argument("--duration", type=float, default=None,
                   help="override sim.duration_s")


def _load(args) -> ScenarioConfig:
    cfg = load_config(args.config or default_config_path())
    if args.dt is not None or args.duration is not None:
        cfg = replace(cfg, sim=replace(
            cfg.sim,
            time_step=args.dt if args.dt is not None else cfg.sim.time_step,
            duration=args.duration if args.duration is not None else cfg.sim.duration,
        ))
    return cfg


def _write_json(payload: dict, path: Path) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _cmd_simulate(args) -> int:
    cfg = _load(args)
    args.out.mkdir(parents=True, exist_ok=True)
    trace, metrics = run_subcase(cfg)
    trace_path = args.out / f"trace_{cfg.subcase}.csv"
    emit_trace_csv(trace, trace_path)
    summary_path = args.out / f"summary_{cfg.subcase}.json"
    _write_json({"subcase": cfg.subcase, "metrics": asdict(metrics)}, summary_path)
    print(f"{cfg.subcase}: initial RoCoF {metrics.initial_rocof:.6e} p.u./s, "
          f"nadir {metrics.nadir:.6e} p.u. at t={metrics.nadir_time:.3f} s")
    print(f"wrote {trace_path} and {summary_path}")
    return 0


def _cmd_case_study(args) -> int:
    cfg = _load(args)
    args.out.mkdir(parents=True, exist_ok=True)
    result = run_case_study(cfg)
    for sub in SUBCASES:
        emit_trace_csv(result.traces[sub], args.out / f"trace_{sub}.csv")
    emit_case_study_csv(result, args.out / "case_study.csv")
    _write_json(result.report, args.out / "report.json")
    print("initial RoCoF (p.u./s):")
    for sub in SUBCASES:
        print(f"  {sub:>15}: {result.metrics[sub].initial_rocof: .6e}")
    ordering = result.report["initial_rocof_ordering"]
    print(f"vdic vs added-inertia initial RoCoF rel diff: "
          f"{ordering['vdic_vs_added_inertia_rel_diff']:.4f}")
    print(f"steady-state |omega|: vdic "
          f"{result.report['steady_state_abs_omega']['vdic']:.6e} vs added-inertia "
          f"{result.report['steady_state_abs_omega']['added_inertia']:.6e}")
    print(f"wrote traces, case_study.csv and report.json under {args.out}")
    return 0


def _cmd_design_schedule(args) -> int:
    cfg = load_config(args.config or default_config_path())
    if cfg.vdic_schedule is None:
        raise ConfigError("design-schedule requires the vdic_schedule block")
    saturated, band, floor = Vdic(cfg.vdic_schedule).segments()
    payload = {
        "target_inertia_s": band[3],
        "upper_bound_pu": saturated[3],
        "lower_bound_pu": floor[3],
        "saturation_end_s": band[0],
        "floor_start_s": floor[0],
        "segments": [
            f"k = {saturated[3]:g} for t <= {saturated[1]:g} s",
            f"k = {band[3]:g}/t for {band[0]:g} s < t < {band[1]:g} s",
            f"k = {floor[3]:g} for t >= {floor[0]:g} s",
        ],
    }
    print(json.dumps(payload, indent=2))
    return 0


def _check_provenance(trace, cfg: ScenarioConfig, path: Path) -> None:
    """Refuse a trace that cfg did not produce, naming the field: its step
    and its onset must be cfg's within 1e-9 * dt, its row count that of
    simulate's grid, and, for an onset on the grid, where omega is 0, its
    rocof there must be delta_pf over the simulated total inertia exactly."""
    dt, onset, t = cfg.sim.time_step, cfg.event.onset_time, trace.sample_times
    if abs(trace.time_step - dt) > 1e-9 * dt:
        raise ValidationError(f"{path}: its step {trace.time_step!r} s is not "
                              f"sim.time_step_s {dt!r} of the config")
    rows = round(cfg.sim.duration / dt) + 1
    if t.size != rows:
        raise ValidationError(f"{path}: its {t.size} rows are not the {rows} samples of "
                              f"sim.duration_s {cfg.sim.duration!r} of the config at "
                              f"sim.time_step_s {dt!r}")
    i_on = _onset_index(t, onset, dt)
    if i_on == t.size or abs(trace.onset_time - t[i_on]) > 1e-9 * dt:
        raise ValidationError(f"{path}: its onset at {trace.onset_time!r} s is not "
                              f"event.onset_time_s {onset!r} of the config")
    model = _controller_for(cfg)[1]
    expected = cfg.event.delta_pf / model.total_inertia
    if abs(t[i_on] - onset) <= 1e-9 * dt and trace.rocof[i_on] != expected:
        raise ValidationError(
            f"{path}: its rocof at the onset, {float(trace.rocof[i_on])!r}, is not "
            f"event.delta_pf_pu / total inertia of the config, {cfg.event.delta_pf!r} / "
            f"{model.total_inertia!r} = {expected!r}")


def _cmd_estimate(args) -> int:
    cfg = _load(args)
    trace = read_trace_csv(args.trace)
    _check_provenance(trace, cfg, args.trace)
    estimate = estimate_from_trace(trace, cfg.model.total_inertia, cfg.event.delta_pf)
    args.out.mkdir(parents=True, exist_ok=True)
    out_path = args.out / "inertia_estimate.csv"
    _write_csv(out_path, "t,delta_tj,valid", [estimate.sample_times, estimate.delta_tj,
               estimate.valid_mask.astype(np.int64)], "inertia estimate CSV")
    valid = estimate.delta_tj[estimate.valid_mask]
    if valid.size:
        print(f"valid samples: {valid.size}; median equivalent inertia "
              f"{float(np.median(valid)):.4f} s")
    else:
        print("no well-conditioned post-onset samples")
    print(f"wrote {out_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="droopinertia",
        description="Swing-equation simulation and equivalent-inertia analytics "
                    "for droop-controlled fast frequency regulation resources",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the configured subcase")
    _add_common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_cs = sub.add_parser("case-study", help="run all four subcases and compare")
    _add_common(p_cs)
    p_cs.set_defaults(func=_cmd_case_study)

    p_ds = sub.add_parser("design-schedule",
                          help="print the bounded droop schedule breakpoints")
    _add_config(p_ds)
    p_ds.set_defaults(func=_cmd_design_schedule)

    p_est = sub.add_parser("estimate",
                           help="estimate equivalent inertia from a trace CSV")
    p_est.add_argument("trace", type=Path, help="trace CSV written by simulate")
    _add_common(p_est)
    p_est.set_defaults(func=_cmd_estimate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimulationDivergedError as exc:
        print(f"simulation diverged: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())
