"""Benchmark of droopinertia: three workloads, timed end to end and per module.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from `src/`
and runs the CLI as `python -m droopinertia` with that `src/` on
PYTHONPATH. Workloads are described in `workloads.py`; metric names and
units are those of BENCHMARK.json at the checkout root. `--workload all`
runs every workload in turn.

--trace 0 times ops untraced and reports the end-to-end metrics; the op
walls are written to .bench_out/. The host is shared and its speed swings
by up to about 1.5x, so set-up and op times are scaled to a fixed host speed
by a reference chunk run beside them (see `hostspeed.py`): setup_s is the
median set-up time, op_mean_s the mean op time over whole input cycles, and
samples_per_s the samples per second of that op time, all at that speed. The
plain wall-clock median, p90 and mean are printed beside them. --trace 1
alternates, per op, the untraced op with an in-process replay of its public
calls with and without spans, and reports the per-layer metrics: per-op
means over the traced ops (means, unlike medians, add up across layers).
The spans are written once, at the end, to .bench_out/.

Outputs and set-up inputs go to a temporary directory under .bench_tmp/,
removed when the run ends. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the lines before it give every
metric by name with its unit, the wall-clock op_p50_s, op_p90_s where the
run has at least ten ops beyond the 90th percentile, fail_ratio, and the run
record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import hostspeed
from spans import ROOT, NullTracer, Tracer, layer_totals

SETUP_REPEATS = 5
# reference chunk time per second of timed set-up and of timed ops
SETUP_REF_SHARE = 0.25
OP_REF_SHARE = 0.1
# no op starts after this much wall time; with the CLI op timeout a run ends
# within 180 s
DEADLINE_S = 120.0
# an op_p90_s needs at least ten ops beyond the 90th percentile
P90_MIN_OPS = 100
# allowed gap between the layers' account of an op and its wall time, beyond
# the measured tracing overhead, as a share of the op's wall time (at least
# 1 ms): it covers the benchmark's own code between spans, chiefly freeing the
# op's arrays when a replay returns
ACCOUNTING_SLACK = 1e-3


def _commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def run_record(root: Path, args) -> dict:
    import numpy as np

    src = root / "src"
    files = sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    digest = hashlib.sha256()
    for p in files:
        digest.update(str(p.relative_to(src)).encode() + b"\0" + p.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(root),
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": sum(len(p.read_text().splitlines()) for p in files if p.suffix == ".py"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _unit(name: str) -> str:
    """Unit of a metric BENCHMARK.json does not list."""
    if name.endswith("_s"):
        return "s"
    return "B" if name.endswith(".bytes") else "count"


def _failure(i: int, errors: list[str]) -> None:
    for e in errors:
        print(f"op {i} failed: {e}", file=sys.stderr)


def _done(i: int, loop_start: float, seconds: int, cycle: int, started: float) -> bool:
    if i == 0:
        return False
    if perf_counter() - started > DEADLINE_S:
        return True
    return perf_counter() - loop_start >= seconds and i % cycle == 0


def timed_run(w, seconds: int, started: float, speed: hostspeed.HostSpeed) -> dict:
    """Untraced ops between reference chunks, for `seconds` in all, ending
    on a whole input cycle."""
    walls, rss, samples, failed, i = [], [], 0, 0, 0
    loop_start = perf_counter()
    while not _done(i, loop_start, seconds, w.cycle, started):
        try:
            w.prepare(i)
            speed.before()
            outcome = w.op(i)
            speed.after(outcome.wall)
            walls.append(outcome.wall)
            rss.append(outcome.rss_mb)
            samples += outcome.samples
            errors = w.check(i, outcome)
        except Exception:
            errors = [traceback.format_exc()]
        finally:
            w.discard(i)
        failed += bool(errors)
        _failure(i, errors)
        i += 1
    return {"attempted": i, "failed": failed, "walls": walls, "samples": samples, "rss": rss}


def timing_metrics(run: dict, speed: hostspeed.HostSpeed) -> tuple[dict, dict]:
    """The end-to-end op metrics of a run, at the fixed host speed, and the
    wall-clock statistics of its ops, which are printed only."""
    walls = run["walls"]
    metrics = {
        "op_mean_s": speed.scale(statistics.fmean(walls)),
        "samples_per_s": run["samples"] / speed.scale(sum(walls)),
        "peak_rss_mb": statistics.median(run["rss"]),
    }
    wall_clock = {
        "op_p50_s": statistics.median(walls),
        "op_wall_mean_s": statistics.fmean(walls),
        "wall_samples_per_s": run["samples"] / sum(walls),
        "host_slowdown": statistics.fmean(speed.walls) / hostspeed.REF_CHUNK_S,
    }
    if len(walls) >= P90_MIN_OPS:
        wall_clock["op_p90_s"] = statistics.quantiles(walls, n=10)[-1]
    return metrics, wall_clock


def traced_run(w, seconds: int, started: float, tracer) -> dict:
    """Per op: the untraced CLI op (CLI workloads), then the replay untraced
    and traced, in alternating order."""
    cli, untraced, traced, failed, i = [], [], [], 0, 0
    loop_start = perf_counter()
    while not _done(i, loop_start, seconds, w.cycle, started):
        errors = []
        try:
            w.prepare(i)
            outcome = None
            if w.cli:
                outcome = w.op(i)
                cli.append(outcome.wall)
                errors += w.check(i, outcome)
            for with_spans in ((True, False) if i % 2 else (False, True)):
                if with_spans:
                    with tracer.op(i) as root:
                        result = w.replay(i, tracer)
                    traced.append(root.duration)
                else:
                    start = perf_counter()
                    result = w.replay(i, NullTracer())
                    untraced.append(perf_counter() - start)
                errors += w.check_replay(i, outcome, result)
        except Exception:
            errors.append(traceback.format_exc())
        finally:
            w.discard(i)
        failed += bool(errors)
        _failure(i, errors)
        i += 1
    return {"attempted": i, "failed": failed, "cli": cli, "untraced": untraced,
            "traced": traced}


def layer_metrics(w, run: dict, tracer) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, and the errors of its accounting
    check: the layers' self times, plus the import and the CLI residual for
    CLI workloads, must add up to the op's wall time within the measured
    tracing overhead."""
    traced, untraced = run["traced"], run["untraced"]
    if not traced or not untraced:
        return {}, ["no complete traced op"]
    layers = layer_totals(tracer.spans, len(traced))
    import_s = statistics.median(w.import_s)
    overhead = statistics.fmean(traced) - statistics.fmean(untraced)
    residual = 0.0
    wall = statistics.fmean(untraced)
    accounted = sum(v for k, v in layers.items()
                    if k.endswith(".self_s") and k != f"{ROOT}.self_s")
    if w.cli:
        wall = statistics.fmean(run["cli"])
        residual = wall - import_s - statistics.fmean(untraced)
        accounted += import_s + residual
    metrics = {**layers, "import.wall_s": import_s, "cli.residual_s": residual,
               "tracing.overhead_s": overhead, **w.accuracy, **w.notes}
    gap = accounted - wall
    errors = []
    if abs(gap) > abs(overhead) + max(1e-3, ACCOUNTING_SLACK * wall):
        errors.append(f"layers account for {accounted:.6f} s of a {wall:.6f} s op; "
                      f"gap {gap:.6f} s exceeds tracing overhead {overhead:.6f} s")
    print(f"accounting: layers {accounted:.6f} s vs op wall {wall:.6f} s, "
          f"gap {gap:+.6f} s, tracing overhead {overhead:+.6f} s")
    return metrics, errors


def run_all(args) -> int:
    """Run every workload, one child process each, so that their memory
    peaks stay apart; the exit code is the worst of theirs."""
    spec = json.loads(Path("BENCHMARK.json").read_text())
    codes = [subprocess.run([sys.executable, __file__, "--workload", w["name"],
                             "--seed", str(args.seed), "--seconds", str(args.seconds),
                             "--trace", str(args.trace)]).returncode
             for w in spec["workloads"]]
    return max(codes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or `all` for each workload in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    root = Path.cwd()
    if not (root / "src" / "droopinertia" / "__init__.py").is_file():
        print(f"error: {root} holds no src/droopinertia; run from a checkout's root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    started = perf_counter()
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    record = run_record(root, args)
    tmp_root = root / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
            w = WORKLOADS[args.workload](Context(root, Path(tmp), args.seed))
            hostspeed.chunk()  # warm-up
            setup_speed = hostspeed.HostSpeed(SETUP_REF_SHARE)
            setup = []
            for _ in range(SETUP_REPEATS):
                setup_speed.before()
                start = perf_counter()
                w.setup()
                setup.append(perf_counter() - start)
                setup_speed.after(setup[-1])
            tracer = Tracer()
            op_speed = hostspeed.HostSpeed(OP_REF_SHARE)
            if args.trace:
                run = traced_run(w, args.seconds, started, tracer)
            else:
                run = timed_run(w, args.seconds, started, op_speed)
    finally:
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    try:
        run_errors = w.oracle_checks()
    except Exception:
        run_errors = [traceback.format_exc()]
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        metrics, errors = layer_metrics(w, run, tracer)
        run_errors += errors
        tracer.dump(out_dir / f"spans-{stem}.json", record)
        print(f"traced ops: {len(run['traced'])}; spans in .bench_out/spans-{stem}.json")
    else:
        if not run["walls"]:
            print("error: no op completed", file=sys.stderr)
            return 1
        metrics, wall_clock = timing_metrics(run, op_speed)
        metrics["setup_s"] = setup_speed.scale(statistics.median(setup))
        (out_dir / f"walls-{stem}.json").write_text(json.dumps(run["walls"]))
        print(f"ops timed: {len(run['walls'])}; op walls in .bench_out/walls-{stem}.json")
        if "op_p90_s" not in wall_clock:
            print(f"op_p90_s: not reported, {len(run['walls'])} ops < {P90_MIN_OPS}")
        print(f"setup wall s: {', '.join(f'{s:.4f}' for s in setup)}; host slowdown "
              f"{statistics.fmean(setup_speed.walls) / hostspeed.REF_CHUNK_S:.4f}")
        for name, value in sorted(wall_clock.items()):
            unit = "1/s" if "per_s" in name else "s" if name.endswith("_s") else "x"
            print(f"{'wall-clock ' + name:<46} {value:.6g} {unit}")
    for e in run_errors:
        print(f"run check failed: {e}", file=sys.stderr)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    shown = {**metrics, **w.accuracy, **w.notes}
    for name, value in sorted(shown.items()):
        print(f"{name:<46} {value:.6g} {units.get(name, _unit(name))}")
    print(f"fail_ratio {run['failed'] / run['attempted']:.6g} "
          f"({run['failed']} of {run['attempted']} ops)")
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": run["failed"] == 0 and not run_errors,
        "attempted": run["attempted"],
        "failed": run["failed"],
        # a layer the workload does not exercise reads 0
        "metrics": {m["name"]: {"value": float(metrics.get(m["name"], 0.0) if args.trace
                                               else metrics[m["name"]]),
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
