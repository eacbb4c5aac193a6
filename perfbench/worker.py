"""One benchmark process: set up, run one closed loop, emit, check, report.

Started by run.py in a fresh interpreter per closed loop, as
`python3 -m perfbench.worker --workload W --mode M --spawned-at T --out-dir D [--seed N]`.
Prints one JSON object on stdout.  Modes:

  setup   import cablelift.cli and resolve the scenario, then stop
  run     the closed loop as `cablelift run` does it, with the machine-speed
          probe (perfbench.speed) run before every NMPC step's trigger check
  traced  the closed loop with every layer boundary wrapped by
          perfbench.tracer, and no probe

Set-up time runs from `--spawned-at` (the parent's time.perf_counter just
before it started this process; on Linux that clock is system-wide) to the
resolved scenario, so it includes interpreter start-up.  Modules that
`cablelift run` would not load are imported only after that mark.  A run
whose probe samples do not match its NMPC steps exits with an error.
"""

import argparse
import dataclasses
import json
import sys
import time


def _parse(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("setup", "run", "traced"), required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out-dir", required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]

    import cablelift.cli  # noqa: F401  (what `cablelift run` imports)
    from cablelift import harness

    config = harness.scenario_preset(workload.preset)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    ready = time.perf_counter()
    result = {
        "setup_s": ready - args.spawned_at,
        "seed": config.seed,
    }
    if args.mode != "setup":
        result.update(_run(workload.name, config, args.mode == "traced", args.out_dir))
    print(json.dumps(result))
    return 0


def _sha256(data: bytes) -> str:
    import hashlib

    return hashlib.sha256(data).hexdigest()


def _environment() -> dict:
    import os
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def _run(workload: str, config, traced: bool, out_dir: str) -> dict:
    import resource
    from pathlib import Path

    import numpy as np
    from cablelift import event_trigger, harness

    from perfbench import checks, speed, tracer

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{config.name}.csv"
    summary_path = out / f"{config.name}_summary.txt"
    if traced:
        targets = tracer.traced_functions()
        originals = [getattr(module, attr) for module, attr, _ in targets]
        spans = tracer.Tracer()
        spans.install(targets)
    else:
        probe = speed.Probe(event_trigger, "should_trigger")
        probe.install()
    try:
        began = time.perf_counter()
        try:
            log = harness.run_closed_loop(config)
        except harness.HarnessAbort as exc:
            return {"aborted": str(exc), "problems": [f"run aborted: {exc}"]}
        loop_end = time.perf_counter()
        summary = harness.summarize(log)
        harness.emit_csv(log, csv_path)
        harness.emit_summary(summary, summary_path)
        done = time.perf_counter()
    finally:
        if traced:
            spans.uninstall()
        else:
            probe.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    loop_s = loop_end - began - (0.0 if traced else probe.total_s())
    text = summary_path.read_text()
    prefix = text[: text.index("mean_solve_time_ms")]
    result = {
        "aborted": None,
        "problems": checks.check_run(workload, log, csv_path),
        "duration_s": config.duration,
        "loop_s": loop_s,
        "wall_s": loop_s + (done - loop_end),
        "solve_ms": [1e3 * e.solve_time for e in log.events],
        "solve_iterations": [e.iterations for e in log.events],
        "peak_rss_mb": peak_rss_mb,
        "cpu_s": time.process_time(),
        "rms_err_m": summary["rms_payload_error_m"],
        "nmpc_executions": summary["nmpc_executions"],
        "counters": {
            "ticks": len(log.ticks),
            "nmpc_steps": sum(1 for r in log.ticks if r.decision != ""),
            "sqp_iterations": sum(e.iterations for e in log.events),
        },
        "csv_sha256": _sha256(csv_path.read_bytes()),
        "summary_prefix_sha256": _sha256(prefix.encode()),
        "environment": _environment(),
    }
    if not traced:
        # the harness checks the trigger at every NMPC step but the first
        probe.check_steps(range(1, result["counters"]["nmpc_steps"]))
        result["speed_factor"] = probe.factor()
        result["solve_factors"] = [probe.local_factor(e.k) for e in log.events]
        result["restored"] = event_trigger.should_trigger is probe.original
        return result
    result["restored"] = all(
        getattr(module, attr) is original
        for (module, attr, _), original in zip(targets, originals)
    )
    arrays = spans.arrays()
    np.savez(out / "spans.npz", **arrays)
    table = tracer.SpanTable(**arrays)
    layers = tracer.layer_metrics(table, spans.returns)
    layers["event_trigger.exec_ratio"] = log.nmpc_executions / result["counters"]["nmpc_steps"]
    result["layers"] = layers
    result["spans"] = len(table.duration)
    return result


if __name__ == "__main__":
    sys.exit(main())
