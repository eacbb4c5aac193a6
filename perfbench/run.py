"""cablelift benchmark: closed-loop workloads, end-to-end and per-layer metrics.

From the repository root:

    python3 perfbench/run.py --workload circle|hover|recovery|all \
        [--seed N] [--seconds S] [--trace 0|1]

Every closed loop runs in a fresh single-threaded Python process
(perfbench/worker.py), one process at a time, with PYTHONPATH=src and BLAS
pinned to one thread.  A workload runs as many closed loops as fill about
--seconds (at least two; the count depends only on --seconds), and reports
medians over them.

Timings are scaled to one reference machine speed (perfbench/speed.py): a
fixed probe kernel runs at every NMPC step, outside the timed work.  Each
step's kernel time is the median of the samples around it; a loop's times
are multiplied by the reference time over the mean of those step times, a
solve's time by the reference over the step time at the solve.  Other
tenants of a shared machine slow a process by up to half for tens of
seconds at a time, longer than a loop, so repeats inside a run do not
average it out.  Set-up times are scaled by a fixed reference import timed
in a fresh interpreter right after each set-up (REFERENCE_IMPORT).  The raw
times are printed beside the scaled ones and kept in the results.
Per-layer times (--trace 1) are raw.

--trace 0 reports the end-to-end metrics; --trace 1 runs untraced/traced
pairs and reports the per-layer split.  Each run's outputs are checked
against the acceptance thresholds (perfbench/checks.py).  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  Full
results, with the environment and determinism hashes, go to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.workloads import WORKLOADS, harrell_davis  # noqa: E402

# set-up samples per run, each in its own process
SETUP_SAMPLES = 5
# Set-up is import work, whose speed on a shared machine swings by half
# within a minute and which the probe kernel does not track.  So each set-up
# process is followed by a fresh interpreter that makes this fixed import of
# modules from outside the repository, and set-up is reported as the median
# ratio of the two times REFERENCE_IMPORT_S.  Any fixed value serves, it only
# sets the scale; this one puts setup_s near the fastest raw set-up seen
# (0.31 s, with the import taking 2.5 times the reference) on a shared 2-core
# x86 machine (Python 3.11, numpy 2.4).
REFERENCE_IMPORT = (
    "import numpy, json, decimal, email.parser, xml.dom.minidom, argparse, "
    "asyncio, http.client, logging, unittest, typing, dataclasses"
)
REFERENCE_IMPORT_S = 0.125
# one workload's whole run, set-up samples included, must end within this
RUN_TIMEOUT_S = 170
RESULTS = Path("perfbench") / "results"
OUT = Path("perfbench") / "out"

# printed beside the BENCHMARK.json end-to-end metrics, not declared there.
# rms_err_m and failed_ratio read exactly 0 on some workloads (hover tracks
# with no error, a healthy run fails nothing).  Whole-solve percentiles swing
# with the seed on the circle: its solves take 3 or 4 SQP iterations (about
# 200 or 260 ms), the seed sets how many take 4, and the median jumps between
# the two groups, by up to 30% between seeds; the per-iteration percentiles are
# declared instead.
EXTRA_UNITS = {
    "solve_ms_p50": "ms", "solve_ms_tail": "ms", "rms_err_m": "m", "failed_ratio": "ratio",
}


def _declared() -> tuple:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple(
        {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")
    )


def _env() -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH="src",
        PYTHONHASHSEED="0",
    )
    return env


def _spawn(workload: str, mode: str, seed, deadline: float) -> dict:
    """Run one worker process to completion, killing it at `deadline`;
    returns its report plus the parent's view of it (elapsed time, exit
    code, stderr tail on failure)."""
    cmd = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", workload, "--mode", mode,
        "--out-dir", str(OUT / workload),
    ]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    began = time.perf_counter()
    proc = subprocess.Popen(
        cmd + ["--spawned-at", repr(began)],
        cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(0.0, deadline - began))
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, stderr = proc.communicate()
    elapsed = time.perf_counter() - began
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {
            "mode": mode, "elapsed_s": elapsed, "exit_code": proc.returncode,
            "problems": [f"worker exited {proc.returncode}: {stderr.strip()[-2000:]}"],
        }
    report = json.loads(lines[-1])
    report.update(mode=mode, elapsed_s=elapsed, exit_code=0)
    return report


def _reference_import(deadline: float) -> float:
    """Seconds from spawning a fresh interpreter to the end of REFERENCE_IMPORT,
    timed like set-up: from the parent's clock at spawn to the child's."""
    code = f"import sys, time\n{REFERENCE_IMPORT}\nprint(time.perf_counter() - float(sys.argv[1]))"
    began = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code, repr(began)], cwd=ROOT, env=_env(), check=True,
        capture_output=True, text=True, timeout=max(0.0, deadline - began),
    )
    return float(done.stdout)


def _measure(workload: str, seed, seconds: float, traced: bool, deadline: float) -> list:
    """The workload's closed loops for a run of `seconds`.  With tracing,
    each untraced loop is followed by a traced one."""
    loops = WORKLOADS[workload].loops(seconds)
    if not traced:
        return [_spawn(workload, "run", seed, deadline) for _ in range(loops)]
    return [
        _spawn(workload, mode, seed, deadline)
        for _ in range(max(1, loops // 2))
        for mode in ("run", "traced")
    ]


def _sources_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _commit():
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT.resolve():
        return None
    return lines[1]


def _one_value(values, what: str, log: list):
    """The value every run agreed on.  A disagreement goes into `log` (the
    problems for exact counters, the notes for hashes) and the first is kept."""
    if len(set(values)) > 1:
        log.append(f"{what} differs between runs of one seed: {sorted(set(values))}")
    return values[0]


def _summarize(workload: str, runs: list, setups: list, traced: bool) -> dict:
    spec = WORKLOADS[workload]
    ok = [r for r in runs if r.get("exit_code") == 0 and r.get("aborted") is None]
    failed = [r for r in runs if r.get("problems")]
    notes = []
    problems = sorted({p for r in failed for p in r["problems"]})
    result = {
        "attempted": len(runs),
        "failed": len(failed),
        "problems": problems,
        "notes": notes,
    }
    plain = [r for r in ok if r["mode"] == "run"]
    traces = [r for r in ok if r["mode"] == "traced"]
    if not plain or not setups or (traced and not traces):
        return result
    stamps = {
        key: _one_value([r[key] for r in ok], key, notes)
        for key in ("csv_sha256", "summary_prefix_sha256")
    }
    counters = {
        key: _one_value([r["counters"][key] for r in ok], key, problems)
        for key in ok[0]["counters"]
    }
    factor = statistics.median(r["speed_factor"] for r in plain)
    scaled_solves = [
        [f * t for f, t in zip(r["solve_factors"], r["solve_ms"])] for r in plain
    ]
    per_iteration = [
        [t / n for t, n in zip(times, r["solve_iterations"])]
        for times, r in zip(scaled_solves, plain)
    ]
    metrics = {
        "setup_s": REFERENCE_IMPORT_S
        * statistics.median(s["setup_s"] / s["reference_import_s"] for s in setups),
        "wall_s": statistics.median(r["speed_factor"] * r["wall_s"] for r in plain),
        "rtf": statistics.median(r["duration_s"] / (r["speed_factor"] * r["loop_s"]) for r in plain),
        "solve_ms_p50": statistics.median(harrell_davis(s, 50) for s in scaled_solves),
        "solve_ms_tail": statistics.median(
            harrell_davis(s, spec.tail_percentile) for s in scaled_solves
        ),
        "solve_ms_per_iter_p50": statistics.median(harrell_davis(s, 50) for s in per_iteration),
        "solve_ms_per_iter_tail": statistics.median(
            harrell_davis(s, spec.tail_percentile) for s in per_iteration
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "nmpc_executions": _one_value(
            [r["nmpc_executions"] for r in ok], "nmpc_executions", problems
        ),
        "rms_err_m": _one_value([r["rms_err_m"] for r in ok], "rms_err_m", problems),
        "failed_ratio": len(failed) / len(runs),
    }
    raw = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "reference_import_s": statistics.median(s["reference_import_s"] for s in setups),
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "solve_ms_p50": statistics.median(harrell_davis(r["solve_ms"], 50) for r in plain),
        "speed_factor": factor,
    }
    result.update(
        seed=ok[0]["seed"],
        loops=len(plain),
        solves_per_loop=len(plain[0]["solve_ms"]),
        raw=raw,
        tail_percentile=spec.tail_percentile,
        setup_samples=len(setups),
        setup_pairs=[(s["setup_s"], s["reference_import_s"]) for s in setups],
        determinism=stamps,
        counters=counters,
        environment=ok[0]["environment"],
        metrics=metrics,
        per_loop=[
            {
                key: r.get(key)
                for key in (
                    "mode", "setup_s", "loop_s", "wall_s",
                    "speed_factor", "peak_rss_mb", "cpu_s",
                )
            }
            for r in ok
        ],
    )
    if traced:
        layers = {}
        for key in traces[0]["layers"]:
            values = [r["layers"][key] for r in traces]
            if key.endswith("_s"):
                layers[key] = statistics.median(values)
            else:
                layers[key] = _one_value(values, key, problems)
        loop_traced = statistics.median(r["loop_s"] for r in traces)
        loop_plain = statistics.median(r["loop_s"] for r in plain)
        layers["trace.overhead_ratio"] = loop_traced / loop_plain - 1.0
        result["layers"] = layers
        result["traced_hashes_equal"] = all(
            (r["csv_sha256"], r["summary_prefix_sha256"])
            == (plain[0]["csv_sha256"], plain[0]["summary_prefix_sha256"])
            for r in traces
        )
    if not all(r["restored"] for r in ok):
        problems.append("a run left a wrapped module attribute behind")
    return result


def _print_block(workload: str, res: dict, units: dict) -> None:
    print(f"== {workload}: {res['attempted']} closed loops, {res['failed']} failed")
    for problem in res["problems"]:
        print(f"  FAIL {problem}")
    for note in res["notes"]:
        print(f"  NOTE {note}")
    if "metrics" not in res:
        return
    raw = res["raw"]
    extra = {
        "setup_s": (
            f"median of {res['setup_samples']} fresh processes; raw {raw['setup_s']:.4g} s, "
            f"reference import {raw['reference_import_s']:.4g} s"
        ),
        "wall_s": f"median of {res['loops']} loops; raw {raw['wall_s']:.4g} s",
        "solve_ms_p50": (
            f"Harrell-Davis, {res['solves_per_loop']} solves per loop; "
            f"raw {raw['solve_ms_p50']:.4g} ms"
        ),
        "solve_ms_tail": f"p{res['tail_percentile']}, Harrell-Davis",
        "solve_ms_per_iter_p50": "each solve's time over its SQP iterations",
        "solve_ms_per_iter_tail": f"p{res['tail_percentile']}",
    }
    for key, value in res["metrics"].items():
        note = f"  ({extra[key]})" if key in extra else ""
        print(f"  {key:22s} = {value:.6g} {units[key]}{note}")
    print(f"  machine speed factor = {raw['speed_factor']:.4f} (scaled = raw x factor)")
    print(f"  seed = {res['seed']}  output check: {'PASS' if not res['problems'] else 'FAIL'}")
    for key, digest in res["determinism"].items():
        print(f"  {key} = {digest}")
    if "layers" in res:
        print(f"  traced run hashes equal untraced: {res['traced_hashes_equal']}")
        for key, value in res["layers"].items():
            print(f"  {key:42s} = {value:.6g} {units[key]}")


def _workload_result(workload: str, seed, seconds: float, traced: bool) -> dict:
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    runs = _measure(workload, seed, seconds, traced, deadline)
    setups = []
    for _ in range(SETUP_SAMPLES):
        sample = _spawn(workload, "setup", seed, deadline)
        if "setup_s" not in sample:
            runs.append(sample)  # a process that cannot even set up is a failed run
            break
        try:
            sample["reference_import_s"] = _reference_import(deadline)
        except subprocess.SubprocessError as exc:
            runs.append({"mode": "setup", "problems": [f"reference import: {exc}"]})
            break
        setups.append(sample)
    return _summarize(workload, runs, setups, traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, help="scenario seed (default: the preset's)")
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cablelift" / "cli.py").is_file():
        print("perfbench: run from the repository root (src/cablelift not found)", file=sys.stderr)
        return 2
    end_to_end, per_layer = _declared()
    reported = per_layer if args.trace else end_to_end
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res = _workload_result(name, args.seed, args.seconds, bool(args.trace))
        values = {**res.get("metrics", {}), **res.get("layers", {})}
        missing = sorted(set(reported) - set(values)) if "metrics" in res else []
        if missing:
            res["problems"].append(f"declared metrics not measured: {', '.join(missing)}")
        results[name] = res
        _print_block(name, res, {**end_to_end, **per_layer, **EXTRA_UNITS})

    record = {
        "commit": _commit(),
        "sources_sha256": _sources_digest(),
        "args": vars(args),
        "workloads": results,
    }
    environment = next((r["environment"] for r in results.values() if "environment" in r), None)
    print(f"commit {record['commit']}  sources sha256 {record['sources_sha256'][:16]}")
    print(f"environment {json.dumps(environment)}")
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    metrics = {}
    for name, res in results.items():
        prefix = "" if len(results) == 1 else f"{name}."
        values = {**res.get("metrics", {}), **res.get("layers", {})}
        for key, unit in reported.items():
            if key in values:
                metrics[prefix + key] = {"value": values[key], "unit": unit}
    summary = {
        "correct": all("metrics" in r and not r["problems"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
