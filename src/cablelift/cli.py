"""Command-line entry point: run scenarios, sweep trigger settings, list presets.

Exit codes: 0 on success, 1 when a run aborts mid-flight, 2 for a bad
config or arguments.  Output files land in --out-dir as <name>.csv plus
<name>_summary.txt; sweeps add a sweep.csv table with one row per run.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from . import harness, scenario
from .harness import HarnessAbort
from .scenario import ConfigError


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="scenario file (YAML, schema_version 1)")
    sub.add_argument("--preset", help="built-in scenario name (see `presets`)")
    sub.add_argument("--out-dir", default="out", help="directory for CSV and summary files")
    sub.add_argument("--seed", type=int, help="override the scenario RNG seed")


def _resolve(args) -> tuple:
    """Build the scenario from --config / --preset / --seed."""
    if args.config and args.preset:
        raise ConfigError("pass either --config or --preset, not both")
    if args.config:
        config, sweep = scenario.load_config(args.config)
    else:
        config = scenario.scenario_preset(args.preset or "circle")
        sweep = None
    if args.seed is not None:
        # a new config, so that its checks run on the seed too
        config = dataclasses.replace(config, seed=args.seed)
    return config, sweep


def _out_dir(args, names) -> Path:
    """Create --out-dir before any simulation, and refuse a run name whose
    output file names it cannot hold, so that neither costs a run."""
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {args.out_dir!r}: {exc.strerror}") from exc
    limit = os.pathconf(out_dir, "PC_NAME_MAX") if hasattr(os, "pathconf") else 255
    for name in names:
        if len(os.fsencode(f"{name}_summary.txt")) > limit:
            raise ConfigError(f"'name' {name!r} makes output file names longer than {limit} bytes")
    return out_dir


# the default sweep grid, loosest trigger first
CONDITIONS = ("loose", "medium", "tight")
# the summary entries of each sweep.csv row, after its name, alpha and beta
SWEEP_KEYS = (
    "nmpc_executions", "rms_payload_error_m", "max_payload_error_m",
    "min_separation_m", "max_separation_m",
)


def _run(config, out_dir: Path) -> dict:
    """Run one scenario, write <name>.csv and <name>_summary.txt, print the
    summary and return it."""
    log = harness.run_closed_loop(config)
    summary = harness.summarize(log)
    harness.emit_csv(log, out_dir / f"{config.name}.csv")
    harness.emit_summary(summary, out_dir / f"{config.name}_summary.txt")
    print(f"[{config.name}]")
    for line in harness.summary_lines(summary):
        print(f"  {line}")
    return summary


def cmd_run(args) -> int:
    config, _ = _resolve(args)
    _run(config, _out_dir(args, [config.name]))
    return 0


def cmd_sweep(args) -> int:
    config, sweep = _resolve(args)
    if sweep is not None:
        alphas, betas = sweep
        # repr, so that distinct values never share a name (or the files it names)
        grid = [(f"a{a!r}_b{b!r}", a, b) for a in alphas for b in betas]
    else:
        grid = [(name, *scenario.TRIGGER_PRESETS[name]) for name in CONDITIONS]
    runs = [
        dataclasses.replace(
            config,
            name=f"{config.name}_{label}",
            trigger=dataclasses.replace(config.trigger, alpha=alpha, beta=beta),
        )
        for label, alpha, beta in grid
    ]
    out_dir = _out_dir(args, [run_cfg.name for run_cfg in runs])
    rows = [",".join(("name", "alpha", "beta") + SWEEP_KEYS)]
    for run_cfg in runs:
        summary = _run(run_cfg, out_dir)
        values = [run_cfg.trigger.alpha, run_cfg.trigger.beta, *(summary[k] for k in SWEEP_KEYS)]
        rows.append(",".join([run_cfg.name, *map(harness.fmt, values)]))
    (out_dir / "sweep.csv").write_text("\n".join(rows) + "\n")
    return 0


def cmd_presets(_args) -> int:
    print("scenario presets:")
    for name in scenario.preset_names():
        config = scenario.scenario_preset(name)
        print(
            f"  {name:16s} {config.reference.kind:6s} {config.duration:5.1f} s  "
            f"{config.plant_model:12s} alpha={config.trigger.alpha:g} beta={config.trigger.beta:g}"
        )
    print("trigger presets (alpha, beta):")
    for name in CONDITIONS:
        alpha, beta = scenario.TRIGGER_PRESETS[name]
        print(f"  {name:16s} ({alpha:g}, {beta:g})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cablelift",
        description="Event-triggered NMPC for cable-suspended payload transport.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one scenario and emit CSV + summary")
    _add_run_flags(run_p)
    run_p.set_defaults(func=cmd_run)
    sweep_p = sub.add_parser("sweep", help="run a grid of trigger settings")
    _add_run_flags(sweep_p)
    sweep_p.set_defaults(func=cmd_sweep)
    presets_p = sub.add_parser("presets", help="list built-in scenarios")
    presets_p.set_defaults(func=cmd_presets)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HarnessAbort as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
