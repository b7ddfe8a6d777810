"""Command line front end.

Subcommands:
  sim       run one scene and write frames/stats/summary
  converge  grid refinement study against a fine benchmark
  verify    run the acceptance criteria (all, or those named by --only)
            and print one scorecard line each, as the test suite does

Exit codes: 0 success, 2 scene/argument validation error (including an
unknown check name), 3 runtime failure (including a failed or overrun
check).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import SceneError, SimulationError
from .scene import SCHEMA, load_scene

# solver keys `sim` can override, spelled and valued as in the scene
_OVERRIDES = ("mode", "integrator", "transfer")


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="aulmpm", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("sim", help="run a scene")
    sim.add_argument("scene", help="scene JSON path")
    sim.add_argument("--out", help="output directory")
    sim.add_argument("--frames", type=_non_negative_int, default=None,
                     help="number of snapshots to emit after the initial one")
    for key in _OVERRIDES:
        sim.add_argument(f"--{key}", help=f"override the scene's solver {key}",
                         choices=SCHEMA["properties"]["solver"]["properties"][key]["enum"])

    conv = sub.add_parser("converge", help="grid refinement study")
    conv.add_argument("scene", help="scene JSON path")
    conv.add_argument("--levels", required=True,
                      help="exponent range i..j, grids of 2^i .. 2^j cells along x")
    conv.add_argument("--bench-level", type=int, required=True,
                      help="benchmark exponent k, grid of 2^k cells along x")
    conv.add_argument("--out", help="error table CSV path")

    ver = sub.add_parser("verify", help="run the acceptance criteria")
    ver.add_argument("--only", action="append", default=None,
                     help="run just this named check (repeatable)")
    return top


def _parse_levels(text: str) -> list[int]:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise SceneError(f"levels must look like 4..7, got {text!r}") from None
    if not (1 < lo <= hi):
        raise SceneError(f"bad level range {text!r}")
    return [2 ** k for k in range(lo, hi + 1)]


def _cmd_sim(args) -> int:
    scene = load_scene(args.scene)
    for key in _OVERRIDES:
        if getattr(args, key):
            setattr(scene.solver, key, getattr(args, key))
    from .engine import Simulation

    def progress(done, total):
        print(f"\rstep {done}/{total}", end="", file=sys.stderr, flush=True)

    sim = Simulation(scene)
    info = sim.run(out_dir=args.out, frames=args.frames, progress=progress)
    print("", file=sys.stderr)
    print(json.dumps(info, indent=2))
    return 0


def _cmd_converge(args) -> int:
    scene = load_scene(args.scene)
    levels = _parse_levels(args.levels)
    from .verify import convergence_study

    report = convergence_study(scene, levels, 2 ** args.bench_level)
    if args.out:
        report.write_csv(args.out)
    for lv, dx, ed, ev in zip(report.cells, report.dx,
                              report.displacement_errors, report.velocity_errors):
        print(f"{lv:4d}  dx={dx:.4g}  disp={ed:.6g}  vel={ev:.6g}")
    print(f"displacement slope {report.displacement_slope:.4g}")
    print(f"velocity slope     {report.velocity_slope:.4g}")
    if report.partial:
        print("warning: partial report, failed levels: "
              + "; ".join(report.failures), file=sys.stderr)
        return 3
    if report.degenerate:
        print("warning: degenerate fit (errors at machine noise)", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    from .verify import iter_property_checks

    failed = 0
    for _, res in iter_property_checks(args.only):
        print(res["line"], flush=True)
        failed += not res["passed"]
    if failed:
        print(f"{failed} check(s) failed", file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sim":
            return _cmd_sim(args)
        if args.command == "converge":
            return _cmd_converge(args)
        return _cmd_verify(args)
    except SceneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
