"""Episode runner, metrics and reporting for run.py (imported after the
BLAS thread cap is set and `src/` is on the path)."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import aulmpm
import layers
from gate import DEFAULT_SEED, Episode, check, load_reference
from tracing import Tracer
from workloads import WORKLOADS, scene_dict

perf = time.perf_counter

SETUP_REPS = 5            # extra set-ups timed before the episodes
MIN_STEP_SAMPLES = 100    # so that 10 step times lie beyond p90
MAX_MEASURE_S = 120.0     # stop adding episodes after this, whatever the count

# end-to-end metrics reported with --trace 0
E2E_UNITS = {
    "setup_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "particle_steps_per_s": "1/s",
    "run_s": "s",
    "peak_rss_mb": "MB",
}


class Runner:
    """Runs episodes of one workload and keeps what the metrics need."""

    def __init__(self, workload, seed: int, out_dir: Path, ref: dict | None):
        self.workload = workload
        self.seed = seed
        self.raw = scene_dict(workload, seed, Path(aulmpm.__file__).parent / "data" / "scenes")
        self.ref = ref  # None: no gate (used to record a reference)
        self.frames_dir = out_dir / f"frames_{workload.name}_{seed}"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_table: np.ndarray | None = None
        self.particles = 0

    def setup(self):
        t0 = perf()
        sim = aulmpm.Simulation(aulmpm.load_scene(self.raw))
        return sim, perf() - t0

    def episode(self, after_step=None):
        """One episode; returns (Episode, step times, setup_s, run_s, frame bytes),
        or None if it raised or failed the gate."""
        w = self.workload
        self.attempted += 1
        step_s: list[float] = []
        cg = {"iters": 0, "unconverged": 0, "fallbacks": 0}

        def record(sim):
            info = sim.cg_info
            if info is not None:
                cg["iters"] += info["iterations"]
                cg["unconverged"] += not info["converged"] and not info["fallback"]
                cg["fallbacks"] += bool(info["fallback"])
            if after_step is not None:
                after_step(sim)

        shutil.rmtree(self.frames_dir, ignore_errors=True)
        try:
            t0 = perf()
            sim, setup_s = self.setup()
            if w.frames:
                # Simulation.run calls self.step once per step: time each call
                inner = sim.step

                def timed_step(dt=None):
                    a = perf()
                    out = inner(dt)
                    step_s.append(perf() - a)
                    record(sim)
                    return out

                sim.step = timed_step
                sim.run(out_dir=self.frames_dir, frames=w.frames)
            else:
                for _ in range(w.steps):
                    a = perf()
                    sim.step()
                    step_s.append(perf() - a)
                    record(sim)
            table = sim.particle_table()
            run_s = perf() - t0
            ep = Episode(table=table,
                         masses=np.array([r.mass for r in sim.records]),
                         steps=sim.steps_done,
                         rebinds=sim.summary()["updates_total"],
                         cg_iters=cg["iters"], cg_unconverged=cg["unconverged"],
                         cg_fallbacks=cg["fallbacks"])
            self.particles = sim.n_particles
        except Exception:  # a raising episode is a failed episode, not a crash
            self._fail("episode raised:\n" + traceback.format_exc())
            return None
        problems = [] if self.ref is None else check(ep, w, self.ref, self.seed)
        if self.first_table is None:
            self.first_table = table
        elif table.tobytes() != self.first_table.tobytes():
            problems.append("final state differs bitwise from the run's first episode")
        if problems:
            self._fail("; ".join(problems))
            return None
        return ep, step_s, setup_s, run_s, _frame_bytes(self.frames_dir)

    def _fail(self, why: str) -> None:
        self.failed += 1
        self.problems.append(why)
        print(f"FAILED episode {self.attempted}: {why}", file=sys.stderr)


def _frame_bytes(path: Path) -> int:
    """Bytes of the particle frames written under path.  stats.csv and
    summary.json are left out: they carry wall times, so their length is
    not repeatable."""
    return sum(p.stat().st_size for p in (path / "frames").glob("*"))


def _step_stats(step_s: list[float]) -> dict:
    ms = np.asarray(step_s) * 1e3
    p50, p90 = np.percentile(ms, [50, 90])
    return {"p50": float(p50), "p90": float(p90), "n": int(ms.size),
            "beyond_p90": int(np.count_nonzero(ms > p90))}


def untraced(runner: Runner, seconds: float) -> tuple[dict, list[str]]:
    setups = [runner.setup()[1] for _ in range(SETUP_REPS)]
    step_s: list[float] = []
    runs: list[float] = []
    rebinds: list[float] = []
    t_start = perf()
    while True:
        a = perf()
        res = runner.episode()
        last = perf() - a
        if res is not None:
            ep, s, setup_s, run_s, _ = res
            step_s += s
            setups.append(setup_s)
            runs.append(run_s)
            rebinds.append(ep.rebinds_per_104)
        elapsed = perf() - t_start
        if elapsed > MAX_MEASURE_S:
            break
        if len(step_s) >= MIN_STEP_SAMPLES and elapsed + last > seconds:
            break
    if not step_s:
        return {}, ["no episode passed"]
    st = _step_stats(step_s)
    metrics = {
        "setup_s": statistics.median(setups),
        "step_ms_p50": st["p50"],
        "step_ms_p90": st["p90"],
        "particle_steps_per_s": runner.particles * len(step_s) / sum(step_s),
        "run_s": statistics.median(runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    lines = [f"{k:<24} {v:>14.6g} {E2E_UNITS[k]}" for k, v in metrics.items()]
    lines += [
        f"{'fail_rate':<24} {runner.failed / runner.attempted:>14.6g} ratio"
        f"  ({runner.failed}/{runner.attempted} episodes)",
        f"{'rebinds_per_104':<24} {statistics.median(rebinds):>14.6g} count",
        f"step samples: {st['n']} ({st['beyond_p90']} beyond p90), "
        f"set-ups: {len(setups)}, episodes passed: {len(runs)}",
    ]
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}, lines


def traced(runner: Runner, seconds: float, out_dir: Path) -> tuple[dict, list[str]]:
    """Alternate untraced and traced episodes; per-layer values come from the
    traced ones.  The runner already requires every final state to equal the
    first (untraced) episode's bit for bit."""
    t_start = perf()
    base_p50: list[float] = []
    per_episode: list[dict] = []
    spans = None
    while True:
        t_pair = perf()
        base = runner.episode()
        if base is None:
            break
        base_p50.append(_step_stats(base[1])["p50"])
        tracer = Tracer()
        live = layers.install(tracer)
        extra = {"active": []}

        def after_step(sim):
            g = sim.grid
            extra["active"].append(np.count_nonzero(g.mass > sim.mass_eps) / g.n_slots)
            extra["slots"] = g.n_slots

        try:
            res = runner.episode(after_step)
        finally:
            tracer.restore()
        if res is None:
            break
        per_episode.append(_layer_values(tracer, live, res, extra))
        if spans is None:
            spans = tracer.dump()
        elapsed = perf() - t_start
        if elapsed > MAX_MEASURE_S or elapsed + (perf() - t_pair) > seconds:
            break
    if not per_episode:
        return {}, ["no traced episode passed"]

    values, units = {}, {}
    for key in per_episode[0]:
        seq = [ep[key][0] for ep in per_episode]
        units[key] = per_episode[0][key][1]
        if units[key] in ("count", "B"):
            if len(set(seq)) != 1:
                runner._fail(f"count {key} differs between traced episodes: {seq}")
            values[key] = seq[0]
        else:
            values[key] = statistics.median(seq)
    values["trace.overhead_ms"] = values.pop("trace.step_p50_ms") - statistics.median(base_p50)
    units["trace.overhead_ms"] = "ms"
    del units["trace.step_p50_ms"]

    (out_dir / f"{runner.workload.name}_seed{runner.seed}.spans.json").write_text(
        json.dumps({"columns": ["name", "start_s", "end_s", "parent"], "spans": spans}))
    lines = [f"{k:<36} {values[k]:>14.6g} {units[k]}" for k in sorted(values)]
    lines.append(f"traced episodes: {len(per_episode)}, untraced: {len(base_p50)}")
    if tracer.missing:
        lines.append("missing names (not wrapped): " + ", ".join(tracer.missing))
    dead = sorted({span for _, _, span, _ in layers.WRAPS} - live)
    if dead:
        lines.append("missing spans (their metrics are not reported): " + ", ".join(dead))
    return {k: {"value": values[k], "unit": units[k]} for k in values}, lines


def _layer_values(tracer: Tracer, live: set[str], res, extra) -> dict:
    """Per-layer metrics of one traced episode as {name: (value, unit)}."""
    ep, step_s, _, _, frame_bytes = res
    self_s = tracer.self_times()
    out = {}
    for metric, span in layers.TIME_METRICS.items():
        if span in live:
            out[metric] = (self_s.get(span, 0.0), "s")
    if "kinematics.rebind" in live:
        out["kinematics.rebind_total_s"] = (sum(tracer.durations("kinematics.rebind")), "s")
    c = tracer.counts
    for metric, (key, span) in layers.COUNT_METRICS.items():
        if span in live:
            out[metric] = (int(c.get(key, 0)), "B" if metric.endswith("bytes_computed") else "count")
    if "transfers.p2g" in live and c.get("stencil_entries"):
        busy = sum(self_s.get(s, 0.0) for s in ("transfers.p2g", "transfers.forces", "transfers.g2p"))
        out["transfers.ns_per_entry"] = (busy * 1e9 / c["stencil_entries"], "ns")
    out["transfers.cg_iters"] = (ep.cg_iters, "count")
    out["transfers.cg_unconverged"] = (ep.cg_unconverged, "count")
    out["transfers.cg_fallbacks"] = (ep.cg_fallbacks, "count")
    if "kinematics.rebind_check" in live:
        checks = c.get("rebind_checks", 0)
        out["kinematics.marked_fraction_mean"] = (
            c.get("marked_fraction_sum", 0.0) / checks if checks else 0.0, "ratio")
    out["kinematics.rebinds_per_104"] = (ep.rebinds_per_104, "count")
    out["grid.slots"] = (int(extra["slots"]), "count")
    out["grid.active_fraction"] = (float(np.mean(extra["active"])), "ratio")
    out["engine.bytes_written"] = (frame_bytes, "B")
    wall = float(sum(step_s))
    accounted = tracer.self_time_under("engine.step")
    out["trace.step_wall_s"] = (wall, "s")
    out["trace.accounted_fraction"] = (accounted / wall, "ratio")
    out["trace.spans"] = (len(tracer.spans), "count")
    out["trace.step_p50_ms"] = (_step_stats(step_s)["p50"], "ms")
    return out


def environment(seed: int, nproc: int) -> dict:
    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": nproc,
        "cpu": _cpu_model(),
        "seed": seed,
    }


def _git_commit() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a clone."""
    git = Path(aulmpm.__file__).resolve().parents[2] / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(args, nproc: int, src: Path, out_dir: Path) -> int:
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if Path(aulmpm.__file__).resolve().parent != src / "aulmpm":
        print(f"perfbench: imported aulmpm from {aulmpm.__file__}, not {src}", file=sys.stderr)
        return 2
    out_dir.mkdir(exist_ok=True)
    env = environment(args.seed, nproc)
    runner = Runner(workload, args.seed, out_dir, load_reference(workload.name))
    try:
        if args.trace:
            metrics, lines = traced(runner, args.seconds, out_dir)
        else:
            metrics, lines = untraced(runner, args.seconds)
    finally:
        shutil.rmtree(runner.frames_dir, ignore_errors=True)
    correct = runner.failed == 0 and bool(metrics)
    print(f"perfbench {workload.name}: {workload.why}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"reference comparison: {'on' if args.seed == DEFAULT_SEED else 'off'} "
          f"(default seed {DEFAULT_SEED})")
    print("\n".join(lines))
    result = {"correct": correct, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    record = dict(result, workload=workload.name, trace=args.trace, seconds=args.seconds,
                  environment=env, problems=runner.problems, report=lines)
    (out_dir / f"{workload.name}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0
