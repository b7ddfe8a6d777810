import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from aulmpm import verify
from aulmpm.cli import main
from aulmpm.engine import (STATS_HEADER, Simulation, StepRecord, read_stats_csv,
                           write_stats_csv)
from aulmpm.errors import SceneError, SimulationError
from aulmpm.scene import bundled_scene, load_scene
from aulmpm.verify import (
    _fit_slope,
    convergence_study,
    error_norm,
    run_property_checks,
    update_stats,
)


def test_error_norm_identical_is_zero():
    a = np.random.default_rng(0).normal(size=(50, 2))
    assert error_norm(a, a) == 0.0


def test_error_norm_single_particle():
    assert error_norm(np.array([[0.1, 0.0]]), np.zeros((1, 2))) == pytest.approx(0.1)


def test_error_norm_two_particles():
    a = np.array([[0.3, 0.4], [0.0, 0.0]])
    assert error_norm(a, np.zeros((2, 2))) == pytest.approx(np.sqrt(0.25 / 2))


def test_error_norm_symmetry_and_shape_guard():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=(2, 30, 2))
    assert error_norm(a, b) == pytest.approx(error_norm(b, a))
    with pytest.raises(SimulationError, match="shapes"):
        error_norm(a, b[:10])


def test_slope_fit_recovers_known_order():
    dx = np.array([0.1, 0.05, 0.025, 0.0125])
    err = 3.7 * dx ** 2
    assert _fit_slope(dx, err) == pytest.approx(2.0, abs=1e-12)
    # uniform scaling of the errors shifts the intercept, not the slope
    assert _fit_slope(dx, 100.0 * err) == pytest.approx(2.0, abs=1e-12)


def _record(step, updates, wall, rebind_ms=0.0):
    return StepRecord(step=step, time=step * 1e-3, mass=1.0,
                      momentum=np.zeros(2), angular_momentum=0.0,
                      kinetic_energy=0.0, updates=updates,
                      marked_fraction=0.0, wall_ms=wall, rebind_ms=rebind_ms)


def test_update_stats_forced_arithmetic():
    # 52 rebinds in 208 steps -> 26 per 104-step window; the steps whose
    # update count grows record 1.0 or 2.0 ms of rebinding inside 3 ms
    # steps, so the cost is their mean 1.5 ms, not the 2 ms whole-step
    # difference
    recs = []
    ups = 0
    for k in range(1, 209):
        hit = k % 4 == 0
        ups += hit
        recs.append(_record(k, ups, 3.0 if hit else 1.0,
                            (1.0 if k % 8 else 2.0) if hit else 0.0))
    st = update_stats(recs)
    assert st["updates"] == 52
    assert st["tau"] == pytest.approx(26.0)
    assert st["update_cost_ms"] == pytest.approx(1.5)


def test_update_stats_zero_updates():
    recs = [_record(k, 0, 1.0) for k in range(1, 11)]
    st = update_stats(recs)
    assert st["tau"] == 0.0
    assert st["update_cost_ms"] == 0.0


def test_stats_csv_roundtrip(tmp_path):
    # the bundled drop rebinds; every field reads back bit for bit, wall
    # times included
    sim = Simulation(bundled_scene("droplet"))
    sim.run(out_dir=tmp_path)
    assert sim.records[-1].updates > 0
    back = read_stats_csv(tmp_path / "stats.csv")
    assert len(back) == len(sim.records) == 104
    for got, want in zip(back, sim.records):
        assert np.array_equal(got.momentum, want.momentum)
        assert (dataclasses.replace(got, momentum=None)
                == dataclasses.replace(want, momentum=None))
    assert update_stats(back) == update_stats(sim.records)


def test_rebind_time_is_recorded_on_rebind_steps(tmp_path):
    # a fluid drop that reaches the floor after 16 steps and then rebinds
    scene = load_scene({
        "grid": {"origin": [0.0, 0.0], "size": [1.0, 1.0], "cells": [32, 32]},
        "gravity": [0.0, -9.81],
        "solver": {"dt": 5e-4, "steps": 20, "mode": "adaptive"},
        "objects": [{
            "shape": {"type": "disk", "center": [0.5, 0.27], "radius": 0.06},
            "spacing": 0.01,
            "material": {"type": "weakly_compressible_fluid", "density": 1000.0,
                         "bulk": 1e4},
            "velocity": [0.0, -2.0],
            "update": {"epsilon": 0.001, "eta": 0.05},
        }],
        "colliders": [{"type": "half_space", "point": [0.0, 0.2],
                       "normal": [0.0, 1.0], "mode": "slip"}],
    })
    sim = Simulation(scene)
    rebound = [sim.step() for _ in range(scene.solver.steps)]
    ups = [0] + [r.updates for r in sim.records]
    assert rebound == [b > a for a, b in zip(ups, ups[1:])]
    assert any(rebound) and not all(rebound)
    for r, hit in zip(sim.records, rebound):
        assert r.rebind_ms > 0.0 if hit else r.rebind_ms == 0.0
    write_stats_csv(tmp_path / "stats.csv", sim.records)
    back = read_stats_csv(tmp_path / "stats.csv")
    cost = np.mean([r.rebind_ms for r, hit in zip(sim.records, rebound) if hit])
    assert update_stats(back)["update_cost_ms"] == cost


def test_stats_csv_malformed(tmp_path):
    p = tmp_path / "stats.csv"
    p.write_text("step,bogus\n1,2\n")
    with pytest.raises(SimulationError, match="malformed"):
        read_stats_csv(p)


def _header_only_run(tmp_path):
    sim = Simulation(_tiny_scene())
    sim.run(out_dir=tmp_path, frames=0)
    return tmp_path / "stats.csv"


def test_stats_csv_of_no_steps_reads_empty(tmp_path):
    path = _header_only_run(tmp_path)
    assert read_stats_csv(path) == []
    with pytest.raises(SimulationError, match="no step records"):
        update_stats(read_stats_csv(path))
    write_stats_csv(path, [_record(1, 0, 1.0)])
    for text in ("", path.read_text().split("\n", 1)[1]):   # no header line
        path.write_text(text)
        with pytest.raises(SimulationError, match="malformed stats file"):
            read_stats_csv(path)


def test_stats_csv_short_or_bad_row_is_malformed(tmp_path):
    # a row cut short (a run killed mid-write), one with too few values,
    # one with a value that is not a number
    path = tmp_path / "stats.csv"
    write_stats_csv(path, [_record(1, 0, 1.0), _record(2, 1, 1.5, 0.5)])
    full = path.read_text()
    for text, line in ((full[:full.rindex(",")], 3), (full + "3,0.003\n", 4),
                       (full + "3,x" + ",0" * 9 + "\n", 4)):
        path.write_text(text)
        with pytest.raises(SimulationError, match=f"malformed stats file .*: line {line}: "):
            read_stats_csv(path)


def test_readme_quotes_the_stats_header(tmp_path):
    header = _header_only_run(tmp_path).read_text().splitlines()[0]
    assert header == STATS_HEADER
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert f"`{header}`" in readme


def test_convergence_bench_must_exceed_every_level(monkeypatch):
    def no_run(scene):
        raise AssertionError("ran a scene")

    monkeypatch.setattr(verify, "_final_state", no_run)
    with pytest.raises(SceneError, match="must exceed every level"):
        convergence_study(_tiny_scene(), [16, 32], 32)


def _tiny_scene(**solver):
    sol = {"dt": 1e-3, "steps": 30}
    sol.update(solver)
    return load_scene({
        "grid": {"origin": [0.0, 0.0], "size": [1.0, 1.0], "cells": [64, 64]},
        "solver": sol,
        "objects": [{
            "shape": {"type": "disk", "center": [0.5, 0.5], "radius": 0.12},
            "spacing": 0.015,
            "material": {"type": "fixed_corotated", "density": 1000.0,
                         "youngs": 2e4, "poisson": 0.3},
            "angular_velocity": 3.0,
        }],
    })


def test_convergence_study_small():
    rep = convergence_study(_tiny_scene(), [8, 16], 32)
    assert rep.cells == [8, 16]
    assert not rep.partial
    assert rep.displacement_errors[0] > rep.displacement_errors[1]


def test_convergence_free_fall_is_degenerate():
    scene = _tiny_scene()
    scene.objects[0].angular_velocity = 0.0
    scene.objects[0].velocity = np.array([0.0, -0.5])
    scene.gravity = np.array([0.0, -9.81])
    rep = convergence_study(scene, [8, 16], 32)
    # uniform fields are grid-exact: errors at machine noise, no usable fit
    assert rep.degenerate
    assert np.isnan(rep.displacement_slope)


def test_convergence_bench_must_be_finest():
    with pytest.raises(SimulationError, match="benchmark"):
        convergence_study(_tiny_scene(), [8, 16], 16)


def test_convergence_report_csv(tmp_path):
    rep = convergence_study(_tiny_scene(), [8, 16], 32)
    out = tmp_path / "table.csv"
    rep.write_csv(out)
    text = out.read_text()
    assert text.startswith("cells,dx,displacement_error,velocity_error")
    assert "displacement_slope" in text


def test_property_checks_all_pass_and_unknown_name():
    res = run_property_checks(["rigid_silence", "transfer_identity"])
    assert all(v["passed"] for v in res.values())
    with pytest.raises(SimulationError, match="unknown check"):
        run_property_checks(["nope"])


def test_failed_spin_run_is_a_fail_line(monkeypatch):
    lost = {"completed": False, "failed_step": 3, "j_lo": np.inf, "j_hi": -np.inf}
    monkeypatch.setattr(verify, "_spin_run", lambda scene: dict(lost))
    res = run_property_checks(["fracture_proxy"])["fracture_proxy"]
    assert res["passed"] is False
    assert res["adaptive_drift"] is None
    assert " FAIL " in res["line"] and "drift=n/a" in res["line"]


def test_overrun_budget_fails_the_check(monkeypatch, capsys):
    name = "transfer_identity"
    monkeypatch.setitem(verify.CHECKS, name,
                        dataclasses.replace(verify.CHECKS[name], budget=0.0))
    res = run_property_checks([name])[name]
    assert res["passed"] is False
    assert " FAIL " in res["line"] and res["line"].endswith("s < 0s")
    assert main(["verify", "--only", name]) == 3
    capsys.readouterr()


def _probe(monkeypatch, metrics, bounds):
    check = verify.Check(12, "probe", "probe", 5.0, lambda: dict(metrics), bounds)
    monkeypatch.setitem(verify.CHECKS, "probe", check)
    return run_property_checks(["probe"])["probe"]


@pytest.mark.parametrize("metrics, shown", [
    ({"x": 1.5, "flag": True}, "x=1.5"),
    ({"x": None, "flag": True}, "x=n/a"),
    ({"x": float("nan"), "flag": True}, "x=nan"),
    ({"flag": True}, "x=n/a"),
], ids=["out_of_range", "none", "nan", "missing"])
def test_a_judged_metric_outside_its_bound_fails_and_is_named(monkeypatch, metrics, shown):
    res = _probe(monkeypatch, metrics, {"x": (0, 1e-5), "flag": (True, True)})
    assert res["passed"] is False
    assert " FAIL " in res["line"] and f"{shown} in [0,1e-5]" in res["line"]


def test_bounds_are_closed_and_true_counts_as_one(monkeypatch):
    res = _probe(monkeypatch, {"x": 1e-5, "n": 14, "flag": True, "extra": None},
                 {"x": (0, 1e-5), "n": (14, 14), "flag": (1, 1)})
    assert res["passed"] is True and res["extra"] is None
    assert res["line"].startswith("criterion 12 probe")
    assert "  x=1e-5 in [0,1e-5] n=14 in [14,14] flag=1 in [1,1], " in res["line"]
    assert "extra" not in res["line"]


@pytest.mark.parametrize("name", list(verify.CHECKS))
def test_every_judged_metric_is_in_its_line_with_its_range(monkeypatch, name):
    check = verify.CHECKS[name]
    at_low_end = {metric: lo for metric, (lo, hi) in check.bounds.items()}
    monkeypatch.setitem(verify.CHECKS, name,
                        dataclasses.replace(check, run=lambda: dict(at_low_end)))
    res = run_property_checks([name])[name]
    assert res["passed"] is True
    for metric, (lo, hi) in check.bounds.items():
        assert re.search(rf" {metric}=\S+ in \[{re.escape(verify._shown(lo))},"
                         rf"{re.escape(verify._shown(hi))}\]", res["line"])


def test_readme_scorecard_quotes_the_registered_bounds():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = re.findall(r"^criterion .*$", readme, flags=re.M)
    assert lines
    by_number = {c.number: c for c in verify.CHECKS.values()}
    for line in lines:
        check = by_number[int(line.split()[1])]
        quoted = dict(re.findall(r" (\w+)=\S+ in (\[[^\]]*\])", line))
        assert set(quoted) == set(check.bounds), line
        for metric, text in quoted.items():
            assert text == verify._judged(metric, None, check.bounds[metric]).split(" in ")[1]
