"""Self-tests of the benchmark's gate and tracer (no simulation is run).

    python3 -m pytest -q perfbench
"""

import sys
import types
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import bench  # noqa: E402
import layers  # noqa: E402
from gate import FIELDS, Episode, check, load_reference  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def _episode_matching(ref: dict) -> Episode:
    """A final state that agrees with the stored reference where it is sampled."""
    n = ref["particles"]
    table = np.zeros(n, dtype=[(f, np.float64) for f in ("id",) + FIELDS + ("J", "epoch")])
    ids = np.asarray(ref["ids"])
    for f in FIELDS:
        table[f][ids] = ref[f]
    return Episode(table=table, masses=np.full(ref["steps"], ref["mass"]),
                   steps=ref["steps"], rebinds=ref["rebinds"])


def test_gate_accepts_reference_and_rejects_perturbed_state():
    w = WORKLOADS["droplet_adaptive"]
    ref = load_reference(w.name)
    ep = _episode_matching(ref)
    assert check(ep, w, ref, DEFAULT_SEED) == []

    k = ref["ids"][len(ref["ids"]) // 2]
    ep.table["y"][k] += 10 * ref["tol_x"]
    problems = check(ep, w, ref, DEFAULT_SEED)
    assert len(problems) == 1 and "final y" in problems[0]
    # other seeds are not compared with the reference, only with the invariants
    assert check(ep, w, ref, DEFAULT_SEED + 1) == []


def test_gate_rejects_broken_invariants():
    w = WORKLOADS["snow_implicit"]
    ref = load_reference(w.name)
    cases = {
        "non-finite": dict(nan=True),
        "total mass": dict(masses=np.r_[np.full(ref["steps"] - 1, ref["mass"]),
                                        ref["mass"] * (1 + 1e-15)]),
        "rebinds_per_104": dict(rebinds=5),
        "CG iteration cap": dict(cg_unconverged=1),
        "fell back": dict(cg_fallbacks=2),
    }
    for needle, change in cases.items():
        ep = _episode_matching(ref)
        if change.pop("nan", False):
            ep.table["vx"][3] = np.nan
        for key, val in change.items():
            setattr(ep, key, val)
        problems = check(ep, w, ref, DEFAULT_SEED + 1)
        assert any(needle in p for p in problems), (needle, problems)


def test_tracer_self_time_nesting_and_restore():
    mod = types.ModuleType("fake")
    mod.inner = lambda: sum(range(1000))
    mod.outer = lambda: mod.inner() + mod.inner()

    class Built:
        @classmethod
        def build(cls, x):
            return cls, x

    original_outer = mod.outer
    tracer = Tracer()
    assert tracer.wrap(mod, "outer", "a.outer")
    assert tracer.wrap(mod, "inner", "a.inner", lambda c, args, r: c.__setitem__("n", c["n"] + 1))
    assert tracer.wrap(Built, "build", "a.build")
    mod.outer()
    assert Built.build(3) == (Built, 3)
    names = [s.name for s in tracer.spans]
    assert names == ["a.outer", "a.inner", "a.inner", "a.build"]
    assert tracer.spans[1].parent == 0 and tracer.spans[3].parent == -1
    total = sum(s.end - s.start for s in tracer.spans if s.parent == -1)
    assert abs(sum(tracer.self_times().values()) - total) < 1e-12
    assert tracer.counts["n"] == 2
    tracer.restore()
    assert mod.outer is original_outer and isinstance(vars(Built)["build"], classmethod)


def test_missing_name_is_reported_missing_not_zero(monkeypatch):
    mod = types.ModuleType("fake")
    tracer = Tracer()
    assert not tracer.wrap(mod, "gone", "transfers.p2g")
    assert tracer.missing == ["fake.gone"]

    # a layer whose every wrapped name is gone is left out of the metrics
    monkeypatch.setattr(layers, "WRAPS", [("aulmpm.engine", "no_such_name", "transfers.p2g", None),
                                          ("aulmpm.engine:NoSuchClass", "step", "engine.step", None)])
    tracer = Tracer()
    live = layers.install(tracer)
    assert live == set()
    assert tracer.missing == ["aulmpm.engine.no_such_name", "aulmpm.engine:NoSuchClass.step"]
    table = np.zeros(4, dtype=[("x", np.float64)])
    ep = Episode(table=table, masses=np.ones(2), steps=2, rebinds=0)
    values = bench._layer_values(tracer, live, (ep, [0.1, 0.1], 0.0, 0.0, 0),
                                 {"active": [0.5], "slots": 16})
    assert "transfers.p2g_s" not in values and "transfers.stencil_entries" not in values
    assert "engine.step_self_s" not in values
    assert values["grid.slots"] == (16, "count")
