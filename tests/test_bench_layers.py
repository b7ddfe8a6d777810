"""The library names behind every declared per-layer metric still exist.

`perfbench/layers.py` wraps library functions by name to time and count
the layers, and it skips a name that is gone.  A per-layer metric that
`BENCHMARK.json` declares then has no span, and the traced benchmark run
fails.  This test finds such a rename in milliseconds and names the span:
for every span that feeds a declared time or count metric, at least one
wrapped name must resolve in the library.  The per-layer byte counts
take (n, S, d) from a body through `layers._shape`, so a live body must
give (n, 9, 2) there whatever the storage layout.  It reads `layers.py`
without changing it.  Its tracer keeps one span stack, so every name it
wraps must be called from the thread that steps, also while p2g and g2p
run a component on their worker thread.
"""

import importlib
import importlib.util
import json
import threading
from pathlib import Path

import pytest

from aulmpm import transfers
from aulmpm.engine import Simulation
from aulmpm.scene import load_scene
from test_threads import CELLS, TWO_CPUS, _sim

ROOT = Path(__file__).resolve().parent.parent
DECLARED = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  ROOT / "perfbench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _layers()
SPANS = sorted({span for name, span in LAYERS.TIME_METRICS.items() if name in DECLARED}
               | {span for name, (_, span) in LAYERS.COUNT_METRICS.items() if name in DECLARED})


def _resolves(owner_path: str, attr: str) -> bool:
    mod_name, _, cls_name = owner_path.partition(":")
    owner = importlib.import_module(mod_name)
    if cls_name:
        owner = getattr(owner, cls_name, None)
    return owner is not None and callable(getattr(owner, attr, None))


def test_declared_metrics_have_spans():
    assert SPANS, "no declared per-layer metric maps to a span"


@pytest.mark.parametrize("span", SPANS)
def test_span_wraps_a_library_name(span):
    names = [(owner, attr) for owner, attr, s, _ in LAYERS.WRAPS if s == span]
    assert any(_resolves(owner, attr) for owner, attr in names), (
        f"span {span!r}: none of {[f'{o}.{a}' for o, a in names]} exists in the library")


def test_layer_shape_reads_entries_per_particle():
    # the per-layer byte counts take (n, S, d) from the binding's public
    # arrays; they must read the same under any storage layout
    sim = Simulation(load_scene({
        "grid": {"origin": [0.0, 0.0], "size": [1.0, 1.0], "cells": [20, 20]},
        "solver": {"dt": 1e-3, "steps": 1},
        "objects": [{
            "shape": {"type": "disk", "center": [0.5, 0.5], "radius": 0.1},
            "spacing": 0.02,
            "material": {"type": "fixed_corotated", "density": 1000.0,
                         "youngs": 1e4, "poisson": 0.3},
        }],
    }))
    body = sim.bodies[0]
    assert LAYERS._shape(body) == (body.n, 9, 2)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_wrapped_names_run_on_the_main_thread(monkeypatch, cell):
    # with the split forced on every body, the worker thread runs half of
    # p2g and g2p; a wrapped name called there would interleave spans
    monkeypatch.setattr(transfers, "SPLIT_MIN_PARTICLES", 0)
    monkeypatch.setattr(transfers, "_worker", None)
    calls = []
    for owner_path, attr, _, _ in LAYERS.WRAPS:
        mod_name, _, cls_name = owner_path.partition(":")
        owner = importlib.import_module(mod_name)
        if cls_name:
            owner = getattr(owner, cls_name)
        raw = vars(owner).get(attr) if cls_name else getattr(owner, attr, None)
        if raw is None:
            continue
        is_cm = isinstance(raw, classmethod)

        def checked(*args, _fn=raw.__func__ if is_cm else raw, _name=f"{owner_path}.{attr}",
                    **kwargs):
            calls.append((_name, threading.current_thread()))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, classmethod(checked) if is_cm else checked)
    _sim(cell).run()
    assert (transfers._worker is not None) == TWO_CPUS
    assert {"aulmpm.engine.p2g", "aulmpm.engine.g2p"} <= {name for name, _ in calls}
    off_main = {name for name, thread in calls if thread is not threading.main_thread()}
    assert not off_main
