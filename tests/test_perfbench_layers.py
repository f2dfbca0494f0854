"""The benchmark's layer bindings (``perfbench/layers.py``).

``layers.install()`` wraps each layer's functions at the binding its
caller looks up, and raises when one is missing; ``Tracer.restore()``
must put every original back.  A refactor that drops a binding the
benchmark wraps fails here instead of in the next traced benchmark run.
"""

import importlib.util
import os

import pytest

import repro.bc.engine as engine_mod
from repro.bc.engine import DynamicBC
from repro.gpu.costmodel import CostModel
from repro.gpu.counters import KernelCounters
from repro.resilience.transactions import UpdateTransaction

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load("layers")
tracing = _load("tracing")

#: bindings the benchmark's per-layer metrics are read from
ENGINE_BINDINGS = (
    "adjacent_level_update", "distant_level_update", "single_source_state",
    "trace_static_source", "make_accountant", "rebuild_trace",
    "schedule_blocks", "classify_insertions_batch",
    "classify_deletions_batch",
)
CLASS_BINDINGS = (
    (CostModel, "trace_seconds"), (CostModel, "stage_breakdown"),
    (KernelCounters, "absorb"), (UpdateTransaction, "save_row"),
    (UpdateTransaction, "restore_row"), (UpdateTransaction, "rollback"),
)


def _raw(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(
        owner, attr)


def test_install_wraps_every_binding_and_restore_undoes_it(karate):
    watched = [(engine_mod, name) for name in ENGINE_BINDINGS]
    watched += list(CLASS_BINDINGS)
    before = {(id(owner), attr): _raw(owner, attr) for owner, attr in watched}
    tracer = tracing.Tracer()
    layers.install(tracer)
    try:
        installed = list(tracer._undo)
        for owner, attr in watched:
            assert _raw(owner, attr) is not before[(id(owner), attr)], attr
        eng = DynamicBC.from_graph(karate, num_sources=8, seed=1)
        eng.insert_edge(0, 9)
        eng.delete_edge(0, 9)
        assert tracer.calls("bc.classify") == 2
    finally:
        tracer.restore()
    for owner, attr, original in installed:
        assert _raw(owner, attr) is original, attr
    for owner, attr in watched:
        assert _raw(owner, attr) is before[(id(owner), attr)], attr


def test_install_raises_on_a_missing_binding(monkeypatch):
    monkeypatch.delattr(engine_mod, "distant_level_update")
    tracer = tracing.Tracer()
    try:
        with pytest.raises(AttributeError):
            layers.install(tracer)
    finally:
        tracer.restore()
    assert engine_mod.adjacent_level_update.__module__ == "repro.bc.update_core"
