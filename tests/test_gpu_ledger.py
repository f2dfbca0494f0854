"""The columnar cost ledger (:mod:`repro.gpu.ledger`) against the
per-source accountants (:mod:`repro.bc.accountants`), which stay the
oracle.

The executor charges each batch's per-level arrays through the same
strategy formulas an accountant charges one source at a time; the
ledger's vectorized roofline and left folds must reproduce each
source's ``trace_seconds``, ``stage_breakdown`` and counter totals bit
for bit, on every backend and in either dependency direction.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bc.accountants import UpdateAccountant, make_accountant
from repro.bc.cases import Case
from repro.bc.engine import BACKENDS, DynamicBC
from repro.gpu.costmodel import CostModel, left_fold
from repro.gpu.counters import KernelCounters, Step, Trace
from repro.gpu.device import CORE_I7_2600K, GTX_560, TESLA_C2075
from repro.gpu.ledger import STAGES, CostLedger, dedup_step_counts
from repro.gpu.primitives import bitonic_sort_steps, prefix_sum_steps
from repro.graph import generators as gen
from repro.graph.dynamic import DynamicGraph
from repro.graph.stream import EdgeStream, replay
from tests.test_bc_batched import apply, forced, pair

DEVICES = (TESLA_C2075, GTX_560, CORE_I7_2600K)


def stage_vector(model: CostModel, trace: Trace) -> np.ndarray:
    """``stage_breakdown`` as a row of the ledger's stage matrix."""
    out = np.zeros(len(STAGES))
    for stage, sec in model.stage_breakdown(trace).items():
        out[STAGES.index(stage)] = sec
    return out


def assert_row_matches(model, totals, j, trace):
    """Row *j* of ledger totals equals what the oracle derives from
    the source's trace, bit for bit."""
    assert totals.seconds[j] == model.trace_seconds(trace)
    assert np.array_equal(totals.stages[j], stage_vector(model, trace))
    counters = KernelCounters()
    counters.absorb(trace)
    assert (int(totals.steps[j]), int(totals.items[j]),
            float(totals.bytes_moved[j]), int(totals.atomics[j])) == (
        counters.steps, counters.work_items, counters.bytes_moved,
        counters.atomic_ops)


# ----------------------------------------------------------------------
# The vectorized roofline and the dedup expansion
# ----------------------------------------------------------------------
@given(
    data=st.data(),
    device=st.sampled_from(DEVICES),
    blocks=st.sampled_from([0, 1, 7, 28, 56]),
    cycles=st.floats(0.5, 500.0),
    bytes_moved=st.floats(0.0, 1e10),
    atomics=st.one_of(st.just(0), st.integers(0, 10**7)),
    conflict=st.integers(1, 10**5),
)
def test_vectorized_roofline_equals_step_seconds(data, device, blocks, cycles,
                                                 bytes_moved, atomics,
                                                 conflict):
    """Zero work with atomics, item counts at and next to multiples of
    the block's threads, CPU and GPU devices: equal bits."""
    threads = device.threads_per_block
    items = data.draw(st.one_of(
        st.just(0),
        st.integers(0, 10**9),
        st.tuples(st.integers(0, 10**5), st.integers(-1, 1)).map(
            lambda t: max(0, t[0] * threads + t[1])),
    ))
    model = CostModel(device, blocks)
    got = model.steps_seconds(
        np.array([items]), np.array([cycles]), np.array([bytes_moved]),
        np.array([atomics]), np.array([conflict]),
    )
    want = model.step_seconds(Step(items, cycles, bytes_moved, atomics,
                                   conflict))
    assert got[0] == want


def test_dedup_step_counts_are_exact():
    """Every raw length up to 2**16: the vectorized counts equal
    :func:`bitonic_sort_steps` and :func:`prefix_sum_steps`."""
    lengths = range(2, 2**16 + 1)
    sort_n, scan_n, width = dedup_step_counts(np.array(lengths))
    assert sort_n.tolist() == [bitonic_sort_steps(r) for r in lengths]
    assert scan_n.tolist() == [prefix_sum_steps(r) for r in lengths]
    assert width.tolist() == [1 << (r - 1).bit_length() for r in lengths]


level = st.tuples(*[st.integers(0, 3000)] * 6)


@given(
    backend=st.sampled_from(BACKENDS),
    device=st.sampled_from(DEVICES),
    levels=st.lists(st.lists(level, min_size=1, max_size=6), min_size=1,
                    max_size=4),
)
def test_formulas_charge_the_same_steps(backend, device, levels):
    """Charging a formula's arrays over rows equals charging each row's
    ints through its own accountant: empty steps dropped, conflicts
    clamped, dedup pipelines expanded, commit and pre-pass included."""
    m = max(len(rows) for rows in levels)
    model = CostModel(device)
    book = make_accountant(backend, 500, 4000, access_cycles=37.5)
    accs = [make_accountant(backend, 500, 4000, access_cycles=37.5)
            for _ in range(m)]
    ledger = CostLedger(m)
    every = np.arange(m)
    ledger.charge(every, book.classify_steps())
    ledger.charge(every, book.init_steps(500))
    for acc in accs:
        acc.classify()
        acc.init(500)
    for rows in levels:
        live = np.arange(len(rows))
        q = np.array(rows, dtype=np.int64).T
        a, b, c, d, e, f = q
        ledger.charge(live, book.sp_steps(a, b, c, d, np.minimum(d, e), f))
        ledger.charge(live, book.pull_steps(a, b, c, d, np.minimum(d, e)))
        ledger.charge(live, book.dep_steps(a, b, c, d, e, f, a))
        for j, (a, b, c, d, e, f) in enumerate(rows):
            accs[j].sp_level(a, b, c, d, min(d, e), f)
            accs[j].pull_level(a, b, c, d, min(d, e))
            accs[j].dep_level(a, b, c, d, e, f, a)
    ledger.charge(every, book.prepass_steps(every, 2 * every, every % 3))
    ledger.charge(every, book.commit_steps(500, every))
    for j, acc in enumerate(accs):
        acc.prepass(j, 2 * j, j % 3)
        acc.commit(500, j)
    totals = ledger.close(model)
    for j, acc in enumerate(accs):
        assert_row_matches(model, totals, j, acc.finish())


# ----------------------------------------------------------------------
# Per row, the executor's ledger against the accountant oracle
# ----------------------------------------------------------------------
def row_by_row(backend, direction, graph, ops, **kwargs):
    """Apply *ops* to an executor engine and the looped oracle; every
    executor row's costs must equal its oracle trace's.  Returns the
    checked rows' traces."""
    fast, oracle = pair(graph, backend, **kwargs)
    results, traces = [], {}
    run_active, run_source = fast._run_active, oracle._run_source

    def spy_active(*args):
        results.append(run_active(*args))
        return results[-1]

    def spy_source(snap, i, case, *rest):
        trace, stats = run_source(snap, i, case, *rest)
        if case != Case.SAME_LEVEL:
            traces[i] = trace
        return trace, stats

    fast._run_active, oracle._run_source = spy_active, spy_source
    checked = []
    with forced(direction):
        for op, u, v in ops:
            results.clear()
            traces.clear()
            got, want = apply(fast, op, u, v), apply(oracle, op, u, v)
            if op == "add_vertex" or not traces:
                assert not results
                continue
            # the same stages, in the same first-appearance order
            assert list(got.stage_seconds.items()) == list(
                want.stage_seconds.items())
            (res,) = results
            assert res.rows.tolist() == sorted(traces)
            for j, i in enumerate(res.rows.tolist()):
                assert_row_matches(fast.cost_model, res, j, traces[i])
                checked.append(traces[i])
    fast.verify()
    return checked


@pytest.mark.parametrize("direction", ["top-down", "bottom-up"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_every_row_matches_its_accountant_trace(backend, direction, small_er):
    """Case-2 and Case-3 rows, rebuilt rows of distance-increasing
    deletions (classify plus the static trace), and a vertex added
    and attached mid-stream."""
    stream = EdgeStream.churn(small_er, 36, delete_fraction=0.45, seed=5)
    ops = [(e.op, e.u, e.v) for e in stream]
    n = small_er.num_vertices
    ops[10:10] = [("add_vertex", None, None), ("insert", n, 0),
                  ("insert", n, 17), ("delete", n, 0)]
    traces = row_by_row(backend, direction, small_er, ops, num_sources=16,
                        seed=4)
    stages = {s.stage for trace in traces for s in trace.steps}
    # Case 2 (sp), Case 3 (pull), and rebuilt rows (untagged static
    # steps) were all checked
    assert {"sp", "pull", ""} <= stages


class TestRebuiltRows:
    def test_static_trace_from_rebuilt_levels(self, karate):
        from repro.bc.brandes import single_source_state
        from repro.bc.static_gpu import trace_static_source

        for strategy in ("gpu-edge", "gpu-node", "cpu"):
            delta, fresh = trace_static_source(karate, 5, strategy)
            d, _, _, levels = single_source_state(karate, 5)
            none, reused = trace_static_source(karate, 5, strategy,
                                               rebuilt=(d, levels))
            assert none is None and delta is not None
            assert reused.steps == fresh.steps


# ----------------------------------------------------------------------
# The default path charges no accountant; the pool ships few frames
# ----------------------------------------------------------------------
def test_default_path_runs_no_accountant_charge(monkeypatch, small_er):
    """The executor charges the ledger only; the oracle charges an
    accountant per active source."""
    built, charged = [0], [0]
    init, charge = UpdateAccountant.__init__, UpdateAccountant._charge

    def count_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    def count_charge(self, steps):
        charged[0] += 1
        charge(self, steps)

    monkeypatch.setattr(UpdateAccountant, "__init__", count_init)
    monkeypatch.setattr(UpdateAccountant, "_charge", count_charge)
    stream = EdgeStream.churn(small_er, 30, delete_fraction=0.4, seed=3)
    runs = {}
    for vectorized in (True, False):
        engine = DynamicBC.from_graph(DynamicGraph.from_csr(small_er),
                                      num_sources=16, seed=2,
                                      vectorized=vectorized)
        built[0] = charged[0] = 0
        reports = replay(engine, stream).reports
        active = sum(int(np.count_nonzero(r.cases != Case.SAME_LEVEL))
                     for r in reports)
        runs[vectorized] = (built[0], charged[0], active)
    (books, fast_charges, active), (accs, oracle_charges, _) = (
        runs[True], runs[False])
    assert active > len(stream)
    assert fast_charges == 0 and books <= len(stream)
    assert oracle_charges >= 2 * active and accs >= active


def test_pooled_round_decodes_few_frames_per_chunk(monkeypatch):
    """An update chunk comes back as one tuple of flat columns: each
    chunk the parent reads decodes to at most 16 arrays, however many
    sources the chunk holds."""
    from repro.parallel import slabs

    decoded = []
    read = slabs.ResultSlabs.read

    def spy(self, *args):
        out = read(self, *args)
        decoded.append(out)
        return out

    monkeypatch.setattr(slabs.ResultSlabs, "read", spy)
    graph = gen.kronecker(9, 8, seed=1)
    stream = EdgeStream.churn(graph, 12, delete_fraction=0.35, seed=2)
    oracle = DynamicBC.from_graph(graph, num_sources=32, seed=3,
                                  vectorized=False)
    expected = replay(oracle, stream)
    with DynamicBC.from_graph(graph, num_sources=32, seed=3,
                              workers=2) as par:
        assert par.health_report()["pool_backend"] == "processes"
        chunks = par.transport_report()["chunks"]
        decoded.clear()
        got = replay(par, stream)
        chunks = par.transport_report()["chunks"] - chunks
    assert chunks > 0 and len(decoded) == chunks
    for out in decoded:
        assert isinstance(out, tuple) and len(out) <= 16
        assert all(isinstance(col, np.ndarray) for col in out)
    assert [r.per_source_seconds.tolist() for r in got.reports] == [
        r.per_source_seconds.tolist() for r in expected.reports]
    assert np.array_equal(par.state.bc, oracle.state.bc)


# ----------------------------------------------------------------------
# One summation order for simulated seconds, on every interpreter
# ----------------------------------------------------------------------
#: a kron-11, k=64, 60-event churn replay's simulated seconds, left
#: folded over its reports and over every per-source entry, recorded on
#: CPython 3.11.7 with NumPy 2.4.6 (where builtin ``sum`` over floats
#: is still a plain left fold).  A compensated or pairwise sum anywhere
#: on the cost path moves these bits.
PINNED_TOTAL = "0x1.37c556192aae6p-8"
PINNED_PER_SOURCE = "0x1.60fda82117809p-6"


def test_left_folded_clock_is_pinned():
    graph = gen.kronecker(11, 16, seed=1)
    stream = EdgeStream.churn(graph, 60, delete_fraction=0.3, seed=1)
    engine = DynamicBC.from_graph(graph, num_sources=64, seed=1)
    reports = replay(engine, stream).reports
    assert left_fold(r.simulated_seconds for r in reports).hex() == PINNED_TOTAL
    assert left_fold(float(x) for r in reports
                     for x in r.per_source_seconds).hex() == PINNED_PER_SOURCE


def test_left_fold_is_uncompensated():
    # 1e16 + 1.0 rounds back to 1e16 at each step of a left fold; a
    # compensated sum would carry the two ones.
    assert left_fold([1e16, 1.0, 1.0]) == 1e16
    assert left_fold([]) == 0.0
