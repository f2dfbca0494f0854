"""Mutation tests for the static analyzer (:mod:`repro.sanitize.flow`).

Every rule — lexical R001–R006 and interprocedural F101–F104 — gets
*twin* checks: a seeded-defect snippet fires the rule, and the
repaired twin (the idiomatic fix, usually the exact shape the shipped
tree uses) stays silent.  Snippets are analyzed under virtual tree
paths via ``analyze_sources`` so the path-scoped rules see the layout
they enforce.  The suite also locks the supporting machinery: the call
graph, parse failures, finding order and hints, the suppression
baseline, the SARIF formatter, and the CLI — and the headline
acceptance check that the real tree analyzes clean with an empty
baseline.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sanitize.callgraph import CallGraph, attr_chain, parse_source
from repro.sanitize.flow import (
    FLOW_RULES,
    BaselineError,
    FlowFinding,
    analyze_paths,
    analyze_sources,
    apply_baseline,
    empty_baseline,
    load_baseline,
    main,
    to_sarif,
)

pytestmark = pytest.mark.sanitize

SERVICE_PATH = "src/repro/service/mod.py"
RESILIENCE_PATH = "src/repro/resilience/mod.py"
ANALYSIS_PATH = "src/repro/analysis/mod.py"
PARALLEL_PATH = "src/repro/parallel/mod.py"
KERNEL_PATH = "src/repro/bc/mod.py"

REPO = Path(__file__).resolve().parent.parent


def codes_of(report, family=""):
    """The report's finding codes in order; *family* ("R" or "F") keeps
    one rule family, for a twin whose snippet the other family also
    flags (an F101 twin's helper is also a non-atomic write, R006)."""
    return [f.code for f in report.findings if f.code.startswith(family)]


def finding_of(report, code):
    """The report's only finding under *code*."""
    (finding,) = [f for f in report.findings if f.code == code]
    return finding


def analyze_one(path, source):
    return analyze_sources([(path, source)])


# ----------------------------------------------------------------------
# R001: wall-clock in kernel code
# ----------------------------------------------------------------------
class TestR001:
    BAD = "import time\n\nstart = time.perf_counter()\n"

    def test_fires_on_perf_counter(self):
        assert codes_of(analyze_one(KERNEL_PATH, self.BAD)) == ["R001"]

    def test_fires_on_from_import_alias(self):
        src = "from time import time as now\n\nstart = now()\n"
        assert codes_of(analyze_one("src/repro/gpu/mod.py", src)) == ["R001"]

    def test_fires_on_aliased_module(self):
        src = "import time as t\n\nstart = t.monotonic()\n"
        assert codes_of(analyze_one(KERNEL_PATH, src)) == ["R001"]

    def test_silent_outside_kernel_tree(self):
        assert analyze_one(ANALYSIS_PATH, self.BAD).ok

    def test_silent_on_simulated_time(self):
        src = ("def run(model, trace):\n"
               "    return model.trace_seconds(trace)\n")
        assert analyze_one(KERNEL_PATH, src).ok

    def test_time_sleep_is_not_a_clock_read(self):
        src = "import time\n\ntime.sleep(0.1)\n"
        assert analyze_one(KERNEL_PATH, src).ok


# ----------------------------------------------------------------------
# R002: unseeded / global-state numpy RNG
# ----------------------------------------------------------------------
class TestR002:
    def test_fires_on_legacy_global_api(self):
        src = "import numpy as np\n\nx = np.random.rand(10)\n"
        assert codes_of(analyze_one(ANALYSIS_PATH, src)) == ["R002"]

    def test_fires_on_global_seed(self):
        src = "import numpy as np\n\nnp.random.seed(0)\n"
        assert codes_of(analyze_one(ANALYSIS_PATH, src)) == ["R002"]

    def test_fires_on_unseeded_default_rng(self):
        src = "import numpy as np\n\nrng = np.random.default_rng()\n"
        assert codes_of(analyze_one(ANALYSIS_PATH, src)) == ["R002"]

    def test_fires_on_from_imported_constructor(self):
        # the callee resolves through the module's imports
        src = ("from numpy.random import default_rng\n\n"
               "rng = default_rng()\n")
        assert codes_of(analyze_one(ANALYSIS_PATH, src)) == ["R002"]

    def test_fires_on_aliased_submodule(self):
        src = "import numpy.random as npr\n\nx = npr.rand(3)\n"
        assert codes_of(analyze_one(ANALYSIS_PATH, src)) == ["R002"]

    def test_silent_on_seeded_default_rng(self):
        src = "import numpy as np\n\nrng = np.random.default_rng(42)\n"
        assert analyze_one(ANALYSIS_PATH, src).ok

    def test_silent_on_seed_sequence(self):
        src = ("import numpy as np\n\n"
               "ss = np.random.SeedSequence(7)\n"
               "rng = np.random.Generator(np.random.PCG64(ss))\n")
        assert analyze_one(ANALYSIS_PATH, src).ok

    def test_silent_on_annotation(self):
        # np.random.Generator as a *type annotation* is an Attribute,
        # not a Call — must not fire.
        src = ("import numpy as np\n\n"
               "def f(rng: np.random.Generator) -> None:\n"
               "    rng.shuffle([1, 2])\n")
        assert analyze_one(ANALYSIS_PATH, src).ok


# ----------------------------------------------------------------------
# R003: shared-memory lifecycle
# ----------------------------------------------------------------------
class TestR003:
    def test_fires_on_raw_import(self):
        src = "from multiprocessing import shared_memory\n"
        assert codes_of(analyze_one(ANALYSIS_PATH, src)) == ["R003"]

    def test_fires_on_dotted_import(self):
        src = "import multiprocessing.shared_memory as shm\n"
        assert codes_of(analyze_one(ANALYSIS_PATH, src)) == ["R003"]

    def test_raw_import_allowed_in_shm_module(self):
        src = "from multiprocessing import shared_memory\n"
        assert analyze_one("src/repro/parallel/shm.py", src).ok

    def test_fires_on_unpaired_creation(self):
        src = ("def leak(shape):\n"
               "    arena = ShmArena(shape)\n"
               "    return arena.name\n")
        assert codes_of(analyze_one(PARALLEL_PATH, src)) == ["R003"]

    def test_silent_when_paired_in_function(self):
        src = ("def ok(shape):\n"
               "    arena = ShmArena(shape)\n"
               "    try:\n"
               "        return arena.name\n"
               "    finally:\n"
               "        arena.close()\n")
        assert analyze_one(PARALLEL_PATH, src).ok

    def test_silent_when_paired_across_methods(self):
        # The engine pattern: creation in one method, release in a
        # sibling — the search must reach the class body.
        src = ("class Engine:\n"
               "    def start(self):\n"
               "        self._arena = ShmArena((4,))\n"
               "    def stop(self):\n"
               "        self._arena.close()\n")
        assert analyze_one(PARALLEL_PATH, src).ok

    def test_silent_inside_with_block(self):
        src = ("def ok(shape):\n"
               "    with ShmArena(shape) as arena:\n"
               "        return arena.name\n")
        assert analyze_one(PARALLEL_PATH, src).ok


# ----------------------------------------------------------------------
# R004: swallowed exceptions in resilience-critical layers
# ----------------------------------------------------------------------
class TestR004:
    BARE = ("def f():\n"
            "    try:\n"
            "        g()\n"
            "    except:\n"
            "        pass\n")
    SWALLOW = ("def f():\n"
               "    try:\n"
               "        g()\n"
               "    except Exception:\n"
               "        pass\n")

    def test_fires_on_bare_except(self):
        assert codes_of(analyze_one(RESILIENCE_PATH, self.BARE)) == ["R004"]

    def test_fires_on_swallowed_exception(self):
        assert codes_of(analyze_one(PARALLEL_PATH, self.SWALLOW)) == ["R004"]

    def test_silent_outside_scoped_trees(self):
        assert analyze_one(ANALYSIS_PATH, self.SWALLOW).ok

    def test_silent_on_handled_exception(self):
        src = ("def f(log):\n"
               "    try:\n"
               "        g()\n"
               "    except Exception as exc:\n"
               "        log.warning('g failed: %s', exc)\n")
        assert analyze_one(RESILIENCE_PATH, src).ok

    def test_silent_on_narrow_except(self):
        src = ("def f():\n"
               "    try:\n"
               "        g()\n"
               "    except FileNotFoundError:\n"
               "        pass\n")
        assert analyze_one(RESILIENCE_PATH, src).ok

    def test_silent_on_contextlib_suppress(self):
        src = ("import contextlib\n\n"
               "def f():\n"
               "    with contextlib.suppress(Exception):\n"
               "        g()\n")
        assert analyze_one(PARALLEL_PATH, src).ok


# ----------------------------------------------------------------------
# R005: kernels must charge their accountant
# ----------------------------------------------------------------------
class TestR005:
    def test_fires_when_acc_unused(self):
        src = ("def kernel(graph, source, acc):\n"
               "    return graph.bfs(source)\n")
        assert codes_of(analyze_one(KERNEL_PATH, src)) == ["R005"]

    def test_silent_when_acc_method_called(self):
        src = ("def kernel(graph, source, acc):\n"
               "    acc.sp_level(frontier=1, arcs=2)\n"
               "    return graph.bfs(source)\n")
        assert analyze_one(KERNEL_PATH, src).ok

    def test_silent_on_attribute_chain(self):
        src = ("def kernel(graph, source, acc):\n"
               "    acc.trace.add(1, 2.0, 3.0)\n"
               "    return graph.bfs(source)\n")
        assert analyze_one(KERNEL_PATH, src).ok

    def test_silent_when_acc_forwarded(self):
        src = ("def kernel(graph, source, acc):\n"
               "    return inner_kernel(graph, source, acc)\n")
        assert analyze_one(KERNEL_PATH, src).ok

    def test_silent_outside_bc_tree(self):
        src = ("def helper(acc):\n"
               "    return 1\n")
        assert analyze_one(ANALYSIS_PATH, src).ok


# ----------------------------------------------------------------------
# R006: non-atomic durable writes in resilience/ and service/
# ----------------------------------------------------------------------
class TestR006:
    BAD = ("def save(path, data):\n"
           "    with open(path, 'w') as fh:\n"
           "        fh.write(data)\n")

    def test_fires_in_resilience_tree(self):
        assert codes_of(analyze_one(RESILIENCE_PATH, self.BAD)) == ["R006"]

    def test_fires_in_service_tree(self):
        assert codes_of(analyze_one(SERVICE_PATH, self.BAD)) == ["R006"]

    def test_fires_on_mode_keyword_and_binary(self):
        src = ("def save(path, blob):\n"
               "    with open(path, mode='wb') as fh:\n"
               "        fh.write(blob)\n")
        assert codes_of(analyze_one(SERVICE_PATH, src)) == ["R006"]

    def test_silent_on_read_mode(self):
        src = ("def load(path):\n"
               "    with open(path) as fh:\n"
               "        return fh.read()\n")
        assert analyze_one(RESILIENCE_PATH, src).ok

    def test_silent_with_atomic_write_helper(self):
        src = ("from repro.utils.atomicio import atomic_write\n\n"
               "def save(path, data):\n"
               "    with atomic_write(path) as fh:\n"
               "        fh.write(data)\n")
        assert analyze_one(SERVICE_PATH, src).ok

    def test_silent_with_inline_tmp_and_replace(self):
        src = ("import os\n\n"
               "def save(path, data):\n"
               "    tmp = path + '.tmp'\n"
               "    with open(tmp, 'w') as fh:\n"
               "        fh.write(data)\n"
               "        os.fsync(fh.fileno())\n"
               "    os.replace(tmp, path)\n")
        assert analyze_one(RESILIENCE_PATH, src).ok

    def test_widening_search_finds_replace_in_class(self):
        src = ("import os\n\n"
               "class Saver:\n"
               "    def _write(self, tmp, data):\n"
               "        with open(tmp, 'w') as fh:\n"
               "            fh.write(data)\n"
               "    def commit(self, tmp, path):\n"
               "        os.replace(tmp, path)\n")
        assert analyze_one(SERVICE_PATH, src).ok

    def test_silent_outside_durable_trees(self):
        assert analyze_one(ANALYSIS_PATH, self.BAD).ok
        assert analyze_one(KERNEL_PATH, self.BAD).ok

    def test_faults_and_wal_modules_exempt(self):
        for exempt in ("src/repro/resilience/faults.py",
                       "src/repro/resilience/wal.py"):
            assert analyze_one(exempt, self.BAD).ok


# ----------------------------------------------------------------------
# findings: order, hints, virtual paths, parse failures
# ----------------------------------------------------------------------
class TestFindings:
    def test_findings_sorted_and_stable(self):
        src = ("import numpy as np\n"
               "import time\n\n"
               "b = np.random.rand(3)\n"
               "a = time.time()\n")
        findings = analyze_one(KERNEL_PATH, src).findings
        assert [f.code for f in findings] == ["R002", "R001"]  # line order
        assert findings == sorted(findings, key=FlowFinding.sort_key)

    def test_finding_carries_hint(self):
        src = "import numpy as np\n\nx = np.random.rand(3)\n"
        (finding,) = analyze_one(ANALYSIS_PATH, src).findings
        assert "default_rng" in finding.hint
        assert finding.code in finding.render()
        d = finding.to_dict()
        assert d["code"] == "R002" and d["hint"] == finding.hint

    def test_virtual_path_scopes_rules(self, tmp_path):
        bad = tmp_path / "snippet.py"
        bad.write_text("import time\n\nx = time.time()\n")
        # Under its real (neutral) path: silent.
        assert analyze_paths([str(bad)]).ok
        # Under a virtual kernel path: fires.
        report = analyze_one("src/repro/bc/x.py", bad.read_text())
        assert codes_of(report) == ["R001"]

    def test_same_module_name_twice_checks_both_files(self):
        # two checkouts derive the same dotted name; both are checked
        report = analyze_sources([
            ("a/repro/analysis/mod.py",
             "import numpy as np\n\nnp.random.seed(0)\n"),
            (ANALYSIS_PATH, "x = 1\n"),
        ])
        assert codes_of(report) == ["R002"]


class TestParseFailure:
    BROKEN = "def f(:\n"

    def test_syntax_error_is_a_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text(self.BROKEN)
        (finding,) = analyze_paths([str(bad)]).findings
        assert finding.code == "E001"
        assert "unparseable" in finding.message

    def test_syntax_error_is_captured_not_raised(self):
        mod = parse_source("def broken(:\n", "src/repro/analysis/m.py")
        assert not mod.ok and mod.error is not None
        # an unparseable file doesn't crash the analyzer
        report = analyze_sources([("src/repro/analysis/m.py",
                                   "def broken(:\n")])
        assert report.files == 0

    def test_unparseable_source_fails_the_report(self):
        report = analyze_sources([
            ("src/repro/bc/bad.py", self.BROKEN),
            ("src/repro/bc/good.py", "x = 1\n"),
        ])
        assert not report.ok
        assert codes_of(report) == ["E001"]
        finding = report.findings[0]
        assert finding.path == "src/repro/bc/bad.py" and finding.line == 1
        assert finding.hint == FLOW_RULES["E001"][1]
        assert report.files == 1

    def test_unparseable_file_fails_the_run(self, tmp_path, capsys):
        tree = tmp_path / "repro" / "bc"
        tree.mkdir(parents=True)
        (tree / "bad.py").write_text(self.BROKEN, encoding="utf-8")
        (tree / "good.py").write_text("x = 1\n", encoding="utf-8")
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "E001" in out and "unparseable source" in out


# ----------------------------------------------------------------------
# F101: async-blocking
# ----------------------------------------------------------------------
class TestF101:
    BAD_DIRECT = (
        "import os\n"
        "\n"
        "class Service:\n"
        "    async def stop(self):\n"
        "        os.fsync(3)\n"
    )
    BAD_INDIRECT = (
        "def _persist(path, data):\n"
        "    with open(path, 'wb') as fh:\n"
        "        fh.write(data)\n"
        "\n"
        "class Service:\n"
        "    async def stop(self):\n"
        "        _persist('x', b'')\n"
    )
    GOOD_TO_THREAD = (
        "import asyncio\n"
        "\n"
        "def _persist(path, data):\n"
        "    with open(path, 'wb') as fh:\n"
        "        fh.write(data)\n"
        "\n"
        "class Service:\n"
        "    async def stop(self):\n"
        "        await asyncio.to_thread(_persist, 'x', b'')\n"
    )
    GOOD_RUN_IN_EXECUTOR = (
        "import asyncio\n"
        "\n"
        "def _persist(path, data):\n"
        "    with open(path, 'wb') as fh:\n"
        "        fh.write(data)\n"
        "\n"
        "class Service:\n"
        "    async def stop(self):\n"
        "        loop = asyncio.get_running_loop()\n"
        "        await loop.run_in_executor(None, _persist, 'x', b'')\n"
    )
    GOOD_CONSTRUCTOR = (
        "class Journal:\n"
        "    def __init__(self, path):\n"
        "        self._fh = open(path, 'ab')\n"
        "\n"
        "class Service:\n"
        "    async def start(self):\n"
        "        self._journal = Journal('x')\n"
    )

    def test_direct_blocking_fires(self):
        report = analyze_one(SERVICE_PATH, self.BAD_DIRECT)
        assert codes_of(report) == ["F101"]
        finding = report.findings[0]
        assert finding.line == 5
        assert "os.fsync" in finding.message
        assert finding.trace == ()  # a root: no call chain to show

    def test_indirect_blocking_fires_with_trace(self):
        report = analyze_one(SERVICE_PATH, self.BAD_INDIRECT)
        assert codes_of(report, "F") == ["F101"]
        finding = finding_of(report, "F101")
        assert "_persist" in finding.message
        assert finding.trace  # witness chain down to open()
        assert any("open" in step for step in finding.trace)

    def test_to_thread_good_twin_silent(self):
        report = analyze_one(SERVICE_PATH, self.GOOD_TO_THREAD)
        assert codes_of(report, "F") == []

    def test_run_in_executor_good_twin_silent(self):
        report = analyze_one(SERVICE_PATH, self.GOOD_RUN_IN_EXECUTOR)
        assert codes_of(report, "F") == []

    def test_constructor_exempt(self):
        report = analyze_one(SERVICE_PATH, self.GOOD_CONSTRUCTOR)
        assert codes_of(report, "F") == []

    def test_sync_function_out_of_scope(self):
        source = self.BAD_DIRECT.replace("async def", "def")
        assert analyze_one(SERVICE_PATH, source).ok

    def test_outside_service_tree_out_of_scope(self):
        assert analyze_one(ANALYSIS_PATH, self.BAD_DIRECT).ok


# ----------------------------------------------------------------------
# F102: durability protocol order
# ----------------------------------------------------------------------
WAL_SYNC_BAD = (
    "class MiniWal:\n"
    "    def __init__(self, path):\n"
    "        self._fh = open(path, 'ab')\n"
    "        self._pending = []\n"
    "\n"
    "    def check_fence(self):\n"
    "        pass\n"
    "\n"
    "    def append(self, rec):\n"
    "        self._pending.append(rec)\n"
    "\n"
    "    def sync(self):\n"
    "        self._fh.write(b'x')\n"
    "        self.check_fence()\n"
)
WAL_SYNC_GOOD = WAL_SYNC_BAD.replace(
    "        self._fh.write(b'x')\n        self.check_fence()\n",
    "        self.check_fence()\n        self._fh.write(b'x')\n",
)


class TestF102FenceBeforeWrite:
    def test_write_before_fence_fires(self):
        report = analyze_one(RESILIENCE_PATH, WAL_SYNC_BAD)
        assert codes_of(report, "F") == ["F102"]
        finding = finding_of(report, "F102")
        assert "before any check_fence" in finding.message
        assert "MiniWal.sync" in finding.message

    def test_fence_first_silent(self):
        report = analyze_one(RESILIENCE_PATH, WAL_SYNC_GOOD)
        assert codes_of(report, "F") == []

    def test_private_methods_out_of_scope(self):
        # a private helper may write unfenced: its public caller fences
        source = WAL_SYNC_BAD.replace("def sync(", "def _sync(")
        assert codes_of(analyze_one(RESILIENCE_PATH, source), "F") == []

    def test_interprocedural_write_detected(self):
        # the write hides one call deep; the effect summary carries it
        source = WAL_SYNC_GOOD.replace(
            "    def sync(self):\n",
            "    def _emit(self):\n"
            "        self._fh.write(b'y')\n"
            "\n"
            "    def sync(self):\n",
        ).replace(
            "        self.check_fence()\n        self._fh.write(b'x')\n",
            "        self._emit()\n        self.check_fence()\n",
        )
        report = analyze_one(RESILIENCE_PATH, source)
        assert codes_of(report, "F") == ["F102"]


ACK_GOOD = (
    "class MiniWal:\n"
    "    def check_fence(self):\n"
    "        pass\n"
    "\n"
    "    def append(self, rec):\n"
    "        return 1\n"
    "\n"
    "class Svc:\n"
    "    def __init__(self):\n"
    "        self._wal = MiniWal()\n"
    "\n"
    "    def _journal(self, event):\n"
    "        return self._wal.append(event)\n"
    "\n"
    "    async def _wait_durable(self, seq):\n"
    "        pass\n"
    "\n"
    "    async def submit(self, event):\n"
    "        seq = self._journal(event)\n"
    "        await self._wait_durable(seq)\n"
    "        return seq\n"
)
ACK_BAD = ACK_GOOD.replace(
    "        seq = self._journal(event)\n"
    "        await self._wait_durable(seq)\n",
    "        await self._wait_durable(0)\n"
    "        seq = self._journal(event)\n",
)


class TestF102AppendBeforeAck:
    def test_ack_before_append_fires(self):
        report = analyze_one(SERVICE_PATH, ACK_BAD)
        assert codes_of(report) == ["F102"]
        assert "_wait_durable" in report.findings[0].message

    def test_append_first_silent(self):
        assert analyze_one(SERVICE_PATH, ACK_GOOD).ok

    def test_never_appends_fires(self):
        source = ACK_GOOD.replace(
            "        seq = self._journal(event)\n", "        seq = 0\n"
        )
        report = analyze_one(SERVICE_PATH, source)
        assert codes_of(report) == ["F102"]
        assert "never journal-appends" in report.findings[0].message


PROMOTE_GOOD = (
    "def write_fence(d, e):\n"
    "    pass\n"
    "\n"
    "def clear_replica_position(d, r):\n"
    "    pass\n"
    "\n"
    "class Replica:\n"
    "    def catch_up(self):\n"
    "        return 0\n"
    "\n"
    "    def promote(self, epoch):\n"
    "        write_fence(self.wal_dir, epoch)\n"
    "        self.catch_up()\n"
    "        wal = WriteAheadLog(self.wal_dir, epoch=epoch)\n"
    "        clear_replica_position(self.wal_dir, self.replica_id)\n"
    "        return wal\n"
)


class TestF102Promote:
    def test_full_protocol_in_order_silent(self):
        assert analyze_one(SERVICE_PATH, PROMOTE_GOOD).ok

    def test_missing_advertise_fires(self):
        source = PROMOTE_GOOD.replace(
            "        clear_replica_position(self.wal_dir, self.replica_id)\n",
            "",
        )
        report = analyze_one(SERVICE_PATH, source)
        assert codes_of(report) == ["F102"]
        assert "advertise" in report.findings[0].message

    def test_out_of_order_fires(self):
        source = PROMOTE_GOOD.replace(
            "        write_fence(self.wal_dir, epoch)\n"
            "        self.catch_up()\n",
            "        self.catch_up()\n"
            "        write_fence(self.wal_dir, epoch)\n",
        )
        report = analyze_one(SERVICE_PATH, source)
        assert codes_of(report) == ["F102"]
        assert "out of order" in report.findings[0].message

    def test_promote_outside_service_out_of_scope(self):
        source = PROMOTE_GOOD.replace(
            "        clear_replica_position(self.wal_dir, self.replica_id)\n",
            "",
        )
        assert analyze_one(ANALYSIS_PATH, source).ok


# ----------------------------------------------------------------------
# F103: zero-copy view lifetime
# ----------------------------------------------------------------------
class TestF103:
    BAD_RETURN = (
        "import numpy as np\n"
        "\n"
        "def view_of(buf):\n"
        "    arr = np.frombuffer(buf, dtype=np.float64)\n"
        "    return arr\n"
    )
    GOOD_COPY = BAD_RETURN.replace("return arr", "return arr.copy()")
    BAD_ATTR = (
        "import numpy as np\n"
        "\n"
        "class Cache:\n"
        "    def load(self, buf):\n"
        "        self._data = np.frombuffer(buf, dtype=np.int64)\n"
    )
    BAD_CLOSURE = (
        "import numpy as np\n"
        "\n"
        "def reader(buf):\n"
        "    v = np.frombuffer(buf, dtype=np.int64)\n"
        "    def total():\n"
        "        return v.sum()\n"
        "    return total\n"
    )

    def test_return_escape_fires(self):
        report = analyze_one(ANALYSIS_PATH, self.BAD_RETURN)
        assert codes_of(report) == ["F103"]
        assert "via return" in report.findings[0].message

    def test_copy_good_twin_silent(self):
        assert analyze_one(ANALYSIS_PATH, self.GOOD_COPY).ok

    def test_attribute_store_fires(self):
        report = analyze_one(ANALYSIS_PATH, self.BAD_ATTR)
        assert codes_of(report) == ["F103"]
        assert "self._data" in report.findings[0].message

    def test_closure_capture_fires(self):
        report = analyze_one(ANALYSIS_PATH, self.BAD_CLOSURE)
        assert codes_of(report) == ["F103"]
        assert "closure" in report.findings[0].message

    def test_interprocedural_view_summary(self):
        # helper returns a raw view; the caller re-returning it is a
        # second, distinct escape (returns-view fixpoint)
        source = self.BAD_RETURN + (
            "\n"
            "def relay(buf):\n"
            "    v = view_of(buf)\n"
            "    return v\n"
        )
        report = analyze_one(ANALYSIS_PATH, source)
        assert codes_of(report) == ["F103", "F103"]

    def test_materialized_relay_silent(self):
        source = self.GOOD_COPY + (
            "\n"
            "def relay(buf):\n"
            "    return np.array(view_of(buf))\n"
        )
        assert analyze_one(ANALYSIS_PATH, source).ok

    def test_parallel_tree_exempt(self):
        # the transport owns the round protocol; same code is its
        # documented contract there
        assert analyze_one(PARALLEL_PATH, self.BAD_RETURN).ok


# ----------------------------------------------------------------------
# F104: determinism taint
# ----------------------------------------------------------------------
class TestF104:
    BAD_ACCOUNTANT = (
        "import time\n"
        "\n"
        "def relax(frontier, acc):\n"
        "    dt = time.perf_counter()\n"
        "    acc.charge_edges(dt)\n"
    )
    GOOD_ACCOUNTANT = (
        "import time\n"
        "\n"
        "def relax(frontier, acc):\n"
        "    acc.charge_edges(len(frontier))\n"
    )
    BAD_SIM_SECONDS = (
        "import time\n"
        "\n"
        "class Core:\n"
        "    def apply(self):\n"
        "        self.simulated_seconds = time.time()\n"
    )
    GOOD_WALL_SECONDS = (
        "import time\n"
        "\n"
        "class Core:\n"
        "    def apply(self):\n"
        "        self.wall_seconds = time.time()\n"
    )
    BAD_CHECKPOINT = (
        "import time\n"
        "\n"
        "def snapshot(path):\n"
        "    stamp = time.time()\n"
        "    save_checkpoint(path, stamp)\n"
    )
    BAD_RNG = (
        "from repro.utils.prng import default_rng\n"
        "\n"
        "def shuffle(acc):\n"
        "    rng = default_rng()\n"
        "    acc.charge_nodes(rng)\n"
    )
    GOOD_RNG = BAD_RNG.replace("default_rng()", "default_rng(42)")

    def test_wall_clock_to_accountant_fires(self):
        report = analyze_one(KERNEL_PATH, self.BAD_ACCOUNTANT)
        assert codes_of(report, "F") == ["F104"]
        finding = finding_of(report, "F104")
        assert "cost accountant" in finding.message
        assert "time.perf_counter" in finding.message

    def test_deterministic_charge_silent(self):
        assert analyze_one(KERNEL_PATH, self.GOOD_ACCOUNTANT).ok

    def test_sim_seconds_store_fires(self):
        report = analyze_one(SERVICE_PATH, self.BAD_SIM_SECONDS)
        assert codes_of(report) == ["F104"]
        assert "simulated_seconds" in report.findings[0].message

    def test_wall_seconds_by_contract_silent(self):
        assert analyze_one(SERVICE_PATH, self.GOOD_WALL_SECONDS).ok

    def test_checkpoint_payload_fires(self):
        report = analyze_one(SERVICE_PATH, self.BAD_CHECKPOINT)
        assert codes_of(report) == ["F104"]
        assert "checkpoint payload" in report.findings[0].message

    def test_unseeded_rng_fires(self):
        report = analyze_one(KERNEL_PATH, self.BAD_RNG)
        assert codes_of(report) == ["F104"]
        assert "default_rng" in report.findings[0].message

    def test_seeded_rng_silent(self):
        assert analyze_one(KERNEL_PATH, self.GOOD_RNG).ok

    def test_unseeded_seed_sequence_fires(self):
        # every constructor in the RNG table is a source, and an
        # attribute of a tainted value is tainted
        source = (
            "import numpy as np\n"
            "\n"
            "class Core:\n"
            "    def apply(self):\n"
            "        self.simulated_seconds = "
            "np.random.SeedSequence().entropy\n"
        )
        report = analyze_one(KERNEL_PATH, source)
        assert codes_of(report) == ["F104", "R002"]
        assert "SeedSequence" in report.findings[0].message

    def test_interprocedural_taint_summary(self):
        source = (
            "import time\n"
            "\n"
            "def _now():\n"
            "    return time.time()\n"
            "\n"
            "class Core:\n"
            "    def apply(self):\n"
            "        self._sim_seconds = _now()\n"
        )
        report = analyze_one(SERVICE_PATH, source)
        assert codes_of(report) == ["F104"]
        assert "_now" in report.findings[0].message


# ----------------------------------------------------------------------
# the headline acceptance check
# ----------------------------------------------------------------------
class TestRealTree:
    def test_shipped_tree_is_clean(self):
        report = analyze_paths([str(REPO / "src"), str(REPO / "tests")])
        assert report.ok, "\n" + "\n".join(
            f.render() for f in report.findings
        )
        # the graph actually covered the tree (meaningful emptiness)
        assert report.files > 50
        assert report.functions > 500
        assert report.call_edges > 2000

    def test_checked_in_baseline_is_empty(self):
        baseline = load_baseline(str(REPO / ".flow-baseline.json"))
        assert baseline["suppressions"] == []


# ----------------------------------------------------------------------
# call graph machinery
# ----------------------------------------------------------------------
class TestCallGraph:
    def test_attr_chain(self):
        import ast as astmod

        expr = astmod.parse("a.b.c()").body[0].value
        assert attr_chain(expr.func) == ("a", "b", "c")
        dynamic = astmod.parse("f().g()").body[0].value
        assert attr_chain(dynamic.func) == ()

    def _build(self, source, path=SERVICE_PATH):
        return CallGraph.build([parse_source(source, path)])

    def test_async_coloring_and_nesting(self):
        graph = self._build(
            "async def outer():\n"
            "    def inner():\n"
            "        pass\n"
        )
        fns = {f.name: f for f in graph.functions.values()}
        assert fns["outer"].is_async
        assert not fns["inner"].is_async
        assert fns["inner"].qname.endswith("outer.inner")

    def test_executor_dispatch_site(self):
        graph = self._build(
            "import asyncio\n"
            "\n"
            "def work():\n"
            "    pass\n"
            "\n"
            "async def go():\n"
            "    await asyncio.to_thread(work)\n"
        )
        go = next(q for q in graph.calls if q.endswith(".go"))
        kinds = {s.kind for s in graph.calls[go]}
        assert "executor" in kinds
        executor_site = next(
            s for s in graph.calls[go] if s.kind == "executor"
        )
        assert executor_site.callee is not None
        assert executor_site.callee.endswith(".work")

    def test_attribute_type_inference(self):
        graph = self._build(
            "from concurrent.futures import ThreadPoolExecutor\n"
            "\n"
            "class S:\n"
            "    def __init__(self, path):\n"
            "        self._pool = ThreadPoolExecutor(max_workers=1)\n"
            "        self._fh = open(path, 'ab')\n"
        )
        cls = next(c for c in graph.classes.values() if c.name == "S")
        assert cls.attr_types["_pool"] == "ThreadPoolExecutor"
        assert cls.attr_types["_fh"] == "<file>"

    def test_with_binding_inside_try_is_typed(self):
        # regression: the forward type pass must see statements in
        # source order even under try/with nesting
        graph = self._build(
            "class S:\n"
            "    pass\n"
            "\n"
            "def go():\n"
            "    s = S()\n"
            "    try:\n"
            "        with s as h:\n"
            "            pass\n"
            "    finally:\n"
            "        pass\n"
        )
        fn = next(f for f in graph.functions.values() if f.name == "go")
        assert fn.local_types["h"].endswith(".S")


# ----------------------------------------------------------------------
# baseline + fingerprints
# ----------------------------------------------------------------------
class TestBaseline:
    def _finding(self):
        report = analyze_one(SERVICE_PATH, TestF101.BAD_DIRECT)
        return report.findings[0]

    def test_fingerprint_is_line_independent(self):
        plain = analyze_one(SERVICE_PATH, TestF101.BAD_DIRECT)
        shifted = analyze_one(SERVICE_PATH,
                              "# prologue\n" + TestF101.BAD_DIRECT)
        assert (plain.findings[0].fingerprint
                == shifted.findings[0].fingerprint)
        assert plain.findings[0].line != shifted.findings[0].line

    def test_apply_baseline_suppresses_and_reports_stale(self):
        finding = self._finding()
        baseline = {
            "version": 1,
            "suppressions": [
                {"fingerprint": finding.fingerprint,
                 "justification": "accepted for the test"},
                {"fingerprint": "deadbeefdeadbeef",
                 "justification": "matches nothing"},
            ],
        }
        new, suppressed, stale = apply_baseline([finding], baseline)
        assert new == [] and suppressed == [finding]
        assert stale == ["deadbeefdeadbeef"]

    def test_justification_is_mandatory(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({
            "version": 1,
            "suppressions": [{"fingerprint": "deadbeefdeadbeef"}],
        }), encoding="utf-8")
        with pytest.raises(BaselineError, match="justification"):
            load_baseline(str(path))

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text("[]", encoding="utf-8")
        with pytest.raises(BaselineError):
            load_baseline(str(path))

    def test_empty_baseline_roundtrip(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps(empty_baseline()), encoding="utf-8")
        assert load_baseline(str(path))["suppressions"] == []


# ----------------------------------------------------------------------
# SARIF + CLI
# ----------------------------------------------------------------------
class TestSarif:
    def test_document_shape(self):
        report = analyze_one(SERVICE_PATH, TestF101.BAD_DIRECT)
        doc = to_sarif(report)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert rule_ids == set(FLOW_RULES)
        assert {"E001", "R001", "R006", "F101", "F104"} <= rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "F101"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == SERVICE_PATH
        assert location["region"]["startLine"] == 5
        assert result["partialFingerprints"]["repro/flow/v1"] == \
            report.findings[0].fingerprint


class TestCli:
    def _write_bad(self, tmp_path):
        tree = tmp_path / "src" / "repro" / "service"
        tree.mkdir(parents=True)
        (tree / "mod.py").write_text(TestF101.BAD_DIRECT,
                                     encoding="utf-8")
        return tmp_path / "src"

    def test_exit_codes_and_json(self, tmp_path, capsys):
        bad = self._write_bad(tmp_path)
        assert main([str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"F101": 1}
        clean = tmp_path / "clean"
        clean.mkdir()
        (clean / "m.py").write_text("x = 1\n", encoding="utf-8")
        assert main([str(clean)]) == 0

    def test_baseline_flag_suppresses(self, tmp_path, capsys):
        bad = self._write_bad(tmp_path)
        assert main([str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        fingerprint = payload["findings"][0]["fingerprint"]
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "version": 1,
            "suppressions": [{"fingerprint": fingerprint,
                              "justification": "test acceptance"}],
        }), encoding="utf-8")
        assert main([str(bad), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "1 suppressed" in out

    def test_rejected_baseline_fails_closed(self, tmp_path, capsys):
        bad = self._write_bad(tmp_path)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "version": 1,
            "suppressions": [{"fingerprint": "deadbeefdeadbeef",
                              "justification": ""}],
        }), encoding="utf-8")
        assert main([str(bad), "--baseline", str(baseline)]) == 1
        assert "justification" in capsys.readouterr().err

    def test_sarif_output_file(self, tmp_path, capsys):
        bad = self._write_bad(tmp_path)
        out_file = tmp_path / "report.sarif"
        assert main([str(bad), "--format", "sarif",
                     "--output", str(out_file)]) == 1
        capsys.readouterr()
        doc = json.loads(out_file.read_text(encoding="utf-8"))
        assert doc["runs"][0]["results"]

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.sanitize.flow",
             str(REPO / "src" / "repro" / "utils")],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "sanitize-flow: ok" in proc.stdout

