"""Rule-by-rule tests for the AST linter (:mod:`repro.sanitize.lint`).

Every rule gets three checks: a minimal bad snippet fires it, a good
twin (the idiomatic fix) stays silent, and the
``# sanitize: ignore[RNNN]`` pragma suppresses it.  Snippets are linted
under virtual paths so the path-scoped rules see the tree layout they
enforce.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.sanitize import lint

pytestmark = pytest.mark.sanitize

KERNEL_PATH = "src/repro/bc/mod.py"
PARALLEL_PATH = "src/repro/parallel/mod.py"
RESILIENCE_PATH = "src/repro/resilience/mod.py"
NEUTRAL_PATH = "src/repro/analysis/mod.py"


def rules_of(findings):
    return [f.rule for f in findings]


def lint_at(source: str, path: str):
    return lint.lint_source(source, path)


# ----------------------------------------------------------------------
# R001: wall-clock in kernel code
# ----------------------------------------------------------------------
class TestR001:
    BAD = "import time\n\nstart = time.perf_counter()\n"

    def test_fires_on_perf_counter(self):
        assert rules_of(lint_at(self.BAD, KERNEL_PATH)) == ["R001"]

    def test_fires_on_from_import_alias(self):
        src = "from time import time as now\n\nstart = now()\n"
        assert rules_of(lint_at(src, "src/repro/gpu/mod.py")) == ["R001"]

    def test_fires_on_aliased_module(self):
        src = "import time as t\n\nstart = t.monotonic()\n"
        assert rules_of(lint_at(src, KERNEL_PATH)) == ["R001"]

    def test_silent_outside_kernel_tree(self):
        assert lint_at(self.BAD, NEUTRAL_PATH) == []

    def test_silent_on_simulated_time(self):
        src = ("def run(model, trace):\n"
               "    return model.trace_seconds(trace)\n")
        assert lint_at(src, KERNEL_PATH) == []

    def test_pragma_suppresses(self):
        src = ("import time\n\n"
               "start = time.time()  # sanitize: ignore[R001]\n")
        assert lint_at(src, KERNEL_PATH) == []

    def test_time_sleep_is_not_a_clock_read(self):
        src = "import time\n\ntime.sleep(0.1)\n"
        assert lint_at(src, KERNEL_PATH) == []


# ----------------------------------------------------------------------
# R002: unseeded / global-state numpy RNG
# ----------------------------------------------------------------------
class TestR002:
    def test_fires_on_legacy_global_api(self):
        src = "import numpy as np\n\nx = np.random.rand(10)\n"
        assert rules_of(lint_at(src, NEUTRAL_PATH)) == ["R002"]

    def test_fires_on_global_seed(self):
        src = "import numpy as np\n\nnp.random.seed(0)\n"
        assert rules_of(lint_at(src, NEUTRAL_PATH)) == ["R002"]

    def test_fires_on_unseeded_default_rng(self):
        src = "import numpy as np\n\nrng = np.random.default_rng()\n"
        assert rules_of(lint_at(src, NEUTRAL_PATH)) == ["R002"]

    def test_silent_on_seeded_default_rng(self):
        src = "import numpy as np\n\nrng = np.random.default_rng(42)\n"
        assert lint_at(src, NEUTRAL_PATH) == []

    def test_silent_on_seed_sequence(self):
        src = ("import numpy as np\n\n"
               "ss = np.random.SeedSequence(7)\n"
               "rng = np.random.Generator(np.random.PCG64(ss))\n")
        assert lint_at(src, NEUTRAL_PATH) == []

    def test_silent_on_annotation(self):
        # np.random.Generator as a *type annotation* is an Attribute,
        # not a Call — must not fire.
        src = ("import numpy as np\n\n"
               "def f(rng: np.random.Generator) -> None:\n"
               "    rng.shuffle([1, 2])\n")
        assert lint_at(src, NEUTRAL_PATH) == []

    def test_pragma_suppresses(self):
        src = ("import numpy as np\n\n"
               "x = np.random.rand(3)  # sanitize: ignore[R002]\n")
        assert lint_at(src, NEUTRAL_PATH) == []


# ----------------------------------------------------------------------
# R003: shared-memory lifecycle
# ----------------------------------------------------------------------
class TestR003:
    def test_fires_on_raw_import(self):
        src = "from multiprocessing import shared_memory\n"
        assert rules_of(lint_at(src, NEUTRAL_PATH)) == ["R003"]

    def test_fires_on_dotted_import(self):
        src = "import multiprocessing.shared_memory as shm\n"
        assert rules_of(lint_at(src, NEUTRAL_PATH)) == ["R003"]

    def test_raw_import_allowed_in_shm_module(self):
        src = "from multiprocessing import shared_memory\n"
        assert lint_at(src, "src/repro/parallel/shm.py") == []

    def test_fires_on_unpaired_creation(self):
        src = ("def leak(shape):\n"
               "    arena = ShmArena(shape)\n"
               "    return arena.name\n")
        assert rules_of(lint_at(src, PARALLEL_PATH)) == ["R003"]

    def test_silent_when_paired_in_function(self):
        src = ("def ok(shape):\n"
               "    arena = ShmArena(shape)\n"
               "    try:\n"
               "        return arena.name\n"
               "    finally:\n"
               "        arena.close()\n")
        assert lint_at(src, PARALLEL_PATH) == []

    def test_silent_when_paired_across_methods(self):
        # The engine pattern: creation in one method, release in a
        # sibling — the widening search must reach the class body.
        src = ("class Engine:\n"
               "    def start(self):\n"
               "        self._arena = ShmArena((4,))\n"
               "    def stop(self):\n"
               "        self._arena.close()\n")
        assert lint_at(src, PARALLEL_PATH) == []

    def test_silent_inside_with_block(self):
        src = ("def ok(shape):\n"
               "    with ShmArena(shape) as arena:\n"
               "        return arena.name\n")
        assert lint_at(src, PARALLEL_PATH) == []

    def test_pragma_suppresses(self):
        src = ("def leak(shape):\n"
               "    a = ShmArena(shape)  # sanitize: ignore[R003]\n"
               "    return a\n")
        assert lint_at(src, PARALLEL_PATH) == []


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
        assert rules_of(lint_at(self.BARE, RESILIENCE_PATH)) == ["R004"]

    def test_fires_on_swallowed_exception(self):
        assert rules_of(lint_at(self.SWALLOW, PARALLEL_PATH)) == ["R004"]

    def test_silent_outside_scoped_trees(self):
        assert lint_at(self.SWALLOW, NEUTRAL_PATH) == []

    def test_silent_on_handled_exception(self):
        src = ("def f(log):\n"
               "    try:\n"
               "        g()\n"
               "    except Exception as exc:\n"
               "        log.warning('g failed: %s', exc)\n")
        assert lint_at(src, RESILIENCE_PATH) == []

    def test_silent_on_narrow_except(self):
        src = ("def f():\n"
               "    try:\n"
               "        g()\n"
               "    except FileNotFoundError:\n"
               "        pass\n")
        assert lint_at(src, RESILIENCE_PATH) == []

    def test_silent_on_contextlib_suppress(self):
        src = ("import contextlib\n\n"
               "def f():\n"
               "    with contextlib.suppress(Exception):\n"
               "        g()\n")
        assert lint_at(src, PARALLEL_PATH) == []

    def test_pragma_suppresses(self):
        src = ("def f():\n"
               "    try:\n"
               "        g()\n"
               "    except:  # sanitize: ignore[R004]\n"
               "        pass\n")
        assert lint_at(src, RESILIENCE_PATH) == []


# ----------------------------------------------------------------------
# R005: kernels must charge their accountant
# ----------------------------------------------------------------------
class TestR005:
    def test_fires_when_acc_unused(self):
        src = ("def kernel(graph, source, acc):\n"
               "    return graph.bfs(source)\n")
        assert rules_of(lint_at(src, KERNEL_PATH)) == ["R005"]

    def test_silent_when_acc_method_called(self):
        src = ("def kernel(graph, source, acc):\n"
               "    acc.sp_level(frontier=1, arcs=2)\n"
               "    return graph.bfs(source)\n")
        assert lint_at(src, KERNEL_PATH) == []

    def test_silent_on_attribute_chain(self):
        src = ("def kernel(graph, source, acc):\n"
               "    acc.trace.add(1, 2.0, 3.0)\n"
               "    return graph.bfs(source)\n")
        assert lint_at(src, KERNEL_PATH) == []

    def test_silent_when_acc_forwarded(self):
        src = ("def kernel(graph, source, acc):\n"
               "    return inner_kernel(graph, source, acc)\n")
        assert lint_at(src, KERNEL_PATH) == []

    def test_silent_outside_bc_tree(self):
        src = ("def helper(acc):\n"
               "    return 1\n")
        assert lint_at(src, NEUTRAL_PATH) == []

    def test_pragma_suppresses(self):
        src = ("def kernel(graph, acc):  # sanitize: ignore[R005]\n"
               "    return 1\n")
        assert lint_at(src, KERNEL_PATH) == []


# ----------------------------------------------------------------------
# R006: non-atomic durable writes in resilience/ and service/
# ----------------------------------------------------------------------
class TestR006:
    SERVICE_PATH = "src/repro/service/mod.py"
    BAD = ("def save(path, data):\n"
           "    with open(path, 'w') as fh:\n"
           "        fh.write(data)\n")

    def test_fires_in_resilience_tree(self):
        assert rules_of(lint_at(self.BAD, RESILIENCE_PATH)) == ["R006"]

    def test_fires_in_service_tree(self):
        assert rules_of(lint_at(self.BAD, self.SERVICE_PATH)) == ["R006"]

    def test_fires_on_mode_keyword_and_binary(self):
        src = ("def save(path, blob):\n"
               "    with open(path, mode='wb') as fh:\n"
               "        fh.write(blob)\n")
        assert rules_of(lint_at(src, self.SERVICE_PATH)) == ["R006"]

    def test_silent_on_read_mode(self):
        src = ("def load(path):\n"
               "    with open(path) as fh:\n"
               "        return fh.read()\n")
        assert lint_at(src, RESILIENCE_PATH) == []

    def test_silent_with_atomic_write_helper(self):
        src = ("from repro.utils.atomicio import atomic_write\n\n"
               "def save(path, data):\n"
               "    with atomic_write(path) as fh:\n"
               "        fh.write(data)\n")
        assert lint_at(src, self.SERVICE_PATH) == []

    def test_silent_with_inline_tmp_and_replace(self):
        src = ("import os\n\n"
               "def save(path, data):\n"
               "    tmp = path + '.tmp'\n"
               "    with open(tmp, 'w') as fh:\n"
               "        fh.write(data)\n"
               "        os.fsync(fh.fileno())\n"
               "    os.replace(tmp, path)\n")
        assert lint_at(src, RESILIENCE_PATH) == []

    def test_widening_search_finds_replace_in_class(self):
        src = ("import os\n\n"
               "class Saver:\n"
               "    def _write(self, tmp, data):\n"
               "        with open(tmp, 'w') as fh:\n"
               "            fh.write(data)\n"
               "    def commit(self, tmp, path):\n"
               "        os.replace(tmp, path)\n")
        assert lint_at(src, self.SERVICE_PATH) == []

    def test_silent_outside_durable_trees(self):
        assert lint_at(self.BAD, NEUTRAL_PATH) == []
        assert lint_at(self.BAD, KERNEL_PATH) == []

    def test_faults_and_wal_modules_exempt(self):
        for exempt in ("src/repro/resilience/faults.py",
                       "src/repro/resilience/wal.py"):
            assert lint_at(self.BAD, exempt) == []

    def test_pragma_suppresses(self):
        src = ("def save(path, data):\n"
               "    with open(path, 'w') as fh:  # sanitize: ignore[R006]\n"
               "        fh.write(data)\n")
        assert lint_at(src, RESILIENCE_PATH) == []


# ----------------------------------------------------------------------
# Pragma mechanics, output formats, exit codes, repo cleanliness
# ----------------------------------------------------------------------
class TestHarness:
    def test_pragma_comma_list(self):
        src = ("import numpy as np\n\n"
               "x = np.random.rand(3)  # sanitize: ignore[R001, R002]\n")
        assert lint_at(src, NEUTRAL_PATH) == []

    def test_pragma_wrong_rule_does_not_suppress(self):
        src = ("import numpy as np\n\n"
               "x = np.random.rand(3)  # sanitize: ignore[R001]\n")
        assert rules_of(lint_at(src, NEUTRAL_PATH)) == ["R002"]

    def test_findings_sorted_and_stable(self):
        src = ("import numpy as np\n"
               "import time\n\n"
               "b = np.random.rand(3)\n"
               "a = time.time()\n")
        findings = lint_at(src, KERNEL_PATH)
        assert rules_of(findings) == ["R002", "R001"]  # line order
        assert findings == sorted(findings, key=lint.LintFinding.sort_key)

    def test_finding_carries_hint(self):
        src = "import numpy as np\n\nx = np.random.rand(3)\n"
        (finding,) = lint_at(src, NEUTRAL_PATH)
        assert "default_rng" in finding.hint
        assert finding.rule in finding.render()
        d = finding.to_dict()
        assert d["rule"] == "R002" and d["hint"] == finding.hint

    def test_lint_file_virtual_path(self, tmp_path):
        bad = tmp_path / "snippet.py"
        bad.write_text("import time\n\nx = time.time()\n")
        # Under its real (neutral) path: silent.
        assert lint.lint_file(bad) == []
        # Under a virtual kernel path: fires.
        findings = lint.lint_file(bad, virtual_path="src/repro/bc/x.py")
        assert rules_of(findings) == ["R001"]

    def test_main_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert lint.main([str(good)]) == 0
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\n\nx = np.random.rand(3)\n")
        assert lint.main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "R002" in out and "fix-it" in out

    def test_main_json_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\n\nnp.random.seed(1)\n")
        assert lint.main([str(bad), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == lint.LINT_VERSION
        assert doc["ok"] is False and doc["files_checked"] == 1
        assert doc["findings"][0]["rule"] == "R002"

    def test_main_output_file(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\n\nnp.random.seed(1)\n")
        report = tmp_path / "report.json"
        assert lint.main([str(bad), "--format", "json",
                          "--output", str(report)]) == 1
        assert json.loads(report.read_text())["ok"] is False

    def test_module_entry_point(self, tmp_path):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.sanitize.lint", str(good)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "ok" in proc.stdout

    def test_shipped_tree_is_clean(self):
        """The zero-ignore baseline: src/ and tests/ lint clean."""
        assert lint.lint_paths(["src", "tests"]) == []

    def test_syntax_error_is_a_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        findings = lint.lint_file(bad)
        assert len(findings) == 1
        assert "unparseable" in findings[0].message
