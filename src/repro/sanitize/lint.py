"""AST-based repo linter: the determinism/lifecycle invariants the
simulation's bit-identity guarantees rest on (Layer 2 of
:mod:`repro.sanitize`).

Run as ``python -m repro.sanitize.lint src/ tests/``; exits 0 on a
clean tree and 1 when any finding survives.  Rules:

====  ==============================================================
R001  No raw wall-clock (``time.time``/``perf_counter``/...) inside
      ``repro/bc`` or ``repro/gpu`` — simulated time must flow
      through ``CostModel``; wall timing belongs in
      ``repro.utils.timing.WallTimer`` callers outside the kernels.
R002  No module-level / unseeded ``np.random.*``: the legacy global
      API is banned everywhere, and RNG constructors must receive an
      explicit seed or Generator (``repro.utils.prng.default_rng``).
R003  Every ``ShmArena``/``SharedMemory`` creation must be lexically
      paired with a ``close``/``unlink`` path (or a ``with`` block) in
      its enclosing function/class/module; importing raw
      ``multiprocessing.shared_memory`` is banned outside
      ``parallel/shm.py``.
R004  No bare ``except:`` and no ``except Exception: pass`` in
      ``resilience/`` and ``parallel/`` — swallowed failures defeat
      the supervision/transaction layers (use
      ``contextlib.suppress`` to make best-effort teardown explicit).
R005  Kernel functions in ``bc/`` taking an ``acc`` accountant must
      charge it (call a method on ``acc`` or pass it onward) before
      returning, so no kernel escapes the cost model.
R006  No non-atomic write-mode ``open()`` in ``resilience/`` and
      ``service/`` — durable artifacts must go through
      ``repro.utils.atomicio.atomic_write`` (or the equivalent inline
      tmp + ``os.replace`` pattern) so a crash can never leave a
      truncated file.  ``resilience/faults.py`` (deliberate
      corruption) and ``resilience/wal.py`` (the append-only journal
      is its own durability mechanism) are exempt.
====  ==============================================================

Architecture: every file is parsed **once** (through the shared
:mod:`repro.sanitize.astcache`, so a combined run with the flow
analyzer also shares trees) and walked **once** — a single
:class:`_Walker` maintains the shared traversal context (import
aliases, the scope stack, ``with`` nesting) and fans each AST event
out to one visitor object per rule.  Adding a rule adds a class, not
a parse or a traversal, so lint wall time stays flat as the rule set
grows.

A finding on a line carrying ``# sanitize: ignore[RNNN]`` (comma list
allowed) is suppressed; the shipped tree carries no ignores — add a
justification comment next to any you introduce.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.sanitize.astcache import (
    AstCache,
    GLOBAL_CACHE,
    SourceModule,
    iter_python_files,
    parse_source,
)
from repro.sanitize.callgraph import WALL_CLOCK_FUNCS

#: schema version of the ``--format json`` document
LINT_VERSION = 1

#: rule code → (summary, fix-it hint)
RULES: Dict[str, Tuple[str, str]] = {
    "R001": (
        "raw wall-clock read in simulated-kernel code",
        "route simulated time through CostModel; if you need wall "
        "time, use repro.utils.timing.WallTimer outside bc/ and gpu/",
    ),
    "R002": (
        "module-level or unseeded numpy RNG",
        "take an explicit seed or np.random.Generator argument and "
        "build it with repro.utils.prng.default_rng(seed)",
    ),
    "R003": (
        "shared-memory lifecycle hazard",
        "pair the creation with close()/unlink() in the same "
        "function/class (or use a with-block), and go through "
        "repro.parallel.shm instead of multiprocessing.shared_memory",
    ),
    "R004": (
        "silently swallowed exception in a resilience-critical layer",
        "catch the narrowest exception you can handle, or make "
        "best-effort teardown explicit with contextlib.suppress(...)",
    ),
    "R005": (
        "kernel function never charges its accountant",
        "call a method on `acc` (acc.sp_level/acc.dep_level/...) or "
        "pass `acc` to a helper that does, before returning",
    ),
    "R006": (
        "non-atomic write to a durable path",
        "write through repro.utils.atomicio.atomic_write (or an "
        "inline tmp-file + os.replace) so readers never observe a "
        "torn file after a crash",
    ),
}

#: legacy global-RNG attributes always banned (non-exhaustive ban is
#: fine: anything not in the constructor allow-list is flagged)
_RNG_CONSTRUCTORS = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
}

_PRAGMA = re.compile(r"#\s*sanitize:\s*ignore\[([A-Z0-9,\s]+)\]")


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    @property
    def hint(self) -> str:
        """The rule's fix-it hint."""
        return RULES[self.rule][1]

    def to_dict(self) -> dict:
        """JSON-ready representation (``--format json`` schema)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "summary": RULES[self.rule][0],
            "message": self.message,
            "hint": self.hint,
        }

    def render(self) -> str:
        """One ``path:line:col: RULE message`` block with the fix-it."""
        return (f"{self.path}:{self.line}:{self.col}: {self.rule} "
                f"{self.message}\n    fix-it: {self.hint}")

    def sort_key(self) -> tuple:
        """Stable output order: location first, then rule/message."""
        return (self.path, self.line, self.col, self.rule, self.message)


def _norm(path: str) -> str:
    """Slash-normalized path with a leading separator so directory
    membership tests are unambiguous substring checks."""
    return "/" + str(path).replace("\\", "/").lstrip("/")


def _in_kernel_tree(path: str) -> bool:
    p = _norm(path)
    return "/repro/bc/" in p or "/repro/gpu/" in p


def _in_resilient_tree(path: str) -> bool:
    p = _norm(path)
    return "/repro/resilience/" in p or "/repro/parallel/" in p


def _is_shm_module(path: str) -> bool:
    return _norm(path).endswith("/parallel/shm.py")


def _in_durable_tree(path: str) -> bool:
    """R006 scope: the layers whose on-disk artifacts a crash must not
    corrupt.  ``faults.py`` exists to corrupt files and ``wal.py``'s
    append-only segments get durability from CRC + torn-tail truncation
    rather than rename, so both are exempt."""
    p = _norm(path)
    if p.endswith("/resilience/faults.py") or p.endswith("/resilience/wal.py"):
        return False
    return "/repro/resilience/" in p or "/repro/service/" in p


def _attr_chain(node: ast.AST) -> List[str]:
    """``a.b.c`` → ``["a", "b", "c"]``; empty when not a pure chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return []


# ----------------------------------------------------------------------
# shared traversal context + per-rule visitors
# ----------------------------------------------------------------------
class LintContext:
    """Everything the rule visitors share for one file: the reporting
    path, the import alias maps, the lexical scope stack and the
    ``with`` nesting depth.  Maintained by :class:`_Walker`; rules only
    read it and call :meth:`flag`."""

    def __init__(self, path: str, tree: ast.Module) -> None:
        self.path = path
        self.findings: List[LintFinding] = []
        self.numpy_aliases: Set[str] = {"numpy", "np"}
        self.time_aliases: Set[str] = {"time"}
        #: names bound by ``from time import perf_counter [as pc]``
        self.wall_clock_names: Set[str] = set()
        #: stack of (module | class | function) nodes, outermost first
        self.scopes: List[ast.AST] = [tree]
        #: with-statement nesting: creations inside one are managed
        self.with_depth = 0

    def flag(self, node: ast.AST, rule: str, message: str) -> None:
        """Record one finding at *node*'s position."""
        self.findings.append(LintFinding(
            path=self.path, line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1, rule=rule,
            message=message,
        ))


class LintRule:
    """Base class for one rule family: per-event hooks, all no-ops.
    One instance is created per file, so rules may keep per-file
    state."""

    codes: Tuple[str, ...] = ()

    def on_import(self, ctx: LintContext, node: ast.Import) -> None:
        """Called for every ``import X`` statement."""

    def on_import_from(self, ctx: LintContext,
                       node: ast.ImportFrom) -> None:
        """Called for every ``from X import Y`` statement."""

    def on_call(self, ctx: LintContext, node: ast.Call,
                chain: List[str]) -> None:
        """Called for every call, with the dotted name *chain*."""

    def on_except(self, ctx: LintContext,
                  node: ast.ExceptHandler) -> None:
        """Called for every ``except`` handler."""

    def on_function(self, ctx: LintContext, node: ast.AST) -> None:
        """Called for every (async) function def before descending."""


class R001WallClock(LintRule):
    codes = ("R001",)

    def on_call(self, ctx, node, chain):
        """Flag raw wall-clock reads inside kernel code."""
        if not _in_kernel_tree(ctx.path):
            return
        if (len(chain) == 2 and chain[0] in ctx.time_aliases
                and chain[1] in WALL_CLOCK_FUNCS):
            ctx.flag(node, "R001", f"`{'.'.join(chain)}()` in kernel code")
        elif len(chain) == 1 and chain[0] in ctx.wall_clock_names:
            ctx.flag(node, "R001", f"`{chain[0]}()` in kernel code")


class R002Rng(LintRule):
    codes = ("R002",)

    def on_call(self, ctx, node, chain):
        """Flag unseeded or legacy-global numpy RNG constructors."""
        if len(chain) != 3 or chain[1] != "random":
            return
        if chain[0] not in ctx.numpy_aliases:
            return
        name = chain[2]
        if name in _RNG_CONSTRUCTORS:
            if not node.args and not node.keywords:
                ctx.flag(node, "R002",
                         f"`{'.'.join(chain)}()` without an explicit "
                         f"seed draws OS entropy")
            return
        ctx.flag(node, "R002",
                 f"legacy global-state RNG call `{'.'.join(chain)}`")


class R003ShmLifecycle(LintRule):
    codes = ("R003",)

    def on_import(self, ctx, node):
        """Flag raw shared_memory imports outside parallel/shm.py."""
        for alias in node.names:
            if alias.name.startswith("multiprocessing.shared_memory"):
                if not _is_shm_module(ctx.path):
                    ctx.flag(node, "R003",
                             "raw multiprocessing.shared_memory import "
                             "outside parallel/shm.py")

    def on_import_from(self, ctx, node):
        """Flag raw shared_memory from-imports outside parallel/shm.py."""
        if node.module == "multiprocessing.shared_memory" or (
            node.module == "multiprocessing"
            and any(a.name == "shared_memory" for a in node.names)
        ):
            if not _is_shm_module(ctx.path):
                ctx.flag(node, "R003",
                         "raw multiprocessing.shared_memory import "
                         "outside parallel/shm.py")

    def on_call(self, ctx, node, chain):
        """Flag arena/segment creation with no release path in scope."""
        name = chain[-1] if chain else ""
        if name not in ("ShmArena", "SharedMemory"):
            return
        if ctx.with_depth > 0:
            return  # context-managed: lifecycle is structural
        # Widening search: function -> class -> module.  A method may
        # hand the segment to the instance (release in a sibling
        # method), and a factory helper may hand it to a module-level
        # destructor.
        if not any(_scope_releases(s) for s in reversed(ctx.scopes)):
            ctx.flag(node, "R003",
                     f"`{name}(...)` has no close()/unlink() path in "
                     f"its enclosing scope")


class R004SwallowedException(LintRule):
    codes = ("R004",)

    def on_except(self, ctx, node):
        """Flag bare/blanket handlers that swallow failures silently."""
        if not _in_resilient_tree(ctx.path):
            return
        if node.type is None:
            ctx.flag(node, "R004", "bare `except:` clause")
        elif (
            isinstance(node.type, ast.Name)
            and node.type.id in ("Exception", "BaseException")
            and all(isinstance(stmt, ast.Pass) for stmt in node.body)
        ):
            ctx.flag(node, "R004",
                     f"`except {node.type.id}: pass` swallows "
                     f"failures silently")


class R005Accountant(LintRule):
    codes = ("R005",)

    def on_function(self, ctx, node):
        if "/repro/bc/" not in _norm(ctx.path):
            return
        args = node.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if "acc" not in names:
            return
        if not _charges_accountant(node):
            ctx.flag(node, "R005",
                     f"kernel `{node.name}` takes `acc` but never "
                     f"charges it")


class R006DurableWrite(LintRule):
    codes = ("R006",)

    def on_call(self, ctx, node, chain):
        """Flag durable-tree writes with no atomic-rename path in scope."""
        if chain != ["open"] or not _in_durable_tree(ctx.path):
            return
        mode = _open_mode(node)
        if mode is None or not any(c in mode for c in "wxa"):
            return  # read mode, or dynamic mode we can't judge
        # The same widening search R003 uses: the atomic rename (or the
        # atomic_write helper wrapping it) may live anywhere in the
        # enclosing function/class/module.
        if any(_scope_writes_atomically(s) for s in reversed(ctx.scopes)):
            return
        ctx.flag(node, "R006",
                 f"`open(..., {mode!r})` writes a durable path "
                 f"without an atomic-rename path in scope")


#: the registered rule families, instantiated fresh per file
RULE_VISITORS = (
    R001WallClock,
    R002Rng,
    R003ShmLifecycle,
    R004SwallowedException,
    R005Accountant,
    R006DurableWrite,
)


class _Walker(ast.NodeVisitor):
    """The single traversal driver: updates the shared context and
    fans each event out to every rule visitor."""

    def __init__(self, path: str, tree: ast.Module,
                 rules: Sequence[LintRule]) -> None:
        self.ctx = LintContext(path, tree)
        self.rules = list(rules)

    # -- imports (context first, then rules) ---------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "numpy":
                self.ctx.numpy_aliases.add(alias.asname or "numpy")
            elif alias.name == "time":
                self.ctx.time_aliases.add(alias.asname or "time")
        for rule in self.rules:
            rule.on_import(self.ctx, node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if alias.name in WALL_CLOCK_FUNCS:
                    self.ctx.wall_clock_names.add(alias.asname or alias.name)
        for rule in self.rules:
            rule.on_import_from(self.ctx, node)
        self.generic_visit(node)

    # -- scope tracking ------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._handle_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._handle_function(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.ctx.scopes.append(node)
        self.generic_visit(node)
        self.ctx.scopes.pop()

    def _handle_function(self, node) -> None:
        for rule in self.rules:
            rule.on_function(self.ctx, node)
        self.ctx.scopes.append(node)
        self.generic_visit(node)
        self.ctx.scopes.pop()

    def visit_With(self, node: ast.With) -> None:
        self.ctx.with_depth += 1
        self.generic_visit(node)
        self.ctx.with_depth -= 1

    # -- events --------------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        for rule in self.rules:
            rule.on_except(self.ctx, node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        chain = _attr_chain(node.func)
        for rule in self.rules:
            rule.on_call(self.ctx, node, chain)
        self.generic_visit(node)


def _scope_releases(scope: ast.AST) -> bool:
    """True when *scope* lexically contains a ``.close()``/``.unlink()``
    call — the pairing R003 requires."""
    for sub in ast.walk(scope):
        if (isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in ("close", "unlink")):
            return True
    return False


def _open_mode(node: ast.Call) -> Optional[str]:
    """The literal mode string of an ``open(...)`` call, or ``None``
    when absent / not a constant (absent means ``"r"`` — safe)."""
    mode: Optional[ast.AST] = None
    if len(node.args) >= 2:
        mode = node.args[1]
    for kw in node.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None:
        return None
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return "w"  # dynamic mode expression: assume the worst


def _scope_writes_atomically(scope: ast.AST) -> bool:
    """True when *scope* lexically contains an ``os.replace``/``os.rename``
    call or uses the ``atomic_write`` helper — the pairing R006 requires
    for a write-mode ``open`` on a durable path."""
    for sub in ast.walk(scope):
        if not isinstance(sub, ast.Call):
            continue
        chain = _attr_chain(sub.func)
        if chain and chain[-1] in ("replace", "rename") and len(chain) >= 2:
            return True
        if chain and chain[-1] == "atomic_write":
            return True
    return False


def _charges_accountant(func: ast.AST) -> bool:
    """True when the function calls a method rooted at ``acc`` or
    passes ``acc`` (positionally or by keyword) to another call."""
    for sub in ast.walk(func):
        if not isinstance(sub, ast.Call):
            continue
        chain = _attr_chain(sub.func)
        if len(chain) >= 2 and chain[0] == "acc":
            return True
        for arg in list(sub.args) + [kw.value for kw in sub.keywords]:
            if isinstance(arg, ast.Name) and arg.id == "acc":
                return True
    return False


# ----------------------------------------------------------------------
def _suppressed(source_lines: Sequence[str], finding: LintFinding) -> bool:
    if not 1 <= finding.line <= len(source_lines):
        return False
    match = _PRAGMA.search(source_lines[finding.line - 1])
    if not match:
        return False
    codes = {c.strip() for c in match.group(1).split(",")}
    return finding.rule in codes


def lint_module(mod: SourceModule) -> List[LintFinding]:
    """Run every rule over one pre-parsed module in a single walk."""
    if not mod.ok:
        exc = mod.error
        return [LintFinding(path=mod.path, line=exc.lineno or 1,
                            col=(exc.offset or 0) + 1, rule="R001",
                            message=f"unparseable source: {exc.msg}")]
    walker = _Walker(mod.path, mod.tree, [cls() for cls in RULE_VISITORS])
    walker.visit(mod.tree)
    return sorted(
        (f for f in walker.ctx.findings if not _suppressed(mod.lines, f)),
        key=LintFinding.sort_key,
    )


def lint_source(source: str, path: str) -> List[LintFinding]:
    """Lint Python *source*, scoping path-dependent rules by *path*
    (which may be virtual — the tests lint snippets under synthetic
    paths like ``src/repro/bc/mod.py``)."""
    return lint_module(parse_source(source, path))


def lint_file(path, virtual_path: Optional[str] = None,
              cache: Optional[AstCache] = None) -> List[LintFinding]:
    """Lint one file through the shared parse cache; *virtual_path*
    overrides the path used for rule scoping and reporting."""
    cache = cache if cache is not None else GLOBAL_CACHE
    return lint_module(cache.get(path, virtual_path=virtual_path))


def lint_paths(paths: Sequence[str],
               cache: Optional[AstCache] = None) -> List[LintFinding]:
    """Lint every Python file under *paths*, sorted and deduplicated
    by location.  Passing the same *cache* to the flow analyzer makes
    a combined run parse each file exactly once."""
    findings: List[LintFinding] = []
    for f in iter_python_files(paths):
        findings.extend(lint_file(f, cache=cache))
    return sorted(findings, key=LintFinding.sort_key)


def render_text(findings: Sequence[LintFinding], checked: int) -> str:
    """Human-readable report: one block per finding plus a status line."""
    lines = [f.render() for f in findings]
    status = "FAIL" if findings else "ok"
    lines.append(f"sanitize-lint: {status} — {len(findings)} finding(s) "
                 f"over {checked} file(s)")
    return "\n".join(lines)


def render_json(findings: Sequence[LintFinding], checked: int) -> str:
    """Stable machine-readable report (see ``LINT_VERSION``)."""
    return json.dumps({
        "version": LINT_VERSION,
        "ok": not findings,
        "files_checked": checked,
        "findings": [f.to_dict() for f in findings],
    }, indent=2)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns 1 when any finding survives, else 0."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.sanitize.lint",
        description="Determinism/lifecycle linter (rules R001-R006; "
                    "see docs/SANITIZER.md)",
    )
    parser.add_argument("paths", nargs="+",
                        help="files or directories to lint")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", dest="fmt",
                        help="output format (stable for tooling)")
    parser.add_argument("--output", default=None,
                        help="write the report here instead of stdout")
    opts = parser.parse_args(argv)
    files = iter_python_files(opts.paths)
    findings = lint_paths(opts.paths)
    rendered = (render_json if opts.fmt == "json" else render_text)(
        findings, len(files)
    )
    if opts.output:
        Path(opts.output).write_text(rendered + "\n", encoding="utf-8")
    else:
        print(rendered)
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
