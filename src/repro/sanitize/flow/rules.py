"""The analyzer's rules: six lexical ones (R001–R006) and four
interprocedural families (F101–F104).

Each rule documents its scope, its sources/sinks, and — because the
call graph is optimistic — what it can miss.  Shared precision
decisions of the F-rules, chosen so the shipped tree analyzes clean
*because the code is clean*, not because the rules are blind:

* constructors are exempt from F101 (services are built once, before
  serving; ``BCService.__init__`` legitimately recovers a journal
  synchronously — the event loop is not serving traffic yet);
* ``os.stat``/``os.listdir`` are not blocking roots (micro-syscalls
  the health endpoints rely on), while ``fsync``/``unlink``/``open``/
  ``rename`` are;
* ``np.argsort`` is not a blocking root — snapshot reads use it on
  the loop *by design* (wait-free reads over frozen arrays);
* ``repro/parallel/`` is exempt from F103: it owns the shared-memory
  blocks whose views it hands out (``ShmArena.views()``/``get()``,
  ``ShmAttachment.arrays``) and manages their lifetime by arena
  generation and R003's create/close pairing, so view summaries
  neither fire there nor export across its boundary.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.sanitize.callgraph import (
    CallGraph,
    CallSite,
    FunctionInfo,
    ModuleInfo,
    WALL_CLOCK_FUNCS,
    attr_chain,
    norm_path,
)
from repro.sanitize.flow.engine import (
    BLOCKING,
    CHECKS_FENCE,
    FH_WRITE,
    WAL_APPEND,
    EffectSummaries,
    sites_by_call_node,
)
from repro.sanitize.flow.findings import FlowFinding

#: numpy RNG constructors: seeded, they are the sanctioned RNGs; called
#: without an argument they draw OS entropy, which R002 flags and F104
#: treats as a nondeterministic source
RNG_CONSTRUCTORS = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
}
#: R006 exemptions: faults.py corrupts files on purpose, and wal.py's
#: append-only segments get durability from CRC + torn-tail truncation
#: rather than rename
_R006_EXEMPT = ("/resilience/faults.py", "/resilience/wal.py")
#: attributes whose stores feed bit-identical state (F104 sinks);
#: deliberately excludes ``wall_seconds``/``elapsed`` — those *are*
#: wall-clock by contract
_TAINT_SINK_ATTRS = {"simulated_seconds", "_sim_seconds",
                     "simulated_prefix", "bc"}
#: calls whose arguments land in checkpoint payloads (F104 sinks)
_CHECKPOINT_SINKS = {"save_checkpoint", "checkpoint_now"}
#: wrapping one of these around a view materializes it (F103 kill)
_VIEW_SANITIZERS = {"copy", "array", "ascontiguousarray"}


def _under(path: str, *trees: str) -> bool:
    """True when *path* lies under one of the ``repro/<tree>/`` trees."""
    p = norm_path(path)
    return any(f"/repro/{tree}/" in p for tree in trees)


def _in_repro(path: str) -> bool:
    return "/repro/" in norm_path(path)


def _reads_wall_clock(chain: Tuple[str, ...], mod: ModuleInfo) -> bool:
    """``time.perf_counter()`` and friends under any alias of ``time``,
    or a name bound by ``from time import ...`` (R001, F104)."""
    if len(chain) == 2:
        return chain[0] in mod.time_aliases and chain[1] in WALL_CLOCK_FUNCS
    return len(chain) == 1 and chain[0] in mod.wall_clock_names


def iter_statements(body: Sequence[ast.stmt]) -> Iterator[ast.stmt]:
    """Every statement in *body*, recursively, in source order —
    without entering nested function/class definitions."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        for fname in ("body", "orelse", "finalbody"):
            sub = getattr(stmt, fname, None)
            if sub:
                yield from iter_statements(sub)
        for handler in getattr(stmt, "handlers", []) or []:
            yield from iter_statements(handler.body)


def own_parts(stmt: ast.stmt) -> Iterator[ast.AST]:
    """The parts of *stmt* that :func:`iter_statements` does not yield
    on their own: a nested function or class whole, else every child
    but the nested statement lists (an ``except`` clause keeps only its
    type).  Walking them visits each node of a body once."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        yield stmt
        return
    for name, value in ast.iter_fields(stmt):
        if name in ("body", "orelse", "finalbody"):
            continue
        if name == "handlers":
            value = [h.type for h in value]
        for node in value if isinstance(value, list) else [value]:
            if isinstance(node, ast.AST):
                yield node


def run_rules(graph: CallGraph,
              summaries: EffectSummaries) -> List[FlowFinding]:
    """Run every rule over the graph; unsorted findings."""
    findings = rule_lexical(graph)
    findings.extend(rule_f101(graph, summaries))
    findings.extend(rule_f102(graph, summaries))
    findings.extend(rule_f103(graph))
    findings.extend(rule_f104(graph))
    return findings


# ----------------------------------------------------------------------
# R001–R006 — lexical rules
# ----------------------------------------------------------------------
def rule_lexical(graph: CallGraph) -> List[FlowFinding]:
    """The six lexical rules, each judging one node on its own:

    * R001 — no raw wall-clock call (``time.time``/``perf_counter``/...)
      under ``repro/bc/`` or ``repro/gpu/``;
    * R002 — no legacy global-state ``numpy.random.*`` call and no RNG
      constructor (:data:`RNG_CONSTRUCTORS`) without a seed, anywhere;
      callee names resolve through the module's imports;
    * R003 — no raw ``multiprocessing.shared_memory`` import outside
      ``parallel/shm.py``; a ``ShmArena``/``SharedMemory`` creation
      sits in a ``with`` block or in a module that calls
      ``close()``/``unlink()``;
    * R004 — no bare ``except:`` and no ``except Exception: pass``
      under ``repro/resilience/`` or ``repro/parallel/``;
    * R005 — a function under ``repro/bc/`` taking ``acc`` calls a
      method on it or passes it on;
    * R006 — a write-mode ``open()`` under ``repro/resilience/`` or
      ``repro/service/`` (``faults.py`` and ``wal.py`` exempt) sits in
      a module that calls ``os.replace``/``rename`` or ``atomic_write``.

    R003 and R006 search the whole module for the pairing call: a
    method may hand its segment or file to a sibling method or a
    module-level helper, and the module is the widest scope that holds
    them all.
    """
    findings: List[FlowFinding] = []
    for mod in graph.modules.values():
        findings.extend(_LexicalScan(graph, mod).run())
    return findings


class _LexicalScan:
    """The lexical rules over one module's :attr:`ModuleInfo.nodes`."""

    def __init__(self, graph: CallGraph, mod: ModuleInfo) -> None:
        self.graph = graph
        self.mod = mod
        self.path = mod.source.path
        self.findings: List[FlowFinding] = []
        self.calls = [(node, attr_chain(node.func)) for node in mod.nodes
                      if isinstance(node, ast.Call)]

    def run(self) -> List[FlowFinding]:
        path = norm_path(self.path)
        kernel = _under(path, "bc", "gpu")
        guarded = _under(path, "resilience", "parallel")
        durable = (_under(path, "resilience", "service")
                   and not path.endswith(_R006_EXEMPT))
        for node in self.mod.nodes:
            if isinstance(node, ast.ExceptHandler) and guarded:
                self._handler(node)
            elif isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and _imports_raw_shm(node) \
                    and not path.endswith("/parallel/shm.py"):
                self._flag(node, "R003", "raw multiprocessing.shared_memory "
                           "import outside parallel/shm.py")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and _under(path, "bc") and _leaves_acc_uncharged(node):
                self._flag(node, "R005", f"kernel `{node.name}` takes `acc` "
                           f"but never charges it")
        for node, chain in self.calls:
            if not chain:
                continue
            if kernel and _reads_wall_clock(chain, self.mod):
                self._flag(node, "R001",
                           f"`{'.'.join(chain)}()` in kernel code")
            self._rng(node, chain)
            if chain[-1] in ("ShmArena", "SharedMemory") \
                    and not self._releases() and not self._in_with(node):
                self._flag(node, "R003",
                           f"`{chain[-1]}(...)` has no close()/unlink() "
                           f"path in its module")
            if durable and chain == ("open",):
                mode = _open_mode(node)
                if mode is not None and any(c in mode for c in "wxa") \
                        and not self._writes_atomically():
                    self._flag(node, "R006",
                               f"`open(..., {mode!r})` writes a durable "
                               f"path without an atomic-rename path in "
                               f"its module")
        return self.findings

    def _rng(self, node: ast.Call, chain: Tuple[str, ...]) -> None:
        module, _, name = (self.mod.dotted(chain) or "").rpartition(".")
        if module != "numpy.random":
            return
        label = ".".join(chain)
        if name not in RNG_CONSTRUCTORS:
            self._flag(node, "R002", f"legacy global-state RNG call `{label}`")
        elif not node.args and not node.keywords:
            self._flag(node, "R002", f"`{label}()` without an explicit "
                       f"seed draws OS entropy")

    def _handler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._flag(node, "R004", "bare `except:` clause")
        elif (isinstance(node.type, ast.Name)
              and node.type.id in ("Exception", "BaseException")
              and all(isinstance(stmt, ast.Pass) for stmt in node.body)):
            self._flag(node, "R004", f"`except {node.type.id}: pass` "
                       f"swallows failures silently")

    def _releases(self) -> bool:
        """The module calls ``.close()`` or ``.unlink()`` somewhere."""
        return any(isinstance(node.func, ast.Attribute)
                   and node.func.attr in ("close", "unlink")
                   for node, _ in self.calls)

    def _writes_atomically(self) -> bool:
        """The module calls ``X.replace``/``X.rename`` or
        ``atomic_write`` somewhere."""
        return any(chain and (chain[-1] == "atomic_write" or (
            len(chain) >= 2 and chain[-1] in ("replace", "rename")))
            for _, chain in self.calls)

    def _in_with(self, call: ast.Call) -> bool:
        """*call* sits inside a ``with`` statement (its lifecycle is
        structural)."""
        return any(isinstance(node, ast.With)
                   and any(sub is call for sub in ast.walk(node))
                   for node in ast.walk(self.mod.source.tree))

    def _flag(self, node: ast.AST, code: str, message: str) -> None:
        line = node.lineno
        inner = max((fn for fn in self.graph.functions.values()
                     if fn.path == self.path
                     and fn.lineno <= line <= fn.node.end_lineno),
                    key=lambda fn: fn.lineno, default=None)
        self.findings.append(FlowFinding(
            code=code, path=self.path, line=line, col=node.col_offset + 1,
            function=inner.qname if inner else self.mod.source.module,
            message=message,
        ))


def _imports_raw_shm(node: ast.AST) -> bool:
    """An import of ``multiprocessing.shared_memory`` in any form."""
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("multiprocessing.shared_memory")
                   for alias in node.names)
    return node.module == "multiprocessing.shared_memory" or (
        node.module == "multiprocessing"
        and any(alias.name == "shared_memory" for alias in node.names))


def _open_mode(node: ast.Call) -> Optional[str]:
    """The literal mode string of an ``open(...)`` call, or ``None``
    when absent (absent means ``"r"`` — safe); a dynamic mode
    expression reads as ``"w"``, the worst case."""
    mode: Optional[ast.AST] = node.args[1] if len(node.args) >= 2 else None
    for kw in node.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None:
        return None
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return "w"


def _leaves_acc_uncharged(func: ast.AST) -> bool:
    """True when *func* takes an ``acc`` parameter but neither calls a
    method rooted at ``acc`` nor passes ``acc`` (positionally or by
    keyword) to another call."""
    a = func.args
    if "acc" not in [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]:
        return False
    for sub in ast.walk(func):
        if not isinstance(sub, ast.Call):
            continue
        chain = attr_chain(sub.func)
        if len(chain) >= 2 and chain[0] == "acc":
            return False
        for arg in list(sub.args) + [kw.value for kw in sub.keywords]:
            if isinstance(arg, ast.Name) and arg.id == "acc":
                return False
    return True


# ----------------------------------------------------------------------
# F101 — async-blocking
# ----------------------------------------------------------------------
def rule_f101(graph: CallGraph,
              summaries: EffectSummaries) -> List[FlowFinding]:
    """Every call site inside an ``async def`` under ``repro/service/``
    whose execution (transitively, over ``direct`` edges) may block the
    event loop.  Executor dispatches and constructor calls are the
    sanctioned escapes; see the engine's propagation policy.

    Reported per *site* (not per function), so one run lists every
    offending call and a fix can be verified site by site.

    Can miss: blocking hidden behind unresolved dynamic dispatch or
    foreign libraries the graph has no edges into.
    """
    findings = []
    for qname, fn in graph.functions.items():
        if not fn.is_async or not _under(fn.path, "service"):
            continue
        for site in graph.calls.get(qname, ()):  # noqa: B007
            effects = summaries.site_effects(site)
            if BLOCKING not in effects:
                continue
            label = ".".join(site.chain) or "<dynamic>"
            roots = summaries.roots.get(id(site), frozenset())
            if BLOCKING in roots:
                message = (f"blocking call `{label}(...)` runs on the "
                           f"event loop")
                trace: Tuple[str, ...] = ()
            else:
                callee = graph.functions.get(site.callee)
                where = (callee.short if callee is not None
                         else site.callee or "?")
                message = (f"`{label}(...)` reaches blocking code "
                           f"in `{where}` without an executor hop")
                trace = tuple(summaries.trace(site.callee, BLOCKING))
            findings.append(FlowFinding(
                code="F101", path=fn.path, line=site.lineno,
                col=site.col + 1, function=qname, message=message,
                trace=trace,
            ))
    return findings


# ----------------------------------------------------------------------
# F102 — protocol order
# ----------------------------------------------------------------------
def rule_f102(graph: CallGraph,
              summaries: EffectSummaries) -> List[FlowFinding]:
    """Three state-machine checks over the durability protocol:

    a. **fence before write** — in every *public* method of a class
       that defines ``check_fence`` (``WriteAheadLog`` and twins), no
       statement may (transitively) write segment bytes before a
       statement has (transitively) checked the fence.  A statement
       carrying both — ``self.sync()`` inside ``close()`` — counts
       fence-first, matching ``sync``'s own internal order.
    b. **append before ack** — any ``repro/service/`` function awaiting
       a durable ack (``_wait_durable``) must journal-append (reach
       ``WriteAheadLog.append``) on an earlier-or-same line: acking a
       record that was never appended is durability theater.
    c. **promote ordering** — a ``promote()`` under ``repro/service/``
       must run fence (``write_fence``) → seal (``catch_up``/``poll``)
       → own (``WriteAheadLog(...)``) → advertise
       (``clear_replica_position``), each present and in that order
       (docs/RESILIENCE.md §7).
    """
    findings = []
    # -- (a) fence before write ---------------------------------------
    for cls in graph.classes.values():
        if not cls.has_check_fence:
            continue
        for mname, fq in sorted(cls.methods.items()):
            if mname.startswith("_") or mname == "check_fence":
                continue
            fn = graph.functions.get(fq)
            if fn is None:
                continue
            index = sites_by_call_node(graph, fq)
            fenced = False
            for stmt in iter_statements(fn.node.body):
                effects = summaries.statement_effects(stmt, index)
                if CHECKS_FENCE in effects:
                    fenced = True
                if FH_WRITE in effects and not fenced:
                    findings.append(FlowFinding(
                        code="F102", path=fn.path, line=stmt.lineno,
                        col=stmt.col_offset + 1, function=fq,
                        message=(f"`{cls.name}.{mname}` writes segment "
                                 f"bytes before any check_fence() — a "
                                 f"deposed writer could commit"),
                    ))
                    break
    # -- (b) append before ack ----------------------------------------
    for qname, fn in graph.functions.items():
        if not _under(fn.path, "service") or fn.name == "_wait_durable":
            continue
        ack_site: Optional[CallSite] = None
        append_line: Optional[int] = None
        for site in graph.calls.get(qname, ()):  # noqa: B007
            if site.chain and site.chain[-1] == "_wait_durable":
                if ack_site is None or site.lineno < ack_site.lineno:
                    ack_site = site
            if WAL_APPEND in summaries.site_effects(site):
                if append_line is None or site.lineno < append_line:
                    append_line = site.lineno
        if ack_site is None:
            continue
        if append_line is None or append_line > ack_site.lineno:
            what = ("never journal-appends" if append_line is None
                    else f"appends only at line {append_line}")
            findings.append(FlowFinding(
                code="F102", path=fn.path, line=ack_site.lineno,
                col=ack_site.col + 1, function=qname,
                message=(f"durable-ack path awaits _wait_durable but "
                         f"{what} — the acked record may not be in "
                         f"the journal"),
            ))
    # -- (c) promote ordering -----------------------------------------
    order = ("fence", "seal", "own", "advertise")
    for qname, fn in graph.functions.items():
        if fn.name != "promote" or not _under(fn.path, "service"):
            continue
        first: Dict[str, int] = {}
        for site in graph.calls.get(qname, ()):  # noqa: B007
            tail = site.chain[-1] if site.chain else ""
            step = None
            if tail == "write_fence":
                step = "fence"
            elif tail in ("catch_up", "poll"):
                step = "seal"
            elif tail == "WriteAheadLog" or (
                site.ctor_class or "").endswith(".WriteAheadLog"):
                step = "own"
            elif tail == "clear_replica_position":
                step = "advertise"
            if step is not None and step not in first:
                first[step] = site.lineno
        missing = [s for s in order if s not in first]
        if missing:
            findings.append(FlowFinding(
                code="F102", path=fn.path, line=fn.lineno, col=1,
                function=qname,
                message=(f"promote() is missing protocol step(s) "
                         f"{', '.join(missing)} (required order: "
                         f"fence -> seal -> own -> advertise)"),
            ))
            continue
        lines = [first[s] for s in order]
        if lines != sorted(lines):
            got = " -> ".join(
                s for s, _ in sorted(first.items(), key=lambda kv: kv[1])
            )
            findings.append(FlowFinding(
                code="F102", path=fn.path, line=min(lines), col=1,
                function=qname,
                message=(f"promote() runs its protocol out of order "
                         f"({got}); required: fence -> seal -> own -> "
                         f"advertise"),
            ))
    return findings


# ----------------------------------------------------------------------
# F103 — shm view lifetime escape
# ----------------------------------------------------------------------
class _ViewFlow:
    """Per-function forward taint over zero-copy views.

    Sources: ``np.frombuffer(...)`` and calls to (non-exempt) functions
    summarized as returning a view.
    Kills: wrapping in ``.copy()`` / ``np.array`` /
    ``np.ascontiguousarray``.  Escapes: returning, yielding, storing on
    an attribute, or closing over a live view — each one lets the view
    outlive the arena round that owns its buffer.
    """

    def __init__(self, graph: CallGraph, fn: FunctionInfo,
                 mod: ModuleInfo, returns_view: Set[str]) -> None:
        self.graph = graph
        self.fn = fn
        self.mod = mod
        self.returns_view = returns_view
        self.tainted: Set[str] = set()
        self.findings: List[FlowFinding] = []
        self.fn_returns_view = False
        self._index = sites_by_call_node(graph, fn.qname)

    def is_view(self, expr: ast.AST) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in self.tainted
        if isinstance(expr, ast.Await):
            return self.is_view(expr.value)
        if isinstance(expr, ast.IfExp):
            return self.is_view(expr.body) or self.is_view(expr.orelse)
        if isinstance(expr, ast.Subscript):
            return self.is_view(expr.value)  # slicing a view is a view
        if isinstance(expr, ast.Call):
            chain = attr_chain(expr.func)
            tail = chain[-1] if chain else ""
            if tail in _VIEW_SANITIZERS:
                return False
            if tail == "frombuffer":
                return True
            for site in self._index.get(id(expr), []):
                if site.callee in self.returns_view:
                    return True
        return False

    def _contains_view(self, expr: ast.AST) -> bool:
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            return any(self._contains_view(e) for e in expr.elts)
        if isinstance(expr, ast.Dict):
            return any(v is not None and self._contains_view(v)
                       for v in expr.values)
        return self.is_view(expr)

    def _flag(self, node: ast.AST, message: str) -> None:
        self.findings.append(FlowFinding(
            code="F103", path=self.fn.path,
            line=getattr(node, "lineno", self.fn.lineno),
            col=getattr(node, "col_offset", 0) + 1,
            function=self.fn.qname, message=message,
        ))

    def run(self) -> None:
        # two passes so loop-carried taint is observed; only the last
        # pass's findings (with the full taint set) are kept
        for _ in range(2):
            self.findings = []
            self._pass()

    def _pass(self) -> None:
        for stmt in iter_statements(self.fn.node.body):
            if isinstance(stmt, ast.Assign):
                self._assign(stmt.targets, stmt.value)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                self._assign([stmt.target], stmt.value)
            elif isinstance(stmt, ast.Return) and stmt.value is not None:
                if self._contains_view(stmt.value):
                    self.fn_returns_view = True
                    self._flag(stmt,
                               "zero-copy view escapes via return "
                               "without a copy")
            elif isinstance(stmt, ast.Expr) \
                    and isinstance(stmt.value, (ast.Yield, ast.YieldFrom)):
                inner = stmt.value.value
                if inner is not None and self._contains_view(inner):
                    self._flag(stmt,
                               "zero-copy view escapes via yield "
                               "without a copy")
        # closures: a nested def/lambda reading a live view keeps the
        # buffer reachable past the round that owns it
        for node in ast.walk(self.fn.node):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)) and node is not self.fn.node:
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Name) \
                            and isinstance(sub.ctx, ast.Load) \
                            and sub.id in self.tainted:
                        self._flag(node,
                                   f"zero-copy view `{sub.id}` is "
                                   f"captured by a closure without a "
                                   f"copy")
                        break

    def _assign(self, targets: Sequence[ast.AST], value: ast.AST) -> None:
        view = self.is_view(value)
        for target in targets:
            if isinstance(target, ast.Name):
                if view:
                    self.tainted.add(target.id)
                else:
                    self.tainted.discard(target.id)
            elif isinstance(target, ast.Attribute) and \
                    self._contains_view(value):
                chain = attr_chain(target)
                label = ".".join(chain) if chain else "<attribute>"
                self._flag(target,
                           f"zero-copy view stored on `{label}` "
                           f"outlives its arena round")


def rule_f103(graph: CallGraph) -> List[FlowFinding]:
    """Dataflow upgrade of lexical R003: views over shared memory must
    not outlive the arena/round that owns their buffer.  Interprocedural
    via *returns-view* summaries (a helper returning a raw view taints
    its callers' assignments), iterated to fixpoint.

    Can miss: views smuggled through containers built elsewhere, or
    through attributes read back later (no heap model).
    """
    returns_view: Set[str] = set()
    analyses: Dict[str, _ViewFlow] = {}
    changed = True
    while changed:
        changed = False
        analyses.clear()
        for qname, fn in graph.functions.items():
            if not _in_repro(fn.path) or _under(fn.path, "parallel"):
                continue
            mod = graph.modules.get(fn.path)
            if mod is None:
                continue
            flow = _ViewFlow(graph, fn, mod, returns_view)
            flow.run()
            analyses[qname] = flow
            if flow.fn_returns_view and qname not in returns_view:
                returns_view.add(qname)
                changed = True
    findings: List[FlowFinding] = []
    for flow in analyses.values():
        findings.extend(flow.findings)
    return findings


# ----------------------------------------------------------------------
# F104 — determinism taint
# ----------------------------------------------------------------------
class _TaintFlow:
    """Per-function forward taint of nondeterministic values.

    Sources: wall-clock reads (``time.time``/``perf_counter``/...),
    ``WallTimer.elapsed``, RNG constructors called without a seed
    (:data:`RNG_CONSTRUCTORS`), and calls to functions summarized as
    returning taint; an attribute of a tainted value is tainted.
    Sinks: accountant charges (``acc.*(tainted)``), checkpoint payload
    arguments, and stores to the deterministic-state attributes
    (``simulated_seconds``/``_sim_seconds``/``simulated_prefix``/
    ``bc``).  ``wall_seconds`` is *not* a sink: it is wall-clock by
    contract.
    """

    def __init__(self, graph: CallGraph, fn: FunctionInfo,
                 mod: ModuleInfo, returns_taint: Set[str]) -> None:
        self.graph = graph
        self.fn = fn
        self.mod = mod
        self.returns_taint = returns_taint
        self.tainted: Dict[str, str] = {}
        self.findings: List[FlowFinding] = []
        self.fn_returns_taint = False
        self._index = sites_by_call_node(graph, fn.qname)
        self._cls = (graph.classes.get(fn.class_qname)
                     if fn.class_qname else None)

    # -- taint of an expression ---------------------------------------
    def taint_of(self, expr: ast.AST) -> Optional[str]:
        if isinstance(expr, ast.Name):
            return self.tainted.get(expr.id)
        if isinstance(expr, ast.Await):
            return self.taint_of(expr.value)
        if isinstance(expr, ast.BinOp):
            return self.taint_of(expr.left) or self.taint_of(expr.right)
        if isinstance(expr, ast.UnaryOp):
            return self.taint_of(expr.operand)
        if isinstance(expr, ast.IfExp):
            return self.taint_of(expr.body) or self.taint_of(expr.orelse)
        if isinstance(expr, ast.Subscript):
            return self.taint_of(expr.value)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            for e in expr.elts:
                t = self.taint_of(e)
                if t:
                    return t
            return None
        if isinstance(expr, ast.Dict):
            for v in expr.values:
                if v is not None:
                    t = self.taint_of(v)
                    if t:
                        return t
            return None
        if isinstance(expr, ast.Attribute):
            chain = attr_chain(expr)
            if chain and expr.attr == "elapsed":
                recv = self.graph._chain_type_with(
                    chain[:-1], self.mod, self.fn.local_types, self._cls
                )
                if recv is not None and recv.rsplit(".", 1)[-1] == "WallTimer":
                    return f"WallTimer.elapsed (line {expr.lineno})"
            return self.taint_of(expr.value)
        if isinstance(expr, ast.Call):
            return self._call_taint(expr)
        return None

    def _call_taint(self, call: ast.Call) -> Optional[str]:
        chain = attr_chain(call.func)
        tail = chain[-1] if chain else ""
        if _reads_wall_clock(chain, self.mod):
            return f"{'.'.join(chain)}() (line {call.lineno})"
        if tail in RNG_CONSTRUCTORS and not call.args and not call.keywords:
            return f"unseeded {tail}() (line {call.lineno})"
        for site in self._index.get(id(call), []):
            if site.callee in self.returns_taint:
                callee = self.graph.functions.get(site.callee)
                name = callee.short if callee else site.callee
                return f"tainted return of {name} (line {call.lineno})"
        return None

    # -- statements ---------------------------------------------------
    def run(self) -> None:
        for _ in range(2):
            self.findings = []
            self._pass()

    def _flag(self, node: ast.AST, message: str) -> None:
        self.findings.append(FlowFinding(
            code="F104", path=self.fn.path,
            line=getattr(node, "lineno", self.fn.lineno),
            col=getattr(node, "col_offset", 0) + 1,
            function=self.fn.qname, message=message,
        ))

    def _check_sink_call(self, call: ast.Call) -> None:
        chain = attr_chain(call.func)
        if not chain:
            return
        args = list(call.args) + [kw.value for kw in call.keywords]
        tainted = next((t for t in map(self.taint_of, args) if t), None)
        if tainted is None:
            return
        if len(chain) >= 2 and chain[0] == "acc":
            self._flag(call,
                       f"nondeterministic value reaches the cost "
                       f"accountant via `{'.'.join(chain)}(...)`: "
                       f"{tainted}")
        elif chain[-1] in _CHECKPOINT_SINKS:
            self._flag(call,
                       f"nondeterministic value reaches a checkpoint "
                       f"payload via `{'.'.join(chain)}(...)`: {tainted}")

    def _pass(self) -> None:
        for stmt in iter_statements(self.fn.node.body):
            # sinks first (a statement may both sink and re-taint)
            for part in own_parts(stmt):
                for node in ast.walk(part):
                    if isinstance(node, ast.Call):
                        self._check_sink_call(node)
            if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                value = stmt.value
                if value is None:
                    continue
                taint = self.taint_of(value)
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                for target in targets:
                    if isinstance(target, ast.Name) \
                            and isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                        if taint:
                            self.tainted[target.id] = taint
                        else:
                            self.tainted.pop(target.id, None)
                    elif isinstance(target, ast.Attribute) \
                            and taint is not None \
                            and target.attr in _TAINT_SINK_ATTRS:
                        chain = attr_chain(target)
                        label = ".".join(chain) if chain else target.attr
                        self._flag(target,
                                   f"nondeterministic value folded into "
                                   f"`{label}`: {taint}")
            elif isinstance(stmt, ast.Return) and stmt.value is not None:
                if self.taint_of(stmt.value):
                    self.fn_returns_taint = True


def rule_f104(graph: CallGraph) -> List[FlowFinding]:
    """Interprocedural extension of lexical R001/R002: wall-clock and
    unseeded-RNG values must never fold into the quantities the
    bit-identity guarantees cover.  *Returns-taint* summaries carry
    nondeterminism across helper boundaries, iterated to fixpoint.

    Can miss: taint through object attributes or containers mutated
    elsewhere (no heap model), and parameters (no argument-to-return
    transfer functions in v1).
    """
    returns_taint: Set[str] = set()
    analyses: Dict[str, _TaintFlow] = {}
    changed = True
    while changed:
        changed = False
        analyses.clear()
        for qname, fn in graph.functions.items():
            if not _in_repro(fn.path):
                continue
            mod = graph.modules.get(fn.path)
            if mod is None:
                continue
            flow = _TaintFlow(graph, fn, mod, returns_taint)
            flow.run()
            analyses[qname] = flow
            if flow.fn_returns_taint and qname not in returns_taint:
                returns_taint.add(qname)
                changed = True
    findings: List[FlowFinding] = []
    for flow in analyses.values():
        findings.extend(flow.findings)
    return findings
