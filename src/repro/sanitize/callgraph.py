"""Module-level call graph over the repo (the flow analyzer's spine).

Builds, from a set of parsed modules (:func:`parse_source`), the
symbol tables and call edges the rules in :mod:`repro.sanitize.flow`
run over:

* every function/method (nested ones included), keyed by a dotted
  qualified name (``repro.service.service.BCService.stop``) and
  colored async/sync;
* every class, with a method table and an **attribute type map**
  inferred from ``self.x = SomeClass(...)`` assignments and annotated
  parameters — enough to resolve ``self.core.store.current()`` through
  two attribute hops without a real type checker;
* every call site, resolved where possible to its callee and labeled
  with an edge kind:

  ``direct``
      a plain call — effects propagate callee → caller;
  ``executor``
      the function *argument* of ``loop.run_in_executor(...)``,
      ``asyncio.to_thread(...)`` or ``executor.submit(...)`` — the
      callee runs on a worker thread, so blocking effects must NOT
      propagate to the (async) caller;
  ``constructor``
      a resolved class instantiation — constructors are setup-time
      (services are built once, before serving), so the async-blocking
      rule exempts them too.

Resolution is deliberately *optimistic*: a call we cannot resolve
(dynamic dispatch, foreign libraries, ``getattr``) simply contributes
no edge.  That trades soundness for a near-zero false-positive rate —
the right trade for a gating CI check; the rule docstrings in
``flow/rules.py`` record what each rule can therefore miss.

Two pseudo-types thread through the inference because the rules key on
them: ``"<file>"`` for values produced by the ``open()`` builtin (so
``self._fh.write(...)`` is recognizably file I/O) and the executor
class names (so ``self._executor.shutdown(wait=True)`` is recognizably
a thread join).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: receiver types whose ``.shutdown()`` joins worker threads
EXECUTOR_CLASSES = {"ThreadPoolExecutor", "ProcessPoolExecutor"}
#: pseudo-type for values returned by the ``open()`` builtin
FILE_TYPE = "<file>"

#: the node types the lexical rules judge (:attr:`ModuleInfo.nodes`)
_LEXICAL_NODES = (ast.Call, ast.ExceptHandler, ast.Import, ast.ImportFrom,
                  ast.FunctionDef, ast.AsyncFunctionDef)
#: wall-clock reads in the time module (R001 and F104)
WALL_CLOCK_FUNCS = {"time", "perf_counter", "perf_counter_ns",
                    "monotonic", "monotonic_ns", "process_time",
                    "process_time_ns"}


@dataclass(frozen=True)
class SourceModule:
    """One parsed Python file (or virtual snippet).

    ``path`` is the *reporting* path — for virtual snippets it encodes
    the tree position the path-scoped rules should assume (e.g.
    ``src/repro/bc/mod.py``), independent of any real location.
    """

    path: str
    source: str
    tree: ast.Module
    #: dotted module name derived from the path (``repro.service.core``),
    #: or ``None`` when the path does not sit under a package root
    module: Optional[str]
    #: the SyntaxError when the source failed to parse (``tree`` is
    #: then an empty placeholder)
    error: Optional[SyntaxError] = None

    @property
    def ok(self) -> bool:
        """``False`` when the source failed to parse."""
        return self.error is None


def module_name_for(path: str) -> Optional[str]:
    """Dotted module name for *path*, anchored at the ``repro`` package
    root (``src/repro/service/core.py`` → ``repro.service.core``); for
    paths outside it (tests, scripts) the stem-based fallback keeps
    names unique enough for call-graph keys."""
    parts = Path(str(path).replace("\\", "/")).with_suffix("").parts
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        # tests/foo.py -> tests.foo ; a bare file -> its stem
        parts = tuple(p for p in parts if p not in (".", "/", "src"))
    if not parts:
        return None
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else None


def parse_source(source: str, path: str) -> SourceModule:
    """Parse *source* under reporting path *path*; a SyntaxError is
    captured on the module (``ok == False``) rather than raised, so
    the analyzer reports it as a finding and keeps going."""
    try:
        tree = ast.parse(source, filename=path)
        err: Optional[SyntaxError] = None
    except SyntaxError as exc:
        tree = ast.Module(body=[], type_ignores=[])
        err = exc
    return SourceModule(path=str(path), source=source, tree=tree,
                        module=module_name_for(path), error=err)


def attr_chain(node: ast.AST) -> Tuple[str, ...]:
    """``a.b.c`` → ``("a", "b", "c")``; empty when not a pure chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(parts[::-1])
    return ()


def norm_path(path: str) -> str:
    """Normalize *path* to a leading-slash, forward-slash form."""
    return "/" + str(path).replace("\\", "/").lstrip("/")


@dataclass
class FunctionInfo:
    """One function or method in the graph."""

    qname: str
    module: str
    path: str
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    is_async: bool
    lineno: int
    class_qname: Optional[str] = None
    #: local variable name -> inferred type name (class qname,
    #: ``"<file>"``, or an executor class name)
    local_types: Dict[str, str] = field(default_factory=dict)

    @property
    def short(self) -> str:
        """``Class.method`` / ``func`` — the human-facing name."""
        if self.class_qname:
            return f"{self.class_qname.rsplit('.', 1)[-1]}.{self.name}"
        return self.name


@dataclass
class ClassInfo:
    """One class: method table plus inferred attribute types."""

    qname: str
    module: str
    path: str
    name: str
    node: ast.ClassDef
    methods: Dict[str, str] = field(default_factory=dict)
    attr_types: Dict[str, str] = field(default_factory=dict)

    @property
    def has_check_fence(self) -> bool:
        """Marks fencing-protocol classes (WriteAheadLog and any
        vendored twin): the protocol-order rule scopes to these."""
        return "check_fence" in self.methods


@dataclass
class CallSite:
    """One call expression inside a function, with its resolution."""

    call: ast.Call
    lineno: int
    col: int
    chain: Tuple[str, ...]
    kind: str = "direct"  # direct | executor | constructor
    callee: Optional[str] = None  #: resolved function qname
    ctor_class: Optional[str] = None  #: class qname for constructor sites
    #: inferred type of the receiver (``x`` in ``x.m()``), when known
    receiver_type: Optional[str] = None


@dataclass
class ModuleInfo:
    """Per-module symbol context the rules also consult."""

    source: SourceModule
    #: imported name -> fully dotted target (symbol or module)
    imports: Dict[str, str] = field(default_factory=dict)
    np_aliases: Set[str] = field(default_factory=lambda: {"numpy", "np"})
    time_aliases: Set[str] = field(default_factory=lambda: {"time"})
    #: names bound by ``from time import perf_counter [as pc]``
    wall_clock_names: Set[str] = field(default_factory=set)
    #: every call, import, ``except`` handler and function definition
    #: in the module, in walk order: the nodes the lexical rules judge
    nodes: List[ast.AST] = field(default_factory=list)

    def dotted(self, chain: Tuple[str, ...]) -> Optional[str]:
        """*chain* with its head replaced by the import that binds it
        (``npr.rand`` under ``import numpy.random as npr`` →
        ``numpy.random.rand``), or ``None`` when nothing imports it."""
        head = self.imports.get(chain[0]) if chain else None
        return ".".join((head,) + chain[1:]) if head else None


class CallGraph:
    """The whole-repo symbol tables + resolved call sites.

    Build with :meth:`build`; the flow engine then walks
    :attr:`calls` (per-function call sites) and :attr:`functions`.
    """

    def __init__(self) -> None:
        #: reporting path -> module (every parsed file, even when two
        #: paths derive the same dotted name)
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.calls: Dict[str, List[CallSite]] = {}
        #: callee qname -> [(caller qname, CallSite), ...]
        self.callers: Dict[str, List[Tuple[str, CallSite]]] = {}

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, sources: Sequence[SourceModule]) -> "CallGraph":
        graph = cls()
        for src in sources:
            if not src.ok or src.module is None:
                continue
            graph._collect_module(src)
        for info in graph.classes.values():
            graph._infer_attr_types(info)
        for fn in graph.functions.values():
            graph._resolve_function(fn)
        return graph

    # -- pass 1: symbols ----------------------------------------------
    def _collect_module(self, src: SourceModule) -> None:
        mod = ModuleInfo(source=src)
        for node in ast.walk(src.tree):
            if isinstance(node, _LEXICAL_NODES):
                mod.nodes.append(node)
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    mod.imports[bound] = (alias.name if alias.asname
                                          else alias.name.split(".")[0])
                    if alias.name == "numpy":
                        mod.np_aliases.add(alias.asname or "numpy")
                    elif alias.name == "time":
                        mod.time_aliases.add(alias.asname or "time")
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.level:
                    continue  # relative imports: not used in this repo
                for alias in node.names:
                    bound = alias.asname or alias.name
                    mod.imports[bound] = f"{node.module}.{alias.name}"
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in WALL_CLOCK_FUNCS:
                            mod.wall_clock_names.add(alias.asname or alias.name)
        self.modules[src.path] = mod
        self._collect_scope(src, src.tree.body, src.module, None)

    def _collect_scope(self, src: SourceModule, body: Iterable[ast.stmt],
                       prefix: str, class_qname: Optional[str]) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = f"{prefix}.{node.name}"
                info = FunctionInfo(
                    qname=qname, module=src.module, path=src.path,
                    name=node.name, node=node,
                    is_async=isinstance(node, ast.AsyncFunctionDef),
                    lineno=node.lineno, class_qname=class_qname,
                )
                # last definition wins (same-name redefinitions are
                # rare and benign for analysis purposes)
                self.functions[qname] = info
                if class_qname is not None:
                    self.classes[class_qname].methods[node.name] = qname
                # nested defs: functions only — a method's local helper
                # is registered but carries no class binding
                self._collect_scope(src, node.body, qname, None)
            elif isinstance(node, ast.ClassDef):
                qname = f"{prefix}.{node.name}"
                self.classes[qname] = ClassInfo(
                    qname=qname, module=src.module, path=src.path,
                    name=node.name, node=node,
                )
                self._collect_scope(src, node.body, qname, qname)
            elif isinstance(node, (ast.If, ast.Try, ast.With, ast.AsyncWith,
                                   ast.For, ast.AsyncFor, ast.While)):
                # conditionally defined symbols still count
                for block in self._stmt_blocks(node):
                    self._collect_scope(src, block, prefix, class_qname)

    @staticmethod
    def _stmt_blocks(node: ast.stmt) -> List[List[ast.stmt]]:
        blocks = []
        for fname in ("body", "orelse", "finalbody"):
            block = getattr(node, fname, None)
            if block:
                blocks.append(block)
        for handler in getattr(node, "handlers", []) or []:
            blocks.append(handler.body)
        return blocks

    # -- pass 2: attribute types --------------------------------------
    def _infer_attr_types(self, info: ClassInfo) -> None:
        mod = self.modules.get(info.path)
        if mod is None:
            return
        for mname, fq in info.methods.items():
            fn = self.functions.get(fq)
            if fn is None:
                continue
            locals_ = self._local_types(fn, mod, info)
            for node in ast.walk(fn.node):
                targets: List[Tuple[ast.AST, ast.AST]] = []
                if isinstance(node, ast.Assign):
                    targets = [(t, node.value) for t in node.targets]
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets = [(node.target, node.value)]
                for target, value in targets:
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        typ = self._expr_type(value, mod, locals_, info)
                        if typ is not None:
                            # a known class beats a pseudo-type beats
                            # nothing; first known-class wins otherwise
                            cur = info.attr_types.get(target.attr)
                            if cur is None or (cur in (FILE_TYPE,)
                                               and typ in self.classes):
                                info.attr_types[target.attr] = typ

    # -- pass 3: call resolution --------------------------------------
    def _resolve_function(self, fn: FunctionInfo) -> None:
        mod = self.modules.get(fn.path)
        if mod is None:
            self.calls[fn.qname] = []
            return
        cls = self.classes.get(fn.class_qname) if fn.class_qname else None
        fn.local_types = self._local_types(fn, mod, cls)
        sites: List[CallSite] = []
        for node in self._own_nodes(fn.node):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            site = CallSite(call=node, lineno=node.lineno,
                            col=node.col_offset, chain=chain)
            self._classify(site, fn, mod, cls)
            sites.append(site)
            # dispatch-style calls additionally create an executor edge
            # to the function they ship to a worker thread
            target = self._dispatch_target(node, chain, fn, mod, cls)
            if target is not None:
                tchain = attr_chain(target)
                tsite = CallSite(call=node, lineno=node.lineno,
                                 col=node.col_offset, chain=tchain,
                                 kind="executor")
                callee, ctor = self._resolve_chain(tchain, fn, mod, cls)
                tsite.callee, tsite.ctor_class = callee, ctor
                sites.append(tsite)
        sites.sort(key=lambda s: (s.lineno, s.col))
        self.calls[fn.qname] = sites
        for site in sites:
            if site.callee is not None:
                self.callers.setdefault(site.callee, []).append(
                    (fn.qname, site)
                )

    def _own_nodes(self, func_node: ast.AST) -> Iterable[ast.AST]:
        """Walk a function's body without descending into nested
        function/class definitions (those are separate graph nodes)."""
        stack: List[ast.AST] = list(ast.iter_child_nodes(func_node))[::-1]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Lambda)):
                continue
            stack.extend(list(ast.iter_child_nodes(node))[::-1])

    def _classify(self, site: CallSite, fn: FunctionInfo,
                  mod: ModuleInfo, cls: Optional[ClassInfo]) -> None:
        callee, ctor = self._resolve_chain(site.chain, fn, mod, cls)
        site.callee, site.ctor_class = callee, ctor
        if ctor is not None:
            site.kind = "constructor"
        if len(site.chain) >= 2:
            site.receiver_type = self._chain_type(
                site.chain[:-1], fn, mod, cls
            )

    def _dispatch_target(self, call: ast.Call, chain: Tuple[str, ...],
                         fn: FunctionInfo, mod: ModuleInfo,
                         cls: Optional[ClassInfo]) -> Optional[ast.AST]:
        """The function expression a thread-dispatch call ships off the
        event loop, or ``None``: ``run_in_executor(executor, FN, ...)``,
        ``asyncio.to_thread(FN, ...)``, ``executor.submit(FN, ...)``."""
        if not chain:
            return None
        if chain[-1] == "run_in_executor" and len(call.args) >= 2:
            return call.args[1]
        if chain[-1] == "to_thread" and call.args:
            return call.args[0]
        if chain[-1] == "submit" and len(chain) >= 2 and call.args:
            recv = self._chain_type(chain[:-1], fn, mod, cls)
            if recv in EXECUTOR_CLASSES:
                return call.args[0]
        return None

    # -- type/symbol machinery ----------------------------------------
    def _local_types(self, fn: FunctionInfo, mod: ModuleInfo,
                     cls: Optional[ClassInfo]) -> Dict[str, str]:
        """Forward pass over the function body: parameter annotations,
        ``v = Expr``, ``with Expr as v`` — enough for the receivers the
        rules care about."""
        types: Dict[str, str] = {}
        args = fn.node.args
        for param in args.posonlyargs + args.args + args.kwonlyargs:
            if param.annotation is not None:
                typ = self._annotation_type(param.annotation, mod)
                if typ is not None:
                    types[param.arg] = typ
        for node in self._own_nodes(fn.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                typ = self._expr_type(node.value, mod, types, cls)
                if typ is not None:
                    types[node.targets[0].id] = typ
                else:
                    types.pop(node.targets[0].id, None)
            elif isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name):
                typ = None
                if node.value is not None:
                    typ = self._expr_type(node.value, mod, types, cls)
                if typ is None:
                    typ = self._annotation_type(node.annotation, mod)
                if typ is not None:
                    types[node.target.id] = typ
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(item.optional_vars, ast.Name):
                        typ = self._expr_type(
                            item.context_expr, mod, types, cls
                        )
                        if typ is not None:
                            types[item.optional_vars.id] = typ
        return types

    def _annotation_type(self, ann: ast.AST, mod: ModuleInfo) -> Optional[str]:
        """``ServiceCore`` / ``Optional[ServiceCore]`` /
        ``"ServiceCore"`` → resolved class qname (or executor name)."""
        if isinstance(ann, ast.Subscript):
            # Optional[X] / List[X]: look inside
            return self._annotation_type(ann.slice, mod)
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            name = ann.value.split(".")[-1].strip()
            return self._named_type(name, mod)
        if isinstance(ann, ast.Name):
            return self._named_type(ann.id, mod)
        if isinstance(ann, ast.Attribute):
            chain = attr_chain(ann)
            if chain:
                return self._named_type(chain[-1], mod,
                                        dotted=".".join(chain))
        return None

    def _named_type(self, name: str, mod: ModuleInfo,
                    dotted: Optional[str] = None) -> Optional[str]:
        if name in EXECUTOR_CLASSES:
            return name
        target = mod.imports.get(name, dotted or name)
        if target in self.classes:
            return target
        # same-module class referenced by bare name
        local = f"{mod.source.module}.{name}"
        if local in self.classes:
            return local
        return None

    def _expr_type(self, expr: ast.AST, mod: ModuleInfo,
                   locals_: Dict[str, str],
                   cls: Optional[ClassInfo]) -> Optional[str]:
        if isinstance(expr, ast.Call):
            chain = attr_chain(expr.func)
            if chain == ("open",):
                return FILE_TYPE
            if chain:
                if chain[-1] in EXECUTOR_CLASSES:
                    return chain[-1]
                resolved = self._lookup_symbol(chain, mod)
                if resolved in self.classes:
                    return resolved
            return None
        if isinstance(expr, ast.Name):
            if expr.id in locals_:
                return locals_[expr.id]
            return None
        if isinstance(expr, ast.Attribute):
            chain = attr_chain(expr)
            if chain:
                return self._chain_type_with(chain, mod, locals_, cls)
            return None
        if isinstance(expr, ast.IfExp):
            return (self._expr_type(expr.body, mod, locals_, cls)
                    or self._expr_type(expr.orelse, mod, locals_, cls))
        if isinstance(expr, ast.BoolOp):
            for value in expr.values:
                typ = self._expr_type(value, mod, locals_, cls)
                if typ is not None:
                    return typ
        if isinstance(expr, ast.Await):
            return self._expr_type(expr.value, mod, locals_, cls)
        return None

    def _lookup_symbol(self, chain: Tuple[str, ...],
                       mod: ModuleInfo) -> Optional[str]:
        """Resolve a dotted name through the module's imports to a
        known class/function qname (``ServiceCore`` → class;
        ``wal.WriteAheadLog`` via ``import ... as wal`` → class)."""
        candidates = [mod.dotted(chain),
                      f"{mod.source.module}." + ".".join(chain)]
        for cand in candidates:
            if cand in self.classes or cand in self.functions:
                return cand
        return None

    def _chain_type(self, chain: Tuple[str, ...], fn: FunctionInfo,
                    mod: ModuleInfo,
                    cls: Optional[ClassInfo]) -> Optional[str]:
        return self._chain_type_with(chain, mod, fn.local_types, cls)

    def _chain_type_with(self, chain: Tuple[str, ...], mod: ModuleInfo,
                         locals_: Dict[str, str],
                         cls: Optional[ClassInfo]) -> Optional[str]:
        """The type of ``a.b.c`` (a value chain, no trailing call):
        root from ``self``/locals, then attribute-type hops."""
        if not chain:
            return None
        if chain[0] == "self" and cls is not None:
            cur: Optional[str] = cls.qname
            rest = chain[1:]
        elif chain[0] in locals_:
            cur = locals_[chain[0]]
            rest = chain[1:]
        else:
            return None
        for attr in rest:
            info = self.classes.get(cur) if cur else None
            if info is None:
                return None
            cur = info.attr_types.get(attr)
            if cur is None:
                return None
        return cur

    def _resolve_chain(
        self, chain: Tuple[str, ...], fn: FunctionInfo, mod: ModuleInfo,
        cls: Optional[ClassInfo],
    ) -> Tuple[Optional[str], Optional[str]]:
        """Resolve a called chain to ``(function qname, ctor class)``
        (one of the two, or neither)."""
        if not chain:
            return None, None
        # method on self / a typed receiver: type the receiver prefix,
        # then look the final segment up in its method table
        if len(chain) >= 2:
            recv = self._chain_type(chain[:-1], fn, mod, cls)
            if recv is not None:
                info = self.classes.get(recv)
                if info is not None:
                    target = info.methods.get(chain[-1])
                    if target is not None:
                        return target, None
                return None, None
        resolved = self._lookup_symbol(chain, mod)
        if resolved is None:
            return None, None
        if resolved in self.classes:
            init = self.classes[resolved].methods.get("__init__")
            return init, resolved
        return resolved, None
