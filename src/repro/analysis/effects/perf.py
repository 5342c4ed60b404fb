"""Perf-smell rules for the frame-loop hot paths.

These rules flag the smells that slow the per-frame hot paths:

``perf/scalar-predict-in-loop`` (warning)
    A loop calls ``x.predict(...)`` per element on a loop-invariant
    receiver whose class also implements ``predict_series`` -- the
    batch walk-forward equivalent.  Only fires when the receiver's
    class resolves statically (annotation or a ``x = Cls(...)`` /
    ``x = Cls.fit(...)`` assignment in the same function), so
    predictors without a batch path are never flagged.
``perf/invariant-attr-in-loop`` (warning)
    Loop-invariant work repeated per iteration: a metric-instrument
    lookup with constant arguments (``m.counter("frames")`` resolves
    the same instrument every frame) or a deep attribute chain
    (``self.sim.cost_model.scale``) re-walked per iteration.  Both
    hoist verbatim above the loop.  Instrument lookups are also
    flagged in functions *called from* a hot-module loop -- the
    per-frame helpers the engine delegates to.
``perf/alloc-in-hot-loop`` (info)
    A container literal whose elements are all constants, allocated
    inside a hot-module loop; the identical object could be built
    once outside.
``perf/frame-object-churn`` (warning)
    A loop appends a freshly constructed project dataclass to a plain
    list -- one record object per frame.  The engine and profiler keep
    per-frame state in preallocated structured rows
    (:class:`repro.runtime.frametable.FrameTable`,
    ``TraceSet.add_frame``); building an object per frame resurrects
    the allocation churn those stores removed.  Scoped to the modules
    that *have* a columnar store to write into
    (``repro.runtime.engine``, ``repro.profiling``); the golden
    scalar paths elsewhere (e.g. ``repro.hw``'s per-task timings)
    stay un-nagged.

"Hot modules" are the per-frame layers: ``repro.runtime``,
``repro.hw``, ``repro.profiling`` and ``repro.core``.  The predict
rule runs repo-wide (a slow evaluation loop in ``experiments`` costs
wall-clock time too).
"""

from __future__ import annotations

import ast

from repro.analysis.dataflow.symbols import FunctionInfo, SymbolTable
from repro.analysis.effects.infer import is_exempt_module
from repro.analysis.findings import Finding, Severity

__all__ = ["HOT_MODULE_PREFIXES", "check_perf"]

#: Module prefixes whose loops are per-frame hot paths.
HOT_MODULE_PREFIXES = ("repro.runtime", "repro.hw", "repro.profiling", "repro.core")

#: Modules with a columnar frame store: per-frame record objects are
#: churn *here* because the structured-row alternative exists.
_CHURN_MODULE_PREFIXES = ("repro.runtime.engine", "repro.profiling")

#: Metric-registry lookup basenames (repro.obs.metrics instruments).
_INSTRUMENT_LOOKUPS = frozenset({"counter", "histogram", "gauge"})

_Loop = (ast.For, ast.AsyncFor, ast.While)


def _is_hot(modname: str) -> bool:
    return modname.startswith(HOT_MODULE_PREFIXES)


def _dotted_chain(expr: ast.expr) -> str | None:
    """Render a pure Name/Attribute chain (``a.b.c``), else ``None``."""
    parts: list[str] = []
    cur = expr
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    parts.append(cur.id)
    return ".".join(reversed(parts))


def _assigned_names(node: ast.AST) -> set[str]:
    """Every name (re)bound anywhere inside ``node``."""
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, (ast.Store, ast.Del)):
            names.add(sub.id)
    return names


def _constant_args(call: ast.Call) -> bool:
    if not call.args and not call.keywords:
        return False
    return all(isinstance(a, ast.Constant) for a in call.args) and all(
        kw.arg is not None and isinstance(kw.value, ast.Constant)
        for kw in call.keywords
    )


def _local_lists(fn: FunctionInfo) -> set[str]:
    """Names bound to a plain list somewhere in the function (list
    literal, comprehension, ``list(...)`` call, or ``list`` annotation)."""
    out: set[str] = set()
    for node in ast.walk(fn.node):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            value = node.value
            if isinstance(value, (ast.List, ast.ListComp)) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "list"
            ):
                out.add(node.targets[0].id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            ann = node.annotation
            base = ann.value if isinstance(ann, ast.Subscript) else ann
            if isinstance(base, ast.Name) and base.id in ("list", "List"):
                out.add(node.target.id)
    return out


def _is_dataclass_qual(table: SymbolTable, cls_qual: str) -> bool:
    """True when ``cls_qual`` is a ``@dataclass``-decorated project class."""
    modname, _, clsname = cls_qual.rpartition(".")
    mod = table.modules.get(modname)
    if mod is None:
        return False
    for stmt in mod.tree.body:
        if not (isinstance(stmt, ast.ClassDef) and stmt.name == clsname):
            continue
        for dec in stmt.decorator_list:
            base = dec.func if isinstance(dec, ast.Call) else dec
            dotted = mod.resolve_dotted(base)
            if dotted in ("dataclass", "dataclasses.dataclass"):
                return True
    return False


def _local_classes(fn: FunctionInfo, table: SymbolTable) -> dict[str, str]:
    """Local name -> class qualname, from annotations and constructor
    or ``Cls.fit(...)`` assignments in the function body."""
    mod = fn.module
    out: dict[str, str] = {}

    def resolve_cls(expr: ast.expr) -> str | None:
        dotted = mod.resolve_dotted(expr)
        if dotted is None:
            return None
        if dotted in table.class_methods:
            return dotted
        qualified = f"{mod.modname}.{dotted}"
        return qualified if qualified in table.class_methods else None

    a = fn.node.args
    for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs):
        if arg.annotation is not None:
            cls = resolve_cls(arg.annotation)
            if cls is not None:
                out[arg.arg] = cls
    for node in ast.walk(fn.node):
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            cls = resolve_cls(node.annotation)
            if cls is not None:
                out[node.target.id] = cls
        elif (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
        ):
            func = node.value.func
            target: ast.expr | None = None
            if isinstance(func, ast.Attribute) and func.attr in (
                "fit",
                "from_dict",
            ):
                target = func.value
            elif isinstance(func, (ast.Name, ast.Attribute)):
                target = func
            if target is not None:
                cls = resolve_cls(target)
                if cls is not None:
                    out[node.targets[0].id] = cls
    return out


class _FunctionScanner:
    """Scans one function's loops for the three smells."""

    def __init__(
        self, fn: FunctionInfo, table: SymbolTable, findings: list[Finding]
    ) -> None:
        self.fn = fn
        self.table = table
        self.findings = findings
        self.hot = _is_hot(fn.module.modname)
        self.churn = fn.module.modname.startswith(_CHURN_MODULE_PREFIXES)
        self._classes: dict[str, str] | None = None
        self._lists: set[str] | None = None
        # Attribute nodes that are an inner segment of a longer chain
        # or the callee of a call -- handled at the outer node.
        self._inner: set[int] = set()
        self._call_funcs: set[int] = set()
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Attribute):
                if isinstance(node.value, ast.Attribute):
                    self._inner.add(id(node.value))
            elif isinstance(node, ast.Call):
                for part in ast.walk(node.func):
                    if isinstance(part, ast.Attribute):
                        self._call_funcs.add(id(part))

    @property
    def classes(self) -> dict[str, str]:
        if self._classes is None:
            self._classes = _local_classes(self.fn, self.table)
        return self._classes

    @property
    def lists(self) -> set[str]:
        if self._lists is None:
            self._lists = _local_lists(self.fn)
        return self._lists

    def run(self) -> None:
        todo: list[ast.AST] = [self.fn.node]
        while todo:
            node = todo.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, _Loop):
                    self._scan_loop(child)
                    todo.append(child)  # nested loops get their own scan
                elif not isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ):
                    todo.append(child)

    def _emit(self, rule: str, severity: Severity, line: int, msg: str) -> None:
        self.findings.append(
            Finding(
                rule=rule,
                severity=severity,
                location=f"{self.fn.module.path}:{line}",
                message=msg,
            )
        )

    def _loop_body_nodes(self, loop: ast.AST) -> list[ast.AST]:
        """Nodes of ``loop`` excluding nested loops (scanned on their
        own, against their own assigned-name set)."""
        out: list[ast.AST] = []
        todo: list[ast.AST] = [loop]
        while todo:
            node = todo.pop()
            out.append(node)
            for child in ast.iter_child_nodes(node):
                if not isinstance(
                    child,
                    (*_Loop, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda),
                ):
                    todo.append(child)
        return out

    def _scan_loop(self, loop: ast.AST) -> None:
        assigned = _assigned_names(loop)
        seen: set[tuple[str, str]] = set()
        for node in self._loop_body_nodes(loop):
            if isinstance(node, ast.Call):
                self._predict_call(node, assigned, seen)
                if self.hot:
                    self._instrument_lookup(node, assigned, seen)
                if self.churn:
                    self._record_churn(node, seen)
            elif isinstance(node, ast.Attribute) and self.hot:
                self._deep_chain(node, assigned, seen)
            elif self.hot and isinstance(node, (ast.Dict, ast.List, ast.Set)):
                # Tuples are excluded: constant tuples are folded into
                # co_consts and unpacking assignments never build one.
                self._const_alloc(node, seen)

    def _predict_call(
        self, node: ast.Call, assigned: set[str], seen: set[tuple[str, str]]
    ) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "predict"):
            return
        if not isinstance(func.value, ast.Name) or func.value.id in assigned:
            return
        cls = self.classes.get(func.value.id)
        if cls is None:
            return
        methods = self.table.class_methods.get(cls, {})
        if "predict" not in methods or "predict_series" not in methods:
            return
        key = ("predict", f"{func.value.id}:{node.lineno}")
        if key in seen:
            return
        seen.add(key)
        self._emit(
            "perf/scalar-predict-in-loop",
            Severity.WARNING,
            node.lineno,
            (
                f"scalar {func.value.id}.predict() per loop iteration; "
                f"{cls} implements predict_series -- batch the walk-forward "
                "evaluation instead of calling predict per element"
            ),
        )

    def _instrument_lookup(
        self, node: ast.Call, assigned: set[str], seen: set[tuple[str, str]]
    ) -> None:
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in _INSTRUMENT_LOOKUPS
            and _constant_args(node)
        ):
            return
        chain = _dotted_chain(func)
        if chain is None or chain.split(".", 1)[0] in assigned:
            return
        key = ("instrument", chain + str(node.lineno))
        if key in seen:
            return
        seen.add(key)
        self._emit(
            "perf/invariant-attr-in-loop",
            Severity.WARNING,
            node.lineno,
            (
                f"{chain}(...) with constant arguments resolves the same "
                "instrument every iteration; hoist the instrument above "
                "the loop"
            ),
        )

    def _deep_chain(
        self, node: ast.Attribute, assigned: set[str], seen: set[tuple[str, str]]
    ) -> None:
        if (
            id(node) in self._inner
            or id(node) in self._call_funcs
            or not isinstance(node.ctx, ast.Load)
        ):
            return
        chain = _dotted_chain(node)
        if chain is None:
            return
        parts = chain.split(".")
        if len(parts) < 3 or parts[0] in assigned:  # root + >= 2 attributes
            return
        key = ("chain", chain)
        if key in seen:
            return
        seen.add(key)
        self._emit(
            "perf/invariant-attr-in-loop",
            Severity.WARNING,
            node.lineno,
            (
                f"attribute chain {chain} is loop-invariant (root "
                f"{parts[0]!r} is never rebound in the loop); hoist it to "
                "a local before the loop"
            ),
        )

    def _record_churn(self, node: ast.Call, seen: set[tuple[str, str]]) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "append"):
            return
        # Only plain lists count: an ``append`` on a columnar store
        # (TraceSet) or any other object is that type's own API.
        if not isinstance(func.value, ast.Name) or func.value.id not in self.lists:
            return
        if len(node.args) != 1 or node.keywords:
            return
        arg = node.args[0]
        if not isinstance(arg, ast.Call):
            return
        dotted = self.fn.module.resolve_dotted(arg.func)
        if dotted is None:
            return
        if dotted not in self.table.class_methods:
            dotted = f"{self.fn.module.modname}.{dotted}"
            if dotted not in self.table.class_methods:
                return
        if not _is_dataclass_qual(self.table, dotted):
            return
        cls = dotted.rpartition(".")[2]
        key = ("churn", f"{func.value.id}:{node.lineno}")
        if key in seen:
            return
        seen.add(key)
        self._emit(
            "perf/frame-object-churn",
            Severity.WARNING,
            node.lineno,
            (
                f"one {cls} object allocated and appended to "
                f"{func.value.id!r} per loop iteration; this module has "
                "columnar frame stores (FrameTable, TraceSet.add_frame) "
                "-- write structured rows instead of building a record "
                "object per frame"
            ),
        )

    def _const_alloc(self, node: ast.expr, seen: set[tuple[str, str]]) -> None:
        elts: list[ast.expr]
        if isinstance(node, ast.Dict):
            elts = [e for e in (*node.keys, *node.values) if e is not None]
        else:
            assert isinstance(node, (ast.List, ast.Set))
            elts = list(node.elts)
        if not elts or not all(isinstance(e, ast.Constant) for e in elts):
            return
        kind = type(node).__name__.lower()
        key = ("alloc", f"{kind}:{node.lineno}:{node.col_offset}")
        if key in seen:
            return
        seen.add(key)
        self._emit(
            "perf/alloc-in-hot-loop",
            Severity.INFO,
            node.lineno,
            (
                f"constant {kind} literal allocated every iteration of a "
                "hot-path loop; build it once outside the loop"
            ),
        )


def _loop_callees(table: SymbolTable) -> dict[str, int]:
    """Hot-module functions called from inside a hot-module loop,
    mapped to one representative call-site line."""
    out: dict[str, int] = {}
    for fn in table.functions.values():
        if not _is_hot(fn.module.modname):
            continue
        for loop in ast.walk(fn.node):
            if not isinstance(loop, _Loop):
                continue
            for node in ast.walk(loop):
                if not isinstance(node, ast.Call):
                    continue
                callee = table.resolve_callee(fn, node)
                if (
                    callee is not None
                    and _is_hot(callee.module.modname)
                    and not is_exempt_module(callee.module.modname)
                ):
                    out.setdefault(callee.qualname, node.lineno)
    return out


def _scan_hot_callee(
    fn: FunctionInfo, call_line: int, findings: list[Finding]
) -> None:
    """Instrument-lookup scan over a whole per-frame helper body."""
    seen: set[str] = set()
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in _INSTRUMENT_LOOKUPS
            and _constant_args(node)
        ):
            continue
        chain = _dotted_chain(func)
        if chain is None or chain + str(node.lineno) in seen:
            continue
        seen.add(chain + str(node.lineno))
        findings.append(
            Finding(
                rule="perf/invariant-attr-in-loop",
                severity=Severity.WARNING,
                location=f"{fn.module.path}:{node.lineno}",
                message=(
                    f"{chain}(...) with constant arguments runs per frame "
                    f"({fn.qualname} is called from a hot loop at line "
                    f"{call_line}); resolve the instrument once and reuse it"
                ),
            )
        )


def check_perf(table: SymbolTable) -> list[Finding]:
    """Run the perf-smell rules over every analyzed function."""
    findings: list[Finding] = []
    scanned_in_loop: set[str] = set()
    for qual in sorted(table.functions):
        fn = table.functions[qual]
        if is_exempt_module(fn.module.modname):
            continue
        _FunctionScanner(fn, table, findings).run()
        scanned_in_loop.add(qual)
    for qual, line in sorted(_loop_callees(table).items()):
        fn = table.functions[qual]
        # Loops inside the callee were already scanned above; this
        # pass covers straight-line per-frame bodies.
        if any(isinstance(n, _Loop) for n in ast.walk(fn.node)):
            continue
        _scan_hot_callee(fn, line, findings)
    return findings
