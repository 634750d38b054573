"""The domain rules enforcing the repo's simulation invariants.

Each rule is an AST check registered under a stable ID. Rule IDs are
grouped by invariant family:

- ``DET``: determinism (entropy, wall clock, iteration order)
- ``UNI``: unit hygiene (time/size literals through ``repro.units``)
- ``ERR``: error taxonomy (``repro.errors`` classes, narrow excepts)
- ``SIM``: simulated-time purity (no blocking I/O in sim processes)
- ``API``: typed public surface (annotations on public functions)
- ``OBS``: observability (telemetry flows through the Recorder facade,
  and no result reads it back)
- ``SWP``: sweep orchestration (artifact drivers fan out through the
  sweep engine, never the raw simulation runner)
- ``CAM``: campus sharding (cross-shard client state moves only
  through the HandoffCoordinator)

Suppress a finding in place with ``# repro: noqa[RULE] -- reason``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.registry import ModuleContext, RawFinding, rule
from repro.analysis.findings import Severity

# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted name of an expression (``a.b.c`` or ``''``)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _is_set_annotation(annotation: ast.AST | None) -> bool:
    """True if an annotation expression denotes a set-like type."""
    if annotation is None:
        return False
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    name = _dotted(target)
    return name.split(".")[-1] in {
        "set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet",
    }


def _is_set_expr(value: ast.AST | None) -> bool:
    """True if an expression syntactically constructs a set."""
    if isinstance(value, ast.Set):
        return True
    if isinstance(value, ast.SetComp):
        return True
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        return value.func.id in {"set", "frozenset"}
    return False


# ---------------------------------------------------------------------------
# DET001 — ambient entropy
# ---------------------------------------------------------------------------

_ENTROPY_MODULES = {"random", "secrets"}
_ENTROPY_UUID = {"uuid1", "uuid4"}
_ENTROPY_NUMPY_CALLS = {
    "default_rng", "seed", "random", "randint", "choice", "shuffle",
    "permutation", "normal", "uniform",
}


@rule(
    "DET001",
    "no ambient entropy",
    "All randomness must flow through named RngStreams seeded from the "
    "experiment seed; module-level entropy breaks (plan, seed) replay.",
)
def det001_no_ambient_entropy(ctx: ModuleContext) -> Iterator[RawFinding]:
    if ctx.module_path in ctx.config.entropy_allowed:
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in _ENTROPY_MODULES:
                    yield (
                        node.lineno, node.col_offset,
                        f"import of entropy module {alias.name!r}; draw from "
                        "a named RngStreams stream (repro.sim.random) instead",
                    )
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[0]
            if module in _ENTROPY_MODULES:
                yield (
                    node.lineno, node.col_offset,
                    f"import from entropy module {node.module!r}; use "
                    "RngStreams (repro.sim.random) instead",
                )
            elif module == "uuid":
                for alias in node.names:
                    if alias.name in _ENTROPY_UUID:
                        yield (
                            node.lineno, node.col_offset,
                            f"import of non-deterministic uuid.{alias.name}; "
                            "derive ids from the experiment seed instead",
                        )
        elif isinstance(node, ast.Call):
            name = _dotted(node.func)
            tail = name.split(".")[-1]
            if name.startswith("uuid.") and tail in _ENTROPY_UUID:
                yield (
                    node.lineno, node.col_offset,
                    f"call to non-deterministic {name}(); derive ids from "
                    "the experiment seed instead",
                )
            elif ".random." in f".{name}" and tail in _ENTROPY_NUMPY_CALLS:
                yield (
                    node.lineno, node.col_offset,
                    f"direct numpy entropy call {name}(); request a stream "
                    "from RngStreams so draws replay from the seed",
                )


# ---------------------------------------------------------------------------
# DET002 — wall-clock reads in simulated-time code
# ---------------------------------------------------------------------------

_WALLCLOCK_ATTRS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
    "datetime.datetime.now", "datetime.datetime.utcnow", "datetime.date.today",
}
_WALLCLOCK_FROM_TIME = {
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time",
}


@rule(
    "DET002",
    "no wall clock in sim code",
    "Simulation components must read time from the simulator clock; "
    "wall-clock reads make traces depend on host speed.",
)
def det002_no_wall_clock(ctx: ModuleContext) -> Iterator[RawFinding]:
    if not ctx.in_scope(ctx.config.sim_scope):
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "") == "time":
            for alias in node.names:
                if alias.name in _WALLCLOCK_FROM_TIME:
                    yield (
                        node.lineno, node.col_offset,
                        f"import of wall-clock time.{alias.name} in sim "
                        "code; use the simulator clock (env.now) instead",
                    )
        elif isinstance(node, ast.Attribute):
            name = _dotted(node)
            if name in _WALLCLOCK_ATTRS:
                yield (
                    node.lineno, node.col_offset,
                    f"wall-clock read {name} in sim code; use the "
                    "simulator clock (env.now) instead",
                )


# ---------------------------------------------------------------------------
# DET003 — iteration over unordered sets
# ---------------------------------------------------------------------------


class _SetNames(ast.NodeVisitor):
    """Collects names/attributes that syntactically hold set objects."""

    def __init__(self) -> None:
        self.names: set[str] = set()
        self.attrs: set[str] = set()

    def _record_target(self, target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self.names.add(target.id)
        elif isinstance(target, ast.Attribute):
            self.attrs.add(target.attr)

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_set_expr(node.value):
            for target in node.targets:
                self._record_target(target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if _is_set_annotation(node.annotation):
            self._record_target(node.target)
        self.generic_visit(node)

    def visit_arg(self, node: ast.arg) -> None:
        if _is_set_annotation(node.annotation):
            self.names.add(node.arg)
        self.generic_visit(node)


@rule(
    "DET003",
    "no ordered iteration over sets",
    "Set iteration order depends on insertion history and hash seeds; "
    "when it reaches scheduling decisions the schedule stops replaying.",
)
def det003_set_iteration(ctx: ModuleContext) -> Iterator[RawFinding]:
    if not ctx.in_scope(ctx.config.order_scope):
        return
    declared = _SetNames()
    declared.visit(ctx.tree)

    def is_set_like(expr: ast.AST) -> bool:
        if _is_set_expr(expr):
            return True
        if isinstance(expr, ast.Name) and expr.id in declared.names:
            return True
        if isinstance(expr, ast.Attribute) and expr.attr in declared.attrs:
            return True
        return False

    def flag(expr: ast.AST) -> Iterator[RawFinding]:
        if is_set_like(expr):
            yield (
                expr.lineno, expr.col_offset,
                f"iteration over set {_dotted(expr) or 'literal'!s}; wrap "
                "in sorted(...) so order is deterministic",
            )

    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield from flag(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                yield from flag(gen.iter)


# ---------------------------------------------------------------------------
# UNI001 — magic time/size literals
# ---------------------------------------------------------------------------

_TIME_SUFFIXES = ("_s",)
_SIZE_SUFFIXES = ("_bytes",)


def _suggest_time(value: float) -> str:
    # Prefer us() below one millisecond, but only when the round trip
    # is bit-exact so adopting the suggestion cannot perturb traces.
    if value < 1e-3 and (value * 1e6) * 1e-6 == value:
        return f"us({value * 1e6:g})"
    return f"ms({value * 1e3:g})"


def _suggest_size(value: int) -> str:
    if value % (1024 * 1024) == 0:
        return f"mib({value // (1024 * 1024)})"
    return f"kib({value / 1024:g})"


def _literal_issue(name: str, value: ast.AST) -> str | None:
    lowered = name.lower()
    if not isinstance(value, ast.Constant):
        return None
    const = value.value
    if lowered.endswith(_TIME_SUFFIXES):
        if isinstance(const, float) and 0.0 < const < 1.0:
            return (
                f"magic sub-second literal {const!r} for {name!r}; write "
                f"units.{_suggest_time(const)} so the unit is explicit"
            )
    if lowered.endswith(_SIZE_SUFFIXES):
        if (
            isinstance(const, int)
            and not isinstance(const, bool)
            and const >= 1024
            and const % 1024 == 0
        ):
            return (
                f"magic size literal {const!r} for {name!r}; write "
                f"units.{_suggest_size(const)} so the unit is explicit"
            )
    return None


@rule(
    "UNI001",
    "time/size literals through repro.units",
    "Bare sub-second floats and byte counts hide their unit; ms()/us()/"
    "kib() make unit mistakes grep-able and reviewable.",
    severity=Severity.WARNING,
)
def uni001_magic_literals(ctx: ModuleContext) -> Iterator[RawFinding]:
    if not ctx.in_scope(ctx.config.units_scope):
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                name = _dotted(target)
                if not name:
                    continue
                message = _literal_issue(name.split(".")[-1], node.value)
                if message:
                    yield (node.value.lineno, node.value.col_offset, message)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            name = _dotted(node.target)
            message = _literal_issue(name.split(".")[-1], node.value)
            if message:
                yield (node.value.lineno, node.value.col_offset, message)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            positional = arguments.posonlyargs + arguments.args
            for arg, default in zip(
                reversed(positional), reversed(arguments.defaults)
            ):
                message = _literal_issue(arg.arg, default)
                if message:
                    yield (default.lineno, default.col_offset, message)
            for arg, kw_default in zip(arguments.kwonlyargs, arguments.kw_defaults):
                if kw_default is None:
                    continue
                message = _literal_issue(arg.arg, kw_default)
                if message:
                    yield (kw_default.lineno, kw_default.col_offset, message)
        elif isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg is None:
                    continue
                message = _literal_issue(keyword.arg, keyword.value)
                if message:
                    yield (
                        keyword.value.lineno, keyword.value.col_offset, message
                    )


# ---------------------------------------------------------------------------
# ERR001 — raises outside the taxonomy
# ---------------------------------------------------------------------------

_GENERIC_RAISES = {"Exception", "ValueError", "RuntimeError"}


@rule(
    "ERR001",
    "raise taxonomy errors",
    "Library failures must derive from ReproError so callers can catch "
    "them without masking programming errors.",
)
def err001_taxonomy_raises(ctx: ModuleContext) -> Iterator[RawFinding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        name = _dotted(exc)
        if name in _GENERIC_RAISES:
            yield (
                node.lineno, node.col_offset,
                f"raise of generic {name}; raise a repro.errors class "
                "(e.g. ConfigurationError) so callers can catch precisely",
            )


# ---------------------------------------------------------------------------
# ERR002 — over-broad or mistargeted excepts
# ---------------------------------------------------------------------------

_BROAD_EXCEPTS = {"Exception", "BaseException"}
_VISIBLE_HANDLER_CALLS = (
    "log", "warn", "error", "debug", "info", "exception", "print", "fail",
)


def _handler_is_visible(handler: ast.ExceptHandler) -> bool:
    """True if the handler re-raises or visibly records the exception."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            tail = _dotted(node.func).split(".")[-1].lower()
            if tail.startswith(_VISIBLE_HANDLER_CALLS):
                return True
    return False


def _exception_names(handler: ast.ExceptHandler) -> list[str]:
    if handler.type is None:
        return [""]
    if isinstance(handler.type, ast.Tuple):
        return [_dotted(elt) for elt in handler.type.elts]
    return [_dotted(handler.type)]


@rule(
    "ERR002",
    "no silent broad excepts",
    "except Exception (or broader) that neither re-raises nor logs "
    "swallows taxonomy errors and hides broken invariants.",
)
def err002_broad_excepts(ctx: ModuleContext) -> Iterator[RawFinding]:
    sim_scoped = ctx.in_scope(ctx.config.sim_scope)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Try):
            continue
        for handler in node.handlers:
            names = _exception_names(handler)
            for name in names:
                if name == "" or name.split(".")[-1] in _BROAD_EXCEPTS:
                    if not _handler_is_visible(handler):
                        shown = name or "bare except"
                        yield (
                            handler.lineno, handler.col_offset,
                            f"broad {shown!s} swallows errors silently; "
                            "catch ReproError (or narrower) or re-raise/log",
                        )
                    break
                if name == "ConnectionError" and sim_scoped:
                    yield (
                        handler.lineno, handler.col_offset,
                        "catch of builtin ConnectionError in sim code; the "
                        "simulated stack raises repro.errors.ConnectionError_",
                    )


# ---------------------------------------------------------------------------
# SIM001 — blocking I/O inside simulated time
# ---------------------------------------------------------------------------

_BLOCKING_MODULES = {"socket", "subprocess", "requests", "urllib"}
_BLOCKING_BARE_CALLS = {"open", "input"}
_BLOCKING_ATTRS = {"time.sleep", "socket.socket", "subprocess.run"}


@rule(
    "SIM001",
    "no blocking I/O in sim processes",
    "Sim processes advance virtual time by yielding events; real "
    "sockets, files, and sleeps stall the event loop and leak host state.",
)
def sim001_blocking_io(ctx: ModuleContext) -> Iterator[RawFinding]:
    if not ctx.in_scope(ctx.config.sim_scope):
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in _BLOCKING_MODULES:
                    yield (
                        node.lineno, node.col_offset,
                        f"import of blocking module {alias.name!r} in sim "
                        "code; use sim primitives (net sockets, timeouts)",
                    )
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if root in _BLOCKING_MODULES:
                yield (
                    node.lineno, node.col_offset,
                    f"import from blocking module {node.module!r} in sim "
                    "code; use sim primitives (net sockets, timeouts)",
                )
        elif isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in _BLOCKING_BARE_CALLS
            ):
                yield (
                    node.lineno, node.col_offset,
                    f"blocking builtin {node.func.id}() in sim code; do "
                    "file/console I/O outside the simulation loop",
                )
            else:
                name = _dotted(node.func)
                if name in _BLOCKING_ATTRS:
                    yield (
                        node.lineno, node.col_offset,
                        f"blocking call {name}() in sim code; yield a sim "
                        "timeout/event instead",
                    )


# ---------------------------------------------------------------------------
# API001 — typed public surface
# ---------------------------------------------------------------------------


def _missing_annotations(
    node: ast.FunctionDef | ast.AsyncFunctionDef, is_method: bool
) -> list[str]:
    missing: list[str] = []
    arguments = node.args
    positional = arguments.posonlyargs + arguments.args
    for index, arg in enumerate(positional):
        if is_method and index == 0 and arg.arg in {"self", "cls"}:
            continue
        if arg.annotation is None:
            missing.append(arg.arg)
    for arg in arguments.kwonlyargs:
        if arg.annotation is None:
            missing.append(arg.arg)
    if arguments.vararg is not None and arguments.vararg.annotation is None:
        missing.append("*" + arguments.vararg.arg)
    if arguments.kwarg is not None and arguments.kwarg.annotation is None:
        missing.append("**" + arguments.kwarg.arg)
    if node.returns is None and node.name != "__init__":
        missing.append("return")
    return missing


@rule(
    "API001",
    "annotate public API",
    "The mypy --strict gate on core/energy only holds if public "
    "functions declare parameter and return types.",
)
def api001_public_annotations(ctx: ModuleContext) -> Iterator[RawFinding]:
    if not ctx.in_scope(ctx.config.api_scope):
        return

    def walk_body(
        body: list[ast.stmt], inside_class: bool
    ) -> Iterator[RawFinding]:
        for statement in body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = statement.name
                public = not name.startswith("_") or name == "__init__"
                if public:
                    missing = _missing_annotations(statement, inside_class)
                    if missing:
                        yield (
                            statement.lineno, statement.col_offset,
                            f"public function {name!r} missing type "
                            f"annotations: {', '.join(missing)}",
                        )
            elif isinstance(statement, ast.ClassDef):
                if not statement.name.startswith("_"):
                    yield from walk_body(statement.body, inside_class=True)

    yield from walk_body(ctx.tree.body, inside_class=False)


# ---------------------------------------------------------------------------
# OBS001 / OBS002 — one instrumentation path, written only
# ---------------------------------------------------------------------------


def _trace_calls(
    ctx: ModuleContext, methods: frozenset[str]
) -> Iterator[tuple[ast.Call, str]]:
    """Calls of ``methods`` on a ``trace``/``_trace`` base outside
    ``obs_allowed``, with the callee's dotted name."""
    if ctx.in_scope(ctx.config.obs_allowed):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in methods):
            continue
        base = _dotted(func.value)
        if base.split(".")[-1] in {"trace", "_trace"}:
            yield node, f"{base}.{func.attr}"


@rule(
    "OBS001",
    "telemetry through the Recorder facade",
    "Components must emit telemetry via repro.obs.Recorder "
    "(event/span/inc/observe); direct TraceRecorder.record calls "
    "bypass metrics and spans and fork the observability stream.",
)
def obs001_recorder_facade(ctx: ModuleContext) -> Iterator[RawFinding]:
    for node, callee in _trace_calls(ctx, frozenset({"record"})):
        yield (
            node.lineno, node.col_offset,
            f"direct {callee}(...) bypasses the obs facade; use "
            "Recorder.event() (repro.obs) so metrics and spans stay "
            "in one stream",
        )


@rule(
    "OBS002",
    "results never read the trace",
    "Trace rows exist only under some obs modes (none under 'metrics' "
    "or 'off'), so code that queries them computes results that change "
    "with the obs mode. Read the component's own record instead "
    "(WirelessMedium.misses, MonitoringStation.frames, counters).",
)
def obs002_trace_is_write_only(ctx: ModuleContext) -> Iterator[RawFinding]:
    for node, callee in _trace_calls(
        ctx, frozenset({"query", "count", "all"})
    ):
        yield (
            node.lineno, node.col_offset,
            f"{callee}(...) reads trace rows, which the "
            "'metrics' and 'off' obs modes never record; read the "
            "component's own record instead",
        )


# ---------------------------------------------------------------------------
# SWP001 — artifact drivers go through the sweep engine
# ---------------------------------------------------------------------------


@rule(
    "SWP001",
    "artifact drivers use the sweep engine",
    "Figure/table/baseline/report drivers must expand their runs into a "
    "SweepSpec and execute it via SweepEngine.run; a direct "
    "run_experiment call forfeits result caching, parallel fan-out, and "
    "per-run failure isolation for that artifact.",
)
def swp001_sweep_engine_only(ctx: ModuleContext) -> Iterator[RawFinding]:
    if not ctx.in_scope(ctx.config.sweep_scope):
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "run_experiment":
                    yield (
                        node.lineno, node.col_offset,
                        "driver module imports run_experiment; build a "
                        "SweepSpec and execute it through SweepEngine.run "
                        "(repro.sweep) instead",
                    )
        elif isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name.split(".")[-1] == "run_experiment":
                yield (
                    node.lineno, node.col_offset,
                    f"direct {name or 'run_experiment'}() call bypasses the "
                    "sweep engine; drivers must go through "
                    "SweepEngine.run(SweepSpec...) so caching and fan-out "
                    "apply uniformly",
                )


# ---------------------------------------------------------------------------
# CAM: campus sharding
# ---------------------------------------------------------------------------

#: The shard-migration primitives; calling any of them outside the
#: coordinator can split a client across two shards (double slots) or
#: strand it in none.
_HANDOFF_PRIMITIVES = frozenset(
    {"release_client", "adopt_client", "forget_client"}
)


@rule(
    "CAM001",
    "cross-shard state moves only through HandoffCoordinator",
    "release_client/adopt_client/forget_client re-partition a client "
    "between proxy shards; invoked anywhere but the HandoffCoordinator "
    "they can leave a client in two shards at once (double-granted "
    "slots) or in none (stranded backlog). Route the migration through "
    "HandoffCoordinator.handoff instead.",
)
def cam001_handoff_coordinator_only(ctx: ModuleContext) -> Iterator[RawFinding]:
    if ctx.in_scope(ctx.config.campus_handoff_allowed):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        tail = name.split(".")[-1]
        if tail in _HANDOFF_PRIMITIVES:
            yield (
                node.lineno, node.col_offset,
                f"{name or tail}() migrates shard state outside the "
                "HandoffCoordinator; cross-shard moves must go through "
                "HandoffCoordinator.handoff so the one-shard-per-client "
                "invariant holds",
            )
