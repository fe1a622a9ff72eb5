"""AST analysis engine: file loading, scopes, findings, waivers, baseline.

The engine owns everything rule-agnostic:

* **Project model** — every analyzed file becomes a :class:`Module`
  (import alias map, top-level classes/functions, module-level lock
  objects); modules aggregate into a :class:`Project` with a
  cross-module class index and re-export-chasing name resolution.
* **Lock model** — :func:`sync_attrs` finds a class's synchronization
  primitives (``threading.Lock/RLock/Condition/(Bounded)Semaphore``
  constructors, with a name fallback for ``*lock*``/``*_cv``/``*_sem``
  attributes) and :func:`scan_function` walks a function body tracking
  the stack of held locks, emitting events checkers consume. Nested
  ``def``/``lambda`` bodies are *not* scanned under the enclosing
  lock — they execute later, not where they are defined.
* **Waivers** — ``# analyze: ignore[RULE1,RULE2] - justification``.
  On a code line the waiver covers that line; on a ``def``/``class``/
  ``with`` header (or a standalone comment directly above one) it
  covers the whole block. Waivers without a justification are findings
  themselves (ANA001), as are waivers that suppress nothing (ANA002).
* **Baseline** — a committed JSON map of finding fingerprints (stable
  across line-number drift: rule + path + symbol + message) to counts;
  baselined findings are reported but do not fail the run.

Checkers implement :class:`Checker` and are registered in
:func:`default_checkers`; :func:`run_analysis` ties it all together and
is what the ``repro analyze`` CLI calls.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Protocol, Sequence

from repro.errors import ReproError


class AnalysisError(ReproError):
    """A file could not be loaded or a baseline could not be parsed."""


# --------------------------------------------------------------------------
# Rule catalog
# --------------------------------------------------------------------------

#: rule id -> (severity, one-line description). The single source of truth
#: used by the CLI's rule listing and the API.md catalog.
RULES: dict[str, tuple[str, str]] = {
    "LOCK001": (
        "warning",
        "blocking call (sqlite/socket/subprocess/sleep/join/...) inside a "
        "`with <lock>:` body",
    ),
    "LOCK002": (
        "warning",
        "acquires a second lock while already holding one (feeds the "
        "lock-order graph)",
    ),
    "LOCK003": (
        "error",
        "cycle in the cross-module lock-acquisition-order graph "
        "(potential deadlock)",
    ),
    "GUARD001": (
        "error",
        "attribute written under a class lock is read/written elsewhere "
        "without the lock (torn read/write)",
    ),
    "REG001": (
        "error",
        "class registered in BACKENDS/ALGORITHMS/CLUSTERERS/SCORERS/STAGES "
        "is missing part of the protocol surface",
    ),
    "REG002": (
        "error",
        "capabilities() claims a capability whose required methods are not "
        "defined",
    ),
    "SCHEMA001": (
        "error",
        "to_dict does not serialize every constructor field",
    ),
    "SCHEMA002": (
        "error",
        "from_dict does not pass every constructor field",
    ),
    "SCHEMA003": (
        "warning",
        "to_dict writes / from_dict reads asymmetric payload keys",
    ),
    "ANA000": ("error", "file cannot be parsed / read"),
    "ANA001": ("error", "waiver comment has no justification text"),
    "ANA002": ("warning", "waiver comment suppresses no finding"),
}


# --------------------------------------------------------------------------
# Findings
# --------------------------------------------------------------------------


@dataclass
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # as-given (posix, repo-relative when run from the root)
    line: int
    message: str
    symbol: str = ""  # "Class.method" / "function" when known
    severity: str = ""  # filled from RULES when empty
    status: str = "active"  # "active" | "waived" | "baselined"
    waiver_reason: str = ""

    def __post_init__(self) -> None:
        if not self.severity:
            self.severity = RULES.get(self.rule, ("warning", ""))[0]

    @property
    def fingerprint(self) -> str:
        """Stable identity: survives line drift, not message/symbol edits."""
        raw = f"{self.rule}|{self.path}|{self.symbol}|{self.message}"
        return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
            "status": self.status,
            "fingerprint": self.fingerprint,
        }

    def render(self) -> str:
        sym = f" [{self.symbol}]" if self.symbol else ""
        return (
            f"{self.path}:{self.line}: {self.rule} {self.severity}: "
            f"{self.message}{sym}"
        )


# --------------------------------------------------------------------------
# Waivers
# --------------------------------------------------------------------------

_WAIVER_RE = re.compile(
    r"#\s*analyze:\s*ignore\[([A-Za-z0-9_,\s]+)\]\s*(?:[-:–—]\s*(\S.*))?$"
)


@dataclass
class Waiver:
    """One ``# analyze: ignore[...]`` comment and the lines it covers."""

    line: int
    rules: frozenset[str]
    reason: str
    span: tuple[int, int]  # inclusive line range the waiver applies to
    used: bool = False

    def covers(self, finding: Finding) -> bool:
        return (
            finding.rule in self.rules
            and self.span[0] <= finding.line <= self.span[1]
        )


def _block_spans(tree: ast.AST) -> list[tuple[int, int, int]]:
    """(header_start, header_end, block_end) for def/class/with nodes."""
    spans: list[tuple[int, int, int]] = []
    for node in ast.walk(tree):
        if isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.With, ast.AsyncWith),
        ):
            body = getattr(node, "body", None)
            if not body:
                continue
            header_end = body[0].lineno - 1
            spans.append((node.lineno, max(node.lineno, header_end), node.end_lineno or node.lineno))
    return spans


def _comment_lines(source: str, source_lines: Sequence[str]) -> list[tuple[int, str]]:
    """(lineno, comment_text) for real COMMENT tokens only.

    Tokenizing (rather than regex over raw lines) keeps waiver syntax
    quoted inside strings/docstrings — like the examples in this very
    package — from being parsed as live waivers.
    """
    import io
    import tokenize

    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return [
            (i, line) for i, line in enumerate(source_lines, start=1) if "#" in line
        ]
    return [
        (tok.start[0], tok.string)
        for tok in tokens
        if tok.type == tokenize.COMMENT
    ]


def parse_waivers(
    source_lines: Sequence[str], tree: ast.AST, source: str | None = None
) -> list[Waiver]:
    spans = _block_spans(tree)
    if source is None:
        source = "\n".join(source_lines)
    waivers: list[Waiver] = []
    for lineno, text in _comment_lines(source, source_lines):
        m = _WAIVER_RE.search(text)
        if m is None:
            continue
        rules = frozenset(
            r.strip() for r in m.group(1).split(",") if r.strip()
        )
        reason = (m.group(2) or "").strip()
        code_line = source_lines[lineno - 1] if lineno - 1 < len(source_lines) else ""
        standalone = code_line.lstrip().startswith("#")
        target = lineno
        if standalone:
            # Skip over the rest of the comment block (a justification may
            # span several lines) to the code line the waiver governs.
            target = lineno + 1
            while target <= len(source_lines):
                stripped = source_lines[target - 1].lstrip()
                if stripped and not stripped.startswith("#"):
                    break
                target += 1
        cover = (target, target)
        for start, header_end, end in spans:
            if start <= target <= header_end:
                cover = (start, end)
                break
        waivers.append(Waiver(line=lineno, rules=rules, reason=reason, span=cover))
    return waivers


# --------------------------------------------------------------------------
# Name / alias resolution helpers
# --------------------------------------------------------------------------


def dotted(node: ast.AST) -> str | None:
    """``a.b.c`` source text for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _collect_imports(
    body: Iterable[ast.stmt], module_name: str, is_package: bool
) -> dict[str, str]:
    """local name -> fully qualified dotted target."""
    aliases: dict[str, str] = {}
    for stmt in body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                aliases[local] = target
        elif isinstance(stmt, ast.ImportFrom):
            base = stmt.module or ""
            if stmt.level:
                pkg_parts = module_name.split(".")
                if not is_package:
                    pkg_parts = pkg_parts[:-1]
                drop = stmt.level - 1
                if drop:
                    pkg_parts = pkg_parts[: len(pkg_parts) - drop]
                base = ".".join(pkg_parts + ([stmt.module] if stmt.module else []))
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{base}.{alias.name}" if base else alias.name
    return aliases


# --------------------------------------------------------------------------
# Lock detection
# --------------------------------------------------------------------------

SYNC_CONSTRUCTORS = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}

#: name fallback: attributes that *look* like locks are treated as locks even
#: when the constructor is not resolvable (e.g. assigned from a factory).
_LOCK_NAME_RE = re.compile(r"lock|mutex|_cv$|_sem$")

#: methods used as `with self.m():` that acquire a lock by convention
#: (contextmanager wrappers like PooledSession.locked or
#: DocumentStore._transaction).
_LOCK_METHOD_RE = re.compile(r"^_?(locked|lock|transaction)$")


def _is_sync_constructor(call: ast.expr, aliases: Mapping[str, str]) -> bool:
    if not isinstance(call, ast.Call):
        return False
    name = dotted(call.func)
    if name is None:
        return False
    leaf = name.rsplit(".", 1)[-1]
    if leaf not in SYNC_CONSTRUCTORS:
        return False
    # `Lock()` via `from threading import Lock` — assume threading when the
    # name is bare and unshadowed; `threading.Lock()` via the module root.
    if "." not in name:
        return aliases.get(name, f"threading.{name}").startswith("threading")
    root = name.split(".", 1)[0]
    return aliases.get(root, root).startswith("threading")


def sync_attrs(cls: "ClassInfo") -> frozenset[str]:
    """Names of ``self.X`` attributes holding synchronization primitives."""
    found: set[str] = set()
    init = cls.methods.get("__init__")
    bodies = [init] if init is not None else []
    for meth in bodies:
        for node in ast.walk(meth):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attr = target.attr
                    if _is_sync_constructor(node.value, cls.module.aliases):
                        found.add(attr)
                    elif _LOCK_NAME_RE.search(attr) and isinstance(
                        node.value, (ast.Call, ast.Dict, ast.DictComp)
                    ):
                        found.add(attr)
    return frozenset(found)


@dataclass(frozen=True)
class LockRef:
    """A lock acquired by a ``with`` item, canonicalized for the graph."""

    id: str  # "pkg.mod.Class._lock", "pkg.mod.Class._transaction()", ...
    text: str  # source text of the context expression
    node: ast.expr = field(compare=False, hash=False, repr=False, default=None)  # type: ignore[assignment]


class LockResolver:
    """Classify ``with`` context expressions as lock acquisitions."""

    def __init__(
        self,
        module: "Module",
        cls: "ClassInfo | None" = None,
        func: ast.FunctionDef | ast.AsyncFunctionDef | None = None,
        project: "Project | None" = None,
    ) -> None:
        self.module = module
        self.cls = cls
        self.lock_attrs = cls.lock_attrs if cls is not None else frozenset()
        self.project = project
        self.param_types: dict[str, str] = {}
        if func is not None and project is not None:
            args = func.args
            for a in args.posonlyargs + args.args + args.kwonlyargs:
                if a.annotation is None:
                    continue
                ann = dotted(a.annotation)
                if ann is None:
                    continue
                resolved = project.resolve_class(module.qualify(ann))
                if resolved is not None:
                    self.param_types[a.arg] = resolved.qualname

    def _owner(self) -> str:
        return self.cls.qualname if self.cls is not None else self.module.name

    def classify(self, expr: ast.expr) -> LockRef | None:
        text = ast.unparse(expr)
        # with self._lock:  /  with self._build_locks[key]:
        target = expr
        suffix = ""
        if isinstance(target, ast.Subscript):
            target = target.value
            suffix = "[]"
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            attr = target.attr
            if attr in self.lock_attrs or _LOCK_NAME_RE.search(attr):
                return LockRef(f"{self._owner()}.{attr}{suffix}", text, expr)
            return None
        # with module_level_lock:
        if isinstance(target, ast.Name):
            if target.id in self.module.module_locks:
                return LockRef(f"{self.module.name}.{target.id}", text, expr)
            return None
        # with self._transaction(): / with store.transaction():
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            meth = expr.func.attr
            if not _LOCK_METHOD_RE.match(meth):
                return None
            recv = expr.func.value
            if isinstance(recv, ast.Name):
                if recv.id == "self":
                    return LockRef(f"{self._owner()}.{meth}()", text, expr)
                owner = self.param_types.get(recv.id)
                if owner is not None:
                    return LockRef(f"{owner}.{meth}()", text, expr)
                return LockRef(f"?{recv.id}.{meth}()", text, expr)
            recv_text = dotted(recv)
            return LockRef(f"?{recv_text or '<expr>'}.{meth}()", text, expr)
        return None


@dataclass(frozen=True)
class WithEvent:
    """A ``with`` statement that acquires locks, plus the locks already held."""

    node: ast.stmt
    acquired: tuple[LockRef, ...]
    held: tuple[LockRef, ...]


def scan_function(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    resolver: LockResolver,
    on_with: Callable[[WithEvent], None] | None = None,
    on_node: Callable[[ast.AST, tuple[LockRef, ...]], None] | None = None,
) -> None:
    """Walk ``func`` tracking held locks; emit events for checkers.

    ``on_node`` fires for every expression-level AST node reachable at
    runtime while the listed locks are held (including an empty tuple
    outside any lock). Nested function/lambda bodies are skipped.
    """

    def emit_exprs(node: ast.AST, held: tuple[LockRef, ...]) -> None:
        if on_node is None:
            return
        stack = [node]
        while stack:
            cur = stack.pop()
            if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            on_node(cur, held)
            stack.extend(ast.iter_child_nodes(cur))

    def visit_block(stmts: Sequence[ast.stmt], held: tuple[LockRef, ...]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                acquired: list[LockRef] = []
                for item in stmt.items:
                    ref = resolver.classify(item.context_expr)
                    if ref is not None:
                        acquired.append(ref)
                    emit_exprs(item.context_expr, held)
                    if item.optional_vars is not None:
                        emit_exprs(item.optional_vars, held)
                if acquired and on_with is not None:
                    on_with(WithEvent(node=stmt, acquired=tuple(acquired), held=held))
                visit_block(stmt.body, held + tuple(acquired))
                continue
            # Emit the statement's own expressions, then recurse into bodies.
            for fname, value in ast.iter_fields(stmt):
                if fname in ("body", "orelse", "finalbody", "handlers", "cases"):
                    continue
                if isinstance(value, ast.AST):
                    emit_exprs(value, held)
                elif isinstance(value, list):
                    for v in value:
                        if isinstance(v, ast.AST):
                            emit_exprs(v, held)
            for sub in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, sub, None)
                if inner:
                    visit_block(inner, held)
            for handler in getattr(stmt, "handlers", []) or []:
                visit_block(handler.body, held)
            for case in getattr(stmt, "cases", []) or []:
                visit_block(case.body, held)

    visit_block(func.body, ())


# --------------------------------------------------------------------------
# Project model
# --------------------------------------------------------------------------


@dataclass
class ClassInfo:
    name: str
    node: ast.ClassDef
    module: "Module"

    def __post_init__(self) -> None:
        self.qualname = f"{self.module.name}.{self.name}"
        self.bases: list[str] = [
            d for d in (dotted(b) for b in self.node.bases) if d is not None
        ]
        self.decorators: list[str] = [
            d for d in (dotted(dec if not isinstance(dec, ast.Call) else dec.func)
                        for dec in self.node.decorator_list)
            if d is not None
        ]
        self.methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        self.properties: set[str] = set()
        self.class_attrs: set[str] = set()
        for stmt in self.node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.methods[stmt.name] = stmt
                for dec in stmt.decorator_list:
                    dn = dotted(dec)
                    if dn in ("property", "cached_property", "functools.cached_property"):
                        self.properties.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                for t in stmt.targets:
                    if isinstance(t, ast.Name):
                        self.class_attrs.add(t.id)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                self.class_attrs.add(stmt.target.id)
        self.init_attrs: set[str] = set()
        init = self.methods.get("__init__")
        if init is not None:
            for node in ast.walk(init):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    if node.value.id == "self" and isinstance(node.ctx, ast.Store):
                        self.init_attrs.add(node.attr)
        self.lock_attrs: frozenset[str] = frozenset()
        self.lock_attrs = sync_attrs(self)

    def own_members(self) -> set[str]:
        return set(self.methods) | self.class_attrs | self.init_attrs

    @property
    def is_protocol(self) -> bool:
        return any(b.rsplit(".", 1)[-1] == "Protocol" for b in self.bases)


@dataclass
class Module:
    path: Path
    rel: str
    name: str  # dotted module name
    source: str
    tree: ast.Module

    def __post_init__(self) -> None:
        self.lines = self.source.splitlines()
        self.is_package = self.path.name == "__init__.py"
        self.aliases = _collect_imports(self.tree.body, self.name, self.is_package)
        self.waivers = parse_waivers(self.lines, self.tree, self.source)
        self.classes: dict[str, ClassInfo] = {}
        self.functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        self.module_locks: set[str] = set()
        for stmt in self.tree.body:
            if isinstance(stmt, ast.ClassDef):
                self.classes[stmt.name] = ClassInfo(stmt.name, stmt, self)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[stmt.name] = stmt
            elif isinstance(stmt, ast.Assign):
                for t in stmt.targets:
                    if isinstance(t, ast.Name) and _is_sync_constructor(
                        stmt.value, self.aliases
                    ):
                        self.module_locks.add(t.id)

    def qualify(self, name: str) -> str:
        """Resolve a dotted source name through this module's imports."""
        root, _, rest = name.partition(".")
        base = self.aliases.get(root)
        if base is None:
            # Unimported bare name: assume it is defined in this module.
            return f"{self.name}.{name}" if "." not in name else name
        return f"{base}.{rest}" if rest else base

    def function_aliases(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> dict[str, str]:
        """Module aliases overlaid with the function's local imports."""
        local = _collect_imports(
            [s for s in ast.walk(func) if isinstance(s, (ast.Import, ast.ImportFrom))],
            self.name,
            self.is_package,
        )
        merged = dict(self.aliases)
        merged.update(local)
        return merged


class Project:
    """All analyzed modules plus cross-module name resolution."""

    def __init__(self, modules: Sequence[Module]) -> None:
        self.modules = list(modules)
        self.by_name: dict[str, Module] = {m.name: m for m in self.modules}
        self.class_index: dict[str, ClassInfo] = {}
        for mod in self.modules:
            for cls in mod.classes.values():
                self.class_index[cls.qualname] = cls

    def resolve_class(self, qualname: str, _depth: int = 0) -> ClassInfo | None:
        """Find a class by qualified name, chasing package re-exports."""
        if _depth > 6 or not qualname:
            return None
        hit = self.class_index.get(qualname)
        if hit is not None:
            return hit
        mod_name, _, leaf = qualname.rpartition(".")
        mod = self.by_name.get(mod_name)
        if mod is None:
            return None
        target = mod.aliases.get(leaf)
        if target is None:
            return None
        return self.resolve_class(target, _depth + 1)

    def class_members(self, cls: ClassInfo) -> tuple[set[str], bool]:
        """(members incl. inherited, all_bases_resolved)."""
        members: set[str] = set()
        complete = True
        seen: set[str] = set()

        def add(c: ClassInfo) -> None:
            nonlocal complete
            if c.qualname in seen:
                return
            seen.add(c.qualname)
            members.update(c.own_members())
            for base in c.bases:
                leaf = base.rsplit(".", 1)[-1]
                if leaf in ("object", "Protocol", "Generic", "ABC", "Enum",
                            "NamedTuple", "Exception", "TypedDict"):
                    continue
                resolved = self.resolve_class(c.module.qualify(base))
                if resolved is None:
                    complete = False
                else:
                    add(resolved)

        add(cls)
        return members, complete


# --------------------------------------------------------------------------
# Checkers
# --------------------------------------------------------------------------


class Checker(Protocol):  # pragma: no cover — typing only
    name: str

    def check(self, project: Project) -> Iterable[Finding]: ...


def default_checkers() -> list[Checker]:
    """The four project checkers, imported lazily to avoid cycles."""
    from repro.devtools.guarded import GuardedAttributeChecker
    from repro.devtools.locks import LockDisciplineChecker
    from repro.devtools.registry_conformance import RegistryConformanceChecker
    from repro.devtools.schema_sync import SchemaSyncChecker

    return [
        LockDisciplineChecker(),
        GuardedAttributeChecker(),
        RegistryConformanceChecker(),
        SchemaSyncChecker(),
    ]


# --------------------------------------------------------------------------
# Loading
# --------------------------------------------------------------------------


def _module_name_for(path: Path) -> str:
    parts = list(path.parts)
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p not in ("", ".", ".."))


def iter_source_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            yield from sorted(
                f for f in p.rglob("*.py") if "__pycache__" not in f.parts
            )
        elif p.suffix == ".py":
            yield p
        else:
            raise AnalysisError(f"not a python file or directory: {p}")


def load_project(paths: Sequence[str | Path]) -> tuple[Project, list[Finding]]:
    modules: list[Module] = []
    errors: list[Finding] = []
    for path in iter_source_files(paths):
        rel = path.as_posix()
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError) as exc:
            errors.append(
                Finding(
                    rule="ANA000",
                    path=rel,
                    line=getattr(exc, "lineno", 1) or 1,
                    message=f"cannot analyze file: {exc}",
                    severity="error",
                )
            )
            continue
        modules.append(
            Module(path=path, rel=rel, name=_module_name_for(path), source=source, tree=tree)
        )
    return Project(modules), errors


# --------------------------------------------------------------------------
# Baseline
# --------------------------------------------------------------------------

BASELINE_VERSION = 1


def load_baseline(path: Path) -> dict[str, int]:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError:
        return {}
    except json.JSONDecodeError as exc:
        raise AnalysisError(f"baseline {path} is not valid JSON: {exc}") from exc
    fps = payload.get("fingerprints", {})
    if not isinstance(fps, Mapping):
        raise AnalysisError(f"baseline {path} has no 'fingerprints' map")
    return {str(k): int(v) for k, v in fps.items()}


def write_baseline(path: Path, findings: Sequence[Finding]) -> None:
    counts: dict[str, int] = {}
    meta: dict[str, str] = {}
    for f in findings:
        counts[f.fingerprint] = counts.get(f.fingerprint, 0) + 1
        meta.setdefault(f.fingerprint, f"{f.rule} {f.path} {f.symbol}".strip())
    payload = {
        "version": BASELINE_VERSION,
        "comment": (
            "Accepted pre-existing findings (repro analyze --baseline). "
            "Fingerprints are stable across line-number drift; prefer "
            "inline waivers with justifications for anything new."
        ),
        "fingerprints": dict(sorted(counts.items())),
        "notes": {k: meta[k] for k in sorted(counts)},
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


# --------------------------------------------------------------------------
# Orchestration
# --------------------------------------------------------------------------


@dataclass
class AnalysisResult:
    findings: list[Finding]  # every finding, with status set
    files: int
    baseline_path: Path | None = None

    @property
    def active(self) -> list[Finding]:
        return [f for f in self.findings if f.status == "active"]

    @property
    def waived(self) -> list[Finding]:
        return [f for f in self.findings if f.status == "waived"]

    @property
    def baselined(self) -> list[Finding]:
        return [f for f in self.findings if f.status == "baselined"]

    @property
    def exit_code(self) -> int:
        return 1 if self.active else 0

    def summary(self) -> dict[str, Any]:
        active = self.active
        return {
            "files": self.files,
            "active": len(active),
            "errors": sum(1 for f in active if f.severity == "error"),
            "warnings": sum(1 for f in active if f.severity == "warning"),
            "waived": len(self.waived),
            "baselined": len(self.baselined),
        }

    def render_text(self, verbose: bool = False) -> str:
        out: list[str] = []
        for f in sorted(self.active, key=lambda f: (f.path, f.line, f.rule)):
            out.append(f.render())
        if verbose:
            for f in sorted(self.waived, key=lambda f: (f.path, f.line, f.rule)):
                reason = f" ({f.waiver_reason})" if f.waiver_reason else ""
                out.append(f"waived: {f.render()}{reason}")
            for f in sorted(self.baselined, key=lambda f: (f.path, f.line, f.rule)):
                out.append(f"baselined: {f.render()}")
        s = self.summary()
        out.append(
            f"{s['active']} finding(s) ({s['errors']} error(s), "
            f"{s['warnings']} warning(s)) · {s['waived']} waived · "
            f"{s['baselined']} baselined · {s['files']} file(s)"
        )
        return "\n".join(out)

    def render_json(self) -> str:
        return json.dumps(
            {
                "version": 1,
                "summary": self.summary(),
                "findings": [
                    f.to_dict()
                    for f in sorted(
                        self.findings, key=lambda f: (f.path, f.line, f.rule)
                    )
                ],
            },
            indent=2,
        )


def apply_waivers(project: Project, findings: list[Finding]) -> list[Finding]:
    """Mark findings waived; append ANA001/ANA002 for bad/unused waivers."""
    by_rel: dict[str, Module] = {m.rel: m for m in project.modules}
    for f in findings:
        mod = by_rel.get(f.path)
        if mod is None:
            continue
        for w in mod.waivers:
            if w.covers(f):
                f.status = "waived"
                f.waiver_reason = w.reason
                w.used = True
                break
    extra: list[Finding] = []
    for mod in project.modules:
        for w in mod.waivers:
            rules = ",".join(sorted(w.rules))
            if not w.reason:
                extra.append(
                    Finding(
                        rule="ANA001",
                        path=mod.rel,
                        line=w.line,
                        message=(
                            f"waiver ignore[{rules}] has no justification "
                            "(append `- <reason>`)"
                        ),
                    )
                )
            if not w.used:
                extra.append(
                    Finding(
                        rule="ANA002",
                        path=mod.rel,
                        line=w.line,
                        message=f"waiver ignore[{rules}] suppresses no finding",
                    )
                )
    return findings + extra


def apply_baseline(findings: list[Finding], baseline: Mapping[str, int]) -> None:
    budget = dict(baseline)
    for f in sorted(findings, key=lambda f: (f.path, f.line, f.rule)):
        if f.status != "active":
            continue
        left = budget.get(f.fingerprint, 0)
        if left > 0:
            budget[f.fingerprint] = left - 1
            f.status = "baselined"


def run_analysis(
    paths: Sequence[str | Path],
    checkers: Sequence[Checker] | None = None,
    baseline_path: str | Path | None = None,
    update_baseline: bool = False,
) -> AnalysisResult:
    """Load, check, waive, and baseline; the programmatic entry point.

    ``baseline_path`` is read when it exists (suppressing known findings)
    and rewritten from the currently-active set when ``update_baseline``
    is true.
    """
    project, findings = load_project(paths)
    if checkers is None:
        checkers = default_checkers()
    for checker in checkers:
        findings.extend(checker.check(project))
    findings = apply_waivers(project, findings)
    bl_path = Path(baseline_path) if baseline_path is not None else None
    if update_baseline and bl_path is not None:
        write_baseline(bl_path, [f for f in findings if f.status == "active"])
    if bl_path is not None and bl_path.exists():
        apply_baseline(findings, load_baseline(bl_path))
    return AnalysisResult(
        findings=findings, files=len(project.modules), baseline_path=bl_path
    )
