"""Registry/protocol conformance: registered classes must honor contracts.

* **REG001** — every class reachable from a ``BACKENDS`` / ``ALGORITHMS``
  / ``CLUSTERERS`` / ``SCORERS`` / ``STAGES`` registration (decorated
  factory, direct ``register(name, cls)`` call, or factory return value)
  must define the registry's protocol surface. The surface is read from
  the live ``Protocol`` class when it is part of the analyzed tree
  (``IndexBackend`` for backends, ``Stage`` for stages) and falls back
  to a pinned method list otherwise (so fixture subsets still check).
* **REG002** — ``capabilities()`` claims must match reality: a backend
  constructing ``BackendCapabilities(mutable=True, ...)`` must define
  ``add_all`` + ``remove``.

Factory resolution is static: ``return Cls(...)``, ``return
Cls.build(...)`` (classmethod constructors), and ``x = Cls(...); return
x`` all resolve; factories whose return value cannot be traced to a
project class are skipped rather than guessed at.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.devtools.engine import (
    ClassInfo,
    Finding,
    Module,
    Project,
    dotted,
)


@dataclass(frozen=True)
class RegistrySpec:
    """What one registry demands of the classes registered in it."""

    registry: str
    protocol: str | None  # qualified Protocol class to read the surface from
    fallback: frozenset[str]  # surface when the protocol isn't analyzed
    capability_rules: Mapping[str, frozenset[str]] = field(default_factory=dict)


_BACKEND_SURFACE = frozenset(
    {
        "num_documents",
        "num_terms",
        "corpus",
        "__contains__",
        "vocabulary",
        "postings",
        "document_frequency",
        "doc_length",
        "and_query",
        "or_query",
        "capabilities",
    }
)

DEFAULT_SPECS: tuple[RegistrySpec, ...] = (
    RegistrySpec(
        registry="BACKENDS",
        protocol="repro.index.backend.IndexBackend",
        fallback=_BACKEND_SURFACE,
        capability_rules={
            "mutable": frozenset({"add_all", "remove"}),
        },
    ),
    RegistrySpec(
        registry="STAGES",
        protocol="repro.pipeline.pipeline.Stage",
        fallback=frozenset({"name", "run"}),
    ),
    RegistrySpec(
        registry="ALGORITHMS",
        protocol=None,
        fallback=frozenset({"name", "expand"}),
    ),
    RegistrySpec(
        registry="CLUSTERERS",
        protocol=None,
        fallback=frozenset({"fit_predict"}),
    ),
    RegistrySpec(
        registry="SCORERS",
        protocol=None,
        fallback=frozenset({"score", "rank"}),
    ),
)


@dataclass
class _Registration:
    spec: RegistrySpec
    reg_name: str  # the string key, e.g. "sqlite"
    module: Module
    line: int
    symbol: str


class RegistryConformanceChecker:
    """REG001 (surface) and REG002 (capabilities claims)."""

    name = "registry"

    def __init__(self, specs: Iterable[RegistrySpec] = DEFAULT_SPECS) -> None:
        self.specs = {s.registry: s for s in specs}

    # -- discovery ---------------------------------------------------------

    def _registrations(
        self, project: Project
    ) -> list[tuple[_Registration, ClassInfo | None]]:
        out: list[tuple[_Registration, ClassInfo | None]] = []
        for module in project.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    for dec in node.decorator_list:
                        reg = self._match_register(dec)
                        if reg is None:
                            continue
                        spec_name, key, line = reg
                        spec = self.specs.get(spec_name)
                        if spec is None:
                            continue
                        meta = _Registration(spec, key, module, line, node.name)
                        if isinstance(node, ast.ClassDef):
                            out.append((meta, module.classes.get(node.name)))
                        else:
                            for cls in self._factory_classes(module, project, node):
                                out.append((meta, cls))
                elif isinstance(node, ast.Call):
                    reg = self._match_register(node)
                    if reg is None or len(node.args) < 2:
                        continue
                    spec_name, key, line = reg
                    spec = self.specs.get(spec_name)
                    if spec is None:
                        continue
                    target = node.args[1]
                    name = dotted(target)
                    if name is None:
                        continue
                    meta = _Registration(spec, key, module, line, name)
                    resolved = project.resolve_class(module.qualify(name))
                    if resolved is not None:
                        out.append((meta, resolved))
                    elif name in module.functions:
                        for cls in self._factory_classes(
                            module, project, module.functions[name]
                        ):
                            out.append((meta, cls))
        return out

    def _match_register(self, node: ast.expr) -> tuple[str, str, int] | None:
        """(registry_name, key, line) for ``<REG>.register("key", ...)``."""
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "register"):
            return None
        reg = dotted(func.value)
        if reg is None:
            return None
        reg_leaf = reg.rsplit(".", 1)[-1]
        key = ""
        if node.args and isinstance(node.args[0], ast.Constant):
            key = str(node.args[0].value)
        return reg_leaf, key, node.lineno

    def _factory_classes(
        self,
        module: Module,
        project: Project,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> list[ClassInfo]:
        """Classes a factory can return, traced statically."""
        aliases = module.function_aliases(func)
        assigns: dict[str, ast.expr] = {}
        returns: list[ast.expr] = []
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        assigns[t.id] = node.value
            elif isinstance(node, ast.Return) and node.value is not None:
                returns.append(node.value)

        def resolve_call(call: ast.Call) -> ClassInfo | None:
            name = dotted(call.func)
            if name is None:
                return None
            # Cls(...) or Cls.build(...) / Cls.load(...) classmethod ctors.
            for candidate in (name, name.rsplit(".", 1)[0] if "." in name else None):
                if not candidate:
                    continue
                root, _, rest = candidate.partition(".")
                base = aliases.get(root, f"{module.name}.{root}")
                qual = f"{base}.{rest}" if rest else base
                cls = project.resolve_class(qual)
                if cls is not None:
                    return cls
            return None

        found: list[ClassInfo] = []
        for ret in returns:
            target: ast.expr | None = ret
            if isinstance(target, ast.Name):
                target = assigns.get(target.id)
            if isinstance(target, ast.Call):
                cls = resolve_call(target)
                if cls is not None and cls not in found:
                    found.append(cls)
        return found

    # -- surface / capabilities --------------------------------------------

    def _surface(self, spec: RegistrySpec, project: Project) -> frozenset[str]:
        if spec.protocol is not None:
            proto = project.resolve_class(spec.protocol)
            if proto is not None:
                names = {
                    m for m in proto.methods if m not in ("__init__",)
                } | {a for a in proto.class_attrs}
                if names:
                    return frozenset(names)
        return spec.fallback

    def check(self, project: Project) -> Iterable[Finding]:
        findings: list[Finding] = []
        for meta, cls in self._registrations(project):
            if cls is None:
                continue
            members, complete = project.class_members(cls)
            surface = self._surface(meta.spec, project)
            missing = sorted(surface - members)
            if missing and complete:
                findings.append(
                    Finding(
                        rule="REG001",
                        path=meta.module.rel,
                        line=meta.line,
                        symbol=meta.symbol,
                        message=(
                            f"'{meta.reg_name}' in {meta.spec.registry} resolves "
                            f"to {cls.name}, which is missing: {', '.join(missing)}"
                        ),
                    )
                )
            findings.extend(self._check_capabilities(meta, cls, members))
        return findings

    def _check_capabilities(
        self, meta: _Registration, cls: ClassInfo, members: set[str]
    ) -> list[Finding]:
        rules = meta.spec.capability_rules
        caps = cls.methods.get("capabilities")
        if not rules or caps is None:
            return []
        findings: list[Finding] = []
        for node in ast.walk(caps):
            if not isinstance(node, ast.Call):
                continue
            callee = dotted(node.func) or ""
            if callee.rsplit(".", 1)[-1] != "BackendCapabilities":
                continue
            for kw in node.keywords:
                if kw.arg is None:
                    continue
                required = rules.get(kw.arg)
                if required is None:
                    continue
                if not (isinstance(kw.value, ast.Constant) and kw.value.value is True):
                    continue
                lacking = sorted(required - members)
                if lacking:
                    findings.append(
                        Finding(
                            rule="REG002",
                            path=cls.module.rel,
                            line=node.lineno,
                            symbol=f"{cls.name}.capabilities",
                            message=(
                                f"claims {kw.arg}=True but {cls.name} does not "
                                f"define: {', '.join(lacking)}"
                            ),
                        )
                    )
        return findings
