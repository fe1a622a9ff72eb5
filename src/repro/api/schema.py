"""Stable JSON schema for expansion results (the service boundary).

Every payload that can cross a process boundary — reports, batch results,
search results — serializes to plain JSON types (dict/list/str/int/float/
bool) via ``to_dict`` and reconstructs losslessly via ``from_dict``. The
outermost payloads carry a versioned envelope::

    {"schema_version": 2, "kind": "expansion_report", ...}

Versioning policy (see API.md): additive changes (new optional keys) keep
the version; renames, removals, and meaning changes bump
:data:`SCHEMA_VERSION` and extend :data:`SUPPORTED_VERSIONS` with a
migration in :func:`check_envelope`. Readers reject unknown versions with
:class:`~repro.errors.SchemaError` instead of mis-parsing them.

Version history:

* **v1** — initial envelope (PR 1).
* **v2** — reports carry structured per-stage observability:
  ``stage_timings`` (``[{"stage": ..., "seconds": ...}, ...]`` in
  execution order). v1 payloads remain readable: they round-trip
  losslessly with empty ``stage_timings``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from repro.data.documents import Document
from repro.errors import SchemaError
from repro.pipeline.context import StageTiming

if TYPE_CHECKING:
    from repro.core.expander import ExpandedQuery, ExpansionReport
    from repro.core.universe import ExpansionOutcome
    from repro.index.search import SearchResult

SCHEMA_VERSION = 2
SUPPORTED_VERSIONS = frozenset({1, 2})

KIND_REPORT = "expansion_report"
KIND_BATCH = "batch_report"

#: Report-envelope fields that differ on every recompute (wall clock).
#: Strip these before comparing two payloads for *content* equality —
#: the serving benchmark's ingestion gate and any "did the answer
#: change?" check depend on this list staying in sync with
#: :func:`report_to_dict`.
VOLATILE_REPORT_KEYS = (
    "clustering_seconds",
    "expansion_seconds",
    "stage_timings",
)


def report_content(payload: Mapping[str, Any]) -> dict[str, Any]:
    """The payload minus :data:`VOLATILE_REPORT_KEYS` (content identity)."""
    return {k: v for k, v in payload.items() if k not in VOLATILE_REPORT_KEYS}


def make_envelope(kind: str, data: dict[str, Any]) -> dict[str, Any]:
    """Wrap ``data`` in the versioned envelope for ``kind``."""
    out = {"schema_version": SCHEMA_VERSION, "kind": kind}
    out.update(data)
    return out


def check_envelope(payload: Mapping[str, Any], kind: str) -> None:
    """Validate version and kind; raise :class:`SchemaError` otherwise."""
    if not isinstance(payload, Mapping):
        raise SchemaError(f"expected a mapping, got {type(payload).__name__}")
    version = payload.get("schema_version")
    if version not in SUPPORTED_VERSIONS:
        raise SchemaError(
            f"unsupported schema_version {version!r}; "
            f"supported: {sorted(SUPPORTED_VERSIONS)}"
        )
    got = payload.get("kind")
    if got != kind:
        raise SchemaError(f"expected kind {kind!r}, got {got!r}")


def require(payload: Mapping[str, Any], key: str) -> Any:
    """``payload[key]``, raising :class:`SchemaError` when absent."""
    try:
        return payload[key]
    except KeyError:
        raise SchemaError(f"payload is missing required key {key!r}") from None


# -- documents and search results -------------------------------------------


def document_to_dict(doc: Document) -> dict[str, Any]:
    return {
        "doc_id": doc.doc_id,
        "terms": {t: int(c) for t, c in doc.terms.items()},
        "kind": doc.kind,
        "title": doc.title,
        "fields": dict(doc.fields),
    }


def document_from_dict(payload: Mapping[str, Any]) -> Document:
    return Document(
        doc_id=require(payload, "doc_id"),
        terms={t: int(c) for t, c in require(payload, "terms").items()},
        kind=payload.get("kind", "text"),
        title=payload.get("title", ""),
        fields=dict(payload.get("fields", {})),
    )


def search_result_to_dict(result: "SearchResult") -> dict[str, Any]:
    return {
        "position": int(result.position),
        "score": float(result.score),
        "document": document_to_dict(result.document),
    }


def search_result_from_dict(payload: Mapping[str, Any]) -> "SearchResult":
    from repro.index.search import SearchResult

    return SearchResult(
        position=int(require(payload, "position")),
        document=document_from_dict(require(payload, "document")),
        score=float(require(payload, "score")),
    )


# -- expansion outcomes ------------------------------------------------------


def outcome_to_dict(outcome: "ExpansionOutcome") -> dict[str, Any]:
    return {
        "terms": list(outcome.terms),
        "fmeasure": float(outcome.fmeasure),
        "precision": float(outcome.precision),
        "recall": float(outcome.recall),
        "iterations": int(outcome.iterations),
        "value_updates": int(outcome.value_updates),
        "trace": list(outcome.trace),
        "cluster_id": int(outcome.cluster_id),
    }


def outcome_from_dict(payload: Mapping[str, Any]) -> "ExpansionOutcome":
    from repro.core.universe import ExpansionOutcome

    return ExpansionOutcome(
        terms=tuple(require(payload, "terms")),
        fmeasure=float(require(payload, "fmeasure")),
        precision=float(require(payload, "precision")),
        recall=float(require(payload, "recall")),
        iterations=int(payload.get("iterations", 0)),
        value_updates=int(payload.get("value_updates", 0)),
        trace=tuple(payload.get("trace", ())),
        cluster_id=int(payload.get("cluster_id", 0)),
    )


def expanded_query_to_dict(eq: "ExpandedQuery") -> dict[str, Any]:
    return {
        "terms": list(eq.terms),
        "cluster_id": int(eq.cluster_id),
        "cluster_size": int(eq.cluster_size),
        "fmeasure": float(eq.fmeasure),
        "precision": float(eq.precision),
        "recall": float(eq.recall),
        "outcome": outcome_to_dict(eq.outcome),
    }


def expanded_query_from_dict(payload: Mapping[str, Any]) -> "ExpandedQuery":
    from repro.core.expander import ExpandedQuery

    return ExpandedQuery(
        terms=tuple(require(payload, "terms")),
        cluster_id=int(require(payload, "cluster_id")),
        cluster_size=int(require(payload, "cluster_size")),
        fmeasure=float(require(payload, "fmeasure")),
        precision=float(require(payload, "precision")),
        recall=float(require(payload, "recall")),
        outcome=outcome_from_dict(require(payload, "outcome")),
    )


# -- reports -----------------------------------------------------------------


def _stage_timing(payload: Mapping[str, Any]) -> StageTiming:
    """StageTiming.from_dict with schema-grade error reporting."""
    try:
        return StageTiming.from_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed stage_timings entry: {exc!r}") from None


def report_to_dict(report: "ExpansionReport") -> dict[str, Any]:
    return make_envelope(
        KIND_REPORT,
        {
            "seed_query": report.seed_query,
            "seed_terms": list(report.seed_terms),
            "expanded": [expanded_query_to_dict(eq) for eq in report.expanded],
            "score": float(report.score),
            "n_results": int(report.n_results),
            "n_clusters": int(report.n_clusters),
            "cluster_labels": [int(lab) for lab in report.cluster_labels],
            "clustering_seconds": float(report.clustering_seconds),
            "expansion_seconds": float(report.expansion_seconds),
            "results": [search_result_to_dict(r) for r in report.results],
            "stage_timings": [t.to_dict() for t in report.stage_timings],
        },
    )


def report_from_dict(payload: Mapping[str, Any]) -> "ExpansionReport":
    from repro.core.expander import ExpansionReport

    check_envelope(payload, KIND_REPORT)
    return ExpansionReport(
        seed_query=require(payload, "seed_query"),
        seed_terms=tuple(require(payload, "seed_terms")),
        expanded=tuple(
            expanded_query_from_dict(eq) for eq in require(payload, "expanded")
        ),
        score=float(require(payload, "score")),
        n_results=int(require(payload, "n_results")),
        n_clusters=int(require(payload, "n_clusters")),
        cluster_labels=tuple(int(lab) for lab in require(payload, "cluster_labels")),
        clustering_seconds=float(require(payload, "clustering_seconds")),
        expansion_seconds=float(require(payload, "expansion_seconds")),
        results=tuple(
            search_result_from_dict(r) for r in payload.get("results", ())
        ),
        # v1 payloads predate per-stage observability; absent = empty.
        stage_timings=tuple(
            _stage_timing(t) for t in payload.get("stage_timings", ())
        ),
    )
