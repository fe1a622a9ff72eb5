"""The IndexBackend protocol: conformance, capabilities, selection.

Covers the storage seam end to end for both bundled backends
(``memory`` and ``sqlite``):

* protocol conformance (``isinstance(x, IndexBackend)``) and
  ``capabilities()``;
* the ``BACKENDS`` registry and backend selection through
  ``Session.builder().backend(...)``, ``SearchEngine(backend=...)``, and
  the CLI's ``--backend`` flag, with identical top-k results everywhere.

Postings-level equivalence of the two backends under mutation is in
``tests/test_store.py``; bit-identical ranking is in
``tests/test_property_ranking.py``.
"""

from __future__ import annotations

import pytest

from repro.api import BACKENDS, Session
from repro.data.corpus import Corpus
from repro.errors import ConfigError, QueryError
from repro.index import (
    BackendCapabilities,
    IndexBackend,
    InvertedIndex,
    SearchEngine,
)
from repro.store import SQLiteIndexBackend

from tests.conftest import make_doc

@pytest.fixture
def corpus() -> Corpus:
    return Corpus(
        [
            make_doc("d0", {"apple": 2, "store": 1}),
            make_doc("d1", {"apple": 1, "fruit": 3}),
            make_doc("d2", {"banana": 1, "fruit": 1}),
            make_doc("d3", {"apple": 1, "banana": 2, "fruit": 1}),
            make_doc("d4", {"store": 4}),
        ]
    )


def sqlite_from(corpus: Corpus, tmp_path) -> SQLiteIndexBackend:
    return SQLiteIndexBackend(tmp_path / "store.sqlite", corpus=corpus)


# -- protocol conformance ----------------------------------------------------


class TestProtocol:
    def test_all_backends_conform(self, corpus, tmp_path):
        for backend in (InvertedIndex(corpus), sqlite_from(corpus, tmp_path)):
            assert isinstance(backend, IndexBackend)

    def test_capabilities(self, corpus, tmp_path):
        assert InvertedIndex(corpus).capabilities() == BackendCapabilities(
            name="memory"
        )
        assert sqlite_from(corpus, tmp_path).capabilities() == BackendCapabilities(
            name="sqlite", persistent=True, mutable=True
        )

    def test_capabilities_to_dict_is_json_ready(self, corpus, tmp_path):
        payload = sqlite_from(corpus, tmp_path).capabilities().to_dict()
        assert payload == {"name": "sqlite", "persistent": True, "mutable": True}


# -- registry + engine + session selection -----------------------------------


class TestBackendSelection:
    def test_registry_names(self):
        assert list(BACKENDS.names()) == ["memory", "sqlite"]

    def test_registry_create(self, corpus, tmp_path):
        backend = BACKENDS.create("sqlite", corpus, path=tmp_path / "s.sqlite")
        try:
            assert isinstance(backend, SQLiteIndexBackend)
            assert backend.or_query(["apple", "fruit"]) == InvertedIndex(
                corpus
            ).or_query(["apple", "fruit"])
        finally:
            backend.close()

    def test_backend_kwarg_typos_fail_at_build(self):
        for backend, kwargs in (
            ("memory", {"shards": 8}),
            ("sqlite", {"pth": "x.sqlite"}),
        ):
            with pytest.raises(ConfigError):
                (
                    Session.builder()
                    .dataset("wikipedia", docs_per_sense=4, terms=["java"])
                    .backend(backend, **kwargs)
                    .build()
                )

    def test_engine_accepts_name_factory_and_instance(self, corpus):
        by_name = SearchEngine(corpus, backend="sqlite")
        by_factory = SearchEngine(corpus, backend=lambda c: InvertedIndex(c))
        by_instance = SearchEngine(corpus, backend=InvertedIndex(corpus))
        by_class = SearchEngine(corpus, backend=InvertedIndex)
        queries = by_name.index.or_query(["apple", "fruit"])
        for engine in (by_factory, by_instance, by_class):
            assert engine.index.or_query(["apple", "fruit"]) == queries

    def test_engine_rejects_unknown_backend(self, corpus):
        with pytest.raises(QueryError, match="unknown backend"):
            SearchEngine(corpus, backend="carrier-pigeon")

    def test_engine_rejects_mismatched_instance(self, corpus):
        other = InvertedIndex(Corpus([make_doc("x", {"apple": 1})]))
        with pytest.raises(QueryError, match="same data"):
            SearchEngine(corpus, backend=other)

    @pytest.mark.parametrize(
        "backend,kwargs",
        [("memory", {}), ("sqlite", {})],
    )
    def test_session_backend_identical_topk(self, backend, kwargs):
        session = (
            Session.builder()
            .dataset("wikipedia", docs_per_sense=8, terms=["java"])
            .backend(backend, **kwargs)
            .config(n_clusters=3, top_k_results=10)
            .build()
        )
        assert session.backend_name == backend
        assert session.describe()["backend"] == backend
        results = session.search("java", top_k=10)
        baseline = (
            Session.builder()
            .dataset("wikipedia", docs_per_sense=8, terms=["java"])
            .config(n_clusters=3, top_k_results=10)
            .build()
            .search("java", top_k=10)
        )
        assert [(r.position, r.score) for r in results] == [
            (r.position, r.score) for r in baseline
        ]

    def test_session_unknown_backend_fails_at_build(self):
        with pytest.raises(ConfigError):
            (
                Session.builder()
                .dataset("wikipedia", docs_per_sense=4, terms=["java"])
                .backend("carrier-pigeon")
                .build()
            )

    def test_backend_conflicts_with_prebuilt_engine(self, corpus):
        engine = SearchEngine(corpus)
        with pytest.raises(ConfigError, match="prebuilt engine"):
            Session.builder().engine(engine).backend("sqlite").build()

    def test_sqlite_expand_matches_memory(self):
        def build(backend, **kwargs):
            return (
                Session.builder()
                .dataset("wikipedia", docs_per_sense=8, terms=["java"])
                .backend(backend, **kwargs)
                .config(n_clusters=3, top_k_results=20)
                .build()
            )

        memory = build("memory").expand("java").to_dict()
        sqlite = build("sqlite").expand("java").to_dict()
        for payload in (memory, sqlite):  # wall-clock fields may differ
            payload.pop("clustering_seconds")
            payload.pop("expansion_seconds")
            payload["stage_timings"] = [
                t["stage"] for t in payload["stage_timings"]
            ]
        assert memory == sqlite


class TestUnknownBackendErrorMessages:
    """Unknown-backend errors must *list* the registered names, on every
    selection path — the registry itself, the session builder, the
    engine, and the CLI flag — so typos are self-diagnosing."""

    def test_registry_lookup_lists_names(self):
        with pytest.raises(ConfigError) as excinfo:
            BACKENDS.get("carrier-pigeon")
        message = str(excinfo.value)
        for name in BACKENDS.names():
            assert name in message

    def test_session_builder_lists_names(self):
        with pytest.raises(ConfigError) as excinfo:
            (
                Session.builder()
                .dataset("wikipedia", docs_per_sense=4, terms=["java"])
                .backend("carrier-pigeon")
                .build()
            )
        message = str(excinfo.value)
        assert "carrier-pigeon" in message
        for name in ("memory", "sqlite"):
            assert name in message

    def test_engine_backend_name_lists_names(self, corpus):
        with pytest.raises(QueryError) as excinfo:
            SearchEngine(corpus, backend="carrier-pigeon")
        message = str(excinfo.value)
        for name in BACKENDS.names():
            assert name in message

    def test_cli_flag_lists_names(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["search", "--dataset", "wikipedia", "--query", "x",
                 "--backend", "carrier-pigeon"]
            )
        err = capsys.readouterr().err
        for name in BACKENDS.names():
            assert name in err


class TestCliBackendFlag:
    def test_expand_with_sqlite_backend(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "expand", "--dataset", "wikipedia", "--query", "java",
                "--backend", "sqlite", "-k", "3",
            ]
        )
        assert rc == 0
        assert "query='java'" in capsys.readouterr().out

    def test_search_with_sqlite_backend(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "search", "--dataset", "shopping", "--query", "canon",
                "--top", "3", "--backend", "sqlite",
            ]
        )
        assert rc == 0
        assert "results for 'canon'" in capsys.readouterr().out

    def test_unknown_backend_rejected_by_parser(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["expand", "--dataset", "wikipedia", "--query", "x",
                 "--backend", "carrier-pigeon"]
            )
