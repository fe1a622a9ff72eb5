"""Tests for repro.api.registries and the built-in registries."""

import pytest

from repro.api import ALGORITHMS, CLUSTERERS, DATASETS, SCORERS, STAGES, Registry
from repro.errors import ConfigError, RegistryError


class TestCanonicalModule:
    def test_registry_lives_in_registries(self):
        from repro.api.registries import Registry as canonical

        assert canonical is Registry

    def test_stages_registry_covers_default_pipeline(self):
        from repro.pipeline import default_pipeline

        for name in default_pipeline().names:
            assert name in STAGES
        assert "reassign" in STAGES
        stage = STAGES.create("retrieve")
        assert stage.name == "retrieve" and callable(stage.run)


class TestRegistry:
    def test_register_and_get(self):
        reg = Registry("widget")

        @reg.register("foo")
        def make_foo(x):
            return ("foo", x)

        assert reg.get("foo") is make_foo
        assert reg.create("foo", 1) == ("foo", 1)

    def test_register_direct_form(self):
        reg = Registry("widget")
        reg.register("bar", lambda: "made")
        assert reg.create("bar") == "made"

    def test_names_sorted(self):
        reg = Registry("widget")
        reg.register("b", lambda: None)
        reg.register("a", lambda: None)
        assert reg.names() == ("a", "b")
        assert list(reg) == ["a", "b"]
        assert len(reg) == 2

    def test_case_insensitive(self):
        reg = Registry("widget")
        reg.register("Foo", lambda: 1)
        assert "foo" in reg
        assert "FOO" in reg
        assert reg.create("fOo") == 1

    def test_unknown_name_lists_known(self):
        reg = Registry("widget")
        reg.register("known", lambda: None)
        with pytest.raises(RegistryError, match="unknown widget 'nope'"):
            reg.get("nope")
        with pytest.raises(RegistryError, match="known"):
            reg.get("nope")

    def test_unknown_is_config_error(self):
        # RegistryError subclasses ConfigError: one catchable family.
        with pytest.raises(ConfigError):
            Registry("widget").get("anything")

    def test_empty_name_rejected(self):
        reg = Registry("widget")
        with pytest.raises(RegistryError):
            reg.register("   ", lambda: None)

    def test_reregister_replaces(self):
        reg = Registry("widget")
        reg.register("x", lambda: "old")
        reg.register("x", lambda: "new")
        assert reg.create("x") == "new"

    def test_unregister(self):
        reg = Registry("widget")
        reg.register("x", lambda: None)
        reg.unregister("x")
        assert "x" not in reg
        with pytest.raises(RegistryError):
            reg.unregister("x")


class TestBuiltinRegistries:
    def test_expected_axes(self):
        assert set(ALGORITHMS.names()) >= {
            "iskr", "pebc", "exact", "fmeasure", "vsm",
        }
        assert set(CLUSTERERS.names()) >= {
            "kmeans", "bisecting", "agglomerative", "kmedoids", "auto",
            "kselect",
        }
        assert set(SCORERS.names()) >= {"tfidf", "bm25", "lm"}
        assert set(DATASETS.names()) >= {"wikipedia", "shopping", "xml"}

    @pytest.mark.parametrize("name", ["iskr", "pebc", "exact", "fmeasure", "vsm"])
    def test_algorithms_expand_capable(self, name):
        algorithm = ALGORITHMS.create(name, seed=0)
        assert callable(algorithm.expand)
        assert isinstance(algorithm.name, str) and algorithm.name

    @pytest.mark.parametrize(
        "name", ["kmeans", "bisecting", "agglomerative", "kmedoids", "auto"]
    )
    def test_clusterers_fit_predict_capable(self, name):
        import numpy as np

        backend = CLUSTERERS.create(name, 2, seed=0)
        rng = np.random.default_rng(0)
        matrix = np.abs(rng.normal(size=(8, 4))) + 0.1
        labels = np.asarray(backend.fit_predict(matrix))
        assert labels.shape == (8,)

    def test_kselect_needs_k_at_least_two(self):
        with pytest.raises(RegistryError):
            CLUSTERERS.create("kselect", 1, seed=0)

    def test_xml_dataset_needs_documents(self):
        with pytest.raises(RegistryError, match="documents"):
            DATASETS.create("xml", seed=0)

    def test_xml_dataset_builds_corpus(self):
        corpus = DATASETS.create(
            "xml",
            seed=0,
            documents={"d1": "<doc><title>apple pie</title></doc>"},
        )
        assert len(corpus) == 1

    def test_third_party_registration_roundtrip(self):
        @ALGORITHMS.register("_test_only_alg")
        def _make(seed=0, **kwargs):
            return ("algorithm", seed)

        try:
            assert ALGORITHMS.create("_test_only_alg", seed=7) == ("algorithm", 7)
        finally:
            ALGORITHMS.unregister("_test_only_alg")
        assert "_test_only_alg" not in ALGORITHMS
