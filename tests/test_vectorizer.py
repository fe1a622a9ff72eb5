"""Tests for the clustering TF vectors: ``TermCounts.tf_matrix()``."""

import numpy as np
import pytest

from repro.core.universe import TermCounts
from repro.errors import ExpansionError
from tests.conftest import make_doc


class TestTfVectorizer:
    def test_shape(self):
        docs = [make_doc("a", {"x": 1}), make_doc("b", {"x": 1, "y": 2})]
        counts = TermCounts(docs)
        assert counts.tf_matrix().shape == (2, 2)
        assert counts.vocabulary == ("x", "y")

    def test_rows_l2_normalized(self):
        docs = [make_doc("a", {"x": 3, "y": 4})]
        m = TermCounts(docs).tf_matrix()
        assert np.linalg.norm(m[0]) == pytest.approx(1.0)

    def test_tf_weights(self):
        docs = [make_doc("a", {"x": 3, "y": 4})]
        m = TermCounts(docs).tf_matrix()
        # Before normalization the weights are 3 and 4 -> ratio preserved.
        assert m[0][1] / m[0][0] == pytest.approx(4.0 / 3.0)

    def test_empty_rejected(self):
        with pytest.raises(ExpansionError):
            TermCounts([])

    def test_matrix_is_copy(self):
        docs = [make_doc("a", {"x": 1})]
        counts = TermCounts(docs)
        m = counts.tf_matrix()
        m[0, 0] = 99.0
        assert counts.tf_matrix()[0, 0] != 99.0
