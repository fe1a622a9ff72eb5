"""Tests for the scalability sweep (Fig. 7 harness)."""

from repro.cluster.kmeans import CosineKMeans
from repro.eval.scalability import run_scalability


class TestScalability:
    def test_points_match_sizes(self):
        points = run_scalability(sizes=(30, 60), seed=0)
        assert len(points) == 2
        assert points[0].n_results == 30
        assert points[1].n_results == 60

    def test_times_positive(self):
        points = run_scalability(sizes=(30,), seed=0)
        assert points[0].iskr_seconds > 0.0
        assert points[0].pebc_seconds > 0.0

    def test_monotone_result_counts(self):
        points = run_scalability(sizes=(20, 40, 60), seed=0)
        ns = [p.n_results for p in points]
        assert ns == sorted(ns)

    def test_each_algorithm_clusters_cold(self, monkeypatch):
        # Fig. 7 times clustering plus generation per algorithm, so PEBC
        # must not reuse the analysis ISKR left in the session's cache.
        fits = []
        fit = CosineKMeans.fit

        def counting(self, matrix):
            fits.append(matrix.shape[0])
            return fit(self, matrix)

        monkeypatch.setattr(CosineKMeans, "fit", counting)
        run_scalability(sizes=(30, 60), seed=0)
        assert fits == [30, 30, 60, 60]
