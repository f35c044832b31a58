import numpy as np
import pytest

from mkdiv import (
    DomainError,
    Empirical,
    Exponential,
    IngestionError,
    LogNormal,
    Normal,
    PointMass,
    Uniform,
    from_samples,
    quantile_grid,
    read_value_csv,
)
from mkdiv.numerics import pairwise_mean

# Inverse standard-normal cdf at selected levels, computed beforehand with
# 50-digit series evaluation (mpmath); frozen as the oracle for the rational
# approximation used at runtime.
INV_NORMAL_ORACLE = {
    0.975: 1.959963984540054235524594,
    0.99: 2.326347874040841100885606,
    0.999: 3.0902323061678135415404,
    0.1: -1.281551565544600466965103,
    0.025: -1.959963984540054235524594,
    0.3: -0.5244005127080407840382893,
}

ALL_DISTS = [
    Uniform(0.0, 1.0),
    Uniform(-2.0, 3.0),
    Normal(0.0, 1.0),
    Normal(1.5, 0.4),
    LogNormal(0.0, 0.2),
    Exponential(2.0),
    PointMass(7.0),
    from_samples([3.0, 1.0, 2.0, 2.0, -0.5]),
]


class TestQuantile:
    def test_uniform_identity(self):
        assert Uniform(0, 1).quantile(0.3) == 0.3

    def test_empirical_middle_order_statistic(self):
        assert from_samples([1, 2, 3]).quantile(0.5) == 2.0

    def test_normal_against_high_precision_oracle(self):
        d = Normal(0, 1)
        for u, x in INV_NORMAL_ORACLE.items():
            assert d.quantile(u) == pytest.approx(x, abs=1e-9)
        assert d.quantile(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_domain_errors(self):
        for u in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                Uniform(0, 1).quantile(u)
        for d in (Normal(0, 1), from_samples([3, 1, 2])):
            for u in (np.nan, [0.5, np.nan]):
                with pytest.raises(DomainError, match="must lie in"):
                    d.quantile(u)

    def test_vectorized(self):
        u = np.array([0.1, 0.5, 0.9])
        np.testing.assert_allclose(Uniform(0, 2).quantile(u), [0.2, 1.0, 1.8])


class TestCdf:
    def test_point_mass_right_continuity(self):
        d = PointMass(2.0)
        assert d.cdf(2.0) == 1.0
        assert d.cdf(1.999) == 0.0

    def test_empirical_counting(self):
        assert from_samples([1, 2, 3]).cdf(2.0) == pytest.approx(2.0 / 3.0)

    def test_empirical_ties(self):
        d = from_samples([1, 1, 2])
        assert d.cdf(1.0) == pytest.approx(2.0 / 3.0)

    def test_lognormal_zero_below_support(self):
        assert LogNormal(0, 1).cdf(-1.0) == 0.0
        assert LogNormal(0, 1).cdf(0.0) == 0.0


class TestFromSamples:
    def test_sorts(self):
        d = from_samples([3, 1, 2])
        np.testing.assert_array_equal(d.values, [1.0, 2.0, 3.0])

    def test_singleton_behaves_like_point_mass(self):
        d = from_samples([5])
        for u in (0.01, 0.4, 0.99):
            assert d.quantile(u) == 5.0

    def test_empty_rejected(self):
        with pytest.raises(IngestionError):
            from_samples([])

    def test_non_finite_named_by_index(self):
        with pytest.raises(IngestionError, match="index 2"):
            from_samples([1.0, 2.0, np.nan, 4.0])
        with pytest.raises(IngestionError, match="index 1"):  # the index before the sort
            Empirical(np.array([1.0, np.nan, 0.5]))


class TestQuantileGrid:
    def test_uniform_midpoints(self):
        g = quantile_grid(Uniform(0, 1), m=4, delta=0.0)
        np.testing.assert_allclose(g.nodes, [0.125, 0.375, 0.625, 0.875])

    def test_point_mass(self):
        g = quantile_grid(PointMass(7.0), m=3, delta=0.0)
        np.testing.assert_array_equal(g.nodes, [7.0, 7.0, 7.0])

    def test_normal_grid_mean_symmetry(self):
        g = quantile_grid(Normal(0, 1), m=100_000, delta=1e-7)
        assert abs(pairwise_mean(g.nodes)) <= 1e-4

    def test_grid_mean_tracks_distribution_mean(self):
        for d in ALL_DISTS:
            g = quantile_grid(d, m=20_000)
            assert pairwise_mean(g.nodes) == pytest.approx(d.mean(), abs=5e-3)

    def test_precondition_errors(self):
        with pytest.raises(DomainError):
            quantile_grid(Uniform(0, 1), m=1)
        with pytest.raises(DomainError):
            quantile_grid(Uniform(0, 1), m=10, delta=0.2)  # delta >= 1/(2m)
        with pytest.raises(DomainError):
            quantile_grid(Uniform(0, 1), m=4, delta=0.2)  # no longer clips u_1 = 0.125


class TestInvariants:
    def test_quantile_monotone(self):
        rng = np.random.default_rng(42)
        for d in ALL_DISTS:
            u = np.sort(rng.uniform(1e-6, 1 - 1e-6, 200))
            q = d.quantile(u)
            assert np.all(np.diff(q) >= 0.0)

    def test_galois_pair(self):
        rng = np.random.default_rng(43)
        for d in ALL_DISTS:
            u = rng.uniform(1e-6, 1 - 1e-6, 100)
            q = d.quantile(u)
            assert np.all(d.cdf(q) >= u - 1e-9)
            x = d.quantile(rng.uniform(0.01, 0.99, 100))
            f = d.cdf(x)
            inside = (f > 0.0) & (f < 1.0)
            assert np.all(d.quantile(f[inside]) <= x[inside] + 1e-9)

    def test_empirical_round_trip(self):
        rng = np.random.default_rng(44)
        sample = rng.normal(0, 1, 23)
        d = from_samples(sample)
        n = d.n
        u = (np.arange(1, n + 1) - 0.5) / n
        np.testing.assert_array_equal(d.quantile(u), d.values)


class TestCsv:
    def test_with_header(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("value\n1.5\n2.5\n")
        assert read_value_csv(p) == [1.5, 2.5]

    def test_without_header(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("3\n1\n2\n")
        assert read_value_csv(p) == [3.0, 1.0, 2.0]

    def test_bad_line_named(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("1.0\nhello\n")
        with pytest.raises(IngestionError, match="line 2"):
            read_value_csv(p)


class TestConstructionErrors:
    def test_uniform_needs_a_below_b(self):
        with pytest.raises(DomainError):
            Uniform(1.0, 1.0)

    def test_positive_scale_parameters(self):
        with pytest.raises(DomainError):
            Normal(0.0, 0.0)
        with pytest.raises(DomainError):
            Exponential(-1.0)
