import numpy as np
import pytest

from mkdiv.errors import EvaluationError
from mkdiv.numerics import (
    bisect_decreasing,
    first_outside,
    golden_section,
    midpoint_u,
    pairwise_mean,
    pairwise_sum,
)


class TestPairwise:
    def test_empty_and_singleton(self):
        assert pairwise_sum([]) == 0.0
        assert pairwise_sum([3.5]) == 3.5

    def test_mean_requires_values(self):
        with pytest.raises(EvaluationError):
            pairwise_mean([])

    def test_matches_exact_on_integers(self):
        x = np.arange(1, 101, dtype=float)
        assert pairwise_sum(x) == 5050.0

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 9, 100, 1000, 1001, 1025])
    def test_tree_is_the_zero_padded_tree(self, n):
        def padded_tree(a):
            width = 1 << (a.size - 1).bit_length()
            a = np.concatenate([a, np.zeros(width - a.size)])
            while a.size > 1:
                a = a[0::2] + a[1::2]
            return float(a[0])

        rng = np.random.default_rng(n)
        x = rng.normal(0, 1, n) * 10.0 ** rng.integers(-12, 12, n)
        x[rng.integers(0, n, max(1, n // 4))] = -0.0
        for values in (x, np.full(n, -0.0)):
            got, want = pairwise_sum(values), padded_tree(values)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


INF = np.inf


class TestFirstOutside:
    @pytest.mark.parametrize(
        "values, interval, expected",
        [
            ([0.5, 0.2], (0.0, 1.0), None),
            ([0.5, 1.0, 0.0], (0.0, 1.0), 1),  # a value equal to a bound
            ([0.5, 0.0, 2.0], (0.0, 1.0), 1),
            ([[0.5, 0.5], [0.5, 2.0]], (0.0, 1.0), 3),  # flat index
            ([2.0, -1.0], (-INF, 1.0), 0),
            ([0.5, -3.0], (-2.0, INF), 1),
            ([-1e308, 1e308], (-INF, INF), None),
            ([INF, -INF, np.nan], (-INF, INF), None),
            ([1.0, INF], (0.0, INF), None),  # +inf on the unbounded side
            ([1.0, -INF], (0.0, INF), 1),
            ([INF], (0.0, 1.0), 0),
            ([np.nan, 0.5], (0.0, 1.0), None),
            ([np.nan, 1.5], (0.0, 1.0), 1),
            ([], (0.0, 1.0), None),
            (0.5, (0.0, 1.0), None),
            (1.0, (0.0, 1.0), 0),
            (np.nan, (0.0, 1.0), None),
        ],
    )
    def test_open_interval(self, values, interval, expected):
        assert first_outside(values, interval) == expected


class TestMidpointGrid:
    def test_nodes(self):
        np.testing.assert_allclose(midpoint_u(4), [0.125, 0.375, 0.625, 0.875])

    def test_clipping(self):
        u = midpoint_u(4, delta=0.2)
        assert u[0] == 0.2 and u[-1] == 0.8


class TestBisect:
    def test_linear_root(self):
        root = bisect_decreasing(lambda x: 1.0 - x, 0.0, 5.0, target=0.0)
        assert root == pytest.approx(1.0, abs=1e-11)

    def test_invalid_bracket(self):
        with pytest.raises(EvaluationError):
            bisect_decreasing(lambda x: -x, 1.0, 2.0, target=0.0)


class TestGolden:
    def test_parabola(self):
        x = golden_section(lambda z: (z - 0.3) ** 2, -1.0, 1.0, width_tol=1e-10)
        assert x == pytest.approx(0.3, abs=1e-8)

    def test_v_shape_kink(self):
        x = golden_section(lambda z: abs(z - 0.25), -2.0, 2.0, width_tol=1e-10)
        assert x == pytest.approx(0.25, abs=1e-8)

    def test_flat_bottom_prefers_left(self):
        f = lambda z: max(abs(z) - 1.0, 0.0)  # flat minimum on [-1, 1]
        x = golden_section(f, -3.0, 3.0, width_tol=1e-10)
        assert x <= -0.99
