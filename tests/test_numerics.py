import math

import numpy as np
import pytest

from mkdiv import COMONOTONIC, from_samples, numerics
from mkdiv.errors import EvaluationError
from mkdiv.numerics import (
    Rule,
    _split_sums,
    brent_minimize,
    brent_root,
    first_outside,
    midpoint_rule,
    pairwise_mean,
    pairwise_sum,
)
from mkdiv.transport import _paired_quantiles


class TestPairwise:
    def test_empty_and_singleton(self):
        assert pairwise_sum([]) == 0.0
        assert pairwise_sum([3.5]) == 3.5
        # a scalar or a row sums to a float; rows of no entries sum to zeros
        for values in (3.5, np.array(3.5), np.array([3.0, 0.5])):
            assert type(pairwise_sum(values)) is float and pairwise_sum(values) == 3.5
        assert pairwise_sum(np.zeros((3, 0))).tobytes() == np.zeros(3).tobytes()

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

    # each axis moved last: the last axis of a strided view is folded alike
    @pytest.mark.parametrize("axis", [0, 1, 2, -1, -3])
    def test_axis_folds_each_slice_by_the_flat_tree(self, axis):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, (33, 8, 7)) * 10.0 ** rng.integers(-12, 12, (33, 8, 7))
        x[rng.random(x.shape) < 0.2] = -0.0
        x[0] = -0.0  # all-negative-zero slices of widths 8 and 7
        slices = np.moveaxis(x, axis, -1)
        got = pairwise_sum(slices)
        assert got.shape == slices.shape[:-1]
        for index in np.ndindex(got.shape):
            assert np.float64(pairwise_sum(slices[index])).tobytes() == got[index].tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 33, 100])
    @pytest.mark.parametrize("block", [1, 2, 4, 8, 64])
    def test_block_sum_is_the_fold_of_the_whole(self, n, block, monkeypatch):
        # blocks arrive along the last axis, as report-by-atom tiles do; a
        # rule with a total of 1 and unit counts folds the values themselves
        rng = np.random.default_rng(n)
        x = rng.normal(0, 1, (3, n)) * 10.0 ** rng.integers(-12, 12, (3, n))
        x[rng.random(x.shape) < 0.3] = -0.0
        x[0] = -0.0  # an all-negative-zero row
        monkeypatch.setattr(numerics, "_BLOCK", block)
        rule = Rule(np.ones(n, dtype=int), 1)
        assert [(c.start, c.stop) for c in rule.blocks()] == [
            (i, min(i + block, n)) for i in range(0, n, block)]
        assert rule.fold(lambda cells: x[:, cells]).tobytes() == pairwise_sum(x).tobytes()
        row = rule.fold(lambda cells: x[1, cells])
        assert type(row) is float
        assert np.float64(row).tobytes() == np.float64(pairwise_sum(x[1])).tobytes()
        equal = Rule(None, n).fold(lambda cells: x[:, cells])
        assert equal.tobytes() == (pairwise_sum(x) / n).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 33, 40])
    @pytest.mark.parametrize("rows", [1, 5])
    def test_split_sums_are_each_segments_own_fold(self, n, rows):
        # a segment of -0.0 entries must keep its sign, whatever the width
        # of the row it was cut from
        rng = np.random.default_rng(n + rows)
        x = rng.normal(0, 1, (rows, n)) * 10.0 ** rng.integers(-12, 12, (rows, n))
        x[rng.random(x.shape) < 0.4] = -0.0
        x[0, : n // 2] = -0.0
        x[-1, n // 2 :] = -0.0
        for cut in (np.full(rows, 1), np.full(rows, n - 1), rng.integers(1, n, rows),
                    np.full(rows, n // 2)):
            head, tail = _split_sums(x, cut)
            assert head.tobytes() == np.array([pairwise_sum(r[:c]) for r, c in zip(x, cut)]).tobytes()
            assert tail.tobytes() == np.array([pairwise_sum(r[c:]) for r, c in zip(x, cut)]).tobytes()


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


class TestRule:
    def test_nodes(self):
        np.testing.assert_allclose(midpoint_rule(4).u, [0.125, 0.375, 0.625, 0.875])

    @pytest.mark.parametrize("m", [2, 3, 1000, 1001])
    @pytest.mark.parametrize("special", [None, -0.0, INF, -INF])
    def test_equal_cells_integrate_as_the_mean(self, m, special):
        rng = np.random.default_rng(m)
        x = rng.normal(0.0, 1.0, m)
        x[rng.integers(0, m, max(1, m // 4))] = -0.0
        if special is not None:
            x[rng.integers(0, m)] = special
        assert repr(midpoint_rule(m).integrate(x)) == repr(pairwise_mean(x))

    @pytest.mark.parametrize("n1, n2", [(1, 1), (2, 3), (4, 6), (7, 5), (12, 8), (30, 30)])
    def test_merge_rule_has_the_merged_cells(self, n1, n2):
        rng = np.random.default_rng([n1, n2])
        f1, f2 = from_samples(rng.normal(size=n1)), from_samples(rng.normal(size=n2))
        rule, _ = _paired_quantiles(
            f1._atom_reader(10, 0.0), f2._atom_reader(10, 0.0), COMONOTONIC)
        total = math.lcm(n1, n2)
        cuts = np.union1d(np.arange(n1) * (total // n1), np.arange(n2) * (total // n2))
        counts = np.diff(cuts, append=total)
        assert rule.total == total
        # equal counts give the midpoint rule of n cells: the merged cells
        assert (rule.counts is None) == (n1 == n2)
        assert rule.counts is None or rule.counts.tobytes() == counts.tobytes()
        assert rule.u.tobytes() == ((cuts + 0.5 * counts) / total).tobytes()

    def test_equal_cells_add_no_array_to_the_peak(self, peak_bytes):
        # a counts * x product would add one 2 MB array to the fold's 1.5 MB
        x = np.random.default_rng(3).normal(size=250_000)
        rule = midpoint_rule(x.size)
        integrate, fold = lambda: rule.integrate(x), lambda: pairwise_sum(x)
        integrate(), fold()  # warm: the first call allocates interpreter state
        assert peak_bytes(integrate) <= peak_bytes(fold)


class _Probes:
    """Residual wrapper that records every probe and checks that it lies
    strictly inside the bracket implied by the residual signs so far."""

    def __init__(self, f, a, b):
        self.f, self.xs = f, []
        fa, fb = f(a), f(b)
        self.pos, self.neg = (a, b) if fa > 0 else (b, a)
        self.ends = (a, b, fa, fb)

    def __call__(self, x):
        assert min(self.pos, self.neg) < x < max(self.pos, self.neg)
        self.xs.append(x)
        fx = self.f(x)
        if fx > 0:
            self.pos = x
        elif fx < 0:
            self.neg = x
        return fx


class TestBrent:
    def run(self, f, a, b, width_tol=1e-14):
        probes = _Probes(f, a, b)
        x, fx = brent_root(probes, *probes.ends, width_tol=width_tol)
        return x, fx, probes

    def test_linear_root_in_two_probes(self):
        # the secant step lands on the root, or one step of half the
        # stopping width past it closes the bracket
        x, fx, probes = self.run(lambda x: 2.0 - x, 0.0, 5.0)
        assert x == pytest.approx(2.0, abs=1e-14)
        assert len(probes.xs) <= 2

    def test_cubic_root(self):
        x, fx, probes = self.run(lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0)
        assert x == pytest.approx(2.0945514815423265, rel=1e-14)
        assert fx == x**3 - 2.0 * x - 5.0
        assert len(probes.xs) <= 10

    def test_log_root_from_either_end(self):
        f = lambda s: math.log(3.0) - s  # decreasing: a positive left end
        for a, b in ((-18.0, 18.0), (18.0, -18.0)):
            x, _, probes = self.run(f, a, b)
            assert x == pytest.approx(math.log(3.0), rel=1e-14)
            assert len(probes.xs) <= 3
        g = lambda x: math.log(x) - math.log(0.02)
        x, _, probes = self.run(g, 1e-8, 1e8)
        assert x == pytest.approx(0.02, rel=1e-12)
        assert len(probes.xs) <= 40

    @pytest.mark.parametrize(
        "f",
        [
            lambda x: math.inf if x < 1.0 else 2.0 - x,
            lambda x: math.inf if x > 4.0 else x - 2.0,
        ],
    )
    def test_infinite_residual_falls_back_to_bisection(self, f):
        x, _, probes = self.run(f, 0.0, 5.0)
        assert x == pytest.approx(2.0, abs=1e-14)
        assert probes.xs[0] == 2.5  # a secant step through inf would not move

    @pytest.mark.parametrize("width_tol", [1e-3, 1e-8, 1e-14])
    def test_stops_at_the_width_rule(self, width_tol):
        # a jump has no interpolable root: the bracket must still close
        # to the stopping width around it, at the pace of bisection
        root = 0.3
        x, _, probes = self.run(lambda x: 1.0 if x < root else -1.0, 0.0, 1.0, width_tol)
        other = probes.neg if x == probes.pos else probes.pos
        assert x in (probes.pos, probes.neg)
        assert min(x, other) < root <= max(x, other)
        assert abs(x - other) <= width_tol * (1.0 + abs(x) + abs(other))
        assert len(probes.xs) <= math.ceil(math.log2(1.0 / width_tol)) + 3

    def test_zero_at_an_end_and_invalid_bracket(self):
        assert brent_root(lambda x: 1.0 / 0.0, 1.0, 2.0, 0.0, -1.0) == (1.0, 0.0)
        assert brent_root(lambda x: 1.0 / 0.0, 1.0, 2.0, 1.0, 0.0) == (2.0, 0.0)
        with pytest.raises(EvaluationError):
            brent_root(lambda x: x, 1.0, 2.0, 1.0, 2.0)


class TestBrentMinimize:
    def test_parabola(self):
        x = brent_minimize(lambda z: (z - 0.3) ** 2, -1.0, 1.0, width_tol=1e-10)
        assert x == pytest.approx(0.3, abs=1e-8)

    def test_v_shape_kink(self):
        x = brent_minimize(lambda z: abs(z - 0.25), -2.0, 2.0, width_tol=1e-10)
        assert x == pytest.approx(0.25, abs=1e-8)

    def test_flat_bottom_prefers_left(self):
        f = lambda z: max(abs(z) - 1.0, 0.0)  # flat minimum on [-1, 1]
        x = brent_minimize(f, -3.0, 3.0, width_tol=1e-10)
        assert x <= -0.99

    @pytest.mark.parametrize(
        "f",
        [
            lambda z: (z - 0.3) ** 2,
            lambda z: z,  # the minimum at the left end
            lambda z: -z,  # the minimum at the right end
            lambda z: max(abs(z) - 0.5, 0.0),  # flat on [-0.5, 0.5]
        ],
    )
    def test_each_point_is_evaluated_once_and_no_end(self, f):
        seen = []

        def probe(z):
            seen.append(z)
            return f(z)

        brent_minimize(probe, -1.0, 1.0)
        assert len(seen) == len(set(seen))
        assert -1.0 not in seen and 1.0 not in seen
        assert all(-1.0 < z < 1.0 for z in seen)

    @pytest.mark.parametrize("center", [0.3, -0.7, 1e-3])
    def test_the_end_is_within_the_stopping_width(self, center):
        # the minimiser stays inside the bracket, so the best probe lies
        # within its final width, 1e-8 * (1 + |a| + |b|) <= 3e-8 here
        x = brent_minimize(lambda z: abs(z - center) + 0.1 * (z - center) ** 2, -1.0, 1.0)
        assert abs(x - center) <= 3e-8

    def test_a_smooth_minimum_takes_few_probes(self):
        # parabolic steps converge superlinearly where golden-section takes
        # log(2e-8 / 2) / log(0.618), about 38 probes; the minimum value 0
        # keeps the objective from being flat to rounding around it
        seen = []

        def probe(z):
            seen.append(z)
            return (z - 0.3) ** 2 * (2.0 + math.sin(5.0 * z))

        x = brent_minimize(probe, -1.0, 1.0)
        assert abs(x - 0.3) <= 2e-8
        assert len(seen) <= 12

    def test_an_overflowing_parabola_takes_a_golden_step(self):
        # the second and third probes lie 1.7e308 above the first, so the
        # parabola through the three has a q that overflows and a finite p;
        # the fourth probe is then the golden step into the larger part
        # [x0, b] of the bracket, not a minimum-length step beside x0
        seen = []

        def probe(z):
            seen.append(z)
            return (z - x0) ** 2 if abs(z - x0) <= 0.2 else 1.7e308

        x0 = -1.0 + (3.0 - math.sqrt(5.0))  # the first probe of [-1, 1]
        assert brent_minimize(probe, -1.0, 1.0) == x0
        assert seen[0] == x0 and seen[1] > x0 > seen[2]
        assert seen[3] == pytest.approx(x0 + (3.0 - math.sqrt(5.0)) / 2.0 * (seen[1] - x0))

    def test_infinite_values_take_golden_steps(self):
        x = brent_minimize(lambda z: math.inf if z > 0.5 else (z - 0.2) ** 2, -1.0, 1.0)
        assert abs(x - 0.2) <= 3e-8

    def test_a_bracket_narrower_than_the_width_gives_its_midpoint(self):
        assert brent_minimize(lambda z: 1.0 / 0.0, 2.0, 2.0 + 1e-9) == 2.0 + 5e-10
        assert brent_minimize(lambda z: 1.0 / 0.0, 1e308, 1e308) == 1e308

    def test_a_v_shape_on_a_huge_bracket_converges(self):
        # the bracket closes from 2e300 to the stopping width in about 1,280 probes
        x = brent_minimize(lambda z: abs(z - 0.25), -1e300, 1e300)
        assert abs(x - 0.25) <= 3e-8

    def test_no_finite_probe_raises(self):
        # finite only within 1e-12 of a point that no probe reaches
        f = lambda z: 0.0 if abs(z - 0.123456789) < 1e-12 else math.inf
        with pytest.raises(EvaluationError, match=r"no finite value on \[-1.0, 1.0\]"):
            brent_minimize(f, -1.0, 1.0)

    def test_a_spent_cap_raises(self, monkeypatch):
        monkeypatch.setattr(numerics, "_MAX_ITER", 5)
        with pytest.raises(EvaluationError, match=r"spent its 5 steps on \[-1.0, 1.0\]"):
            brent_minimize(lambda z: abs(z - 0.25), -1.0, 1.0)
