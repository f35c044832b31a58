import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mkdiv import (
    AmbiguityError,
    BregmanScore,
    DomainError,
    Entropic,
    Expectile,
    GPLScore,
    LambdaQuantile,
    LogNormal,
    Mean,
    MomentError,
    Normal,
    PointMass,
    Quantile,
    Shortfall,
    StepFunction,
    Uniform,
    argmin_expected_score,
    check_axioms,
    exponential_loss,
    expected_score,
    from_samples,
    linear_loss,
    power_loss,
    quadratic,
)
from mkdiv.numerics import pairwise_mean
from mkdiv.scores import ExpectileScore, ShortfallScore

TEST_DISTS = [
    from_samples([1.0, 2.0, 3.0]),
    from_samples(np.random.default_rng(11).normal(0.5, 1.2, 37)),
    from_samples(np.random.default_rng(12).uniform(-1, 2, 24)),
    Uniform(-0.5, 1.5),
    Normal(0.3, 0.8),
]


class TestEvaluate:
    def test_mean_empirical(self):
        assert Mean().evaluate(from_samples([1, 2, 3])) == 2.0

    def test_expectile_hand_oracle(self):
        # alpha E[(Y-z)+] = (1-alpha) E[(z-Y)+] on {0,1}:
        # 0.8*0.5*(1-z) = 0.2*0.5*z  =>  z = 0.8
        assert Expectile(0.8).evaluate(from_samples([0, 1])) == pytest.approx(
            0.8, abs=1e-9
        )

    def test_shortfall_exponential_equals_entropic(self):
        for d in TEST_DISTS:
            s = Shortfall(exponential_loss(1.0)).evaluate(d)
            e = Entropic(1.0).evaluate(d)
            assert s == pytest.approx(e, abs=1e-9)

    def test_shortfall_linear_is_the_mean(self):
        d = from_samples([0.0, 1.0, 5.0])
        assert Shortfall(linear_loss()).evaluate(d) == pytest.approx(2.0, abs=1e-9)

    def test_lambda_constant_reduces_to_median(self):
        t = LambdaQuantile(StepFunction([], [0.5]))
        assert t.evaluate(from_samples([1, 2, 3])) == 2.0

    def test_lambda_continuous_constant_is_upper_quantile(self):
        t = LambdaQuantile(StepFunction([], [0.5]))
        assert t.evaluate(Uniform(0, 1)) == pytest.approx(0.5, abs=1e-12)

    def test_lambda_two_step_crossing_after_breakpoint(self):
        # threshold steps 0.3 -> 0.6 at 0.2; F of U(0,1) is below 0.3 on the
        # whole first segment, so the unique crossing is at 0.6
        t = LambdaQuantile(StepFunction([0.2], [0.3, 0.6]))
        assert t.evaluate(Uniform(0, 1)) == pytest.approx(0.6, abs=1e-12)

    def test_lambda_two_step_crossing_before_breakpoint(self):
        # crossing at 0.3; at the breakpoint F(0.35) = 0.35 stays above the
        # new level 0.34, so the crossing is unique
        t = LambdaQuantile(StepFunction([0.35], [0.3, 0.34]))
        assert t.evaluate(Uniform(0, 1)) == pytest.approx(0.3, abs=1e-12)

    def test_lambda_dip_after_breakpoint_is_ambiguous(self):
        # threshold steps 0.3 -> 0.6 at 0.5: F of U(0,1) crosses at 0.3,
        # dips below 0.6 on [0.5, 0.6), and crosses again
        t = LambdaQuantile(StepFunction([0.5], [0.3, 0.6]))
        with pytest.raises(AmbiguityError):
            t.evaluate(Uniform(0, 1))

    def test_lambda_cross_path_consistency(self):
        # the empirical scan on a dense grid sample converges to the
        # continuous evaluation at rate 1/m
        from mkdiv import quantile_grid

        t = LambdaQuantile(StepFunction([0.2], [0.3, 0.6]))
        cont = t.evaluate(Uniform(0, 1))
        dense = quantile_grid(Uniform(0, 1), m=4001, delta=0.0).nodes
        emp = t.evaluate(from_samples(dense))
        assert abs(cont - emp) <= 1.0 / 4001 + 1e-12

    def test_entropic_point_mass(self):
        assert Entropic(2.0).evaluate(PointMass(3.5)) == 3.5

    def test_quantile_delegates(self):
        assert Quantile(0.5).evaluate(from_samples([1, 2, 3])) == 2.0

    def test_expectile_half_is_the_mean_parametric(self):
        # the 0.5-expectile coincides with the mean; grid quadrature keeps
        # the symmetric case to ~1e-10
        assert Expectile(0.5).evaluate(Normal(2.0, 3.0)) == pytest.approx(
            2.0, abs=1e-9
        )


def event_scan(step, dist):
    """Reference lambda-quantile of an empirical law: F - Lambda on every atom
    and breakpoint, the first event where it is positive, and an
    AmbiguityError if it dips below -1e-12 at any later event."""
    events = np.unique(np.concatenate([dist.values, step.breakpoints]))
    d = dist.cdf(events) - step(events)
    above = np.flatnonzero(d > 0.0)
    if above.size == 0:
        raise AmbiguityError("cdf never exceeds the threshold on the scan")
    first = int(above[0])
    if np.any(d[first + 1 :] < -1e-12):
        raise AmbiguityError("multiple cdf/threshold crossings detected on the scan grid")
    return float(events[first])


def lambda_corpus(count, seed=41):
    """Seeded (step, empirical law) pairs: n <= 30 atoms, every other sample
    of integers with ties, breakpoints on atoms or between them, levels at
    k/n or anywhere in (0, 1), and both step directions."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(1, 31))
        values = rng.integers(-3, 4, n).astype(float) if k % 2 else rng.normal(0.0, 1.0, n)
        nbp = int(rng.integers(0, 4))
        pool = np.concatenate([values, rng.uniform(-3.5, 3.5, nbp)])
        bp = np.unique(rng.choice(pool, size=min(nbp, pool.size), replace=False))
        if n >= 2 and rng.random() < 0.7:
            levels = np.sort(rng.integers(1, n, bp.size + 1)) / n
        else:
            levels = np.sort(rng.uniform(0.01, 0.99, bp.size + 1))
        if rng.random() < 0.5:
            levels = levels[::-1]
        yield StepFunction(bp, levels), from_samples(values)


def outcome(evaluate):
    try:
        return evaluate()
    except AmbiguityError as exc:
        return f"AmbiguityError: {exc}"


class TestLambdaQuantileScan:
    def test_segment_scan_matches_the_event_scan_on_atoms(self):
        outcomes = []
        for step, dist in lambda_corpus(4000):
            want = outcome(lambda: event_scan(step, dist))
            got = outcome(lambda: LambdaQuantile(step).evaluate(dist))
            assert repr(got) == repr(want), (step, dist.values)
            outcomes.append(got)
        # levels lie inside (0, 1), so the last segment always crosses and
        # the only error the corpus can reach is a second crossing
        errors = [o for o in outcomes if isinstance(o, str)]
        assert 0 < len(errors) < len(outcomes) // 2

    def test_flat_level_gives_the_upper_quantile(self):
        # F of {1, 2, 3, 4} is 0.5 on [2, 3): the first y with F(y) > 0.5 is 3,
        # where the lower quantile stops at 2
        dist = from_samples([1, 2, 3, 4])
        assert LambdaQuantile(StepFunction([], [0.5])).evaluate(dist) == 3.0
        assert Quantile(0.5).evaluate(dist) == 2.0


class TestEvaluateErrors:
    def test_ambiguous_crossings(self):
        # F of {0,1} sits at 0.5 on [0,1); a threshold stepping 0.45 -> 0.55
        # at 0.5 crosses at 0, dips back below, and crosses again at 1
        t = LambdaQuantile(StepFunction([0.5], [0.45, 0.55]))
        with pytest.raises(AmbiguityError):
            t.evaluate(from_samples([0.0, 1.0]))

    def test_overflowing_quantile_names_its_level(self):
        # exp(706 + ndtri(0.99999)) overflows; the scan must not read the
        # infinite candidate as a threshold the cdf never exceeds
        t = LambdaQuantile(StepFunction([], [0.99999]))
        with pytest.raises(MomentError, match=r"^the quantile at level 0\.99999 is not finite: inf$"):
            t.evaluate(LogNormal(706.0, 1.0))

    def test_moment_error_on_overflowing_tail(self):
        t = Entropic(1.0)
        with pytest.raises(MomentError):
            t.evaluate(LogNormal(0.0, 4.0))


class TestExpectileFOC:
    def test_residual_at_solution(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            sample = rng.normal(0, 2, int(rng.integers(5, 40)))
            d = from_samples(sample)
            t = Expectile(float(rng.uniform(0.1, 0.9)))
            z = t.evaluate(d)
            scale = 1.0 + np.mean(np.abs(sample))
            assert abs(t.residual(d.values, z)) <= 1e-14 * scale

    def test_shortfall_root_inside_sample_range(self):
        rng = np.random.default_rng(22)
        for loss in (linear_loss(), exponential_loss(0.7)):
            for _ in range(10):
                sample = rng.normal(0, 1, 19)
                v = Shortfall(loss).evaluate(from_samples(sample))
                assert sample.min() - 1e-9 <= v <= sample.max() + 1e-9


class TestExactExpectile:
    def test_two_atoms_closed_form(self):
        for alpha in (0.01, 0.3, 0.5, 0.77, 0.99):
            for a, b in ((0.0, 1.0), (-3.25, 7.5), (1e-3, 2e-3), (-1e8, 1e8 + 3.0)):
                z = Expectile(alpha).evaluate(from_samples([b, a]))
                expected = alpha * b + (1.0 - alpha) * a
                assert z == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_ties_and_tiny_spread_stay_in_sample_range(self):
        samples = [
            [2.0, 2.0, 2.0, 5.0],
            [1.0, 4.0, 4.0, 4.0],
            [3.0, 3.0, 3.0000000000000004],
            [1e16, 1e16 + 2.0, 1e16 + 4.0],
            [-1e16 - 4.0, -1e16 - 2.0, -1e16],
        ]
        for sample in samples:
            for alpha in np.linspace(0.01, 0.99, 99):
                z = Expectile(float(alpha)).evaluate(from_samples(sample))
                assert min(sample) <= z <= max(sample)

    def test_overflowing_sums_raise(self):
        with pytest.raises(MomentError), np.errstate(over="ignore", invalid="ignore"):
            Expectile(0.3).evaluate(from_samples([1e308, 1.1e308, 1.2e308, 1.3e308]))

    def test_makes_no_residual_call(self, monkeypatch):
        def refuse(self, sample, z):
            raise AssertionError("residual called")

        monkeypatch.setattr(Expectile, "residual", refuse)
        for d in TEST_DISTS:
            Expectile(0.7).evaluate(d)


_ATOMS = st.lists(
    st.one_of(
        st.floats(-1e6, 1e6, allow_nan=False), st.sampled_from([-2.5, 0.0, 1.0, 40.0])
    ),
    min_size=1,
    max_size=60,
)


@given(
    sample=_ATOMS,
    alpha=st.floats(0.01, 0.99, exclude_min=True, exclude_max=True),
    shift=st.floats(-1e6, 1e6, allow_nan=False),
)
def test_exact_expectile_first_order_condition_and_translation(sample, alpha, shift):
    x = np.array(sample)
    t = Expectile(alpha)
    z = t.evaluate(from_samples(x))
    scale = float(np.mean(np.abs(x)))
    assert abs(t.residual(np.sort(x), z)) <= 1e-14 * (1.0 + scale)
    moved = t.evaluate(from_samples(x + shift))
    assert abs(moved - (z + shift)) <= 1e-13 * (1.0 + abs(shift) + scale)


class TestShortfallBrent:
    LOSSES = (linear_loss(), exponential_loss(1.0), power_loss(3.0), power_loss(0.5))

    def test_residual_calls_per_evaluate(self, monkeypatch):
        calls = []
        residual = Shortfall.residual

        def counted(self, sample, x):
            calls.append(x)
            return residual(self, sample, x)

        monkeypatch.setattr(Shortfall, "residual", counted)
        rng = np.random.default_rng(23)
        dists = [from_samples(rng.normal(0.0, 1.5, int(rng.integers(5, 41)))) for _ in range(25)]
        for loss in self.LOSSES:
            for d in dists + TEST_DISTS:
                calls.clear()
                Shortfall(loss).evaluate(d)
                assert len(calls) <= 16, (loss, len(calls))

    def test_linear_is_the_pairwise_mean(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            sample = rng.normal(rng.normal(0.0, 5.0), 2.0, int(rng.integers(2, 50)))
            mean = pairwise_mean(np.sort(sample))
            v = Shortfall(linear_loss()).evaluate(from_samples(sample))
            assert abs(v - mean) <= 1e-12 * abs(mean)

    def test_overflowing_mean_raises(self):
        # every loss value is finite; only their sum overflows
        with pytest.raises(MomentError), np.errstate(over="ignore"):
            Shortfall(linear_loss()).evaluate(from_samples([1.7e308, 1.7e308, 1.0]))

    def test_bracket_near_the_largest_float(self):
        # 1 + |b| + |c| overflows here; the stopping width must not
        v = Shortfall(linear_loss()).evaluate(from_samples(HUGE))
        assert abs(v - 1.15e308) <= 1e-12 * 1.15e308


HUGE = [1e308, 1.1e308, 1.2e308, 1.3e308]


class TestArgmin:
    def test_bracket_near_the_largest_float(self):
        # the 0.6-quantile of the four atoms; golden-section must refine
        # although 1 + |a| + |b| overflows
        z = argmin_expected_score(GPLScore(0.6), from_samples(HUGE), 1.0e308, 1.3e308)
        assert abs(z - 1.2e308) <= 1e-8 * 1.2e308

    def test_pinball_median(self):
        z = argmin_expected_score(GPLScore(0.5), from_samples([1, 2, 3]), 0.0, 4.0)
        assert z == pytest.approx(2.0, abs=1e-2)  # within a grid step

    def test_squared_loss_mean(self):
        z = argmin_expected_score(
            BregmanScore(quadratic()), from_samples([0, 1]), -1.0, 2.0
        )
        assert z == pytest.approx(0.5, abs=1e-6)

    def test_expectile_score_argmin(self):
        z = argmin_expected_score(
            ExpectileScore(0.8, quadratic()), from_samples([0, 1]), 0.0, 1.0
        )
        assert z == pytest.approx(0.8, abs=1e-6)

    def test_ties_break_to_smallest(self):
        # {0,1} with the 0.5-pinball has a flat minimiser interval [0, 1]
        z = argmin_expected_score(GPLScore(0.5), from_samples([0.0, 1.0]), -1.0, 2.0)
        assert z <= 0.01

    def test_all_overflow_grid_raises_evaluation_error(self):
        from mkdiv import EntropicScore, EvaluationError, quadratic

        s = EntropicScore(1.0, quadratic())
        d = from_samples([900.0, 950.0])
        with pytest.raises(EvaluationError):
            argmin_expected_score(s, d, 800.0, 1000.0, steps=11)

    @pytest.mark.parametrize(
        "s,d,zs",
        [
            (ShortfallScore(exponential_loss(1.0)), from_samples([0.0, 0.7, 1.3]),
             np.array([-0.3, 0.2, 0.9])),
            # 60 reports x 10^4 nodes span three blocks of 2^18 score values
            (ExpectileScore(0.7, quadratic()), Normal(0.3, 0.8), np.linspace(-2.0, 2.5, 60)),
        ],
    )
    def test_expected_score_scalar_matches_rows(self, s, d, zs):
        rows = expected_score(s, d, zs)
        assert rows.shape == zs.shape
        for z, row in zip(zs, rows):
            assert np.float64(expected_score(s, d, float(z))).tobytes() == row.tobytes()

    def test_argmin_memory_is_bounded(self):
        # the 513 x 10^4 report-by-atom matrix alone would take 39 MiB
        import tracemalloc

        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            argmin_expected_score(ExpectileScore(0.7, quadratic()), Normal(0, 1), -4.0, 4.0,
                                  steps=513, m=10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestAxioms:
    def _pairs(self, seed=3, pairs=50, size=40):
        rng = np.random.default_rng(seed)
        return [
            (rng.normal(0, 1, size), rng.normal(0, 1, size)) for _ in range(pairs)
        ]

    @pytest.mark.parametrize(
        "tol, message",
        [
            (np.nan, "needs a finite tol, got tol=nan"),
            (-np.inf, "needs a finite tol, got tol=-inf"),
            (-1e-9, "needs a non-negative tol, got tol=-1e-09"),
        ],
    )
    def test_tolerance_must_be_finite_and_non_negative(self, tol, message):
        with pytest.raises(DomainError, match=message):
            check_axioms(Mean(), self._pairs(pairs=1), tol=tol)

    def test_mean_trivial_transformations(self):
        # the mean is affine, so every default shift, scale and mix passes
        assert check_axioms(Mean(), self._pairs(pairs=5)).all_passed

    def test_expectile_07_coherent(self):
        report = check_axioms(Expectile(0.7), self._pairs())
        assert report.all_passed, report.to_json_dict()

    def test_expectile_03_convexity_violation_with_witness(self):
        report = check_axioms(Expectile(0.3), self._pairs())
        conv = report["convexity"]
        assert not conv.passed
        assert conv.witness is not None
        assert conv.max_violation > 1e-9
        # the other coherence axioms hold for any expectile level
        assert report["translation_invariance"].passed
        assert report["positive_homogeneity"].passed
        assert report["monotonicity"].passed

    def test_shortfall_convex_loss_is_convex(self):
        report = check_axioms(Shortfall(exponential_loss(1.0)), self._pairs())
        assert report["convexity"].passed
        assert report["translation_invariance"].passed
        assert report["monotonicity"].passed
        # the entropic premium is not positively homogeneous
        assert not report["positive_homogeneity"].passed
