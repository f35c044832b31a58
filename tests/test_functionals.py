import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkdiv import (
    AmbiguityError,
    BregmanScore,
    DomainError,
    Entropic,
    EvaluationError,
    IngestionError,
    Expectile,
    Exponential,
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
    cube_map,
    dist_transform,
    exp_map,
    exponential_loss,
    expected_score,
    from_samples,
    linear_loss,
    log_map,
    osband_transform,
    power_loss,
    quadratic,
    quartic,
)
from mkdiv import functionals
from mkdiv.distributions import _sorted_sample
from mkdiv.functionals import _mean_scores
from mkdiv.numerics import _BLOCK, brent_minimize, pairwise_mean, pairwise_sum
from mkdiv.scores import (
    EntropicScore,
    ExpectileScore,
    LambdaQuantileScore,
    Score,
    ShortfallScore,
)
from test_scores import catalog_scores

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
        # the exponential shortfall is the entropic functional: the same float
        # wherever the entropic functional returns, and the same error where
        # it raises; Normal(800, 1) has a mean of e^Y beyond the float range
        rng = np.random.default_rng(25)
        dists = TEST_DISTS + [Normal(800.0, 1.0), Normal(-800.0, 1.0)] + [
            from_samples(rng.normal(rng.normal(0.0, 3.0), 2.0, 40)) for _ in range(10)
        ]
        returned = 0
        for d in dists:
            for gamma in (0.3, 1.0, 2.0):
                shortfall = Shortfall(exponential_loss(gamma))
                try:
                    e = Entropic(gamma).evaluate(d)
                except MomentError as exc:
                    with pytest.raises(MomentError, match=f"^{re.escape(str(exc))}$"):
                        shortfall.evaluate(d)
                    continue
                returned += 1
                assert repr(shortfall.evaluate(d)) == repr(e), (d, gamma)
        assert returned == 3 * len(dists) - 2

    @pytest.mark.parametrize("gamma", [0.3, 1.0])
    def test_shortfall_exponential_raises_with_entropic_on_lognormal(self, gamma):
        # the grid's top atom of LogNormal(0, 4) makes e^{gamma Y} average
        # beyond the float range, though the atoms' log-mean-exp is finite
        for functional in (Shortfall(exponential_loss(gamma)), Entropic(gamma)):
            with pytest.raises(MomentError, match="exponential moment not finite"):
                functional.evaluate(LogNormal(0, 4))

    @pytest.mark.parametrize("m", [1_000, 10_000, 100_000])
    def test_lognormal_has_no_exponential_moment_at_any_grid_size(self, m):
        # E[e^{gamma Y}] is infinite for every lognormal law, though the
        # log-mean-exp of the grid atoms is finite and grows with m
        for functional in (Shortfall(exponential_loss(1.0)), Entropic(1.0)):
            with pytest.raises(MomentError, match="not finite for the lognormal law"):
                functional.evaluate(LogNormal(0, 1), m)

    @pytest.mark.parametrize("rate", [0.5, 1.0, 1.5])
    def test_exponential_law_has_the_moment_only_below_its_rate(self, rate):
        if rate > 1.0:
            assert Entropic(1.0).evaluate(Exponential(rate)) > 1.0 / rate
        else:
            with pytest.raises(MomentError, match="not finite for the exponential law"):
                Entropic(1.0).evaluate(Exponential(rate))

    def test_point_mass_is_its_own_entropic_value(self):
        assert Entropic(0.7).evaluate(PointMass(2.5)) == 2.5

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


class TestInterval:
    def test_a_quantile_at_a_multiple_of_one_over_n_is_the_flat(self):
        # 0.5 * 4 atoms is 2: every report in [2, 3] minimises the pinball loss
        dist = from_samples([1, 2, 3, 4])
        assert Quantile(0.5).interval(dist) == (2.0, 3.0)
        assert Quantile(0.3).interval(dist) == (2.0, 2.0)

    def test_tau_covers_a_float_level_past_k_over_n(self):
        # the float 0.56 exceeds 14/25, so Q(0.56) is the 15th atom, but the
        # expected score is flat to rounding from the 14th atom on
        dist = from_samples(np.arange(1.0, 26.0))
        assert 0.56 * 25 > 14.0 and Quantile(0.56).evaluate(dist) == 15.0
        assert Quantile(0.56).interval(dist) == (14.0, 15.0)

    def test_a_lambda_quantile_on_a_flat_is_the_flat(self):
        # F of {1, 2, 3, 4} is 0.5 on [2, 3), equal to the level: the
        # evaluated crossing is its upper end
        dist = from_samples([1, 2, 3, 4])
        t = LambdaQuantile(StepFunction([], [0.5]))
        assert t.interval(dist) == (2.0, 3.0) and t.evaluate(dist) == 3.0
        assert LambdaQuantile(StepFunction([], [0.4])).interval(dist) == (2.0, 2.0)

    def test_a_lambda_quantile_interval_keeps_the_crossing_check(self):
        t = LambdaQuantile(StepFunction([0.5], [0.45, 0.55]))
        with pytest.raises(AmbiguityError):
            t.interval(from_samples([0.0, 1.0]))

    @pytest.mark.parametrize(
        "functional",
        [Mean(), Expectile(0.7), Shortfall(linear_loss()), Shortfall(power_loss(3.0)), Entropic(1.0)],
        ids=lambda f: f.describe(),
    )
    def test_a_single_valued_functional_is_its_value(self, functional):
        for dist in TEST_DISTS:
            value = functional.evaluate(dist, 1000)
            assert functional.interval(dist, 1000) == (value, value)

    @pytest.mark.parametrize("alpha", [1e-13, 0.3, 1.0 - 1e-13])
    def test_a_level_near_an_end_stays_inside(self, alpha):
        for dist in (from_samples([1.0, 2.0, 3.0]), Normal(0.0, 1.0)):
            lo, hi = Quantile(alpha).interval(dist)
            assert lo <= Quantile(alpha).evaluate(dist) <= hi
        step = StepFunction([], [alpha])
        assert LambdaQuantile(step).interval(from_samples([1.0, 2.0, 3.0]))[1] in (1.0, 2.0, 3.0)

    def test_a_parametric_quantile_moves_by_tau_only(self):
        lo, hi = Quantile(0.9).interval(Normal(0.0, 1.0))
        assert lo < Quantile(0.9).evaluate(Normal(0.0, 1.0)) < hi
        assert hi - lo < 1.2e-11  # 2 tau over the density there, 0.1755


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

    def test_law_far_below_zero_is_finite(self):
        # every e^{w} underflows to 0 unshifted; the value is that of
        # Normal(0, 1) moved by -800 (about -799.5)
        v = Entropic(1.0).evaluate(Normal(-800.0, 1.0))
        assert v == pytest.approx(Entropic(1.0).evaluate(Normal(0.0, 1.0)) - 800.0, abs=1e-12)

    def test_a_functional_with_neither_method_is_not_implemented(self):
        # the base evaluate runs _evaluate_rows, whose default runs evaluate
        # on each row: with neither overridden the pair must not recurse
        bare = functionals.Functional()
        with pytest.raises(NotImplementedError, match="^Functional defines neither evaluate"):
            bare.evaluate(from_samples([1.0, 2.0]))
        with pytest.raises(NotImplementedError):
            check_axioms(bare, [(np.array([1.0, 2.0]), np.array([0.5, 3.0]))])


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

    def test_makes_no_residual_call(self, calls_to):
        calls = calls_to(Expectile, "residual")
        for d in TEST_DISTS:
            Expectile(0.7).evaluate(d)
        assert calls == []


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

    def test_exponential_makes_no_residual_call(self, calls_to):
        calls = calls_to(Shortfall, "residual")
        for d in TEST_DISTS:
            Shortfall(exponential_loss(0.7)).evaluate(d)
        assert calls == []

    def test_residual_calls_per_evaluate(self, calls_to):
        calls = calls_to(Shortfall, "residual", pick=lambda self, sample, x: x)
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
            assert repr(v) == repr(mean)

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
        # the 0.6-quantile of the four atoms; Brent's search must refine
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

    @pytest.mark.parametrize("z_lo,z_hi", [(-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0)])
    def test_bracket_must_be_finite(self, z_lo, z_hi):
        with pytest.raises(DomainError, match="need finite z_lo < z_hi"):
            argmin_expected_score(BregmanScore(quadratic()), from_samples([0, 1]), z_lo, z_hi)

    @pytest.mark.parametrize("z_lo,z_hi", [(-1e308, 1e308), (-1.7e308, 0.5e308)])
    def test_bracket_width_must_be_finite(self, z_lo, z_hi):
        # linspace would step by inf and start the grid at nan
        with pytest.raises(DomainError, match=r"need a finite bracket width z_hi - z_lo, got \("):
            argmin_expected_score(GPLScore(0.3), Normal(0.0, 1.0), z_lo, z_hi)

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (2, 0)])
    def test_no_report_gives_an_empty_array_of_their_shape(self, shape):
        out = expected_score(BregmanScore(quadratic()), from_samples([0.0, 1.0]), np.empty(shape))
        assert type(out) is np.ndarray and out.shape == shape

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
            # 60 reports x 10^4 nodes span 20 tiles of 512 nodes; one report, one tile
            (ExpectileScore(0.7, quadratic()), Normal(0.3, 0.8), np.linspace(-2.0, 2.5, 60)),
        ],
    )
    def test_expected_score_scalar_matches_rows(self, s, d, zs):
        rows = expected_score(s, d, zs)
        assert rows.shape == zs.shape
        for z, row in zip(zs, rows):
            assert np.float64(expected_score(s, d, float(z))).tobytes() == row.tobytes()

    @pytest.mark.parametrize(
        "zs, message",
        [
            ((-1.0, 1.0), r"report z outside \(0\.0, inf\)"),
            ((0.5, 2.0), r"realization y outside \(0\.0, inf\)"),
            # the first tile's report is in the domain, so the atoms fail
            # before a later report is checked
            ((1.0, -1.0), r"realization y outside \(0\.0, inf\)"),
        ],
    )
    def test_the_first_reports_are_checked_before_the_atoms(self, zs, message):
        # every atom of Normal(0, 1) below its median leaves the domain of log
        score, dist = GPLScore(0.5, log_map()), Normal(0.0, 1.0)
        with pytest.raises(DomainError, match=message):
            expected_score(score, dist, np.array(zs))
        if zs[0] < zs[1]:
            with pytest.raises(DomainError, match=message):
                argmin_expected_score(score, dist, *zs)

    def test_argmin_memory_is_bounded(self, peak_bytes):
        # the 513 x 10^4 report-by-atom matrix alone would take 39 MiB
        assert peak_bytes(lambda: argmin_expected_score(
            ExpectileScore(0.7, quadratic()), Normal(0, 1), -4.0, 4.0, steps=513, m=10_000,
        )) < 32 * 2**20


def _whole_grid_argmin(score, dist, z_lo, z_hi, steps, m):
    """The reference: every grid report scored, the first minimum refined."""
    prep = score._prepare(dist.atoms(m, 0.0))
    zs = np.linspace(z_lo, z_hi, steps)
    values = _mean_scores(score, prep, zs)
    finite = np.isfinite(values)
    if not np.any(finite):
        raise EvaluationError("expected score is non-finite over the whole grid")
    i = int(np.argmin(np.where(finite, values, np.inf)))
    lo, hi = float(zs[max(i - 1, 0)]), float(zs[min(i + 1, steps - 1)])
    return brent_minimize(lambda z: float(functionals._objective(score, prep, np.array([z]))[0]),
                          lo, hi)


_SCAN_SCORES = [
    *catalog_scores(),
    osband_transform(BregmanScore(quadratic()), cube_map()),
    dist_transform(GPLScore(0.7), exp_map()),
]
_SCAN_DISTS = [
    Normal(0.3, 0.8),
    Uniform(-0.5, 1.5),
    LogNormal(0.0, 0.5),
    Exponential(1.0),
    PointMass(0.4),
    from_samples(np.random.default_rng(21).normal(0.5, 1.2, 37)),
    from_samples(np.random.default_rng(22).uniform(0.5, 3.0, 11)),
    from_samples(np.random.default_rng(23).integers(0, 4, 10)),  # tied integers
]


def _counting_reports(calls_to):
    """Wrap ``_mean_scores``; returns the list of report counts per call."""
    return calls_to(functionals, "_mean_scores", pick=lambda score, prep, z: z.size)


class TestCoarseToFineScan:
    """The level-by-level scan returns the whole-grid scan's argmin, repr for repr."""

    @pytest.mark.parametrize("score", _SCAN_SCORES, ids=lambda s: s.describe())
    def test_matches_the_whole_grid_scan(self, score):
        for dist in _SCAN_DISTS:
            z_lo = float(dist.quantile(0.01)) - 1.0
            z_hi = float(dist.quantile(0.99)) + 1.0
            # 64, 65, 257, 1025 and 4097 sit at the boundaries of the first stride
            for steps in (2, 3, 9, 33, 64, 65, 100, 257, 513, 801, 1025, 4097):
                want = _whole_grid_argmin(score, dist, z_lo, z_hi, steps, 1000)
                got = argmin_expected_score(score, dist, z_lo, z_hi, steps=steps, m=1000)
                assert repr(got) == repr(want), (dist.kind, steps)

    def test_flat_minimum_over_several_coarse_cells(self):
        # 0.9 * 10 atoms is an integer: the expected pinball loss is flat between
        # the ninth and tenth atoms, up to rounding noise that a scan without
        # the band around the coarse minimum would follow to a later report
        sample = [-0.59, 0.63, 1.04, 1.03, 1.82, -0.39, 0.54, -0.37, -1.42, -0.7]
        dist, score = from_samples(sample), GPLScore(0.9)
        want = _whole_grid_argmin(score, dist, -1.92, 2.32, 513, 10)
        assert repr(argmin_expected_score(score, dist, -1.92, 2.32)) == repr(want)
        assert 1.04 <= want <= 1.82  # on the flat

    def test_no_finite_coarse_value_scans_the_whole_grid(self, calls_to):
        class Window(Score):
            """Squared error, finite only for reports strictly between the
            points 16 and 32 of the integer grid 0, ..., 512: no point of the
            strides 64 and 16 is finite."""

            family = "window"

            def _eval(self, z, y):
                return np.where((z > 16.0) & (z < 32.0), (z - y) ** 2, np.inf)

        dist = from_samples([20.0, 21.0])
        sizes = _counting_reports(calls_to)
        got = argmin_expected_score(Window(), dist, 0.0, 512.0)
        # 9 at stride 64, then the rest of the whole grid at strides 16 and
        # 4, then 6 around the minimum at 20
        assert sizes[:4] == [9, 33 - 9, 129 - 33, 6]
        assert repr(got) == repr(_whole_grid_argmin(Window(), dist, 0.0, 512.0, 513, 2))
        assert got == pytest.approx(20.5, abs=1e-6)

    def test_a_unimodal_grid_scores_27_reports_in_4_calls(self, calls_to):
        sizes = _counting_reports(calls_to)
        argmin_expected_score(ExpectileScore(0.7, quadratic()), Normal(0, 1), -4.0, 4.0)
        # 9 at stride 64, then the 6 new points of each window at strides 16, 4 and 1
        assert sizes[:4] == [9, 6, 6, 6]
        assert set(sizes[4:]) == {1}  # Brent's search then scores one report a call

    @pytest.mark.parametrize("steps", [513.0, "513", None, 1, np.int64(1)])
    def test_steps_must_be_an_integer_of_at_least_two(self, steps):
        with pytest.raises(DomainError, match="integer steps >= 2"):
            argmin_expected_score(BregmanScore(quadratic()), from_samples([0, 1]), 0.0, 1.0,
                                  steps=steps)


def _workload_draws():
    """The laws and pairs of the functionals benchmark workload at seed 1,
    round 0: six functional/score pairs, each on a normal and a uniform law."""
    rng = np.random.default_rng([1, 4, 0])
    alpha, gamma = float(rng.uniform(0.55, 0.9)), float(rng.uniform(0.5, 1.5))
    pairs = [
        (Mean(), BregmanScore(quadratic())),
        (Mean(), BregmanScore(quartic())),
        (Expectile(alpha), ExpectileScore(alpha, quadratic())),
        (Shortfall(linear_loss()), ShortfallScore(linear_loss())),
        (Shortfall(exponential_loss(gamma)), ShortfallScore(exponential_loss(gamma))),
        (Entropic(gamma), EntropicScore(gamma, quadratic())),
    ]
    for functional, score in pairs:
        u = lambda lo, hi: float(rng.uniform(lo, hi))
        away = score.describe() == "bregman[quartic]"  # positive quartic nodes
        laws = [Normal(u(0.1, 1.0) if away else u(-1.0, 1.0), u(0.5, 1.5)),
                Uniform(u(0.0, 0.5) if away else u(-1.0, 0.0), u(0.5, 2.0))]
        rng.normal(0, 1, (3, 2, 40))  # the op's axiom samples
        for dist in laws:
            yield functional, score, dist


class TestEndGame:
    def test_cost_and_accuracy_on_the_workload_pairs(self, calls_to):
        sizes = _counting_reports(calls_to)
        calls, errors = [], []
        for functional, score, dist in _workload_draws():
            z_lo = float(dist.quantile(0.001)) - 1.0
            z_hi = float(dist.quantile(0.999)) + 1.0
            direct = functional.evaluate(dist, 10_000, 1e-7)
            sizes.clear()
            got = argmin_expected_score(score, dist, z_lo, z_hi, m=10_000, delta=1e-7)
            calls.append(sizes.count(1))
            errors.append(abs(got - direct))
        # golden-section made 30.9 one-report calls per argmin here, and
        # missed by up to 1.7e-8
        assert len(calls) == 12
        assert np.mean(calls) <= 12
        assert max(errors) <= 5e-8

    @pytest.mark.parametrize(
        "alpha, half_width",
        [(0.3, 1e40), (0.3, 1e60), (0.3, 3.9e305), (0.9, 8.9e307)],
    )
    def test_a_wide_bracket_is_searched_to_the_end(self, alpha, half_width):
        # the grid's two steps around the minimum span up to 7e305, which
        # Brent's search closes to the stopping width in up to 1,500 probes
        law = from_samples(Normal(0.0, 1.0).atoms(1000))
        lo, hi = Quantile(alpha).interval(law)
        z = argmin_expected_score(GPLScore(alpha), law, -half_width, half_width)
        assert max(lo - z, z - hi, 0.0) <= 1e-8

    def test_a_bracket_past_the_square_root_of_the_float_range(self):
        z = argmin_expected_score(BregmanScore(quadratic()), Normal(0.25, 1.0), -1.0, 1.3e153)
        assert abs(z - 0.25) <= 3e-8

    def test_no_finite_probe_is_an_error(self):
        # the squared error overflows beyond about 1.3e154, so only the
        # grid's report nearest the mean has a finite expected score; the end
        # game's probes, 1e196 and more from it, all tie at inf
        with pytest.raises(EvaluationError, match="no finite value"):
            argmin_expected_score(BregmanScore(quadratic()), Normal(0.25, 1.0), -1e200, 1e200)

    def test_an_overflowing_sum_is_inf_without_a_warning(self):
        # every score at the grid's last report is finite, and their sum
        # overflows; the suite turns RuntimeWarning into an error
        score, law = EntropicScore(1.0, quadratic()), Normal(0.25, 1.0)
        assert repr(argmin_expected_score(score, law, -5.0, 352.0)) == "0.7496697876208566"
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert expected_score(score, law, 352.0) == math.inf


_TIED_VALUES = st.one_of(
    st.sampled_from([-1.5, -0.5, 0.0, 0.25, 1.0, 2.0]),
    st.floats(-3.0, 3.0).map(lambda x: round(x, 1)),
)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_catalog_pair_elicits_its_whole_set(data):
    """On samples with ties, and with alpha * n an integer half the time, the
    argmin of each catalog functional's score lies in its interval, to
    elicit-check's default tolerance, over elicit-check's default range."""
    sample = data.draw(st.lists(_TIED_VALUES, min_size=2, max_size=40), label="sample")
    n = len(sample)
    level = st.one_of(st.integers(1, n - 1).map(lambda k: k / n), st.floats(0.05, 0.95))
    alpha = data.draw(level, label="alpha")
    step_levels = sorted(data.draw(st.lists(level, min_size=2, max_size=2), label="levels"))
    # a decreasing threshold crosses the cdf once
    step = StepFunction([float(np.median(sample))], step_levels[::-1])
    pairs = [
        (Mean(), BregmanScore(quadratic())),
        (Quantile(alpha), GPLScore(alpha)),
        (Expectile(alpha), ExpectileScore(alpha, quadratic())),
        (Shortfall(linear_loss()), ShortfallScore(linear_loss())),
        (Shortfall(exponential_loss(1.0)), ShortfallScore(exponential_loss(1.0))),
        (Shortfall(power_loss(3.0)), ShortfallScore(power_loss(3.0))),
        (LambdaQuantile(step), LambdaQuantileScore(step)),
        (Entropic(1.0), EntropicScore(1.0, quadratic())),
    ]
    dist = from_samples(sample)
    z_lo, z_hi = float(dist.quantile(0.001)) - 1.0, float(dist.quantile(0.999)) + 1.0
    for functional, score in pairs:
        lo, hi = functional.interval(dist)
        z = argmin_expected_score(score, dist, z_lo, z_hi)
        assert max(lo - z, z - hi, 0.0) <= 1e-5, (functional.describe(), lo, hi, z)


class _ProductScore(Score):
    """S(z, y) = z y: signed zeros, infinities and NaN pass straight through."""

    family = "product"

    def _eval(self, z, y):
        return z * y


def _tiled(score, atoms, zs):
    prep = score._prepare(atoms)
    return [repr(float(v)) for v in _mean_scores(score, prep, np.asarray(zs, dtype=float))]


def _per_report(score, atoms, zs):
    """The reference: each report's scores folded alone, as one 1-D row."""
    return [repr(pairwise_mean(score(float(z), atoms))) for z in zs]


class TestTiledMeans:
    """Every mean of the tiled scan is repr-equal to the 1-D fold of its row."""

    # 1, 2, 6, 9, 33 and 513 reports: the batches the argmin scans
    @pytest.mark.parametrize("reports", [0, 1, 2, 6, 9, 33, 513])
    @pytest.mark.parametrize("m", [1, 2, 3, 31, 32, 33, _BLOCK - 1, _BLOCK + 1, 10_000, 40_001])
    def test_tile_geometry(self, m, reports):
        rng = np.random.default_rng(m)
        # magnitudes over 12 decades make the sum depend on the tree
        atoms = rng.normal(0, 1, m) * 10.0 ** rng.integers(-6, 6, m)
        zs = rng.normal(0, 1, reports)
        score = BregmanScore(quadratic())
        assert _tiled(score, atoms, zs) == _per_report(score, atoms, zs)

    @pytest.mark.parametrize("m", [33, 1000])
    # the transforms prepare the atoms through their inner score
    @pytest.mark.parametrize("score", _SCAN_SCORES, ids=lambda s: s.describe())
    def test_every_catalog_score(self, score, m):
        rng = np.random.default_rng(m)
        lo, hi = score.atom_interval
        atoms, zs = rng.uniform(lo, hi, m), rng.uniform(lo, hi, 513)
        assert _tiled(score, atoms, zs) == _per_report(score, atoms, zs)

    @pytest.mark.parametrize("m", [1, 3, 33])
    def test_more_reports_than_one_tile(self, m):
        rng = np.random.default_rng(m)
        atoms, zs = rng.normal(0, 1, m), rng.normal(0, 1, _BLOCK + 1)
        score = ShortfallScore(exponential_loss(1.0))
        got = _tiled(score, atoms, zs)
        # both ends of each report chunk, and a stride through the first
        picks = np.r_[0:40, 0:_BLOCK:997, _BLOCK - 40 : _BLOCK + 1]
        assert [got[i] for i in picks] == _per_report(score, atoms, zs[picks])

    @pytest.mark.parametrize("special", ["negative_zeros", "mixed_zeros", "inf", "both_infs", "nan"])
    @pytest.mark.parametrize("m", [1, 2, 3, 32, 33, 64, 1000, 10_000, 40_000])
    def test_signed_zeros_infinities_and_nan(self, m, special):
        rng = np.random.default_rng(m)
        atoms = np.full(m, -0.0)
        if special != "negative_zeros":
            atoms = rng.normal(0, 1, m)
            atoms[rng.integers(0, m, max(1, m // 4))] = -0.0
        if special in ("inf", "both_infs"):
            atoms[m // 2] = np.inf
        if special == "both_infs":
            atoms[0] = -np.inf
        if special == "nan":
            atoms[-1] = np.nan
        zs = np.concatenate([[-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf, np.nan], rng.normal(0, 1, 506)])
        score = _ProductScore()
        with np.errstate(invalid="ignore"):
            assert _tiled(score, atoms, zs) == _per_report(score, atoms, zs)

    @pytest.mark.parametrize("m, reports", [(10_000, 513), (1_000_000, 65)])
    def test_memory_is_bounded(self, m, reports, peak_bytes):
        # a tile, its fold and the stack of partial sums, at any m
        score = ExpectileScore(0.7, quadratic())
        atoms, zs = np.linspace(-3.0, 3.0, m), np.linspace(-2.0, 2.0, reports)
        # warm: the first call allocates interpreter state
        _mean_scores(score, score._prepare(atoms[:64]), zs)
        prep = score._prepare(atoms)  # the caller's: two arrays the size of the atoms
        assert peak_bytes(lambda: _mean_scores(score, prep, zs)) <= 2 * 2**20


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

    def test_no_pair_is_a_domain_error(self):
        with pytest.raises(DomainError, match="axiom check needs at least one sample pair"):
            check_axioms(Mean(), [])

    @pytest.mark.parametrize("x, y", [([], []), ([1.0, 2.0], [1.0]), ([1.0, 2.0], [[1.0, 2.0]])])
    def test_an_empty_or_misaligned_pair_is_a_domain_error(self, x, y):
        ok = np.array([0.5, 1.5])
        with pytest.raises(DomainError, match="sample pair 1 is empty or misaligned"):
            check_axioms(Mean(), [(ok, ok), (x, y)])

    def test_mean_trivial_transformations(self):
        # the mean is affine, so every default shift, scale and mix passes
        assert check_axioms(Mean(), self._pairs(pairs=5)).all_passed

    def test_expectile_07_coherent(self):
        report = check_axioms(Expectile(0.7), self._pairs())
        assert report.all_passed, report

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


def _reference_check_axioms(functional, sample_pairs, tol=1e-9):
    """check_axioms as it was before stacking, the reference for its values,
    witnesses and errors: one evaluate(from_samples(sample)) per sample, in
    the order of the checks.  The checks of its arguments are left out."""
    pairs = [(np.asarray(x, dtype=float), np.asarray(y, dtype=float)) for x, y in sample_pairs]

    def T(sample):
        return functional.evaluate(from_samples(sample))

    rows = [(x, y, T(x), T(y)) for x, y in pairs]
    table = (
        ("translation_invariance", "shift", functionals._SHIFTS,
         lambda x, y, tx, ty, m: abs(T(x + m) - (tx + m))),
        ("positive_homogeneity", "scale", functionals._SCALES,
         lambda x, y, tx, ty, s: abs(T(s * x) - s * tx)),
        ("convexity", "mix", functionals._MIXES,
         lambda x, y, tx, ty, lam: T(lam * x + (1.0 - lam) * y)
         - (lam * tx + (1.0 - lam) * ty)),
    )
    checks = [
        functionals._worst(
            ((violation(*row, p), {"pair": k, key: p})
             for k, row in enumerate(rows) for p in params),
            tol,
            name,
        )
        for name, key, params, violation in table
    ]
    monotonicity = functionals._worst(
        ((T(np.minimum(x, y)) - T(np.maximum(x, y)), {"pair": k})
         for k, (x, y, _, _) in enumerate(rows)),
        tol,
        "monotonicity",
    )
    return functionals.AxiomReport(checks=(*checks, monotonicity))



def _reference_expectile(alpha, sample):
    """The expectile of sorted finite atoms as computed one sample at a
    time before the stacked kernel, the reference for its bits."""
    lo, hi = float(sample[0]), float(sample[-1])
    if lo == hi:
        return lo
    a, n = alpha, sample.size
    k = np.arange(1, n + 1)
    c = np.cumsum(sample)
    r = a * (c[-1] - c - (n - k) * sample) - (1.0 - a) * (k * sample - c)
    j = min(max(int(np.count_nonzero(r >= 0.0)), 1), n - 1)
    num = a * pairwise_sum(sample[j:]) + (1.0 - a) * pairwise_sum(sample[:j])
    z = num / (a * (n - j) + (1.0 - a) * j)
    return min(max(z, float(sample[j - 1])), float(sample[j]))


def _reference_entropic(gamma, sample):
    """The entropic functional of sorted finite atoms as computed one sample
    at a time before the stacked kernel."""
    hi = float(sample[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        return hi + math.log(pairwise_mean(np.exp(gamma * (sample - hi)))) / gamma

def _axiom_outcome(check, functional, pairs):
    """Every check's name, pass, worst violation by float.hex and witness,
    or the type and message of the error raised."""
    try:
        report = check(functional, pairs)
    except Exception as exc:
        return type(exc), str(exc)
    return [(c.name, c.passed, float(c.max_violation).hex(), c.witness) for c in report.checks]


AXIOM_FUNCTIONALS = [
    Mean(),
    Quantile(0.3),
    Quantile(0.5),
    Expectile(0.3),
    Expectile(0.5),
    Expectile(0.8),
    Shortfall(linear_loss()),
    Shortfall(exponential_loss(1.3)),
    Shortfall(power_loss(2.0)),
    Entropic(0.7),
    LambdaQuantile(StepFunction([0.0], [0.6, 0.3])),  # a falling step crosses once
]

# ties, both zeros, and values spread over many binades
_AXIOM_VALUE = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False), st.sampled_from([-0.0, 0.0, 1.0, -2.5])
)


def _axiom_sample(n):
    return st.one_of(
        st.lists(_AXIOM_VALUE, min_size=n, max_size=n),
        _AXIOM_VALUE.map(lambda v: [v] * n),
        st.just([-0.0] * n),
    )


_AXIOM_PAIRS = st.lists(
    st.sampled_from([1, 2, 32, 33, 40]).flatmap(
        lambda n: st.tuples(_axiom_sample(n), _axiom_sample(n))
    ),
    min_size=1,
    max_size=4,
)


class TestStackedAxioms:
    """check_axioms evaluates the samples of one length together; every
    report and every error is that of the one-by-one reference."""

    @settings(max_examples=300)
    @given(
        # a rising step may cross twice, and raise
        functional=st.sampled_from([*AXIOM_FUNCTIONALS, LambdaQuantile(StepFunction([0.0], [0.3, 0.6]))]),
        pairs=_AXIOM_PAIRS,
        block=st.sampled_from([_BLOCK, 40, 100]),  # small stacks: pairs span several
    )
    def test_reports_are_the_references_bit_for_bit(self, functional, pairs, block):
        want = _axiom_outcome(_reference_check_axioms, functional, pairs)
        with mock.patch.object(functionals, "_BLOCK", block):
            assert _axiom_outcome(check_axioms, functional, pairs) == want

    @pytest.mark.parametrize("functional", AXIOM_FUNCTIONALS, ids=lambda f: f.describe())
    def test_pairs_spanning_two_stacks(self, functional):
        # 60 pairs of 40 atoms are 540 samples, over the 405 (45 pairs) of one stack
        rng = np.random.default_rng(7)
        pairs = [(rng.normal(0, 1, n), rng.normal(0, 1, n)) for n in [40] * 60 + [33, 1, 40]]
        pairs[3] = (np.round(pairs[3][0]), np.full(40, -0.0))
        want = _axiom_outcome(_reference_check_axioms, functional, pairs)
        assert _axiom_outcome(check_axioms, functional, pairs) == want

    @pytest.mark.parametrize("functional", AXIOM_FUNCTIONALS, ids=lambda f: f.describe())
    def test_values_are_each_samples_evaluate(self, functional):
        # T at every sample, not only the worst violations: ties of -0.0
        # and +0.0 in every sample, which a sort other than the law's may
        # reorder, and rows where np.log and math.log may round apart
        rng = np.random.default_rng(8)
        pairs = [tuple(rng.choice([-0.0, 0.0, 1.0, -1.0, 0.5], (2, n)))
                 for n in [40] * 40 + [33] * 20 + [17, 2, 1]]
        pairs += [tuple(rng.normal(0, 1, (2, 40))) for _ in range(40)]
        want = [[functional.evaluate(from_samples(s)) for stage in functionals._STAGES
                 for s in stage(x, y)] for x, y in pairs]
        assert functionals._axiom_values(functional, pairs).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize(
        "functional",
        [Expectile(0.5), Expectile(0.3), Expectile(0.8), Entropic(0.7), Shortfall(exponential_loss(1.3))],
        ids=lambda f: f.describe(),
    )
    def test_stacked_kernels_are_the_one_sample_code(self, functional):
        # balanced -1s and 1s among zeros of both signs: at 1/2 the
        # expectile is a zero tied with the atoms beside it, where
        # np.maximum and np.minimum would pick the other zero; and normal
        # rows, where np.log and math.log round apart about once in 300
        rng = np.random.default_rng(9)
        rows = [rng.permutation(np.r_[[-1.0, 1.0] * k, rng.choice([-0.0, 0.0], 40 - 2 * k)])
                for k in rng.integers(1, 20, 500)]
        rows += list(rng.normal(0, 1, (1500, 40)) * 10.0 ** rng.integers(-3, 3, (1500, 1)))
        if isinstance(functional, Expectile):
            reference = lambda atoms: _reference_expectile(functional.alpha, atoms)
        else:
            gamma = getattr(functional, "gamma", None) or functional.loss.gamma
            reference = lambda atoms: _reference_entropic(gamma, atoms)
        want = np.array([reference(from_samples(row).values) for row in rows]).tobytes()
        assert functional._evaluate_rows(_sorted_sample(np.array(rows))).tobytes() == want
        assert np.array([functional.evaluate(from_samples(row)) for row in rows]).tobytes() == want

    def _errors_match(self, functional, pairs):
        want = _axiom_outcome(_reference_check_axioms, functional, pairs)
        assert isinstance(want[0], type) and issubclass(want[0], Exception)
        assert _axiom_outcome(check_axioms, functional, pairs) == want
        return want

    @pytest.mark.parametrize("functional", [Mean(), Quantile(0.5), Expectile(0.7)],
                             ids=lambda f: f.describe())
    def test_errors_are_the_first_failing_samples(self, functional):
        ok = np.linspace(-1.0, 1.0, 5)
        # a non-finite entry
        assert self._errors_match(functional, [(ok, ok), (ok, np.array([0, 1, np.nan, 3, 4.0]))]) == (
            IngestionError, "non-finite sample value at index 2: nan")
        # a scale that overflows: 2 x is inf, though T[x] is finite (a shift
        # of -1.5 or 2 cannot overflow a finite x); under the suite's warning
        # filter the overflow itself raises first
        one, big = np.array([0.5]), np.array([1e308])
        assert self._errors_match(functional, [(one, one), (big, one)])[0] is RuntimeWarning
        with np.errstate(over="ignore"):
            assert self._errors_match(functional, [(one, one), (big, one)]) == (
                IngestionError, "non-finite sample value at index 0: inf")
            # pair 1's y fails before pair 0's scale
            assert self._errors_match(functional, [(big, one), (one, np.array([np.inf]))]) == (
                IngestionError, "non-finite sample value at index 0: inf")

    @pytest.mark.parametrize("gamma, functional", [(1.0, Entropic(1.0)),
                                                   (2.0, Shortfall(exponential_loss(2.0)))])
    def test_entropic_errors_are_the_first_failing_samples(self, gamma, functional):
        ok = np.linspace(-1.0, 1.0, 5)
        assert self._errors_match(functional, [(ok, ok), (ok, np.array([0, 1, np.nan, 3, 4.0]))]) == (
            IngestionError, "non-finite sample value at index 2: nan")
        # e^{gamma x} overflows at x = 400 for gamma 2, and at 2 x = 800 for gamma 1
        assert self._errors_match(functional, [(ok, ok), (ok + 400.0, ok)]) == (
            MomentError, f"exponential moment not finite under quadrature (gamma={gamma})")

    def test_overflowing_expectile_sums_raise_the_references_error(self):
        huge = np.array([1e308, 1.1e308, 1.2e308, 1.3e308])
        pairs = [(np.ones(4), np.zeros(4)), (huge, huge / 2)]
        assert self._errors_match(Expectile(0.3), pairs)[0] is RuntimeWarning
        with np.errstate(over="ignore", invalid="ignore"):
            assert self._errors_match(Expectile(0.3), pairs) == (
                MomentError, "expectile sums overflow the float range")

    @pytest.mark.parametrize("shape", [(2, 3), (1, 1), (3, 1)])
    def test_two_dimensional_samples_are_rejected(self, shape):
        # equal shapes pass the alignment check; a stack must not broadcast
        # them, nor take a (1, 1) sample for one value
        pairs = [(np.ones(3), np.zeros(3)), (np.ones(shape), np.zeros(shape))]
        for functional in (Mean(), Expectile(0.7), Entropic(1.0)):
            assert self._errors_match(functional, pairs) == (
                IngestionError, f"a sample must be 1-D, got shape {shape}")

    def test_memory_is_bounded_by_the_values_and_a_stack(self, peak_bytes):
        # the nine values of each pair, and the expectile's working set on
        # one stack of _BLOCK values: the sorted copy, cumulative sums,
        # residuals and the padded fold, about a dozen arrays its size.  The
        # 18,000 samples at once would take 5.8 MB
        rng = np.random.default_rng(2)
        pairs = [(rng.normal(0, 1, 40), rng.normal(0, 1, 40)) for _ in range(2000)]
        check_axioms(Expectile(0.7), pairs[:3])  # warm
        assert peak_bytes(lambda: check_axioms(Expectile(0.7), pairs)) <= (
            9 * len(pairs) * 8 + 16 * _BLOCK * 8)
