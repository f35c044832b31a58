import numpy as np
import pytest

from mkdiv import (
    ANTITONIC,
    COMONOTONIC,
    BregmanScore,
    ConfigError,
    DecomposableScore,
    DomainError,
    EntropicScore,
    ExpectileScore,
    GPLScore,
    LambdaQuantileScore,
    Score,
    ShortfallScore,
    StepFunction,
    check_submodular,
    cube_map,
    dist_transform,
    exp_map,
    exponential_loss,
    identity_map,
    linear_loss,
    log_map,
    negation_map,
    osband_transform,
    power_loss,
    quadratic,
    quartic,
    reciprocal_map,
)
from mkdiv.generators import entropy_generator, exponential_generator

TWO_STEP = StepFunction([0.0], [0.3, 0.7])


def catalog_scores():
    """One member per family, in each family's natural domain."""
    return [
        BregmanScore(quadratic()),
        BregmanScore(quartic()),
        BregmanScore(exponential_generator()),
        GPLScore(0.9, identity_map()),
        GPLScore(0.5, cube_map()),
        LambdaQuantileScore(TWO_STEP),
        ExpectileScore(0.7, quadratic()),
        ShortfallScore(linear_loss()),
        ShortfallScore(exponential_loss(1.0)),
        ShortfallScore(power_loss(3.0)),
        DecomposableScore(quadratic(), 0.7, 0.3),
        EntropicScore(1.0, quadratic()),
    ]


class TestEvalExamples:
    def test_bregman_squared_loss(self):
        assert BregmanScore(quadratic())(1.0, 3.0) == 4.0

    def test_gpl_direct_substitution(self):
        assert GPLScore(0.9)(2.0, 5.0) == pytest.approx(2.7)

    def test_expectile_weighted_bregman(self):
        assert ExpectileScore(0.7)(0.0, 1.0) == pytest.approx(0.7)

    def test_decomposable(self):
        assert DecomposableScore(quadratic(), 0.7, 0.3)(1.0, 4.0) == pytest.approx(6.3)

    def test_shortfall_linear(self):
        assert ShortfallScore(linear_loss())(1.0, 4.0) == pytest.approx(4.5)

    def test_lambda_constant_half(self):
        s = LambdaQuantileScore(StepFunction([], [0.5]))
        assert s(3.0, 1.0) == 1.0

    def test_entropic_spot_value(self):
        assert EntropicScore(1.0, quadratic())(0.0, np.log(2.0)) == pytest.approx(1.0)

    def test_domain_error_names_family(self):
        s = BregmanScore(entropy_generator())
        with pytest.raises(DomainError, match="score family 'bregman'"):
            s(-1.0, 1.0)
        with pytest.raises(DomainError) as info:
            s(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, -3.0]))
        assert info.value.index == 2


class TestStepFunction:
    def test_integral_matches_riemann_oracle(self):
        # the midpoint oracle's own error is bounded by the total level jump
        # (0.6) times one cell width, ~1.5e-5 here
        step = StepFunction([-0.5, 0.3, 1.2], [0.2, 0.35, 0.5, 0.8])
        rng = np.random.default_rng(5)
        for _ in range(20):
            y, z = rng.uniform(-2, 3, 2)
            grid = np.linspace(y, z, 200_001)
            mid = 0.5 * (grid[:-1] + grid[1:])
            riemann = np.sum(step(mid)) * (z - y) / (len(grid) - 1)
            assert step.integral(y, z) == pytest.approx(riemann, abs=5e-5)

    def test_monotone_levels_required(self):
        with pytest.raises(ConfigError):
            StepFunction([0.0, 1.0], [0.3, 0.7, 0.4])

    def test_levels_inside_unit_interval(self):
        with pytest.raises(ConfigError):
            StepFunction([0.0], [0.0, 0.7])

    @pytest.mark.parametrize("breakpoints,levels", [([], [np.nan]), ([0.0], [0.3, np.nan])])
    def test_nan_levels_rejected(self, breakpoints, levels):
        with pytest.raises(ConfigError, match=r"^levels must lie strictly inside \(0, 1\)$"):
            StepFunction(breakpoints, levels)

    @pytest.mark.parametrize(
        "breakpoints,levels,message",
        [(["a"], [0.3, 0.7], "numeric"), (0.0, [0.3, 0.7], "flat"), ([0.0], [[0.3, 0.7]], "flat")],
    )
    def test_malformed_entries_rejected(self, breakpoints, levels, message):
        with pytest.raises(ConfigError, match=message):
            StepFunction(breakpoints, levels)

    @pytest.mark.parametrize(
        "breakpoints,index",
        [([np.nan], 0), ([np.inf], 0), ([0.0, np.nan], 1), ([-np.inf, 0.0], 0)],
    )
    def test_non_finite_breakpoints_rejected(self, breakpoints, index):
        levels = np.linspace(0.3, 0.7, len(breakpoints) + 1)
        with pytest.raises(ConfigError, match=f"breakpoints must be finite, got .* at index {index}$"):
            StepFunction(breakpoints, levels)

    def test_decreasing_levels_allowed(self):
        step = StepFunction([0.0], [0.7, 0.3])
        assert step(-1.0) == 0.7
        assert step(0.0) == 0.3  # right-continuity

    def test_json_round_trip(self, tmp_path):
        import json

        p = tmp_path / "steps.json"
        p.write_text(json.dumps({"breakpoints": [0.0], "levels": [0.3, 0.7]}))
        loaded = StepFunction.from_json(p)
        np.testing.assert_array_equal(loaded.breakpoints, TWO_STEP.breakpoints)
        np.testing.assert_array_equal(loaded.levels, TWO_STEP.levels)


# every float class a weight's comparison can meet: signed zeros and
# infinities, NaN, and the ends of the finite range
EDGE_VALUES = np.array([-np.inf, -1e308, -1.0, -0.0, 0.0, 0.5, 1.0, 1e308, np.inf, np.nan])


class TestTwoSidedWeights:
    """Each two-sided weight is one ``np.where``; on every pair of edge
    values it gives the bits of the float-indicator arithmetic it replaces."""

    Z, Y = (a.ravel() for a in np.meshgrid(EDGE_VALUES, EDGE_VALUES))

    @staticmethod
    def _same_bits(new, old):
        assert new.tobytes() == old.tobytes()

    @pytest.mark.parametrize("transform", [identity_map(), cube_map()], ids=["identity", "cube"])
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_gpl(self, transform, alpha):
        z, y, g = self.Z, self.Y, transform.fn
        with np.errstate(all="ignore"):
            old = ((y <= z).astype(float) - alpha) * (g(z) - g(y))
            self._same_bits(GPLScore(alpha, transform)._eval(z, y), old)

    @pytest.mark.parametrize("gen", [quadratic(), exponential_generator()], ids=["quadratic", "exp"])
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_expectile(self, gen, alpha):
        z, y = self.Z, self.Y
        with np.errstate(all="ignore"):
            old = np.abs((y <= z).astype(float) - alpha) * gen.bregman(y, z)
            self._same_bits(ExpectileScore(alpha, gen)._eval(z, y), old)

    @staticmethod
    def _old_decomposable(score, z, y):
        below = (y <= z).astype(float)
        weight = score.alpha * (1.0 - below) + score.beta * below
        return score.gen.phi(np.abs(z - y)) * weight

    @pytest.mark.parametrize(
        "alpha, beta", [(0.7, 0.3), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (0.5, 0.5)]
    )
    def test_decomposable(self, alpha, beta):
        score = DecomposableScore(quadratic(), alpha, beta)
        with np.errstate(all="ignore"):
            self._same_bits(score._eval(self.Z, self.Y),
                            self._old_decomposable(score, self.Z, self.Y))

    @pytest.mark.parametrize("alpha, beta", [(-0.0, 0.5), (0.5, -0.0)])
    def test_decomposable_negative_zero_weight_keeps_its_sign(self, alpha, beta):
        # a weight of -0.0 reaches the value as -0.0, which the float-indicator
        # sum alpha * (1 - below) + beta * below turns into +0.0: the values
        # are equal, and only zeros differ, in sign alone
        score = DecomposableScore(quadratic(), alpha, beta)
        with np.errstate(all="ignore"):
            new = score._eval(self.Z, self.Y)
            old = self._old_decomposable(score, self.Z, self.Y)
        np.testing.assert_array_equal(new, old)
        differ = new.view(np.uint64) != old.view(np.uint64)
        assert differ.any() and np.all(new[differ] == 0.0)


class TestNormalisation:
    def test_nonnegative_on_random_grids(self):
        rng = np.random.default_rng(9)
        for s in catalog_scores():
            lo, hi = s.atom_interval
            z = rng.uniform(lo, hi, (40, 1))
            y = rng.uniform(lo, hi, (1, 40))
            assert np.all(np.asarray(s(z, y)) >= 0.0), s.describe()

    def test_loss_sign_and_monotonicity(self):
        from mkdiv import exponential_loss, linear_loss, power_loss

        w = np.linspace(-3.0, 3.0, 61)
        for loss in (linear_loss(), exponential_loss(0.8), power_loss(3.0)):
            vals = loss.ell(w)
            assert np.all(np.diff(vals) >= 0.0)
            assert np.all(vals[w < 0] < 0.0)
            assert np.all(vals[w > 0] > 0.0)
            assert np.all(loss.antiderivative(w) >= 0.0)

    def test_zero_at_point_value_and_positive_elsewhere(self):
        ys = np.linspace(0.2, 2.5, 7)
        for s in catalog_scores():
            for y in ys:
                pv = float(s.point_value(y))
                assert s(pv, y) == pytest.approx(0.0, abs=1e-14)
                for off in (-0.15, 0.2):
                    assert s(pv + off, y) > 0.0

    def test_transformed_point_values(self):
        # zero up to the float round trip of the map pair (log(exp(y)) != y
        # in the last ulp)
        inner = BregmanScore(quadratic())
        s = osband_transform(inner, exp_map())
        y = 0.8
        assert float(s.point_value(y)) == pytest.approx(np.exp(y))
        assert s(np.exp(y), y) == pytest.approx(0.0, abs=1e-12)
        t = dist_transform(inner, reciprocal_map())
        assert float(t.point_value(2.0)) == 0.5
        assert t(0.5, 2.0) == 0.0


class TestReductions:
    def test_constant_lambda_equals_pinball_exactly(self):
        s_lam = LambdaQuantileScore(StepFunction([], [0.5]))
        s_gpl = GPLScore(0.5, identity_map())
        z, y = np.meshgrid(np.linspace(-3, 3, 13), np.linspace(-3, 3, 13))
        np.testing.assert_array_equal(s_lam(z, y), s_gpl(z, y))

    def test_decomposable_specializes_to_expectile(self):
        alpha = 0.7
        s_dec = DecomposableScore(quadratic(), alpha, 1.0 - alpha)
        s_exp = ExpectileScore(alpha, quadratic())
        z, y = np.meshgrid(np.linspace(-2, 2, 11), np.linspace(-2, 2, 11))
        np.testing.assert_allclose(s_dec(z, y), s_exp(z, y), rtol=0, atol=1e-12)

    def test_decomposable_specializes_to_pinball(self):
        # the absolute-value weight function is convex, increasing on the
        # half line and vanishes at 0; its inverse derivative is never used
        from mkdiv import ConvexGenerator

        linear = ConvexGenerator(
            name="abs",
            phi=lambda x: x + 0.0,
            dphi=lambda x: np.ones_like(x),
            d2phi=lambda x: np.zeros_like(x),
            inv_dphi_fn=lambda y: y,
            strictly_convex=False,
        )
        alpha = 0.7
        s_dec = DecomposableScore(linear, alpha, 1.0 - alpha)
        s_gpl = GPLScore(alpha, identity_map())
        z, y = np.meshgrid(np.linspace(-2, 2, 11), np.linspace(-2, 2, 11))
        np.testing.assert_array_equal(s_dec(z, y), s_gpl(z, y))

    def test_entropic_is_the_osband_composition(self):
        inner = dist_transform(BregmanScore(quadratic()), exp_map())
        composed = osband_transform(inner, log_map())
        direct = EntropicScore(1.0, quadratic())
        z, y = np.meshgrid(np.linspace(-1, 1, 9), np.linspace(-1, 1, 9))
        np.testing.assert_array_equal(composed(z, y), direct(z, y))
        assert composed.coupling == COMONOTONIC


class TestTransforms:
    def test_identity_transform_is_identity(self):
        inner = GPLScore(0.5, identity_map())
        s = osband_transform(inner, identity_map())
        z, y = np.meshgrid(np.linspace(-2, 2, 10), np.linspace(-2, 2, 10))
        np.testing.assert_array_equal(s(z, y), inner(z, y))

    def test_identity_data_map_is_identity(self):
        inner = BregmanScore(quadratic())
        s = dist_transform(inner, identity_map())
        z, y = np.meshgrid(np.linspace(-2, 2, 10), np.linspace(-2, 2, 10))
        np.testing.assert_array_equal(s(z, y), inner(z, y))
        assert s.coupling == COMONOTONIC

    def test_osband_exp_zero_on_transformed_diagonal(self):
        s = osband_transform(BregmanScore(quadratic()), exp_map())
        assert s(np.e, 1.0) == 0.0

    def test_decreasing_report_map_flips_claim(self):
        s = osband_transform(BregmanScore(quadratic()), reciprocal_map())
        assert s.coupling == ANTITONIC

    def test_decreasing_data_map_flips_claim(self):
        s = dist_transform(BregmanScore(quadratic()), reciprocal_map())
        assert s.coupling == ANTITONIC

    def test_flip_is_an_involution(self):
        once = dist_transform(BregmanScore(quadratic()), negation_map())
        twice = osband_transform(once, negation_map())
        assert once.coupling == ANTITONIC
        assert twice.coupling == COMONOTONIC

    def test_non_invertible_map_rejected(self):
        from mkdiv import MonotoneMap

        broken = MonotoneMap("oneway", lambda x: x, None, True)
        with pytest.raises(ConfigError):
            osband_transform(BregmanScore(quadratic()), broken)

    def test_gpl_requires_increasing_transform(self):
        with pytest.raises(ConfigError):
            GPLScore(0.5, reciprocal_map())


class TestSubmodularity:
    def test_bregman_quadratic(self):
        ok, witness = check_submodular(
            BregmanScore(quadratic()), [-1, 0, 1, 2], [-1, 0, 1, 2]
        )
        assert ok and witness is None

    def test_shortfall_linear_exhaustive(self):
        grid = [-2, -1, 0, 1, 2]
        ok, witness = check_submodular(ShortfallScore(linear_loss()), grid, grid)
        assert ok and witness is None

    def test_reciprocal_osband_supermodular_with_witness(self):
        s = osband_transform(BregmanScore(quadratic()), reciprocal_map())
        ok, witness = check_submodular(s, [0.5, 1, 2], [0.5, 1, 2])
        assert not ok
        (z1, z2), (z1p, z2p), gap = witness
        assert gap > 0.0
        # recompute the lattice inequality from the returned quadruple
        lo = s(min(z2, z2p), min(z1, z1p)) + s(max(z2, z2p), max(z1, z1p))
        hi = s(z2, z1) + s(z2p, z1p)
        assert lo > hi
        assert gap == pytest.approx(lo - hi)

    def test_deterministic_witness(self):
        s = dist_transform(BregmanScore(quadratic()), reciprocal_map())
        grid = [0.5, 1.0, 1.5, 2.0]
        assert check_submodular(s, grid, grid) == check_submodular(s, grid, grid)

    def test_catalog_scores_submodular(self):
        for s in catalog_scores():
            lo, hi = s.atom_interval
            grid = np.linspace(lo, hi, 12)
            ok, witness = check_submodular(s, grid, grid)
            assert ok, f"{s.describe()} violated submodularity: {witness}"

    def test_adjacent_minors_match_quadruple_scan(self):
        rng = np.random.default_rng(31)
        wavy = lambda z, y: np.sin(3.0 * z * y) + z * z - y  # noqa: E731
        cases = [(s, s.atom_interval) for s in catalog_scores()]
        cases += [
            (osband_transform(BregmanScore(quadratic()), reciprocal_map()), (0.25, 3.0)),
            (dist_transform(BregmanScore(quadratic()), reciprocal_map()), (0.25, 3.0)),
            (wavy, (-1.0, 1.0)),
        ]
        outcomes = set()
        for score, (lo, hi) in cases:
            for _ in range(4):
                zg = rng.uniform(lo, hi, int(rng.integers(2, 9)))
                yg = rng.uniform(lo, hi, int(rng.integers(2, 9)))
                ok, witness = check_submodular(score, zg, yg)
                assert ok == _quadruple_scan_passes(score, zg, yg)
                outcomes.add(ok)
                if not ok:
                    (z1p, z2), (z1, z2p), gap = witness
                    # the witness is an adjacent quadruple with its own gap
                    assert np.searchsorted(np.sort(zg), z1) + 1 == np.searchsorted(
                        np.sort(zg), z1p
                    )
                    lattice = score(z2, z1) + score(z2p, z1p)
                    crossed = score(z2, z1p) + score(z2p, z1)
                    assert gap == pytest.approx(lattice - crossed)
        assert outcomes == {True, False}

    def test_overflowing_cost_rejected(self):
        # exp(800) overflows: with an infinite slack every minor would pass
        s = EntropicScore(1.0, quadratic())
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DomainError, match=r"\(z1, z2\) = \(0\.0, 800\.0\)"):
                check_submodular(s, [0, 1, 2, 800], [0, 1, 2, 800])

    def test_nan_cost_rejected(self):
        class NanAtOneEntry(Score):
            # squared error, except S(1, 2) = c(2, 1) is NaN
            def _eval(self, z, y):
                return np.where((z == 1.0) & (y == 2.0), np.nan, (z - y) ** 2)

        with pytest.raises(DomainError, match=r"nan is not finite at \(z1, z2\) = \(2\.0, 1\.0\)"):
            check_submodular(NanAtOneEntry(), [0, 1, 2], [0, 1, 2])


def _quadruple_scan_passes(score, z_grid, y_grid):
    """The O(n^2 m^2) lattice check over every quadruple, default slack."""
    z1, z2 = np.sort(z_grid), np.sort(y_grid)
    C = np.asarray(score(z2[None, :], z1[:, None]))
    slack = 1e-12 * (1.0 + np.max(np.abs(C)))
    for i in range(len(z1) - 1):
        for ip in range(i + 1, len(z1)):
            for j in range(len(z2) - 1):
                for jp in range(j + 1, len(z2)):
                    if C[i, j] + C[ip, jp] - C[ip, j] - C[i, jp] > slack:
                        return False
    return True


class TestValidation:
    def test_gpl_alpha_domain(self):
        with pytest.raises(DomainError):
            GPLScore(1.0)

    def test_entropic_gamma_positive(self):
        with pytest.raises(DomainError):
            EntropicScore(0.0, quadratic())

    def test_entropic_accepts_positive_halfline_generator(self):
        # the exponential transform keeps arguments inside (0, inf), so a
        # generator living there is fine
        s = EntropicScore(1.0, entropy_generator())
        assert s(0.5, 0.5) == 0.0
        assert s(0.0, 0.5) > 0.0

    def test_decomposable_rejects_nonzero_at_origin(self):
        with pytest.raises(ConfigError):
            DecomposableScore(exponential_generator(), 0.5, 0.5)
