import numpy as np
import pytest

from mkdiv import (
    DomainError,
    dual_power,
    entropy_generator,
    exponential_generator,
    generator_catalog,
    identity_distortion,
    power_distortion,
    quadratic,
    quartic,
    tvar_distortion,
)
from mkdiv.numerics import midpoint_rule, pairwise_mean

ALL_DISTORTIONS = [
    identity_distortion(),
    dual_power(2.0),
    dual_power(3.0),
    tvar_distortion(0.9),
    power_distortion(0.5),
]


def _domain_sample(gen, rng, n=200):
    lo, hi = gen.domain
    lo = max(lo, -5.0) if lo == -np.inf else lo + 1e-3
    hi = min(hi, 5.0) if hi == np.inf else hi - 1e-3
    return rng.uniform(lo, hi, n)


class TestBregman:
    def test_quadratic_is_squared_distance(self):
        assert quadratic().bregman(3.0, 1.0) == 4.0

    def test_quartic_hand_value(self):
        # phi(0) - phi(1) - 4*1^3*(0 - 1) = 0 - 1 + 4 = 3
        assert quartic().bregman(0.0, 1.0) == 3.0

    def test_quartic_is_exactly_even_and_odd(self):
        x = np.sort(np.random.default_rng(7).normal(0, 1, 10_000))
        x[0] = -0.0
        gen = quartic()
        assert gen.phi(-x).tobytes() == gen.phi(x).tobytes()
        assert gen.dphi(-x).tobytes() == (-gen.dphi(x)).tobytes()

    def test_identity_case_zero(self):
        for gen in generator_catalog().values():
            a = 0.7 if gen.domain[0] == 0.0 else -0.7
            assert gen.bregman(a, a) == 0.0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            entropy_generator().bregman(-1.0, 1.0)
        with pytest.raises(DomainError, match="second Bregman argument") as info:
            entropy_generator().bregman(np.ones(3), np.array([1.0, 0.0, -1.0]))
        assert info.value.index == 1

    def test_nonnegative_and_strict(self):
        rng = np.random.default_rng(0)
        for gen in generator_catalog().values():
            a = _domain_sample(gen, rng)
            b = _domain_sample(gen, rng)
            vals = gen.bregman(a, b)
            assert np.all(vals >= -1e-12)
            distinct = np.abs(a - b) > 1e-3
            assert np.all(vals[distinct] > 0.0)


class TestInverseDerivative:
    def test_quadratic(self):
        assert quadratic().inv_dphi_fn(4.0) == 2.0

    def test_entropy(self):
        # dphi = log x + 1; inverse at 1 is exp(0) = 1
        assert entropy_generator().inv_dphi_fn(1.0) == 1.0

    def test_inverse_consistency(self):
        rng = np.random.default_rng(1)
        for gen in generator_catalog().values():
            x = _domain_sample(gen, rng)
            back = gen.inv_dphi_fn(gen.dphi(x))
            assert np.all(np.abs(back - x) <= 1e-12 * (1.0 + np.abs(x)))

    def test_derivative_strictly_increasing(self):
        rng = np.random.default_rng(3)
        for gen in generator_catalog().values():
            x = np.sort(_domain_sample(gen, rng))
            d = gen.dphi(x)
            assert np.all(np.diff(d) >= 0.0)
            distinct = np.diff(x) > 1e-6
            assert np.all(np.diff(d)[distinct] > 0.0)  # catalog is strict


class TestSecondDerivative:
    def test_matches_central_difference_of_the_derivative(self):
        rng = np.random.default_rng(4)
        h = 1e-5
        for gen in generator_catalog().values():
            x = _domain_sample(gen, rng)
            diff = (gen.dphi(x + h) - gen.dphi(x - h)) / (2.0 * h)
            assert np.all(np.abs(gen.d2phi(x) - diff) <= 1e-6 * (1.0 + np.abs(diff))), gen.name


class TestDistortionWeight:
    def test_identity_weight_one(self):
        d = identity_distortion()
        for u in (0.1, 0.5, 0.99):
            assert d.gamma(u) == 1.0

    def test_dual_power_derived(self):
        # g(x) = 1 - (1-x)^2 differentiates to gamma(u) = 2u
        assert dual_power(2.0).gamma(0.25) == 0.5

    def test_tvar_indicator(self):
        d = tvar_distortion(0.9)
        assert d.gamma(0.95) == pytest.approx(10.0)
        assert d.gamma(0.5) == 0.0
        assert d.gamma(0.9) == pytest.approx(10.0)  # left derivative

    def test_domain_error(self):
        with pytest.raises(DomainError):
            identity_distortion().gamma(1.0)
        for u in (np.nan, [0.5, np.nan]):
            with pytest.raises(DomainError, match="needs u in"):
                dual_power(2).gamma(u)

    def test_gamma_monotone(self):
        rng = np.random.default_rng(2)
        for d in ALL_DISTORTIONS:
            u = np.sort(rng.uniform(1e-4, 1 - 1e-4, 300))
            g = d.gamma(u)
            assert np.all(np.diff(g) >= -1e-12)

    @pytest.mark.parametrize("c", [0.3, 0.5, 0.8])
    def test_unbounded_power_weight_has_unit_mass(self, c):
        # tanh-sinh quadrature integrates the singularity of gamma at u = 1;
        # 30 digits keep 1 - u accurate at its nodes next to 1
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            assert abs(mpmath.quad(power_distortion(c).gamma_fn, [0, 1]) - 1) <= 1e-9

    def test_gamma_normalisation_quadrature(self):
        # midpoint quadrature reproduces unit mass for the distortions whose
        # weight is bounded; the power distortion's unbounded weight is
        # checked by mpmath above
        u = midpoint_rule(100_000).u
        for d in ALL_DISTORTIONS[:4]:
            assert pairwise_mean(d.gamma(u)) == pytest.approx(1.0, abs=1e-6)

    def test_concavity_flags(self):
        assert not identity_distortion().strictly_concave
        assert not tvar_distortion(0.9).strictly_concave
        assert dual_power(2.0).strictly_concave
        assert not dual_power(1.0).strictly_concave
        assert power_distortion(0.5).strictly_concave


class TestParameterValidation:
    def test_dual_power_k(self):
        with pytest.raises(DomainError):
            dual_power(0.5)

    def test_tvar_alpha(self):
        with pytest.raises(DomainError):
            tvar_distortion(1.0)

    def test_power_c(self):
        with pytest.raises(DomainError):
            power_distortion(1.5)
