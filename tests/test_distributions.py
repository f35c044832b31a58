import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mkdiv
from mkdiv import (
    BregmanScore,
    DomainError,
    Empirical,
    Entropic,
    Expectile,
    Exponential,
    IngestionError,
    LogNormal,
    Normal,
    PointMass,
    Quantile,
    QuantileGrid,
    Shortfall,
    Uniform,
    argmin_expected_score,
    check_axioms,
    expected_score,
    from_samples,
    mk_divergence,
    power_loss,
    quadratic,
    quantile_grid,
    read_value_csv,
    wasserstein_p,
)
from mkdiv.distributions import _EXP_M2, _ndtr, _ndtri, _sorted_sample
from mkdiv.functionals import _axiom_values
from mkdiv.transport import _batch_deviations
from mkdiv.numerics import _DEFAULT_DELTA, midpoint_rule, pairwise_mean

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


class TestProbit:
    """The Cephes port behind Normal and LogNormal, certified against mpmath
    and compared with scipy.special, which the library itself never loads."""

    @staticmethod
    def probit(u):
        # one Halley step on Phi(x) = u from the port's value: its 1e-15
        # relative start leaves an error near 1e-45, far below the bound
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(340):
            u = mpmath.mpf(float(u))
            x = mpmath.mpf(float(_ndtri(float(u))))
            f = (mpmath.ncdf(x) - u) / mpmath.npdf(x)
            return float(x - f / (1 + x * f / 2))

    @pytest.mark.parametrize(
        "levels",
        [
            np.logspace(-300, -1, 61),
            np.linspace(_EXP_M2, 1.0 - _EXP_M2, 41)[1:],
            1.0 - 10.0 ** -np.arange(1, 17),
        ],
        ids=["lower-tail", "central", "upper-tail"],
    )
    def test_within_1e_15_of_mpmath(self, levels):
        exact = np.array([self.probit(u) for u in levels])
        err = np.abs(_ndtri(levels) - exact)
        assert np.all(err <= 1e-15 * np.abs(exact))

    def test_central_band_is_scipys_bit_for_bit(self):
        # the band uses no log, only + - * / in Cephes' order
        ndtri = pytest.importorskip("scipy.special").ndtri
        lo, hi = np.nextafter(_EXP_M2, 1.0), 1.0 - _EXP_M2
        u = np.concatenate([[lo, 0.5, hi], np.random.default_rng(5).uniform(lo, hi, 100_000)])
        np.testing.assert_array_equal(_ndtri(u), ndtri(u))

    def test_tails_within_8_ulp_of_scipy(self):
        # np.log may differ from the C library's log by an ulp, which moves
        # s = sqrt(-2 log y) by an ulp: up to 5 ulp of the quantile near the
        # band edge, where s is in [2, 4) and |x| < 2
        ndtri = pytest.importorskip("scipy.special").ndtri
        rng = np.random.default_rng(6)
        lower = np.concatenate([np.logspace(-300, -1, 3000), rng.uniform(0.0, _EXP_M2, 100_000)])
        lower = lower[(lower > 0.0) & (lower <= _EXP_M2)]
        for u in (lower, 1.0 - lower[lower >= 1e-16]):
            port, ref = _ndtri(u), ndtri(u)
            assert np.all(np.abs(port - ref) <= 8 * np.spacing(np.abs(ref)))

    def test_ndtr_within_1e_12_of_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        x = np.linspace(-37.0, 8.0, 451)
        with mpmath.workdps(50):
            exact = np.array([float(mpmath.ncdf(mpmath.mpf(float(v)))) for v in x])
        assert np.all(np.abs(_ndtr(x) - exact) <= 1e-12 * exact)

    def test_ndtr_limits_and_nan(self):
        np.testing.assert_array_equal(_ndtr([-np.inf, 0.0, np.inf]), [0.0, 0.5, 1.0])
        assert np.isnan(_ndtr(np.nan))

    @pytest.mark.parametrize("law", [Normal(0.3, 2.0), LogNormal(0.3, 2.0)], ids=repr)
    def test_return_types(self, law):
        for scalar in (0.3, np.float64(0.3), np.array(0.3)):
            assert type(law.quantile(scalar)) is float
            assert type(law.cdf(scalar)) is float
        u = np.array([[0.1], [0.7]])
        for out in (law.quantile(u), law.cdf(u)):
            assert type(out) is np.ndarray and out.shape == (2, 1) and out.dtype == float


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

    def test_sample_must_be_one_dimensional(self):
        with pytest.raises(IngestionError, match=r"sample must be 1-D, got shape \(2, 2\)"):
            from_samples([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(IngestionError, match=r"got shape \(\)"):
            Empirical(np.float64(1.0))

    @pytest.mark.parametrize("seed", range(6))
    def test_upper_quantile_is_the_cdf_scan_bit_for_bit(self, seed):
        # the scan the O(1) count replaced: the first atom whose cdf exceeds
        # the level, on tied samples, -0.0 and +0.0 among them
        rng = np.random.default_rng(seed)
        for n in (1, 2, 3, 7, 10, 25, 40):
            values = rng.choice([-0.0, 0.0, 1.0, -2.5, 3.0], n) if seed % 2 else rng.integers(0, 4, n)
            d = from_samples(values)
            scan = lambda level: float(d.values[np.searchsorted(d._cdf(d.values), level, "right")])
            for k in range(n + 1):
                for level in (k / n, k / n - 1e-12, k / n + 1e-12, 0.56, 0.1):
                    if 0.0 < level < 1.0:
                        assert d._upper_quantile(level).hex() == scan(level).hex()


def tied_zero_outputs() -> str:
    """What the law, a quantile, an axiom check and a certification batch
    give on samples of tied -0.0 and +0.0, one line each, as text."""
    rng = np.random.default_rng(5)
    law = from_samples(rng.choice([-0.0, 0.0, 1.0], 60))
    pairs = [tuple(rng.choice([-0.0, 0.0, -1.0, 1.0], (2, 40))) for _ in range(3)]
    a, b = rng.choice([-0.0, 0.0, 0.5], (2, 8, 12))
    return "\n".join([
        law.values.tobytes().hex(),
        Quantile(0.5).evaluate(law).hex(),
        repr(check_axioms(Expectile(0.5), pairs)),
        _axiom_values(Expectile(0.5), pairs).tobytes().hex(),
        _batch_deviations(BregmanScore(quadratic()), a, b).tobytes().hex(),
    ])


class TestOneSort:
    """Every sample is sorted by the law's stable sort, which moves no bit
    and keeps tied zeros in input order, on every CPU."""

    def test_tied_zeros_keep_their_input_order(self):
        rows = np.array([[0.0, -0.0, 1.0, -0.0, 0.0, -1.0], [-0.0, 2.0, 0.0, 0.0, -0.0, -3.0]])
        want = np.array([[-1.0, 0.0, -0.0, -0.0, 0.0, 1.0], [-3.0, -0.0, 0.0, 0.0, -0.0, 2.0]])
        assert _sorted_sample(rows).tobytes() == want.tobytes()
        assert _sorted_sample(rows[1]).tobytes() == want[1].tobytes()
        assert from_samples(rows[0]).values.tobytes() == want[0].tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_the_law_keeps_every_negative_zero(self, seed):
        rng = np.random.default_rng(seed)
        for n in (17, 40, 99, 300):
            sample = rng.choice([-0.0, 0.0, 1.0], n)
            values = from_samples(sample).values
            assert np.count_nonzero(np.signbit(values)) == np.count_nonzero(np.signbit(sample))

    def test_readers_of_tied_zeros_agree_on_every_cpu(self):
        # numpy without its AVX-512 kernels, in a process of its own: its
        # default sort mixes tied zeros there otherwise than here
        here = Path(__file__).parent
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
               "PYTHONPATH": os.pathsep.join([str(Path(mkdiv.__file__).parents[1]), str(here),
                                              os.environ.get("PYTHONPATH", "")])}
        code = "import test_distributions; print(test_distributions.tied_zero_outputs())"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == tied_zero_outputs() + "\n"


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

    def test_default_delta_admits_every_m(self):
        midpoint_rule(10**12, _DEFAULT_DELTA)

    def test_grid_is_its_nodes(self):
        g = QuantileGrid(nodes=[0.0, 1.0, 1.0, 2.5])
        assert g.m == 4
        np.testing.assert_array_equal(g.rule.u, [0.125, 0.375, 0.625, 0.875])

    def test_tiny_dip_raises_naming_the_node(self):
        nodes = np.linspace(0.0, 1.0, 100)
        nodes[37] = nodes[36] - 1e-12
        with pytest.raises(DomainError, match="node 37") as exc:
            QuantileGrid(nodes=nodes)
        assert exc.value.index == 37

    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_nan_node_raises_naming_it(self, i):
        nodes = np.array([0.0, 0.5, 1.0])
        nodes[i] = np.nan
        with pytest.raises(DomainError, match=f"grid node {i} is nan") as exc:
            QuantileGrid(nodes=nodes)
        assert exc.value.index == i

    @pytest.mark.parametrize("nodes", [[1.0], [], [[0.0, 1.0], [2.0, 3.0]]])
    def test_shape_errors(self, nodes):
        with pytest.raises(DomainError, match="1-D array of at least 2 entries"):
            QuantileGrid(nodes=nodes)

    def test_read_only_view_leaves_the_callers_array_writable(self):
        nodes = np.array([0.0, 1.0, 2.0])
        g = QuantileGrid(nodes=nodes)
        assert g.nodes.base is nodes
        assert not g.nodes.flags.writeable and nodes.flags.writeable


# every reader of a law's atoms, called on a pair of laws or on the first
GRID_READERS = {
    "mk_divergence": lambda f1, f2, **grid: mk_divergence(BregmanScore(quadratic()), f1, f2, **grid),
    "wasserstein_p": lambda f1, f2, **grid: wasserstein_p(f1, f2, 2.0, **grid),
    "expected_score": lambda f1, _, **grid: expected_score(BregmanScore(quadratic()), f1, 0.5,
                                                           **grid),
    "argmin_expected_score": lambda f1, _, **grid: argmin_expected_score(
        BregmanScore(quadratic()), f1, 0.0, 1.0, **grid),
    "Expectile": lambda f1, _, **grid: Expectile(0.7).evaluate(f1, **grid),
    "Shortfall": lambda f1, _, **grid: Shortfall(power_loss()).evaluate(f1, **grid),
    "Entropic": lambda f1, _, **grid: Entropic(1.0).evaluate(f1, **grid),
}
BAD_GRIDS = [{"m": m} for m in (-5, 0, 1, 2.5, True, 2**61)] + [
    {"m": 8, "delta": delta} for delta in (-1e-9, 0.5 / 8, float("nan"))
]


@pytest.mark.parametrize("grid", BAD_GRIDS, ids=lambda grid: repr(grid)[1:-1])
@pytest.mark.parametrize("reader", list(GRID_READERS))
def test_every_law_rejects_a_bad_grid_alike(reader, grid):
    # an empirical law's atoms are its sample, but it checks the grid as a
    # parametric law does before building its nodes
    with pytest.raises(DomainError) as parametric:
        GRID_READERS[reader](Normal(0.0, 1.0), Normal(0.0, 1.0), **grid)
    with pytest.raises(DomainError) as empirical:
        GRID_READERS[reader](from_samples([0.1, 0.5]), from_samples([0.2, 0.4, 0.9]), **grid)
    assert str(empirical.value) == str(parametric.value)
    assert "grid needs" in str(parametric.value) or "truncation level" in str(parametric.value)


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

    def test_digit_separator_is_not_numeric(self, tmp_path):
        # float() reads "1_000" as 1000.0, a Python literal, not a CSV number
        p = tmp_path / "d.csv"
        p.write_text("value\n2.5\n1_000\n")
        with pytest.raises(IngestionError) as exc:
            read_value_csv(p)
        assert str(exc.value) == f"{p}: line 3 is not numeric: '1_000'"

    @pytest.mark.parametrize(
        "digits",
        [
            "\u0661\u0662",  # Arabic-Indic
            "\uff11\uff12",  # full-width
            "\u0967\u0968",  # Devanagari
            "1\u0662.5",  # one non-ASCII digit among ASCII ones
        ],
    )
    def test_non_ascii_digits_are_not_numeric(self, tmp_path, digits):
        # float() reads each of these as a number, 12.0 for the first three
        p = tmp_path / "e.csv"
        p.write_text(f"value\n2.5\n{digits}\n", encoding="utf-8")
        with pytest.raises(IngestionError) as exc:
            read_value_csv(p)
        assert str(exc.value) == f"{p}: line 3 is not numeric: {digits!r}"


class TestConstructionErrors:
    def test_uniform_needs_a_below_b(self):
        with pytest.raises(DomainError):
            Uniform(1.0, 1.0)

    def test_positive_scale_parameters(self):
        with pytest.raises(DomainError):
            Normal(0.0, 0.0)
        with pytest.raises(DomainError):
            Exponential(-1.0)
