import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import mkdiv
from mkdiv import (
    COMONOTONIC,
    BregmanScore,
    CapacityError,
    DecomposableScore,
    DomainError,
    EntropicScore,
    ExpectileScore,
    MomentError,
    GPLScore,
    LogNormal,
    Normal,
    PointMass,
    ShortfallScore,
    Uniform,
    antitonic_matching,
    certify_optimal_coupling,
    comonotonic_matching,
    coupling_value,
    exponential_loss,
    from_samples,
    identity_map,
    mk_divergence,
    negation_map,
    oracle_optimal,
    osband_transform,
    quadratic,
    quartic,
    reciprocal_map,
    wasserstein_p,
)
from mkdiv.numerics import pairwise_mean, pairwise_sum
from test_scores import catalog_scores


def certify_scores():
    """The nine scores the certify benchmark runs: six comonotonic, three
    antitonic."""
    como = [
        BregmanScore(quadratic()),
        BregmanScore(quartic()),
        GPLScore(0.9, identity_map()),
        ExpectileScore(0.7, quadratic()),
        ShortfallScore(exponential_loss(1.0)),
        DecomposableScore(quadratic(), 0.7, 0.3),
    ]
    anti = [
        osband_transform(BregmanScore(quadratic()), negation_map()),
        osband_transform(GPLScore(0.7, identity_map()), negation_map()),
        osband_transform(ExpectileScore(0.7, quadratic()), negation_map()),
    ]
    return como + anti


def uniform_lp_value(score, a, b):
    """The LP oracle's value for equal weights on each side."""
    w1, w2 = np.full(len(a), 1 / len(a)), np.full(len(b), 1 / len(b))
    return oracle_optimal(score, a, b, w1, w2).value


def brute_force_optimum(score, atoms1, atoms2):
    """Independent oracle: enumerate all permutation couplings."""
    a = np.asarray(atoms1, float)
    b = np.asarray(atoms2, float)
    best = np.inf
    for perm in itertools.permutations(range(a.size)):
        val = float(np.mean([score(b[j], a[i]) for i, j in enumerate(perm)]))
        best = min(best, val)
    return best


class TestMkDivergence:
    def test_two_atom_hand_enumeration(self):
        # comonotonic ((0,2),(1,3)) costs (4+4)/2 = 4; antitonic gives 5
        s = BregmanScore(quadratic())
        assert mk_divergence(s, from_samples([0, 1]), from_samples([2, 3])) == 4.0

    def test_self_divergence_zero_for_catalog(self):
        for s in catalog_scores():
            lo, hi = s.atom_interval
            atoms = np.linspace(lo, hi, 7)
            d = from_samples(atoms)
            assert mk_divergence(s, d, d) == 0.0

    def test_gpl_hand_enumeration(self):
        # comonotonic pairs (0,1),(2,3): scores 0.5 and 0.5 -> mean 0.5;
        # the swap costs 1.0
        s = GPLScore(0.5)
        val = mk_divergence(s, from_samples([0, 2]), from_samples([1, 3]))
        assert val == pytest.approx(0.5)

    def test_point_mass_asymmetry(self):
        # between point masses the coupling is unique; the quartic generator
        # gives 3 and 1 in the two directions
        s = BregmanScore(quartic())
        assert mk_divergence(s, PointMass(0.0), PointMass(1.0)) == pytest.approx(3.0)
        assert mk_divergence(s, PointMass(1.0), PointMass(0.0)) == pytest.approx(1.0)

    def test_grid_path_matches_exact_path_on_repeated_atoms(self):
        # unequal atom counts pair exactly on the merged breakpoints
        # {1/4, 1/2}: cells (0, 2), (0, 3) of mass 1/4 and (1, 3) of mass
        # 1/2 cost 4/4 + 9/4 + 4/2 = 5.25, whatever the grid size m
        s = BregmanScore(quadratic())
        f1 = from_samples([0.0, 1.0])
        f2 = from_samples([2.0, 3.0, 3.0, 3.0])
        val = mk_divergence(s, f1, f2, m=10_000)
        assert val == pytest.approx(5.25, abs=1e-12)
        assert mk_divergence(s, f1, f2, m=3, delta=0.1) == val

    def test_antitonic_merge_by_hand(self):
        # Q1 = 1, 2, 4 on thirds and Q2(1 - u) = 5 on u <= 1/2, 4 above:
        # cells of mass 1/3, 1/6, 1/6, 1/3 pair (1, 5), (2, 5), (2, 4), (4, 4)
        s = osband_transform(BregmanScore(quadratic()), negation_map())
        val = mk_divergence(s, from_samples([1.0, 2.0, 4.0]), from_samples([4.0, 5.0]))
        manual = (2 * s(5.0, 1.0) + s(5.0, 2.0) + s(4.0, 2.0) + 2 * s(4.0, 4.0)) / 6
        assert val == pytest.approx(manual, rel=1e-15)

    def test_equal_sizes_pair_sorted_atoms_bit_for_bit(self):
        rng = np.random.default_rng(38)
        for s in certify_scores():
            a, b = rng.uniform(-2, 2, 17), rng.uniform(-2, 2, 17)
            b_sorted = np.sort(b) if s.coupling == COMONOTONIC else np.sort(b)[::-1]
            expected = max(pairwise_mean(s(b_sorted, np.sort(a))), 0.0)
            got = mk_divergence(s, from_samples(a), from_samples(b))
            assert repr(got) == repr(expected)

    def test_domain_violation_reports_offending_node(self):
        # the entropy generator rejects non-positive arguments; the error
        # names the grid node where the quantile leaves the domain
        from mkdiv.generators import entropy_generator

        s = BregmanScore(entropy_generator())
        with pytest.raises(DomainError, match="u="):
            mk_divergence(s, from_samples([-1.0, 2.0]), from_samples([1.0, 3.0]))

    def test_offending_node_is_one_the_score_rejects(self):
        # +inf passes the domain check of an unbounded side; the first node
        # the score rejects is node 1, the first negative one
        from mkdiv.distributions import Distribution
        from mkdiv.generators import entropy_generator

        class Spiked(Distribution):
            def _quantile(self, u):
                q = np.full(u.shape, -1.0)
                q[0] = np.inf
                return q

        s = BregmanScore(entropy_generator())
        with pytest.raises(DomainError, match=r"u=0\.1875\)"):
            mk_divergence(s, Spiked(), Normal(2.0, 0.1), m=8)
        # antitonic: the report z = Q2(1 - u) is checked first and leaves
        # (0, inf) at u = 0.6875, though y = Q1(u) is negative from u = 0.0625
        s = osband_transform(BregmanScore(entropy_generator()), reciprocal_map())
        with pytest.raises(DomainError, match=r"report z .*u=0\.6875\)") as info:
            mk_divergence(s, Uniform(-1, 3), Uniform(-2, 3), m=8)
        assert info.value.index == 5

    @pytest.mark.parametrize("m,delta", [(10, 0.3), (4, 0.2), (10.5, 0.0), (1, 0.0)])
    def test_parametric_grid_is_checked(self, m, delta):
        # the exact empirical merge takes no grid; every other pair is on it
        f1, f2 = Uniform(0, 1), Normal(1, 2)
        with pytest.raises(DomainError, match="grid needs|truncation level"):
            mk_divergence(GPLScore(0.9), f1, f2, m=m, delta=delta)
        with pytest.raises(DomainError, match="grid needs|truncation level"):
            wasserstein_p(f1, f2, 2.0, m=m, delta=delta)

    def test_undefined_sum_raises(self):
        # exp(800) overflows: both Bregman terms are inf and their difference NaN
        s = EntropicScore(1.0, quadratic())
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(MomentError, match="sum to nan"):
                mk_divergence(s, Normal(0, 100), Normal(1, 100))
            with pytest.raises(MomentError, match="sum to nan"):
                mk_divergence(s, from_samples([800.0, 1.0]), from_samples([801.0, 2.0]))
            # both top quantile nodes overflow to inf, and |inf - inf|^2 is NaN
            with pytest.raises(MomentError, match="sum to nan"):
                wasserstein_p(LogNormal(0, 300), LogNormal(0, 300), 2.0, m=1000)

    def test_antitonic_grid_pairing(self):
        s = osband_transform(BregmanScore(quadratic()), reciprocal_map())
        a = np.array([0.5, 1.0, 2.0])
        b = np.array([0.4, 1.1, 2.2])
        val = mk_divergence(s, from_samples(a), from_samples(b))
        manual = np.mean([s(b[2 - i], a[i]) for i in range(3)])
        assert val == pytest.approx(manual, abs=1e-15)


class TestWasserstein:
    def test_identical_distributions(self):
        d = from_samples([0.3, 1.0, 2.5])
        assert wasserstein_p(d, d, 2.0) == 0.0

    def test_gaussian_location_shift(self):
        # independent oracle: for normals, W2^2 = (mu1-mu2)^2 + (s1-s2)^2
        val = wasserstein_p(Normal(0, 1), Normal(1, 1), 2.0, m=100_000)
        assert val == pytest.approx(1.0, abs=1e-3)

    def test_gaussian_scale_change(self):
        val = wasserstein_p(Normal(0, 1), Normal(0, 2), 2.0, m=100_000)
        assert val == pytest.approx(1.0, abs=1e-3)

    def test_sorted_matching_distance_on_atoms(self):
        val = wasserstein_p(from_samples([0, 1]), from_samples([2, 3]), 2.0)
        assert val == 2.0

    def test_w2_bridge(self):
        rng = np.random.default_rng(31)
        s = BregmanScore(quadratic())
        for _ in range(20):
            n1 = int(rng.integers(2, 10))
            n2 = n1 if rng.uniform() < 0.7 else int(rng.integers(2, 10))
            f1 = from_samples(rng.normal(0, 1, n1))
            f2 = from_samples(rng.normal(0.5, 1.5, n2))
            lhs = mk_divergence(s, f1, f2)
            rhs = wasserstein_p(f1, f2, 2.0) ** 2
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + rhs)

    def test_unequal_sizes_match_the_lp_oracle(self):
        rng = np.random.default_rng(39)
        s = BregmanScore(quadratic())
        for n1, n2 in [(3, 5), (7, 4), (12, 18), (1, 9)]:
            a, b = rng.normal(0, 1, n1), rng.normal(1, 2, n2)
            lp = uniform_lp_value(s, a, b)
            for p in (1.0, 1.5, 2.0):
                w = wasserstein_p(from_samples(a), from_samples(b), p)
                assert w == wasserstein_p(from_samples(a), from_samples(b), p, m=3)
            assert w**2 == pytest.approx(lp, rel=1e-12)

    def test_order_below_one_rejected(self):
        with pytest.raises(DomainError):
            wasserstein_p(PointMass(0), PointMass(1), 0.5)


class TestOracle:
    def test_hand_instance(self):
        rep = oracle_optimal(BregmanScore(quadratic()), [0, 1], [2, 3])
        assert rep.value == 4.0
        np.testing.assert_array_equal(rep.matching, [0, 1])
        assert rep.method == "assignment"

    def test_identity_on_identical_lists(self):
        for s in [BregmanScore(quadratic()), GPLScore(0.7)]:
            a = [1.0, 1.0, 2.0]
            rep = oracle_optimal(s, a, a)
            assert rep.value == 0.0
            assert coupling_value(s, a, a, rep.matching) == 0.0

    @pytest.mark.parametrize(
        "a, b",
        [
            ([1.0, 1.0, 2.0], [1.0, 1.0, 2.0]),
            ([0.0, 0.0, 1.0], [1.0, 1.0, 0.0]),
            ([0.5, 0.5, 0.5, 2.0], [0.5, 3.0, 3.0, 0.5]),
            ([-1.0, 2.0, -1.0, 2.0, 0.0], [0.0, 0.0, 2.0, -1.0, 2.0]),
        ],
    )
    def test_repeated_atoms_give_an_optimal_permutation(self, a, b):
        # tied optima: any optimal permutation will do, and the value is
        # that of the matching the report carries
        for s in [BregmanScore(quadratic()), GPLScore(0.7), BregmanScore(quartic())]:
            rep = oracle_optimal(s, a, b)
            np.testing.assert_array_equal(np.sort(rep.matching), np.arange(len(a)))
            matched = coupling_value(s, a, b, rep.matching)
            assert abs(matched - rep.value) <= 1e-15 * abs(rep.value)
            assert rep.value == pytest.approx(brute_force_optimum(s, a, b), rel=1e-12, abs=1e-15)

    def test_antitonic_matching_for_reciprocal_transform(self):
        s = osband_transform(BregmanScore(quadratic()), reciprocal_map())
        rep = oracle_optimal(s, [1.0, 2.0], [1.0, 2.0])
        np.testing.assert_array_equal(rep.matching, [1, 0])
        assert rep.value == pytest.approx(1.25 / 2.0)

    def test_against_brute_force_enumeration(self):
        rng = np.random.default_rng(32)
        for s in [BregmanScore(quadratic()), GPLScore(0.85), BregmanScore(quartic())]:
            for _ in range(15):
                n = int(rng.integers(2, 6))
                a = rng.uniform(-2, 2, n)
                b = rng.uniform(-2, 2, n)
                rep = oracle_optimal(s, a, b)
                brute = brute_force_optimum(s, a, b)
                assert rep.value == pytest.approx(brute, rel=1e-12, abs=1e-12)

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            oracle_optimal(
                BregmanScore(quadratic()), np.arange(65.0), np.arange(65.0)
            )

    def test_weight_validation(self):
        s = BregmanScore(quadratic())
        with pytest.raises(DomainError):
            oracle_optimal(s, [0, 1], [2, 3], weights1=[0.5, -0.5], weights2=[0.5, 0.5])
        with pytest.raises(DomainError):
            oracle_optimal(s, [0, 1], [2, 3], weights1=[0.7, 0.7], weights2=[0.5, 0.5])

    def test_lp_frozen_hand_value(self):
        # marginals (0.5, 0.5) on {0,1} and (0.25, 0.75) on {2,3} with
        # squared cost: plan pi11 = t in [0, 0.25], objective 5.75 - 2t,
        # optimal 5.25 at the comonotonic corner
        s = BregmanScore(quadratic())
        rep = oracle_optimal(
            s, [0.0, 1.0], [2.0, 3.0], weights1=[0.5, 0.5], weights2=[0.25, 0.75]
        )
        assert rep.method == "lp"
        assert rep.value == pytest.approx(5.25, abs=1e-12)
        plan = {(i, j): mass for i, j, mass in rep.matching}
        assert plan[(0, 0)] == pytest.approx(0.25, abs=1e-12)
        assert plan[(0, 1)] == pytest.approx(0.25, abs=1e-12)
        assert plan[(1, 1)] == pytest.approx(0.5, abs=1e-12)

    def test_lp_agrees_with_assignment_on_uniform_weights(self):
        rng = np.random.default_rng(33)
        s = BregmanScore(quadratic())
        for _ in range(10):
            n = int(rng.integers(2, 7))
            a = rng.uniform(-1, 1, n)
            b = rng.uniform(-1, 1, n)
            lp = oracle_optimal(
                s, a, b, weights1=np.full(n, 1 / n), weights2=np.full(n, 1 / n)
            )
            asg = oracle_optimal(s, a, b)
            assert lp.value == pytest.approx(asg.value, rel=1e-10, abs=1e-12)

    def test_determinism(self):
        s = GPLScore(0.9)
        a = np.random.default_rng(34).uniform(-2, 2, 6)
        b = np.random.default_rng(35).uniform(-2, 2, 6)
        r1 = oracle_optimal(s, a, b)
        r2 = oracle_optimal(s, a, b)
        assert r1.value == r2.value
        np.testing.assert_array_equal(r1.matching, r2.matching)

    def test_lp_tolerance_regression(self):
        # 24 vs 12 atoms on which HiGHS at its default feasibility
        # tolerances stopped 1.8e-9 (on the 1 + |v| scale) above the optimum
        a = [
            -1.8087646812793348, 0.9970990679120542, -0.2942381999937349,
            0.05019536645820777, 0.7838395747006688, 0.10130691558696236,
            -0.40630049420012204, -1.8072054213285207, 0.07761938886381703,
            -0.3794752609086758, 0.4382695890598445, 0.7209699164101764,
            -1.6671413847007464, 1.1883053793558989, -1.669285419289273,
            -1.7400457016875799, 1.5437215854052968, 0.8756811069688202,
            -1.375237786825695, 0.5671069818055829, 0.17498135263305992,
            -0.14327161783128073, 1.3339797821033441, -0.2515929005983297,
        ]
        b = [
            -1.1466525071239042, -0.42506223686755096, -1.277003198947578,
            -1.27703846313895, -0.7960399813396797, 1.7050324087654873,
            0.10489308188664337, 0.8497280242137033, 1.575942449835149,
            1.6785758711479817, -1.1934438706182497, -1.307466562670247,
        ]
        s = ShortfallScore(exponential_loss(1.0))
        exact = mk_divergence(s, from_samples(a), from_samples(b))
        assert abs(uniform_lp_value(s, a, b) - exact) <= 1e-12 * exact


@given(
    k=st.integers(0, 8),
    n1=st.integers(2, 31),
    n2=st.integers(2, 31),
    data=st.data(),
)
def test_exact_merge_matches_lp_oracle(k, n1, n2, data):
    assume(n1 != n2)
    score = certify_scores()[k]
    lo, hi = score.atom_interval
    a = data.draw(st.lists(st.floats(lo, hi), min_size=n1, max_size=n1))
    b = data.draw(st.lists(st.floats(lo, hi), min_size=n2, max_size=n2))
    f1, f2 = from_samples(a), from_samples(b)
    exact = mk_divergence(score, f1, f2)
    assert abs(exact - uniform_lp_value(score, a, b)) <= 1e-9 * abs(exact)
    assert mk_divergence(score, f1, f2, m=5, delta=0.05) == exact


class TestCertification:
    def test_one_assignment_solve_per_instance(self, monkeypatch):
        # the oracle imports the solver from scipy.optimize at each call
        import scipy.optimize

        calls = []
        original = scipy.optimize.linear_sum_assignment

        def counted(cost):
            calls.append(cost.shape)
            return original(cost)

        monkeypatch.setattr("scipy.optimize.linear_sum_assignment", counted)
        for s in certify_scores():
            calls.clear()
            result = certify_optimal_coupling(s, instances=5, n_min=6, n_max=12, seed=3)
            assert result.passed
            assert len(calls) == 5

    @pytest.mark.parametrize(
        "tolerance, message",
        [
            (np.nan, "needs a finite tolerance, got tolerance=nan"),
            (np.inf, "needs a finite tolerance, got tolerance=inf"),
            (-1.0, "needs a non-negative tolerance, got tolerance=-1.0"),
        ],
    )
    def test_tolerance_must_be_finite_and_non_negative(self, tolerance, message):
        with pytest.raises(DomainError, match=message):
            certify_optimal_coupling(GPLScore(0.7), instances=2, tolerance=tolerance)


def test_scipy_optimize_loads_with_the_first_oracle_call():
    script = (
        "import sys, mkdiv, mkdiv.cli\n"
        "print('scipy.optimize' in sys.modules)\n"
        "mkdiv.oracle_optimal(mkdiv.GPLScore(0.7), [0.0, 1.0], [2.0, 3.0])\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    src = str(Path(mkdiv.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True, env=env)
    assert proc.stdout.split() == ["False", "True"]


class TestCouplingValue:
    def test_identity_and_swap(self):
        s = BregmanScore(quadratic())
        assert coupling_value(s, [0, 1], [2, 3], [0, 1]) == 4.0
        assert coupling_value(s, [0, 1], [2, 3], [1, 0]) == 5.0

    def test_single_pair(self):
        s = GPLScore(0.9)
        assert coupling_value(s, [2.0], [5.0], [0]) == s(5.0, 2.0)

    def test_permutation_validated(self):
        with pytest.raises(DomainError):
            coupling_value(BregmanScore(quadratic()), [0, 1], [2, 3], [0, 0])

    def test_dominance_over_random_permutations(self):
        rng = np.random.default_rng(36)
        for s in [BregmanScore(quadratic()), GPLScore(0.7)]:
            n = 6
            a = rng.uniform(-2, 2, n)
            b = rng.uniform(-2, 2, n)
            base = mk_divergence(s, from_samples(a), from_samples(b))
            for _ in range(100):
                sigma = rng.permutation(n)
                assert base <= coupling_value(s, a, b, sigma) + 1e-12

    def test_sorted_matchings(self):
        a = [3.0, 1.0, 2.0]
        b = [0.5, 2.5, 1.5]
        sigma = comonotonic_matching(a, b)
        # smallest of a (1.0 at index 1) pairs with smallest of b (0.5 at 0)
        assert sigma[1] == 0 and sigma[2] == 2 and sigma[0] == 1
        tau = antitonic_matching(a, b)
        assert tau[1] == 1 and tau[2] == 2 and tau[0] == 0


class TestPairwiseSum:
    def test_matches_fsum(self):
        import math

        rng = np.random.default_rng(37)
        x = rng.normal(0, 1, 1001)
        assert pairwise_sum(x) == pytest.approx(math.fsum(x), abs=1e-10)

    def test_deterministic_under_padding(self):
        x = np.arange(10.0)
        assert pairwise_sum(x) == pairwise_sum(list(x))

    @pytest.mark.parametrize("width", [1, 2, 3, 1000, 1001])
    def test_row_fold_matches_flat_fold_bitwise(self, width):
        rng = np.random.default_rng(width)
        # 300 rows span more than one block of the fold at the wider widths
        mat = rng.normal(0, 1, (300, width)) * 10.0 ** rng.integers(-8, 8, (300, width))
        mat[1] = -0.0
        rows = pairwise_sum(mat, axis=-1)
        assert rows.shape == (300,)
        for row, got in zip(mat, rows):
            assert np.float64(pairwise_sum(row)).tobytes() == got.tobytes()
