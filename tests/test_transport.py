import itertools

import numpy as np
import pytest

from mkdiv import (
    BregmanScore,
    CapacityError,
    DomainError,
    GPLScore,
    Normal,
    PointMass,
    antitonic_matching,
    comonotonic_matching,
    coupling_value,
    from_samples,
    mk_divergence,
    oracle_optimal,
    osband_transform,
    quadratic,
    quartic,
    reciprocal_map,
    wasserstein_p,
)
from mkdiv.numerics import pairwise_sum
from test_scores import catalog_scores


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
        # unequal atom counts route through the grid; with m divisible by 4
        # the grid hits the step quantiles exactly
        s = BregmanScore(quadratic())
        f1 = from_samples([0.0, 1.0])
        f2 = from_samples([2.0, 3.0, 3.0, 3.0])
        val = mk_divergence(s, f1, f2, m=10_000)
        assert val == pytest.approx(5.25, abs=1e-12)

    def test_domain_violation_reports_offending_node(self):
        # the entropy generator rejects non-positive arguments; the error
        # names the grid node where the quantile leaves the domain
        from mkdiv.generators import entropy_generator

        s = BregmanScore(entropy_generator())
        with pytest.raises(DomainError, match="u="):
            mk_divergence(s, from_samples([-1.0, 2.0]), from_samples([1.0, 3.0]))

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
            rep = oracle_optimal(s, [1.0, 1.0, 2.0], [1.0, 1.0, 2.0])
            assert rep.value == 0.0
            np.testing.assert_array_equal(rep.matching, [0, 1, 2])  # lex smallest

    def test_lexicographic_tie_breaking_with_repeated_atoms(self):
        # rows 0 and 1 are identical; among the optimal matchings the
        # lexicographically smallest assigns row 0 the smaller column
        rep = oracle_optimal(BregmanScore(quadratic()), [0.0, 0.0, 1.0], [1.0, 1.0, 0.0])
        assert rep.value == pytest.approx(1.0 / 3.0)
        np.testing.assert_array_equal(rep.matching, [0, 2, 1])

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
