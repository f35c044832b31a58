import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from mkdiv import (
    COMONOTONIC,
    BregmanScore,
    CapacityError,
    DecomposableScore,
    DomainError,
    EntropicScore,
    EvaluationError,
    ExpectileScore,
    Exponential,
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
    entropy_generator,
    exponential_generator,
    exponential_loss,
    from_samples,
    generator_catalog,
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
from mkdiv.distributions import Distribution
from mkdiv.functionals import Entropic, Expectile, Shortfall
from mkdiv.numerics import _BLOCK, _DEFAULT_M, midpoint_rule, pairwise_mean, pairwise_sum
from mkdiv.scores import Score, _transport_cost, transform_catalog
from mkdiv.transport import (
    _assignment_dp,
    _batch_deviations,
    _draw_instance,
    _leaf_elimination,
    _lp_report,
    _optimal_assignments,
    _subset_layers,
)
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


def row_order_sum(cost, sigma):
    """C[0, sigma[0]] + C[1, sigma[1]] + ..., added left to right from 0.0."""
    total = 0.0
    for i, j in enumerate(sigma):
        total += float(cost[i, j])
    return total


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
        # +inf passes the domain check of an unbounded side: the reversed
        # report list starts at +inf, and the first node the score rejects
        # is cell 4, the first negative report
        from mkdiv.distributions import Distribution
        from mkdiv.generators import entropy_generator

        class Stepped(Distribution):
            def _quantile(self, u):
                q = np.where(u > 0.5, 1.0, -1.0)
                q[-1] = np.inf
                return q

        s = osband_transform(BregmanScore(entropy_generator()), reciprocal_map())
        with pytest.raises(DomainError, match=r"report z .*u=0\.5625\)") as info:
            mk_divergence(s, Uniform(1.0, 2.0), Stepped(), m=8)
        assert info.value.index == 4
        # the report z = Q2(1 - u) is checked first and leaves (0, inf) at
        # u = 0.6875, though y = Q1(u) is negative from u = 0.0625
        with pytest.raises(DomainError, match=r"report z .*u=0\.6875\)") as info:
            mk_divergence(s, Uniform(-1, 3), Uniform(-2, 3), m=8)
        assert info.value.index == 5

    def test_a_dipping_law_fails_its_grid_check(self):
        # every pair reads each law's checked grid, so a law whose quantile
        # decreases fails there, at the node that dips, before any score
        from mkdiv.distributions import Distribution
        from mkdiv.generators import entropy_generator

        class Spiked(Distribution):
            def _quantile(self, u):
                q = np.full(u.shape, -1.0)
                q[0] = np.inf
                return q

        s = BregmanScore(entropy_generator())
        with pytest.raises(DomainError, match="node 1 is -1.0 after inf") as info:
            mk_divergence(s, Spiked(), Normal(2.0, 0.1), m=8)
        assert info.value.index == 1

    @pytest.mark.parametrize("m,delta", [(10, 0.3), (4, 0.2), (10.5, 0.0), (1, 0.0)])
    def test_parametric_grid_is_checked(self, m, delta):
        # a parametric pair builds its grid; an empirical law checks it alike
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


# the laws of the identity corpus; every catalog score takes the whole line
PARAMETRIC_LAWS = (
    Uniform(-1.0, 2.0), Normal(0.5, 1.5), LogNormal(0.0, 0.5), Exponential(1.5), PointMass(0.7),
)


def midpoint_pairing(score, f1, f2, m):
    """Reference: the m-cell midpoint pairing, Q1(u) against Q2(u), or
    against Q2(1 - u) when antitonic, at the grid levels u."""
    rule = midpoint_rule(m)
    u = rule.u
    q2 = f2.quantile(u if score.coupling == COMONOTONIC else 1.0 - u)
    value = rule.integrate(np.asarray(score(q2, f1.quantile(u))))
    return value if value > 0.0 else 0.0


def breakpoint_value(score, a, b):
    """Reference: the claimed coupling of the step quantile functions of the
    equal-weight atoms ``a`` and ``b``, integrated cell by cell between the
    float breakpoints {k/n1} and {j/n2}."""
    a, b = np.sort(a), np.sort(b)
    t = np.unique(np.concatenate([np.arange(a.size + 1) / a.size, np.arange(b.size + 1) / b.size]))
    mid = 0.5 * (t[:-1] + t[1:])
    v = mid if score.coupling == COMONOTONIC else 1.0 - mid
    q1 = a[np.clip(np.ceil(mid * a.size).astype(int), 1, a.size) - 1]
    q2 = b[np.clip(np.ceil(v * b.size).astype(int), 1, b.size) - 1]
    return float(np.sum(np.diff(t) * np.asarray(score(q2, q1))))


class TestOnePairingRule:
    """Every pair of laws is paired from its atoms by one rule."""

    @pytest.mark.parametrize("m", [_DEFAULT_M, 3])
    def test_mixed_pair_is_exact_on_its_empirical_side(self, m):
        # Q1 = 0, 1, 5 on thirds against the point mass 2: (4 + 1 + 9)/3
        f1, f2 = from_samples([0.0, 1.0, 5.0]), PointMass(2.0)
        exact = pytest.approx(14 / 3, rel=1e-15, abs=0.0)
        assert mk_divergence(BregmanScore(quadratic()), f1, f2, m=m) == exact
        assert wasserstein_p(f1, f2, 2.0, m=m) ** 2 == exact

    @pytest.mark.parametrize("flip", [False, True], ids=["comonotonic", "antitonic"])
    def test_corpus_matches_the_breakpoint_integral(self, flip):
        # mixed pairs read a parametric law as its m grid atoms; empirical
        # pairs have unequal sizes, so every instance takes the merge, and
        # pass no m, which would only be checked
        rng = np.random.default_rng(19)
        scores = catalog_scores()
        for k in range(240):
            s = scores[k % len(scores)]
            s = osband_transform(s, negation_map()) if flip else s
            lo, hi = s.atom_interval
            n = int(rng.integers(1, 41))
            sample = from_samples(rng.uniform(lo, hi, n))
            if k % 2:
                m = int(rng.integers(2, 61))
                law = PARAMETRIC_LAWS[k // 2 % len(PARAMETRIC_LAWS)]
                other, atoms, grid = law, law.quantile((np.arange(m) + 0.5) / m), {"m": m}
            else:
                size = int(rng.integers(1, 41))
                size += size >= n  # a size other than n
                other = from_samples(rng.uniform(lo, hi, size))
                atoms, grid = other.values, {}
            pair = (sample, other) if k % 4 < 2 else (other, sample)
            a, b = (sample.values, atoms) if k % 4 < 2 else (atoms, sample.values)
            got = mk_divergence(s, *pair, **grid)
            assert got == pytest.approx(breakpoint_value(s, a, b), rel=1e-13, abs=0.0), k

    @pytest.mark.parametrize("m", [2, 3, 1000, 10_000])
    def test_parametric_pairs_keep_the_midpoint_values(self, m):
        # comonotonic pairs read the same levels.  Antitonic pairs read the
        # level u_(m+1-k), correctly rounded, instead of 1 - u_k, which is up
        # to 2**-54 off: relatively 2**-53 * m near the tail's level 0.5/m.
        # The exponential of two scores lifts that to 9e-14 at m = 1000.
        rule = midpoint_rule(m)
        for f1, f2 in itertools.product(PARAMETRIC_LAWS, repeat=2):
            for s in catalog_scores():
                assert repr(mk_divergence(s, f1, f2, m=m)) == repr(midpoint_pairing(s, f1, f2, m))
                flipped = osband_transform(s, negation_map())
                ref = midpoint_pairing(flipped, f1, f2, m)
                rel = 1e-13 if s.describe().startswith(("entropic", "bregman[exp]")) else 1e-14
                got = mk_divergence(flipped, f1, f2, m=m)
                assert got == pytest.approx(ref, rel=rel, abs=0.0), (s.describe(), f1, f2)
            diff = np.abs(f1.quantile(rule.u) - f2.quantile(rule.u))
            assert repr(wasserstein_p(f1, f2, 2.0, m=m)) == repr(rule.integrate(diff**2.0) ** 0.5)


# three blocks of cells, the last one shorter; and two, the last of one cell
STREAM_M = 2 * _BLOCK + 3
STREAM_MS = [_BLOCK + 1, STREAM_M]


def whole_list_value(score, q1, q2):
    """Reference: the closed form on whole sorted atom lists, one product and
    one fold of every cell: ``q2`` reversed when antitonic, and lists of
    unequal sizes on the merged breakpoints, in cells of 1/lcm(n1, n2)."""
    q2 = q2 if score.coupling == COMONOTONIC else q2[::-1]
    total = math.lcm(q1.size, q2.size)
    step1, step2 = total // q1.size, total // q2.size
    cuts = np.union1d(np.arange(q1.size) * step1, np.arange(q2.size) * step2)
    values = np.asarray(score(q2[cuts // step2], q1[cuts // step1]))
    value = pairwise_sum(values if cuts.size == total else np.diff(cuts, append=total) * values)
    value /= total
    return value if value > 0.0 else 0.0


class Dip(Distribution):
    """The uniform law on (0, 1), but -5 on levels in (at, at + 1e-4)."""

    def __init__(self, at):
        self.at = at

    def _quantile(self, u):
        return np.where((u > self.at) & (u < self.at + 1e-4), -5.0, u)


class TestStreamedDivergence:
    """Both integrals read the atoms a block of cells at a time; values and
    errors are those of the whole lists."""

    @pytest.mark.parametrize("m", STREAM_MS)
    @pytest.mark.parametrize("flip", [False, True], ids=["comonotonic", "antitonic"])
    def test_blocks_give_the_bits_of_the_whole_lists(self, flip, m):
        # the mixed pairs merge 777 atoms with m nodes into more than m cells
        sample = from_samples(np.random.default_rng(7).normal(0.3, 1.2, 777))
        pairs = [(Normal(0.0, 1.0), LogNormal(0.0, 0.5)), (Exponential(1.5), Uniform(-1.0, 2.0)),
                 (sample, Normal(0.5, 1.5)), (Uniform(-1.0, 2.0), sample)]
        for s in catalog_scores():
            s = osband_transform(s, negation_map()) if flip else s
            for f1, f2 in pairs:
                want = whole_list_value(s, f1.atoms(m), f2.atoms(m))
                assert repr(mk_divergence(s, f1, f2, m=m)) == repr(want), (s, f1, f2)

    @pytest.mark.parametrize("m", STREAM_MS)
    def test_wasserstein_blocks_give_the_bits_of_the_whole_lists(self, m):
        rule = midpoint_rule(m)
        for f1, f2 in [(Normal(0.0, 1.0), LogNormal(0.0, 0.5)),
                       (Normal(0.0, 1e300), Normal(0.0, 1e-300))]:
            gaps = np.abs(f1.atoms(m) - f2.atoms(m))
            for p in (1.0, 2.0, 3.5):
                with np.errstate(over="ignore"):
                    value = rule.integrate(gaps**p)
                want = value ** (1.0 / p)
                if value == math.inf:  # the rescale pass, by the largest gap
                    top = float(gaps.max())
                    want = top * rule.integrate((gaps / top) ** p) ** (1.0 / p)
                assert repr(wasserstein_p(f1, f2, p, m=m)) == repr(want), (f1, p)

    def test_the_score_error_is_the_first_of_the_whole_lists(self):
        # the report z = Q2(1 - u) leaves (0, inf) only in the second block,
        # while y = Q1(u) is negative from the first cell on; the whole
        # lists check z first, so z's error names its own cell
        s = osband_transform(BregmanScore(entropy_generator()), reciprocal_map())
        f1, f2 = Uniform(-1.0, 3.0), Uniform(-2.0, 3.0)
        with pytest.raises(DomainError) as whole:
            s(f2.atoms(STREAM_M)[::-1], f1.atoms(STREAM_M))
        u = midpoint_rule(STREAM_M).u[whole.value.index]
        with pytest.raises(DomainError) as info:
            mk_divergence(s, f1, f2, m=STREAM_M)
        assert str(info.value) == f"{whole.value} (first offending grid node: u={u})"
        assert info.value.index == whole.value.index > _BLOCK

    def test_the_first_law_is_checked_first(self):
        # the second law dips in the first block, the first law in the second:
        # as on the whole lists, the first law's grid check raises
        late, early = Dip(0.7), Dip(0.2)
        with pytest.raises(DomainError) as whole:
            late.atoms(STREAM_M)
        assert whole.value.index > _BLOCK
        for divergence in (lambda: mk_divergence(GPLScore(0.5), late, early, m=STREAM_M),
                           lambda: wasserstein_p(late, early, 2.0, m=STREAM_M)):
            with pytest.raises(DomainError) as info:
                divergence()
            assert str(info.value) == str(whole.value)
            assert info.value.index == whole.value.index

    @pytest.mark.parametrize("k", [_BLOCK - 1, _BLOCK, 2 * _BLOCK])
    def test_a_dip_at_a_block_edge_is_found_in_either_reading_order(self, k):
        # node k lies below node k - 1; at k = _BLOCK or 2 * _BLOCK only the
        # check across the edge of two blocks sees it, read forwards or,
        # for the antitonic score's second law, backwards
        class Seam(Distribution):
            def _quantile(self, u):
                return np.where(u == (k + 0.5) / STREAM_M, -5.0, u)

        with pytest.raises(DomainError) as whole:
            Seam().atoms(STREAM_M)
        assert whole.value.index == k
        flipped = osband_transform(GPLScore(0.5), negation_map())
        for score, f1, f2 in [(GPLScore(0.5), Seam(), Uniform(0.0, 1.0)),
                              (flipped, Uniform(0.0, 1.0), Seam())]:
            with pytest.raises(DomainError) as info:
                mk_divergence(score, f1, f2, m=STREAM_M)
            assert str(info.value) == str(whole.value)

    @pytest.mark.parametrize(
        "score", catalog_scores() + [osband_transform(s, negation_map()) for s in catalog_scores()],
        ids=lambda s: s.describe())
    def test_a_parametric_pair_holds_a_few_blocks(self, score, peak_bytes):
        # whole lists held 4 to 9 arrays of m floats: 128 to 288 MB here
        f1, f2 = Uniform(-1.0, 2.0), Normal(1.0, 2.0)
        mk_divergence(score, f1, f2, m=STREAM_M)  # warm: interpreter state
        assert peak_bytes(lambda: mk_divergence(score, f1, f2, m=4_000_000)) <= 16 * _BLOCK * 8


class Listed(Distribution):
    """A law that gives a fixed sorted list of atoms through the one hook."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    @property
    def support(self):
        return float(self.values[0]), float(self.values[-1])

    def _atom_reader(self, m=_DEFAULT_M, delta=0.0):
        return self.values.size, self.values.__getitem__


class TestAtomHook:
    """``Distribution._atom_reader`` is the one place a law gives its atoms."""

    def test_every_reader_gets_the_atoms_of_the_hook(self):
        atoms = [0.5, 1.0, 1.0, 2.0, 3.5]
        law, sample, other = Listed(atoms), from_samples(atoms), LogNormal(0.0, 0.5)
        for s in catalog_scores():
            for f1, f2, g1, g2 in [(law, other, sample, other), (other, law, other, sample)]:
                assert repr(mk_divergence(s, f1, f2)) == repr(mk_divergence(s, g1, g2)), s
        assert repr(wasserstein_p(law, other, 2.0)) == repr(wasserstein_p(sample, other, 2.0))
        for functional in (Expectile(0.3), Shortfall(exponential_loss(0.7)), Entropic(0.7)):
            assert repr(functional.evaluate(law)) == repr(functional.evaluate(sample))
        assert np.array_equal(law.atoms(), sample.atoms())

    def test_a_law_may_not_override_atoms(self):
        with pytest.raises(TypeError, match="override _atom_reader instead"):
            type("Atoms", (Listed,), {"atoms": lambda self, m=_DEFAULT_M, delta=0.0: self.values})


def quantile_class_theta_sum(alpha, g, x1, x2):
    """The divergence of GPL(alpha, g) from the sample ``x1`` to ``x2`` in the
    two CDFs: every GPL score is a mixture over theta of elementary quantile
    scores (Ehm, Gneiting, Jordan and Krueger, JRSS B 2016, Theorem 1), and
    on the comonotonic pairing each contributes
    (1 - alpha)(F1 - F2)_+ + alpha (F2 - F1)_+ at theta.  Both CDFs are steps
    that stay constant between consecutive merged atoms theta_k, so the
    integral over dg(theta) is a finite sum, of non-negative terms."""
    theta = np.unique(np.concatenate([x1, x2]))
    F1 = np.searchsorted(np.sort(x1), theta, side="right") / x1.size
    F2 = np.searchsorted(np.sort(x2), theta, side="right") / x2.size
    weight = (1.0 - alpha) * np.maximum(F1 - F2, 0.0) + alpha * np.maximum(F2 - F1, 0.0)
    return math.fsum(weight[:-1] * np.diff(g(theta)))


# atoms on a 0.1 grid, so that the samples tie within and across
_TENTHS = st.lists(st.integers(-20, 20), min_size=1, max_size=40)
_POSITIVE_TENTHS = st.lists(st.integers(1, 40), min_size=1, max_size=40)


@given(
    name=st.sampled_from(["identity", "exp", "cube", "log"]),
    alpha=st.floats(0.01, 0.99),
    data=st.data(),
)
def test_gpl_divergence_is_the_theta_sum_of_its_elementary_scores(name, alpha, data):
    transform = transform_catalog()[name]
    atoms = _POSITIVE_TENTHS if name == "log" else _TENTHS
    x1, x2 = (np.array(data.draw(atoms)) / 10.0 for _ in range(2))
    got = mk_divergence(GPLScore(alpha, transform), from_samples(x1), from_samples(x2))
    want = quantile_class_theta_sum(alpha, transform.fn, x1, x2)
    assert abs(got - want) <= 1e-13 * want, (got, want)


def expectile_class_theta_sum(alpha, gen, x1, x2):
    """The divergence of Expectile(alpha, gen) from the sample ``x1`` to
    ``x2`` in the two CDFs: every expectile score is the mixture over theta,
    with density phi''(theta), of elementary expectile scores (Ehm et al., as
    above), and on the comonotonic pairing each contributes
    D_theta = (1 - alpha) int_{x<theta} (F1(x) - F2(theta))_+ dx
    + alpha int_{x>theta} (F2(theta) - F1(x))_+ dx.  Outside the merged
    atoms D_theta is 0; between consecutive ones F2(theta) is constant and
    D_theta is a line L, so each piece integrates by parts exactly, as
    [phi'(theta) L(theta) - L' phi(theta)], from phi and phi' alone."""
    theta = np.unique(np.concatenate([x1, x2]))
    F1 = np.searchsorted(np.sort(x1), theta, side="right") / x1.size
    F2 = np.searchsorted(np.sort(x2), theta, side="right") / x2.size
    width, phi, dphi = np.diff(theta), gen.phi(theta), gen.dphi(theta)
    terms = []
    for k in range(width.size):
        # the integrals over x left of theta_k and right of theta_(k+1)
        below = math.fsum(width[:k] * np.maximum(F1[:k] - F2[k], 0.0))
        above = math.fsum(width[k + 1 :] * np.maximum(F2[k] - F1[k + 1 : -1], 0.0))
        up, down = max(F1[k] - F2[k], 0.0), max(F2[k] - F1[k], 0.0)
        left = (1.0 - alpha) * below + alpha * (width[k] * down + above)
        right = (1.0 - alpha) * (below + width[k] * up) + alpha * above
        slope = (1.0 - alpha) * up - alpha * down
        terms += [dphi[k + 1] * right, -dphi[k] * left, -slope * phi[k + 1], slope * phi[k]]
    return math.fsum(terms)


@given(
    name=st.sampled_from(sorted(generator_catalog())),
    alpha=st.floats(0.01, 0.99),
    data=st.data(),
)
def test_expectile_divergence_is_the_theta_integral_of_its_elementary_scores(name, alpha, data):
    gen = generator_catalog()[name]
    atoms = _POSITIVE_TENTHS if name == "xlogx" else _TENTHS
    x1, x2 = (np.array(data.draw(atoms)) / 10.0 for _ in range(2))
    got = mk_divergence(ExpectileScore(alpha, gen), from_samples(x1), from_samples(x2))
    want = expectile_class_theta_sum(alpha, gen, x1, x2)
    assert abs(got - want) <= 1e-13 * want, (got, want)


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

    @pytest.mark.parametrize(
        "f1,f2,p,want",
        [
            # 5^1000 and (2e200)^2 overflow, the distances do not
            (Uniform(0, 1), Uniform(5, 6), 1000.0, 5.0),
            (from_samples([0, 1]), from_samples([1e200, 2e200]), 2.0, 2.5**0.5 * 1e200),
        ],
        ids=["uniform-p1000", "samples-1e200"],
    )
    def test_overflowing_powers_give_the_finite_distance(self, f1, f2, p, want):
        assert wasserstein_p(f1, f2, p) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("p", [np.inf, np.nan])
    def test_non_finite_order_rejected(self, p):
        # x ** inf is 0 or inf, so the p-th root of the integral read 1.0
        # for every pair although W-infinity is 2 here
        with pytest.raises(DomainError, match="finite p >= 1"):
            wasserstein_p(Uniform(0, 1), Uniform(0, 3), p=p)


class TestOracle:
    @pytest.mark.parametrize("a, b", [([], [1.0]), ([1.0], [])])
    def test_an_empty_list_is_a_domain_error(self, a, b):
        with pytest.raises(DomainError, match="^oracle needs non-empty 1-D atom lists$"):
            oracle_optimal(BregmanScore(quadratic()), a, b)

    def test_hand_instance(self):
        rep = oracle_optimal(BregmanScore(quadratic()), [0, 1], [2, 3])
        assert rep.value == 4.0
        rows, cols, mass = rep.plan
        np.testing.assert_array_equal(rows, [0, 1])
        np.testing.assert_array_equal(cols, [0, 1])
        np.testing.assert_array_equal(mass, [0.5, 0.5])
        assert rep.method == "assignment"

    def test_identity_on_identical_lists(self):
        for s in [BregmanScore(quadratic()), GPLScore(0.7)]:
            a = [1.0, 1.0, 2.0]
            rep = oracle_optimal(s, a, a)
            assert rep.value == 0.0
            assert coupling_value(s, a, a, rep.plan[1]) == 0.0

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
            np.testing.assert_array_equal(np.sort(rep.plan[1]), np.arange(len(a)))
            matched = coupling_value(s, a, b, rep.plan[1])
            assert abs(matched - rep.value) <= 1e-15 * abs(rep.value)
            assert rep.value == pytest.approx(brute_force_optimum(s, a, b), rel=1e-12, abs=1e-15)

    def test_antitonic_matching_for_reciprocal_transform(self):
        s = osband_transform(BregmanScore(quadratic()), reciprocal_map())
        rep = oracle_optimal(s, [1.0, 2.0], [1.0, 2.0])
        np.testing.assert_array_equal(rep.plan[1], [1, 0])
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

    def test_dp_agrees_with_linear_sum_assignment(self):
        # every size the dynamic program takes; odd instances repeat atoms,
        # so that optima tie and the two solvers may pick different ones
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(36)
        for s in catalog_scores():
            lo, hi = s.atom_interval
            for k in range(40):
                n = k % 8 + 1
                a, b = rng.uniform(lo, hi, n), rng.uniform(lo, hi, n)
                if k % 2:
                    a, b = np.round(a, 1), np.round(b, 1)
                cost = _transport_cost(s, a[:, None], b[None, :])
                rows, cols = linear_sum_assignment(cost)
                expected = pairwise_sum(cost[rows, cols]) / n
                report = oracle_optimal(s, a, b)
                assert report.method == "assignment"
                assert abs(report.value - expected) <= 1e-15 * abs(expected), (s, a, b)

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            oracle_optimal(
                BregmanScore(quadratic()), np.arange(65.0), np.arange(65.0)
            )
        with pytest.raises(CapacityError, match="capped at 64 total support points, got 65"):
            oracle_optimal(BregmanScore(quadratic()), np.arange(33.0), np.arange(32.0))

    def test_weightless_lists_of_unequal_sizes_are_uniform(self):
        # a missing weight vector is uniform at any sizes: the LP solves
        # unequal sizes, and equal sizes stay on the assignment path
        rng = np.random.default_rng(37)
        for s in catalog_scores():
            lo, hi = s.atom_interval
            for n1, n2 in [(1, 2), (3, 7), (9, 4), (30, 34)]:
                a, b = rng.uniform(lo, hi, n1), rng.uniform(lo, hi, n2)
                report = oracle_optimal(s, a, b)
                assert report.method == "lp"
                assert report.value == uniform_lp_value(s, a, b)
                exact = mk_divergence(s, from_samples(a), from_samples(b))
                assert abs(report.value - exact) <= 1e-9 * abs(exact), (s, a, b)
            assert oracle_optimal(s, a[:5], b[:5]).method == "assignment"

    def test_weight_validation(self):
        s = BregmanScore(quadratic())
        with pytest.raises(DomainError):
            oracle_optimal(s, [0, 1], [2, 3], weights1=[0.5, -0.5], weights2=[0.5, 0.5])
        with pytest.raises(DomainError):
            oracle_optimal(s, [0, 1], [2, 3], weights1=[0.7, 0.7], weights2=[0.5, 0.5])
        with pytest.raises(DomainError, match="first weight vector length mismatch"):
            oracle_optimal(s, [0, 1], [2, 3], weights1=[[0.5], [0.5]], weights2=[0.5, 0.5])

    @pytest.mark.parametrize("d", [1e-10, 1e-11])
    def test_total_the_marginal_check_cannot_meet_is_rejected(self, d):
        # a total this far from one ends in HiGHS "infeasible" (1e-10) or in
        # the 1e-12 marginal check (1e-11) unless it is rejected up front
        w = [0.5, 0.5 + d]
        msg = re.escape(f"first weights must sum to one within 1e-13, got {0.5 + (0.5 + d)!r}")
        with pytest.raises(DomainError, match=msg):
            oracle_optimal(BregmanScore(quadratic()), [0, 1], [2, 3], weights1=w, weights2=[0.5, 0.5])

    def test_total_within_the_bound_still_solves(self):
        report = oracle_optimal(
            BregmanScore(quadratic()), [0, 1], [2, 3], weights1=[0.5, 0.5 + 5e-14],
            weights2=[0.5, 0.5],
        )
        assert report.method == "lp" and report.value == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("weights", [None, [0.5, 0.5]], ids=["assignment", "lp"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_atoms_rejected(self, bad, weights):
        with pytest.raises(DomainError, match=f"second atoms must be finite: atom 1 is {bad}"):
            oracle_optimal(BregmanScore(quadratic()), [0.0, 1.0], [2.0, bad], weights, weights)

    @pytest.mark.parametrize("weights", [None, [0.5, 0.5]], ids=["assignment", "lp"])
    def test_overflowing_cost_names_its_pair(self, weights):
        s = BregmanScore(exponential_generator())
        with pytest.raises(DomainError, match=r"not finite at \(z1, z2\) = \(1000.0, 0.0\)"):
            oracle_optimal(s, [1000.0, 0.0], [0.0, 1.0], weights, weights)

    def test_non_finite_weights_rejected(self):
        s = BregmanScore(quadratic())
        with pytest.raises(DomainError, match="first weights must be finite"):
            oracle_optimal(s, [0, 1], [2, 3], weights1=[np.nan, 0.5], weights2=[0.5, 0.5])
        with pytest.raises(DomainError, match="second weights must be finite"):
            oracle_optimal(s, [0, 1], [2, 3], weights1=[0.5, 0.5], weights2=[np.inf, 0.5])

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
        plan = {(int(i), int(j)): mass for i, j, mass in zip(*rep.plan)}
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
        for x1, x2 in zip(r1.plan, r2.plan):
            np.testing.assert_array_equal(x1, x2)

    @pytest.mark.parametrize("path", ["assignment", "lp"])
    def test_plan_meets_the_weights_and_prices_to_the_value(self, path):
        # both paths report one (rows, cols, mass) form: its row and column
        # sums are the weights, and it prices to the reported value
        rng = np.random.default_rng(37)
        for s in catalog_scores():
            lo, hi = s.atom_interval
            for _ in range(4):
                n1 = int(rng.integers(1, 13))
                n2 = n1 if path == "assignment" else int(rng.integers(1, 13))
                a, b = rng.uniform(lo, hi, n1), rng.uniform(lo, hi, n2)
                if path == "assignment":
                    w1, w2 = np.full(n1, 1.0 / n1), np.full(n2, 1.0 / n2)
                    report = oracle_optimal(s, a, b)
                else:
                    w1, w2 = rng.dirichlet(np.ones(n1)), rng.dirichlet(np.ones(n2))
                    report = oracle_optimal(s, a, b, w1, w2)
                assert report.method == path
                rows, cols, mass = report.plan
                assert rows.shape == cols.shape == mass.shape
                assert np.max(np.abs(np.bincount(rows, mass, n1) - w1)) <= 1e-12
                assert np.max(np.abs(np.bincount(cols, mass, n2) - w2)) <= 1e-12
                cost = _transport_cost(s, a[:, None], b[None, :])
                priced = pairwise_sum(mass * cost[rows, cols])
                if path == "lp":
                    assert priced == report.value
                else:  # the value is the pairwise sum of the costs, over n
                    assert abs(priced - report.value) <= 1e-14 * abs(report.value), (s, a, b)

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

    @pytest.mark.parametrize("refuse, presolves", [(False, [False]), (True, [False, True])])
    def test_presolve_is_off_unless_a_solve_fails(self, refuse, presolves, monkeypatch):
        import scipy.optimize

        calls = []
        original = scipy.optimize.linprog

        def recorded(*args, options, **kwargs):
            calls.append(options["presolve"])
            sol = original(*args, options=options, **kwargs)
            if refuse and not options["presolve"]:
                sol.success, sol.message = False, "refused"
            return sol

        s, a, b = BregmanScore(quadratic()), [0.0, 1.0], [2.0, 3.0, 4.0]
        want = uniform_lp_value(s, a, b)
        monkeypatch.setattr("scipy.optimize.linprog", recorded)
        assert uniform_lp_value(s, a, b) == want
        assert calls == presolves

    def test_wide_weights_fail_no_more_than_with_presolve_alone(self):
        # Dirichlet(0.1) weights, entries down to 1e-28: an instance the
        # oracle fails on fails with presolve on too, and the oracle solves
        # some that presolve alone fails on
        scores = catalog_scores()
        fails, presolve_fails = 0, 0
        for k in range(200):
            rng = np.random.default_rng([7, k])
            s = scores[k % len(scores)]
            n1, n2 = int(rng.integers(1, 33)), int(rng.integers(1, 33))
            lo, hi = s.atom_interval
            a, b = rng.uniform(lo, hi, n1), rng.uniform(lo, hi, n2)
            w1, w2 = rng.dirichlet(np.full(n1, 0.1)), rng.dirichlet(np.full(n2, 0.1))
            w1, w2 = w1 / w1.sum(), w2 / w2.sum()
            cost = _transport_cost(s, a[:, None], b[None, :])
            sol = highs_solution(cost, w1, w2, primal_feasibility_tolerance=1e-10,
                                 dual_feasibility_tolerance=1e-10)
            try:
                _lp_report(sol, cost, w1, w2)
                presolve_failed = False
            except EvaluationError:
                presolve_failed = True
            try:
                oracle_optimal(s, a, b, w1, w2)
            except EvaluationError:
                assert presolve_failed, k
                fails += 1
            presolve_fails += presolve_failed
        assert fails < presolve_fails


@given(n=st.integers(1, 7), k=st.integers(0, 12), data=st.data())
def test_assignment_dp_is_the_least_row_order_sum(n, k, data):
    # k < 12: the cost matrix of catalog score k; k = 12: costs in halves,
    # so that many permutations tie
    if k < 12:
        score = catalog_scores()[k]
        lo, hi = score.atom_interval
        a = np.array(data.draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))
        b = np.array(data.draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))
        cost = _transport_cost(score, a[:, None], b[None, :])
    else:
        raw = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n * n, max_size=n * n))
        cost = np.round(2.0 * np.array(raw)).reshape(n, n) / 2.0
    sigma = _assignment_dp(cost)
    assert sorted(sigma.tolist()) == list(range(n))
    brute = min(row_order_sum(cost, p) for p in itertools.permutations(range(n)))
    assert repr(row_order_sum(cost, sigma)) == repr(brute)
    if k < 12:
        report = oracle_optimal(score, a, b)
        np.testing.assert_array_equal(report.plan[1], sigma)
        assert repr(report.value) == repr(pairwise_sum(cost[np.arange(n), sigma]) / n)


@pytest.mark.parametrize("n", range(1, 9))
def test_batched_dp_solves_each_slice_as_alone(n):
    # cost stacks of catalog scores, and of halves, so that many permutations
    # tie: the batch takes every slice's own first argmin columns
    rng = np.random.default_rng([12, n])
    stacks = [np.round(2.0 * rng.uniform(-2.0, 2.0, (6, n, n))) / 2.0]
    for s in catalog_scores():
        lo, hi = s.atom_interval
        a, b = rng.uniform(lo, hi, (6, n)), rng.uniform(lo, hi, (6, n))
        stacks.append(_transport_cost(s, a[:, :, None], b[:, None, :]))
    for cost in stacks:
        sigma, value = _optimal_assignments(cost)
        for c, perm, v in zip(cost, sigma, value):
            np.testing.assert_array_equal(perm, one_matrix_dp(c))
            np.testing.assert_array_equal(perm, _assignment_dp(c))
            assert repr(float(v)) == repr(pairwise_sum(c[np.arange(n), perm]) / n)


def one_matrix_dp(cost):
    """The subset dynamic program on one matrix, a row at a time: the
    reference for the batched steps of _assignment_dp."""
    n = cost.shape[0]
    best = np.empty(1 << n)
    best[0] = 0.0
    choice = np.empty(1 << n, dtype=int)
    for row, (masks, cols, prev) in zip(cost, _subset_layers(n)):
        vals = best[prev] + row[cols]
        first = np.argmin(vals, axis=1)
        pick = np.arange(masks.size)
        best[masks] = vals[pick, first]
        choice[masks] = cols[pick, first]
    sigma = np.empty(n, dtype=int)
    mask = (1 << n) - 1
    for i in range(n - 1, -1, -1):
        sigma[i] = choice[mask]
        mask ^= 1 << int(sigma[i])
    return sigma


class TestLeafElimination:
    def test_spanning_tree_meets_its_marginals_exactly(self):
        # a staircase on 3 x 3 atoms: five edges, one of them a zero-mass
        # degenerate cell; dyadic weights keep every float sum exact
        rows, cols = np.array([0, 0, 1, 2, 2]), np.array([0, 1, 1, 1, 2])
        w1, w2 = np.array([0.25, 0.5, 0.25]), np.array([0.125, 0.625, 0.25])
        mass = _leaf_elimination(rows, cols, w1, w2)
        np.testing.assert_array_equal(mass, [0.125, 0.125, 0.5, 0.0, 0.25])
        np.testing.assert_array_equal(np.bincount(rows, mass), w1)
        np.testing.assert_array_equal(np.bincount(cols, mass), w2)
        np.testing.assert_array_equal(w1, [0.25, 0.5, 0.25])  # the weights are not consumed

    def test_spanning_tree_meets_inexact_marginals_to_rounding(self):
        rows, cols = np.array([0, 1, 1, 2]), np.array([0, 0, 1, 1])
        w1, w2 = np.array([0.1, 0.2, 0.7]), np.array([0.3, 0.7])
        mass = _leaf_elimination(rows, cols, w1, w2)
        assert np.max(np.abs(np.bincount(rows, mass) - w1)) <= 2**-53
        assert np.max(np.abs(np.bincount(cols, mass) - w2)) <= 2**-53

    def test_cyclic_support_raises(self):
        with pytest.raises(EvaluationError, match="cycle"):
            _leaf_elimination(np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]),
                              np.full(2, 0.5), np.full(2, 0.5))

    def test_cycle_behind_leaves_raises(self):
        # rows 0-1 and columns 0-1 form a cycle; the pendant edges (2, 1)
        # and (0, 2) are settled first, then no leaf is left
        rows, cols = np.array([2, 0, 0, 1, 1, 0]), np.array([1, 0, 1, 0, 1, 2])
        w = np.array([0.25, 0.5, 0.25])
        with pytest.raises(EvaluationError, match="cycle"):
            degree_recount_elimination(rows, cols, w, w)
        with pytest.raises(EvaluationError, match="cycle"):
            _leaf_elimination(rows, cols, w, w)

    @pytest.mark.parametrize("weights", ["uniform", "dirichlet"])
    def test_matches_the_degree_recount_loop_bit_for_bit(self, weights):
        # supports of HiGHS plans, with and without presolve, on seeded
        # instances of the catalog scores
        scores = catalog_scores()
        for k in range(36):
            rng = np.random.default_rng([11, k])
            s = scores[k % len(scores)]
            n1, n2 = int(rng.integers(1, 25)), int(rng.integers(1, 25))
            lo, hi = s.atom_interval
            a, b = rng.uniform(lo, hi, n1), rng.uniform(lo, hi, n2)
            if weights == "uniform":
                w1, w2 = np.full(n1, 1 / n1), np.full(n2, 1 / n2)
            else:
                w1, w2 = rng.dirichlet(np.ones(n1)), rng.dirichlet(np.ones(n2))
            cost = _transport_cost(s, a[:, None], b[None, :])
            for presolve in (False, True):
                sol = highs_solution(cost, w1, w2, presolve=presolve)
                rows, cols = np.nonzero(sol.x.reshape(n1, n2) > 1e-12)
                want = degree_recount_elimination(rows, cols, w1, w2)
                assert _leaf_elimination(rows, cols, w1, w2).tobytes() == want.tobytes()


def highs_solution(cost, w1, w2, **options):
    """linprog's HiGHS solution of the transport LP with costs ``cost`` and
    marginals ``w1`` and ``w2``."""
    from scipy.optimize import linprog

    n1, n2 = cost.shape
    a_eq = np.vstack([np.repeat(np.eye(n1), n2, axis=1), np.tile(np.eye(n2), n1)])
    return linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([w1, w2]), method="highs",
                   options=options)


def degree_recount_elimination(rows, cols, w1, w2):
    """The leaf elimination with the live degrees recounted at every step:
    the reference for the counted degrees of _leaf_elimination."""
    r1, r2 = w1.copy(), w2.copy()
    mass = np.empty(rows.size)
    live = np.ones(rows.size, dtype=bool)
    for _ in range(rows.size):
        row_leaf = np.bincount(rows[live], minlength=r1.size)[rows] == 1
        col_leaf = np.bincount(cols[live], minlength=r2.size)[cols] == 1
        leaves = np.flatnonzero(live & (row_leaf | col_leaf))
        if leaves.size == 0:
            raise EvaluationError("transport plan support has a cycle")
        k = leaves[0]
        i, j = rows[k], cols[k]
        mass[k] = r1[i] if row_leaf[k] else r2[j]
        r1[i] -= mass[k]
        r2[j] -= mass[k]
        live[k] = False
    return mass


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
    @pytest.mark.parametrize("n_min, n_max", [(3, 2), (2, 65)])
    def test_sizes_must_be_ordered_and_within_the_oracle(self, n_min, n_max):
        with pytest.raises(DomainError, match=r"instance sizes must satisfy 2 <= n_min <= n_max <= 64"):
            certify_optimal_coupling(BregmanScore(quadratic()), instances=1, n_min=n_min, n_max=n_max)

    def test_one_assignment_solve_per_instance(self, calls_to):
        # beyond 8 atoms the oracle imports the solver from scipy.optimize at
        # each call; up to 8 atoms the dynamic program solves, with no call
        calls = calls_to("scipy.optimize.linear_sum_assignment", pick=np.shape)
        for s in certify_scores():
            calls.clear()
            result = certify_optimal_coupling(s, instances=5, n_min=9, n_max=12, seed=3)
            assert result.passed
            assert len(calls) == 5
            calls.clear()
            assert certify_optimal_coupling(s, instances=5, n_min=2, n_max=8, seed=3).passed
            assert calls == []

    @pytest.mark.parametrize("k", range(15))
    def test_batches_match_the_per_instance_reference_bit_for_bit(self, k):
        # the twelve catalog scores and the three antitonic certify scores
        s = (catalog_scores() + certify_scores()[6:])[k]
        for seed in range(10):
            for n_min, n_max in ((2, 8), (9, 64), (2, 64)):
                got = certify_optimal_coupling(s, instances=12, n_min=n_min, n_max=n_max,
                                               seed=seed).max_deviation
                want = per_instance_certification(s, 12, n_min, n_max, seed)
                assert repr(got) == repr(want)

    def test_negative_dust_is_clamped_as_in_mk_divergence(self):
        # every value is -1e-20: the closed form clamps its sum to 0, the
        # oracle keeps -1e-20, so the deviation is 1e-20 / (1 - 1e-20)
        class Dust(Score):
            family = "dust"

            def _eval(self, z, y):
                return np.full(np.broadcast(z, y).shape, -1e-20)

        got = certify_optimal_coupling(Dust(), instances=6, n_min=2, n_max=12, seed=4)
        assert got.max_deviation == per_instance_certification(Dust(), 6, 2, 12, 4) > 0.0

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 6, 256])
    def test_an_error_names_the_first_failing_instance_in_draw_order(self, chunk, monkeypatch):
        # a cost that is infinite for atoms 3.5 apart; with seed 16 the
        # instances have sizes 4, 4, 3, 5, 5, 4, 4, 3, and instances 4 and 5
        # overflow, so in a chunk of 6 or more the batch of size 4, drawn
        # first, fails on instance 5 while instance 4 is the first to fail
        # in draw order; smaller chunks split the instances at every place
        class Cliff(Score):
            family = "cliff"

            def _eval(self, z, y):
                gap = np.abs(z - y)
                return np.where(gap < 3.5, gap * gap, np.inf)

        # a closed form that sums to -inf where a report exceeds its
        # realization by more than 1: at seeds 0, 1 and 4 an instance fails
        # so before any cost does
        class Sink(Score):
            family = "sink"

            def _eval(self, z, y):
                return np.where(z - y > 1.0, -np.inf, (z - y) ** 2)

        # a report domain that the draws cross: at seeds 1 and 3 the first
        # instance to fail is not the first row of its size batch
        class Ledge(Score):
            family = "ledge"
            z_domain = (-1.9, np.inf)
            atom_interval = (-2.0, 2.0)

            def _eval(self, z, y):
                return (z - y) ** 2

        # negated atoms leave the domain of xlogx: the score names its u-node
        negated_entropy = osband_transform(BregmanScore(entropy_generator()), negation_map())
        outside = "score family 'bregman': report z outside (0.0, inf) (first offending grid node: "
        ledge = "score family 'ledge': report z outside (-1.9, inf) (first offending grid node: "
        cases = [
            (Cliff(), 3, 5, 16, DomainError, "cost c(z1, z2) = inf is not finite at "
             "(z1, z2) = (-1.9455876126610812, 1.949687302158713)"),
            *((Sink(), 3, 6, seed, MomentError, "divergence is undefined: the score values "
               "sum to -inf") for seed in (0, 1, 4)),
            (negated_entropy, 3, 6, 0, DomainError, outside + "u=0.08333333333333333)"),
            (negated_entropy, 3, 6, 1, DomainError, outside + "u=0.125)"),
            (Ledge(), 3, 6, 1, DomainError, ledge + "u=0.1)"),
            (Ledge(), 3, 6, 3, DomainError, ledge + "u=0.08333333333333333)"),
        ]
        monkeypatch.setattr("mkdiv.transport._CERTIFY_CHUNK", chunk)
        for score, n_min, n_max, seed, error, message in cases:
            with pytest.raises(error) as want:
                per_instance_certification(score, 8, n_min, n_max, seed)
            with pytest.raises(error) as got:
                certify_optimal_coupling(score, instances=8, n_min=n_min, n_max=n_max, seed=seed)
            assert str(got.value) == str(want.value) == message

    def test_each_chunk_is_solved_before_the_next_is_drawn(self, monkeypatch):
        # 10 instances in chunks of 4: draws 0-3, their batches, draws 4-7,
        # their batches, draws 8-9, their batches; the maximum is the same
        events = []

        def logged_draw(score, seed, k, n_min, n_max):
            events.append(("draw", k))
            return _draw_instance(score, seed, k, n_min, n_max)

        def logged_batch(score, a, b):
            events.append(("batch", a.shape[0]))
            return _batch_deviations(score, a, b)

        monkeypatch.setattr("mkdiv.transport._CERTIFY_CHUNK", 4)
        monkeypatch.setattr("mkdiv.transport._draw_instance", logged_draw)
        monkeypatch.setattr("mkdiv.transport._batch_deviations", logged_batch)
        s = GPLScore(0.7)
        got = certify_optimal_coupling(s, instances=10, n_min=2, n_max=12, seed=5).max_deviation
        steps = [(kind, sum(1 if kind == "draw" else n for _, n in group))
                 for kind, group in itertools.groupby(events, key=lambda e: e[0])]
        assert steps == [("draw", 4), ("batch", 4), ("draw", 4), ("batch", 4),
                         ("draw", 2), ("batch", 2)]
        assert [k for kind, k in events if kind == "draw"] == list(range(10))
        assert repr(got) == repr(per_instance_certification(s, 10, 2, 12, 5))

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

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"instances": 2.0}, "instances >= 1, got instances=2.0"),
            ({"instances": 0}, "instances >= 1, got instances=0"),
            ({"n_min": 2.5}, "n_min >= 0, got n_min=2.5"),
            ({"n_max": 3.0}, "n_max >= 0, got n_max=3.0"),
            ({"seed": -1}, "seed >= 0, got seed=-1"),
            ({"seed": 1.5}, "seed >= 0, got seed=1.5"),
            ({"instances": True}, "instances >= 1, got instances=True"),
            ({"seed": False}, "seed >= 0, got seed=False"),
        ],
    )
    def test_counts_and_seed_must_be_integers(self, kwargs, message):
        with pytest.raises(DomainError, match=f"^certification needs an integer {message}$"):
            certify_optimal_coupling(GPLScore(0.7), **{"instances": 2, **kwargs})


def per_instance_certification(score, instances, n_min, n_max, seed):
    """The largest deviation of certify_optimal_coupling, one instance at a
    time from its own laws, divergence and oracle call."""
    devs = []
    for k in range(instances):
        rng = np.random.default_rng([seed, k])
        n = int(rng.integers(n_min, n_max + 1))
        lo, hi = score.atom_interval
        a, b = rng.uniform(lo, hi, n), rng.uniform(lo, hi, n)
        closed = mk_divergence(score, from_samples(a), from_samples(b))
        optimum = oracle_optimal(score, a, b).value
        devs.append(abs(closed - optimum) / (1.0 + abs(optimum)))
    return max(devs)


def test_scipy_optimize_loads_with_the_first_oracle_call(run_python):
    # the first call that needs it: an assignment of more than 8 atoms
    proc = run_python(
        "-c",
        "import sys, mkdiv, mkdiv.cli\n"
        "print('scipy.optimize' in sys.modules)\n"
        "mkdiv.oracle_optimal(mkdiv.GPLScore(0.7), [0.0, 1.0], [2.0, 3.0])\n"
        "print('scipy.optimize' in sys.modules)\n"
        "mkdiv.oracle_optimal(mkdiv.GPLScore(0.7), list(range(9)), list(range(1, 10)))\n"
        "print('scipy.optimize' in sys.modules)\n",
    )
    assert (proc.returncode, proc.stdout.split()) == (0, ["False", "False", "True"])


def test_normal_laws_and_the_cli_load_no_scipy(run_python):
    proc = run_python(
        "-c",
        "import io, sys, mkdiv, mkdiv.cli\n"
        "for law in (mkdiv.Normal(0.5, 2.0), mkdiv.LogNormal(0.0, 0.5)):\n"
        "    mkdiv.quantile_grid(law, 1000)\n"
        "    law.cdf([0.5, 1.5])\n"
        "print(mkdiv.cli.main(['divergence', '--score', 'score:bregman,phi=quadratic',\n"
        "                      '--from', 'normal:mu=0,sigma=1', '--to', 'normal:mu=1,sigma=2'],\n"
        "                     out=io.StringIO()))\n"
        "print(mkdiv.cli.main(['verify', '--score', 'score:gpl,alpha=0.9'], out=io.StringIO()))\n"
        "print(sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')))\n",
    )
    assert (proc.returncode, proc.stdout.split()) == (0, ["0", "0", "[]"])


class TestCouplingValue:
    def test_matchings_need_lists_of_equal_size(self):
        with pytest.raises(DomainError, match="^matchings need equally many atoms on both sides$"):
            comonotonic_matching([0.0, 1.0], [0.0, 1.0, 2.0])

    @pytest.mark.parametrize("matching", [[0], [0, 1, 2]])
    def test_a_matching_of_the_wrong_length_is_a_domain_error(self, matching):
        with pytest.raises(DomainError, match="^coupling_value needs equal-length atoms and matching$"):
            coupling_value(BregmanScore(quadratic()), [0.0, 1.0], [2.0, 3.0], matching)

    def test_identity_and_swap(self):
        s = BregmanScore(quadratic())
        assert coupling_value(s, [0, 1], [2, 3], [0, 1]) == 4.0
        assert coupling_value(s, [0, 1], [2, 3], [1, 0]) == 5.0

    def test_single_pair(self):
        s = GPLScore(0.9)
        assert coupling_value(s, [2.0], [5.0], [0]) == s(5.0, 2.0)

    def test_permutation_validated(self):
        # booleans, floats and strings are not cast to indices, and a 2-D
        # array is not compared row by row
        s = BregmanScore(quadratic())
        for matching in ([0, 0], [True, False], [1.7, 0.2], [[1, 0]], ["1", "0"]):
            with pytest.raises(DomainError, match="^matching is not a permutation$"):
                coupling_value(s, [0, 1], [2, 3], matching)

    @pytest.mark.parametrize(
        "call",
        [lambda a, b: coupling_value(BregmanScore(quadratic()), a, b, [0, 1]),
         comonotonic_matching, antitonic_matching],
        ids=["coupling_value", "comonotonic", "antitonic"],
    )
    def test_atom_lists_must_be_1d_and_finite(self, call):
        with pytest.raises(DomainError, match="first atoms must be finite: atom 0 is nan"):
            call([np.nan, 1.0], [0.0, 1.0])
        with pytest.raises(DomainError, match=r"second atoms must form a 1-D list, got shape"):
            call([0.0, 1.0], [[2.0, 3.0]])

    def test_overflowing_cost_names_its_pair(self):
        s = BregmanScore(exponential_generator())
        with pytest.raises(DomainError, match=r"not finite at \(z1, z2\) = \(800.0, 0.0\)"):
            coupling_value(s, [800.0, 1.0], [0.0, 1.0], [0, 1])

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
        rows = pairwise_sum(mat)
        assert rows.shape == (300,)
        for row, got in zip(mat, rows):
            assert np.float64(pairwise_sum(row)).tobytes() == got.tobytes()
