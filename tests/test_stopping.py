import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from condsim import stopping
from condsim.errors import (
    CondsimError,
    EmptyPosteriorError,
    NonPositivePhiMinError,
    NonPositiveShapeError,
)
from condsim.stopping import (
    DirichletPosterior,
    failure_probability_bound,
    regularized_incomplete_beta,
    should_stop,
    worst_case_sample_bound,
)


def test_posterior_mean_is_counts_over_their_sum():
    post = DirichletPosterior((1, 3))
    assert post.n == 4
    assert post.mu == pytest.approx((0.25, 0.75))


def test_empty_unbiased_posterior_mu_is_zero_by_convention():
    post = DirichletPosterior((0, 0))
    assert post.n == 0
    assert post.mu == (0.0, 0.0)


def test_posterior_validation():
    with pytest.raises(ValueError):
        DirichletPosterior((3,))
    with pytest.raises(ValueError):
        DirichletPosterior((-1, 2))


def test_incomplete_beta_uniform_cdf_is_identity():
    for x in (0.0, 0.25, 1.0):
        assert regularized_incomplete_beta(1, 1, x) == pytest.approx(
            x, abs=1e-12)


def test_incomplete_beta_symmetry_point():
    for a in (1.0, 2.0, 7.5):
        assert regularized_incomplete_beta(a, a, 0.5) == pytest.approx(
            0.5, abs=1e-12)


def test_incomplete_beta_binomial_sum_oracle():
    # integer shapes reduce to a binomial tail sum
    oracle = sum(math.comb(6, j) * 0.3 ** j * 0.7 ** (6 - j)
                 for j in range(2, 7))
    assert regularized_incomplete_beta(2, 5, 0.3) == pytest.approx(
        oracle, abs=1e-12)
    assert round(regularized_incomplete_beta(2, 5, 0.3), 6) == 0.579825


def test_incomplete_beta_against_scipy_grid():
    gen = np.random.Generator(np.random.PCG64(67))
    for _ in range(200):
        a = float(gen.uniform(0.5, 50.0))
        b = float(gen.uniform(0.5, 50.0))
        x = float(gen.uniform(0.0, 1.0))
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(
            float(special.betainc(a, b, x)), abs=1e-10)


@pytest.mark.parametrize("epsilon", [5e-4, 3e-4])
def test_incomplete_beta_converges_near_the_mean_of_large_shapes(epsilon):
    # The stopping rule's tail points for counts (430587, 617989), where a
    # fixed cap of 300 continued-fraction terms used to give up.
    a, b = 430587.0, 617989.0
    mu = a / (a + b)
    for x in (mu / (1.0 + epsilon), mu * (1.0 + epsilon)):
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(
            float(special.betainc(a, b, x)), abs=1e-8)
    post = DirichletPosterior((430587, 617989))
    assert 0.0 < failure_probability_bound(post, epsilon) <= 1.0


def test_incomplete_beta_guards():
    with pytest.raises(NonPositiveShapeError):
        regularized_incomplete_beta(0.0, 1.0, 0.5)
    with pytest.raises(NonPositiveShapeError):
        regularized_incomplete_beta(1.0, -2.0, 0.5)
    with pytest.raises(ValueError):
        regularized_incomplete_beta(1.0, 1.0, 1.5)


def test_failure_bound_flat_posterior_reference_value():
    post = DirichletPosterior((1, 1))
    # each Beta(1, 1) category leaves mass 0.25 below mu/2; upper
    # cutoffs hit 1 exactly and contribute nothing
    assert failure_probability_bound(post, 1.0) == pytest.approx(
        0.5, abs=1e-12)


def test_failure_bound_vanishes_for_huge_epsilon():
    post = DirichletPosterior((5, 5))
    assert failure_probability_bound(post, 1e9) < 1e-12


def test_failure_bound_concentrated_posterior():
    post = DirichletPosterior((100, 100))
    bound = failure_probability_bound(post, 0.2)
    assert bound < 0.05
    assert bound == pytest.approx(0.022075413594176, rel=1e-9)


def test_failure_bound_zero_count_category_cannot_certify():
    post = DirichletPosterior((0, 5))
    assert failure_probability_bound(post, 5.0) == 1.0


def test_failure_bound_guards():
    with pytest.raises(EmptyPosteriorError):
        failure_probability_bound(
            DirichletPosterior((0, 0)), 0.5)
    for epsilon in (0.0, math.nan):
        with pytest.raises(ValueError):
            failure_probability_bound(
                DirichletPosterior((1, 1)), epsilon)
    # The category is keyword-only: a third positional argument was once
    # an early-exit threshold, and must not be read as a category.
    with pytest.raises(TypeError):
        failure_probability_bound(
            DirichletPosterior((1, 1)), 0.5, 1)


def test_failure_bound_non_increasing_in_n_at_fixed_mean():
    for eps in (0.15, 0.3, 0.6):
        previous = None
        for scale in (1, 2, 4, 8, 16):
            post = DirichletPosterior((3 * scale, 7 * scale))
            bound = failure_probability_bound(post, eps)
            if previous is not None:
                assert bound <= previous + 1e-12
            previous = bound


def _beta_pdf(a, b, x):
    lognorm = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    return math.exp(lognorm + (a - 1) * math.log(x)
                    + (b - 1) * math.log(1 - x))


def test_failure_bound_within_two_of_exact_outside_mass():
    # for two categories the union bound may count a violating point
    # twice but never more, so it stays within a factor of two
    gen = np.random.Generator(np.random.PCG64(71))
    checked = 0
    while checked < 20:
        total = int(gen.integers(20, 150))
        ones = int(gen.integers(int(0.2 * total), int(0.8 * total)) or 1)
        eps = float(gen.uniform(0.05, 0.25))
        post = DirichletPosterior((ones, total - ones))
        mu1, mu2 = post.mu
        lo = max(mu1 / (1 + eps), 1 - mu2 * (1 + eps))
        hi = min(mu1 * (1 + eps), 1 - mu2 / (1 + eps))
        inside, _ = integrate.quad(
            lambda x: _beta_pdf(ones, total - ones, x), lo, hi, limit=200)
        exact = 1.0 - inside
        if exact < 1e-9:
            continue
        union = failure_probability_bound(post, eps)
        assert union >= exact - 1e-9
        assert union <= 2.0 * exact + 1e-9
        checked += 1


def test_should_stop_reference_values():
    post = DirichletPosterior((1, 1))
    assert should_stop(post, 1.0, 0.6)
    assert not should_stop(post, 1.0, 0.4)
    assert not should_stop(DirichletPosterior((0, 5)),
                           100.0, 0.99)


def test_one_category_bound_is_its_exact_binomial_tail_mass():
    sizes = (1, 2, 7, 40, 300, 5000)
    for counts in itertools.product(sizes, sizes):
        post = DirichletPosterior(counts)
        n = post.n
        for category, epsilon in itertools.product((0, 1), (0.05, 0.2, 1.0)):
            a = counts[category]
            mu = a / n
            lower, upper = mu / (1 + epsilon), mu * (1 + epsilon)
            beta_tails = stats.beta.cdf(lower, a, n - a + 1)
            binomial_tails = stats.binom.sf(a - 1, n, lower)
            plain = stats.beta.cdf(lower, a, n - a)
            if upper < 1:
                beta_tails += stats.beta.sf(upper, a + 1, n - a)
                binomial_tails += stats.binom.cdf(a, n, upper)
                plain += stats.beta.sf(upper, a, n - a)
            bound = failure_probability_bound(post, epsilon,
                                              category=category)
            assert bound == pytest.approx(min(1.0, beta_tails), abs=1e-9)
            assert bound == pytest.approx(min(1.0, binomial_tails),
                                          abs=1e-9)
            # The exact tails bracket those of the Beta(a, n - a) marginal.
            assert bound >= min(1.0, plain) - 1e-12


def test_all_category_bound_is_its_beta_tail_mass():
    gen = np.random.Generator(np.random.PCG64(23))
    for k in range(3, 17):
        # Random counts, then one category above half of n, whose upper
        # limit at epsilon 1 reaches 1 and drops its upper tail.
        spread = tuple(int(c) for c in gen.integers(50, 1000, size=k))
        rest = tuple(int(c) for c in gen.integers(5, 60, size=k - 1))
        dominant = (2 * sum(rest),) + rest
        for counts, epsilon in ((spread, 0.2), (dominant, 1.0)):
            post = DirichletPosterior(counts)
            n = post.n
            expected = 0.0
            for a in counts:
                mu = a / n
                expected += stats.beta.cdf(mu / (1 + epsilon), a, n - a)
                if mu * (1 + epsilon) < 1:
                    expected += stats.beta.sf(mu * (1 + epsilon), a, n - a)
            assert (counts[0] / n * (1 + epsilon) >= 1) is (
                counts is dominant)
            assert failure_probability_bound(post, epsilon) == (
                pytest.approx(min(1.0, expected), abs=1e-9))


# failure_probability_bound as float.hex at fixed posteriors. The sum
# runs smallest category first; another order moves the last bits of
# some of these values, (10, 2), (201, 51, 111) and the unsorted k = 8
# posterior among them. The second field names the prior a row was
# first pinned under. A "uniform" row pinned a one-pseudocount prior on
# counts one lower in every category, whose posterior is the unbiased
# posterior of the counts shown, to the last bit.
_PINNED_BOUNDS = [
    ((30, 70), "unbiased", 0.3, None, "0x1.6a5c6d3271bfbp-4"),
    ((71, 31), "uniform", 0.3, None, "0x1.52148f725fecdp-4"),
    ((40, 160), "unbiased", 0.1, None, "0x1.05062fae7e5e3p-1"),
    ((41, 161), "uniform", 0.1, None, "0x1.01fe728670737p-1"),
    ((1, 9), "unbiased", 0.2, None, "0x1.de80e0af0a8f6p-1"),
    ((10, 2), "uniform", 0.5, None, "0x1.1fdd91ce3980ap-1"),
    ((3, 7), "unbiased", 0.2, 1, "0x1.18798dc159d5ep-1"),
    ((4, 8), "uniform", 0.2, 1, "0x1.0c27e68c3876ep-1"),
    ((1, 31), "unbiased", 0.05, 1, "0x1.1ea149cf87620p-2"),
    ((9, 249), "uniform", 0.05, 1, "0x1.22d08e85fa2e3p-9"),
    ((700, 300), "unbiased", 0.05, 1, "0x1.50e3b9fd5b1cdp-2"),
    ((2, 10), "uniform", 0.3, 1, "0x1.182b9be6e5b1dp-3"),
    ((5, 11, 20), "unbiased", 0.3, None, "0x1.d31dae47db788p-1"),
    ((6, 12, 21), "uniform", 0.3, None, "0x1.b1131fb616275p-1"),
    ((201, 51, 111), "uniform", 0.2, None, "0x1.783e0078ea8d6p-3"),
    ((50, 2, 948), "unbiased", 1.0, None, "0x1.6bd62714954dcp-2"),
    ((5, 11, 20), "unbiased", 0.3, 1, "0x1.835f770d9347ap-2"),
    ((13, 41, 4), "uniform", 0.25, 1, "0x1.3f96de3b2ad7fp-6"),
    ((20, 40, 60, 100, 160, 260, 420, 680), "unbiased", 0.3, None,
     "0x1.8a3e094c20c2cp-2"),
    ((681, 21, 421, 61, 261, 41, 161, 101), "uniform", 0.3, None,
     "0x1.781e17a409571p-2"),
    ((900, 100, 350, 4000, 70, 610, 1200, 180), "unbiased", 0.3, None,
     "0x1.36da643295a65p-5"),
    ((90, 10, 35, 400, 7, 61, 120, 18), "unbiased", 0.3, 1,
     "0x1.fa777942d7a68p-2"),
    ((3000, 1000), "unbiased", 0.0466, None, "0x1.8aaa94f69d3c9p-4"),
]


@pytest.mark.parametrize("counts, first_prior, epsilon, category, pinned",
                         _PINNED_BOUNDS)
def test_failure_bound_is_pinned(counts, first_prior, epsilon, category,
                                 pinned):
    post = DirichletPosterior(counts)
    assert failure_probability_bound(post, epsilon,
                                     category=category).hex() == pinned


def test_should_stop_decides_the_pinned_bound_in_the_fallback_band(
        monkeypatch):
    # At delta equal to the bound no bracket decides, so the rule
    # evaluates the bound, and one step below it the answer flips.
    evaluated = []

    def bound_of(*args, **kwargs):
        evaluated.append(args)
        return failure_probability_bound(*args, **kwargs)
    monkeypatch.setattr(stopping, "failure_probability_bound", bound_of)
    post = DirichletPosterior((3000, 1000))
    bound = float.fromhex("0x1.8aaa94f69d3c9p-4")
    assert should_stop(post, 0.0466, bound)
    assert not should_stop(post, 0.0466, math.nextafter(bound, 0.0))
    assert len(evaluated) == 2


def test_one_category_rule_needs_the_other_category_observed():
    for counts, category in (((0, 1000), 1), ((1000, 0), 0)):
        post = DirichletPosterior(counts)
        assert failure_probability_bound(post, 100.0,
                                         category=category) == 1.0
        assert not should_stop(post, 100.0, 0.99, category=category)
    with pytest.raises(ValueError):
        failure_probability_bound(post, 0.2, category=2)


def test_one_category_rule_does_not_certify_a_lucky_run():
    # 31 of 32: the Beta(31, 1) marginal leaves 0.082 below mu / 1.05,
    # under delta 0.1, but Pr[Bin(32, mu / 1.05) >= 31] is 0.28.
    post = DirichletPosterior((1, 31))
    mu = 31 / 32
    assert stats.beta.cdf(mu / 1.05, 31, 1) < 0.1
    assert not should_stop(post, 0.05, 0.1, category=1)
    assert failure_probability_bound(post, 0.05, category=1) == (
        pytest.approx(0.28, abs=0.01))
    # A run that the exact tails certify stops on one category long
    # before both categories are certified.
    post = DirichletPosterior((8, 248))
    assert should_stop(post, 0.05, 0.1, category=1)
    assert not should_stop(post, 0.05, 0.1)


def _bound_decides(posterior, epsilon, delta, category):
    """The stopping rule as failure_probability_bound alone decides it."""
    if min(posterior.counts) < 1:
        return False
    return failure_probability_bound(posterior, epsilon,
                                     category=category) <= delta


@st.composite
def _rule_inputs(draw):
    """Counts near the total where the rule first certifies, or anywhere.

    Category 1 of two, or every category of 2 to 16, keeps fixed shares
    of the total; the certifying total is found by bisection on the
    failure bound, and the counts are drawn within a few trials of it.
    """
    category = draw(st.sampled_from((None, 1)))
    k = 2 if category is not None else draw(st.integers(2, 16))
    shares = draw(st.lists(st.integers(1, 1000), min_size=k, max_size=k))
    epsilon = 10.0 ** draw(st.floats(-3.0, 1.0))
    delta = 10.0 ** draw(st.floats(-6.0, 0.0, exclude_max=True))

    def posterior(total):
        return DirichletPosterior(
            tuple(max(1, round(total * s / sum(shares))) for s in shares))

    def certifies(total):
        return _bound_decides(posterior(total), epsilon, delta, category)

    low, high = k, 1 << 18
    if draw(st.booleans()) and not certifies(low) and certifies(high):
        while high - low > 1:
            mid = (low + high) // 2
            low, high = (low, mid) if certifies(mid) else (mid, high)
        total = high + draw(st.integers(-3, 3))
    else:
        total = draw(st.integers(low, high))
    return posterior(total), epsilon, delta, category


_EDGES = (
    # alpha = 1, in the bound over every category and alone
    ((1, 500), 0.2, 0.1, None),
    ((500, 1), 5.0, 0.5, 1),
    # alpha = n - 1 and n - 2
    ((1, 500), 0.01, 0.1, 1),
    ((2, 500), 0.01, 0.1, 1),
    # mu (1 + epsilon) >= 1: the upper tail is left out
    ((4, 501), 1.0, 0.1, 1),
    ((300, 700), 1.0, 0.1, None),
    # delta = 1
    ((1, 1), 0.5, 1.0, None),
    ((10, 1000), 0.001, 1.0, 1),
    # lower limits that underflow, and a tail that underflows
    ((1, 1000), 1e306, 0.1, None),
    ((1, 1000), math.inf, 0.1, 1),
    ((1, 1 << 20), 10.0, 1e-4, 1),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_rule_inputs())
def test_should_stop_decides_as_the_failure_bound(case):
    posterior, epsilon, delta, category = case
    try:
        expected = _bound_decides(posterior, epsilon, delta, category)
    except CondsimError:
        return  # the reference gives up; any answer is no worse
    assert should_stop(posterior, epsilon, delta, category) is expected


@pytest.mark.parametrize("counts, epsilon, delta, category", _EDGES, ids=[
    "alpha-1-every", "alpha-1-one", "alpha-n-1", "alpha-n-2",
    "no-upper-tail-one", "no-upper-tail-every", "delta-1-every",
    "delta-1-one", "lower-underflows", "lower-is-0", "tail-underflows"])
def test_should_stop_decides_edge_inputs_as_the_failure_bound(
        counts, epsilon, delta, category):
    posterior = DirichletPosterior(counts)
    assert should_stop(posterior, epsilon, delta, category) is (
        _bound_decides(posterior, epsilon, delta, category))


@pytest.mark.parametrize("trials", [2, 3, 10, 100, 10 ** 4, 10 ** 6,
                                    10 ** 9])
def test_tail_bounds_bracket_the_binomial_tails(trials):
    checked = 0
    for p in (1e-6, 0.01, 0.3, 0.5, 0.9):
        sd = math.sqrt(trials * p * (1.0 - p))
        for z in (0.5, 1.0, 2.0, 3.0, 5.0, 8.0):
            # Pr[X >= start] above the mean, Pr[X <= stop] below it, the
            # latter taken from the top as should_stop takes it.
            start = math.ceil(trials * p + z * sd)
            stop = math.floor(trials * p - z * sd)
            tails = []
            if 1 <= start <= trials and (trials - start) * p < (
                    (start + 1) * (1.0 - p)):
                tails.append((stats.binom.sf(start - 1, trials, p),
                              stopping._tail_bounds(
                                  trials, start, math.log(p),
                                  math.log1p(-p), p / (1.0 - p))))
            if 0 <= stop < trials and stop * (1.0 - p) < (
                    (trials - stop + 1) * p):
                tails.append((stats.binom.cdf(stop, trials, p),
                              stopping._tail_bounds(
                                  trials, trials - stop, math.log1p(-p),
                                  math.log(p), (1.0 - p) / p)))
            for exact, (low, high) in tails:
                assert low <= exact <= high
                if 1e-6 < exact < 0.05:
                    # Near any delta the rule meets, the bracket is
                    # narrow enough to decide most evaluations.
                    assert high <= 2.0 * low
                checked += 1
    assert checked >= 10


def test_tail_margin_covers_the_pmf_error_at_a_billion_trials():
    # The brackets widen each tail by _SLACK times the magnitudes summed
    # in its log pmf; at a billion trials the log-gamma cancellation
    # leaves the pmf a few parts in a million off, well inside that.
    trials = 10 ** 9
    log_gamma = math.lgamma(trials + 1)
    for p in (1e-6, 0.01, 0.3, 0.5, 0.9):
        sd = math.sqrt(trials * p * (1.0 - p))
        for z in (1.0, 2.0, 3.0, 5.0):
            k = math.ceil(trials * p + z * sd)
            terms = k * math.log(p) + (trials - k) * math.log1p(-p)
            pmf = math.exp(log_gamma - math.lgamma(k + 1)
                           - math.lgamma(trials - k + 1) + terms)
            error = abs(pmf / stats.binom.pmf(k, trials, p) - 1.0)
            margin = stopping._SLACK * (2.0 * log_gamma - terms
                                        + 10.0 * trials + 300.0)
            assert 0.0 < error < margin / 100.0


# The smallest count c of category 1 at which counts (n - c, c) certify
# under the unbiased prior, for n = 2^e, e = 1..22, as the failure bound
# alone decides: (first e at which some count certifies, c from there on).
_CERTIFYING_COUNTS = {
    (0.5, 0.1, None): (5, (12, 14, 16, 16, 17, 17, 17, 17, 17, 17, 17, 17, 17,
        17, 17, 17, 17, 17)),
    (0.5, 0.1, 1): (3, (7, 10, 13, 15, 17, 18, 19, 19, 19, 19, 19, 19, 19, 19,
        19, 19, 19, 19, 19, 19)),
    (0.5, 0.0125, None): (6, (26, 31, 35, 37, 39, 39, 40, 40, 40, 40, 40, 40,
        40, 40, 40, 40, 40)),
    (0.5, 0.0125, 1): (4, (15, 21, 27, 32, 36, 39, 40, 41, 41, 41, 41, 41, 41,
        41, 41, 41, 41, 41, 41)),
    (0.5, 0.0001, None): (8, (76, 86, 92, 95, 97, 98, 99, 99, 99, 99, 99, 99,
        99, 99, 99)),
    (0.5, 0.0001, 1): (5, (30, 46, 63, 77, 86, 92, 96, 98, 99, 99, 99, 99, 99,
        100, 100, 100, 100, 100)),
    (0.2, 0.1, None): (7, (53, 63, 71, 76, 79, 81, 82, 82, 82, 82, 82, 82, 82,
        82, 82, 82)),
    (0.2, 0.1, 1): (5, (25, 38, 53, 66, 75, 81, 84, 85, 86, 87, 87, 87, 87, 87,
        87, 87, 87, 87)),
    (0.2, 0.0125, None): (8, (112, 139, 161, 174, 182, 186, 188, 189, 189, 189,
        190, 190, 190, 190, 190)),
    (0.2, 0.0125, 1): (5, (31, 52, 80, 113, 143, 164, 178, 186, 190, 192, 193,
        193, 194, 194, 194, 194, 194, 194)),
    (0.2, 0.0001, None): (10, (325, 381, 418, 439, 451, 457, 460, 461, 462,
        463, 463, 463, 463)),
    (0.2, 0.0001, 1): (6, (63, 111, 177, 254, 328, 384, 421, 442, 454, 460,
        463, 464, 465, 466, 466, 466, 466)),
    (0.0466, 0.1, None): (11, (837, 990, 1126, 1209, 1255, 1280, 1292, 1299,
        1302, 1304, 1304, 1305)),
    (0.0466, 0.1, 1): (6, (63, 119, 218, 374, 583, 810, 1006, 1144, 1229, 1276,
        1300, 1313, 1320, 1323, 1325, 1326, 1326)),
    (0.0466, 0.0125, None): (12, (1754, 2202, 2543, 2756, 2877, 2942, 2975,
        2992, 3001, 3005, 3007)),
    (0.0466, 0.0125, 1): (7, (127, 241, 444, 772, 1229, 1748, 2217, 2560, 2775,
        2897, 2962, 2996, 3013, 3021, 3026, 3028)),
    (0.0466, 0.0001, None): (13, (3923, 5058, 5977, 6574, 6920, 7107, 7204,
        7254, 7279, 7292)),
    (0.0466, 0.0001, 1): (8, (255, 492, 917, 1620, 2645, 3882, 5072, 5993,
        6591, 6938, 7126, 7223, 7273, 7298, 7311)),
    (0.0122, 0.1, None): (15, (11954, 14367, 16136, 17194, 17777, 18083, 18241,
        18320)),
    (0.0122, 0.1, 1): (8, (255, 501, 975, 1851, 3365, 5694, 8706, 11836, 14431,
        16207, 17270, 17856, 18163, 18321, 18401)),
    (0.0122, 0.0125, None): (16, (25798, 32054, 36518, 39252, 40778, 41587,
        42003)),
    (0.0122, 0.0125, 1): (9, (510, 1006, 1961, 3745, 6882, 11845, 18526, 25805,
        32115, 36588, 39327, 40856, 41667, 42084)),
    (0.0122, 0.0001, None): (17, (57699, 73925, 86054, 93746, 98132, 100482)),
    (0.0122, 0.0001, 1): (10, (1022, 2023, 3961, 7614, 14164, 24892, 40088,
        57714, 73982, 86121, 93819, 98208, 100560)),
}


@pytest.mark.parametrize("key", list(_CERTIFYING_COUNTS),
                         ids=lambda key: "-".join(map(str, key)))
def test_certifying_counts_are_pinned(key):
    epsilon, delta, category = key
    first, counts = _CERTIFYING_COUNTS[key]
    assert first + len(counts) == 23
    for e in range(1, 23):
        n = 1 << e
        # Two categories' bound is symmetric, so n / 2 certifies first.
        best = n - 1 if category == 1 else n // 2

        def stops(c):
            return should_stop(DirichletPosterior((n - c, c)), epsilon,
                               delta, category)

        if e < first:
            assert not stops(best)
        else:
            c = counts[e - first]
            assert stops(c) and not stops(c - 1)


def test_worst_case_sample_bound_reference_values():
    assert worst_case_sample_bound(2, 0.1, 0.05, 0.05) == 29512
    assert worst_case_sample_bound(0, 1, 0.05, 1) == 4
    assert worst_case_sample_bound(1, 0.2, 0.1, 0.3) == 500
    assert worst_case_sample_bound(0, 0.5, 2, 1) == 0


def test_worst_case_sample_bound_guards():
    with pytest.raises(NonPositivePhiMinError):
        worst_case_sample_bound(1, 0.2, 0.1, 0.0)
    with pytest.raises(ValueError):
        worst_case_sample_bound(1, 0.2, 0.1, 1.5)
    with pytest.raises(ValueError):
        worst_case_sample_bound(-1, 0.2, 0.1, 0.5)
    with pytest.raises(ValueError):
        worst_case_sample_bound(1, 0.0, 0.1, 0.5)
    with pytest.raises(ValueError):
        worst_case_sample_bound(1, 0.2, 0.0, 0.5)
    for epsilon, delta in ((math.nan, 0.1), (0.2, math.nan)):
        with pytest.raises(ValueError):
            worst_case_sample_bound(1, epsilon, delta, 0.5)
    # A NaN phi_min, and ones too small for a finite bound.
    for phi_min in (math.nan, 1e-320, 5e-324):
        with pytest.raises(NonPositivePhiMinError):
            worst_case_sample_bound(1, 0.2, 0.1, phi_min)
