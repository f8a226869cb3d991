import itertools
import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from condsim.errors import (
    EmptyPosteriorError,
    NonPositivePhiMinError,
    NonPositiveShapeError,
)
from condsim.stopping import (
    DirichletPosterior,
    PriorChoice,
    failure_probability_bound,
    regularized_incomplete_beta,
    should_stop,
    worst_case_sample_bound,
)


def test_posterior_uniform_prior_adds_pseudocounts():
    post = DirichletPosterior((1, 3), PriorChoice.UNBIASED)
    assert post.n == 4
    assert post.mu == pytest.approx((0.25, 0.75))
    post = DirichletPosterior((1, 3), PriorChoice.UNIFORM)
    assert post.n == 6
    assert post.mu == pytest.approx((1 / 3, 2 / 3))


def test_empty_unbiased_posterior_mu_is_zero_by_convention():
    post = DirichletPosterior((0, 0), PriorChoice.UNBIASED)
    assert post.n == 0
    assert post.mu == (0.0, 0.0)


def test_posterior_validation():
    with pytest.raises(ValueError):
        DirichletPosterior((3,), PriorChoice.UNBIASED)
    with pytest.raises(ValueError):
        DirichletPosterior((-1, 2), PriorChoice.UNBIASED)


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
    post = DirichletPosterior((430587, 617989), PriorChoice.UNBIASED)
    assert 0.0 < failure_probability_bound(post, epsilon) <= 1.0


def test_incomplete_beta_guards():
    with pytest.raises(NonPositiveShapeError):
        regularized_incomplete_beta(0.0, 1.0, 0.5)
    with pytest.raises(NonPositiveShapeError):
        regularized_incomplete_beta(1.0, -2.0, 0.5)
    with pytest.raises(ValueError):
        regularized_incomplete_beta(1.0, 1.0, 1.5)


def test_failure_bound_flat_posterior_reference_value():
    post = DirichletPosterior((1, 1), PriorChoice.UNBIASED)
    # each Beta(1, 1) category leaves mass 0.25 below mu/2; upper
    # cutoffs hit 1 exactly and contribute nothing
    assert failure_probability_bound(post, 1.0) == pytest.approx(
        0.5, abs=1e-12)


def test_failure_bound_vanishes_for_huge_epsilon():
    post = DirichletPosterior((5, 5), PriorChoice.UNBIASED)
    assert failure_probability_bound(post, 1e9) < 1e-12


def test_failure_bound_concentrated_posterior():
    post = DirichletPosterior((100, 100), PriorChoice.UNBIASED)
    bound = failure_probability_bound(post, 0.2)
    assert bound < 0.05
    assert bound == pytest.approx(0.022075413594176, rel=1e-9)


def test_failure_bound_zero_count_category_cannot_certify():
    post = DirichletPosterior((0, 5), PriorChoice.UNBIASED)
    assert failure_probability_bound(post, 5.0) == 1.0


def test_failure_bound_guards():
    with pytest.raises(EmptyPosteriorError):
        failure_probability_bound(
            DirichletPosterior((0, 0), PriorChoice.UNBIASED), 0.5)
    for epsilon in (0.0, math.nan):
        with pytest.raises(ValueError):
            failure_probability_bound(
                DirichletPosterior((1, 1), PriorChoice.UNBIASED), epsilon)


def test_failure_bound_non_increasing_in_n_at_fixed_mean():
    for eps in (0.15, 0.3, 0.6):
        previous = None
        for scale in (1, 2, 4, 8, 16):
            post = DirichletPosterior((3 * scale, 7 * scale),
                                      PriorChoice.UNBIASED)
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
        post = DirichletPosterior((ones, total - ones),
                                  PriorChoice.UNBIASED)
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
    post = DirichletPosterior((1, 1), PriorChoice.UNBIASED)
    assert should_stop(post, 1.0, 0.6)
    assert not should_stop(post, 1.0, 0.4)
    assert not should_stop(DirichletPosterior((0, 5), PriorChoice.UNBIASED),
                           100.0, 0.99)


def test_should_stop_uniform_prior_still_requires_raw_counts():
    post = DirichletPosterior((0, 5), PriorChoice.UNIFORM)
    assert not should_stop(post, 100.0, 0.99)


@pytest.mark.parametrize("prior", list(PriorChoice))
def test_one_category_bound_is_its_exact_binomial_tail_mass(prior):
    sizes = (1, 2, 7, 40, 300, 5000)
    for counts in itertools.product(sizes, sizes):
        post = DirichletPosterior(counts, prior)
        n = post.n
        for category, epsilon in itertools.product((0, 1), (0.05, 0.2, 1.0)):
            a = post.alpha(category)
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
            if prior is PriorChoice.UNBIASED:
                assert bound == pytest.approx(min(1.0, binomial_tails),
                                              abs=1e-9)
            # The exact tails bracket those of the Beta(a, n - a) marginal.
            assert bound >= min(1.0, plain) - 1e-12


def test_one_category_rule_needs_the_other_category_observed():
    for counts, category in (((0, 1000), 1), ((1000, 0), 0)):
        post = DirichletPosterior(counts, PriorChoice.UNBIASED)
        assert failure_probability_bound(post, 100.0,
                                         category=category) == 1.0
        assert not should_stop(post, 100.0, 0.99, category=category)
    # The uniform prior gives the empty category a pseudocount, but the
    # rule still waits for a raw observation.
    post = DirichletPosterior((0, 1000), PriorChoice.UNIFORM)
    assert not should_stop(post, 100.0, 0.99, category=1)
    with pytest.raises(ValueError):
        failure_probability_bound(post, 0.2, category=2)


def test_one_category_rule_does_not_certify_a_lucky_run():
    # 31 of 32: the Beta(31, 1) marginal leaves 0.082 below mu / 1.05,
    # under delta 0.1, but Pr[Bin(32, mu / 1.05) >= 31] is 0.28.
    post = DirichletPosterior((1, 31), PriorChoice.UNBIASED)
    mu = 31 / 32
    assert stats.beta.cdf(mu / 1.05, 31, 1) < 0.1
    assert not should_stop(post, 0.05, 0.1, category=1)
    assert failure_probability_bound(post, 0.05, category=1) == (
        pytest.approx(0.28, abs=0.01))
    # A run that the exact tails certify stops on one category long
    # before both categories are certified.
    post = DirichletPosterior((8, 248), PriorChoice.UNBIASED)
    assert should_stop(post, 0.05, 0.1, category=1)
    assert not should_stop(post, 0.05, 0.1)


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
