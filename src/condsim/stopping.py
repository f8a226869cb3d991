"""Dirichlet posterior bookkeeping and the certified stopping rule.

Multinomial counts under the unbiased Dirichlet prior, which adds no
pseudocounts, give a Dirichlet posterior whose single-category marginals
are Beta distributions. The stopping rule bounds the posterior
probability that a category's true value escapes its relative-error
interval by Beta tail masses, and certifies an estimate once that bound
drops to the requested failure probability.
By default the bound sums every category's two tails, for callers that
read the whole mean vector. A caller that reads one category's mean
names it, and only that category's two tails are summed, each taken
with one more pseudo-observation against the value it bounds (the exact
binomial tails).

Every shape the bound passes to the Beta CDF is an integer, so each tail
is a binomial tail, and ``should_stop`` first brackets it in closed form
from one pmf term and the ratio of consecutive terms. Only when a
bracket cannot tell the bound from delta does it evaluate the bound.
"""

import math
from dataclasses import dataclass, field

from .errors import (
    CondsimError,
    EmptyPosteriorError,
    NonPositivePhiMinError,
    NonPositiveShapeError,
)


@dataclass(frozen=True)
class DirichletPosterior:
    """Immutable category counts under the unbiased prior.

    The sample size n is the sum of the counts; the posterior mean of
    category i is counts[i] / n, or all zeros when the posterior is
    empty.
    """

    counts: tuple[int, ...]
    n: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.counts) < 2:
            raise ValueError("a posterior needs at least two categories")
        if any(c < 0 or c != int(c) for c in self.counts):
            raise ValueError(f"counts must be nonnegative integers: "
                             f"{self.counts!r}")
        counts = tuple(int(c) for c in self.counts)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "n", sum(counts))

    @classmethod
    def _trusted(cls, counts: tuple[int, ...], n: int) -> "DirichletPosterior":
        """The posterior of counts its caller made: at least two
        nonnegative ints whose sum n it knows. Nothing is checked."""
        self = object.__new__(cls)
        self.__dict__.update(counts=counts, n=n)
        return self

    @property
    def k(self) -> int:
        return len(self.counts)

    @property
    def mu(self) -> tuple[float, ...]:
        n = self.n
        if n < 1:
            return (0.0,) * self.k
        return tuple(c / n for c in self.counts)


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz).

    Near the mean the fraction needs O(sqrt(max(a, b))) terms, so the
    iteration cap grows with the larger shape.
    """
    max_iter = 300 + int(10.0 * math.sqrt(max(a, b)))
    eps = 3e-16
    fpmin = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        step = d * c
        h *= step
        if abs(step - 1.0) < eps:
            return h
    raise CondsimError(
        f"incomplete beta failed to converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), the Beta(a, b) cumulative distribution at x.

    Continued-fraction evaluation. The absolute error is under 1e-10 for
    moderate shapes and grows with them, to about 4e-9 at shapes near
    1e6, where the lgamma terms of the prefactor cancel.
    """
    if a <= 0.0 or b <= 0.0:
        raise NonPositiveShapeError(f"shapes must be positive: a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    # The continued fraction converges fastest on the left of the mean.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b


def _check_rule_inputs(posterior: DirichletPosterior, epsilon: float,
                       category: int | None) -> None:
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    if category is not None and not 0 <= category < posterior.k:
        raise ValueError(f"category {category!r} outside 0..{posterior.k - 1}")


def _tails(posterior: DirichletPosterior, epsilon: float,
           category: int | None):
    """Each tail the failure bound sums, smallest category first.

    Yields ``(a, b, x, above)``: the mass of Beta(a, b) below x, or above
    x when ``above`` is set. Every category's tails are summed, or only
    ``category``'s, each then with one more pseudo-observation against
    the value it bounds. An upper limit of 1 or more has no tail.
    """
    n = posterior.n
    if category is None:
        counts, shift = sorted(posterior.counts), 0
    else:
        counts, shift = (posterior.counts[category],), 1
    for a in counts:
        mu = a / n
        yield a, n - a + shift, mu / (1.0 + epsilon), False
        upper = mu * (1.0 + epsilon)
        if upper < 1.0:
            yield a + shift, n - a, upper, True


def failure_probability_bound(posterior: DirichletPosterior, epsilon: float,
                              *, category: int | None = None) -> float:
    """Upper bound on the posterior mass outside the certified intervals.

    Sums, over categories, smallest first, the Beta marginal mass below
    mu/(1 + epsilon) and above mu*(1 + epsilon), clamped to [0, 1].
    Returns 1 when a summed category still has a zero shape (nothing can
    be certified).

    With ``category`` given only that category, of count alpha, is
    summed, and each tail takes one more pseudo-observation against the
    value it bounds: the mass of Beta(alpha, n - alpha + 1) below the
    interval and that of Beta(alpha + 1, n - alpha) above it. These are
    the exact binomial tails Pr[Bin(n, lower) >= alpha] and
    Pr[Bin(n, upper) <= alpha] (Clopper and Pearson, 1934). The tails of
    Beta(alpha, n - alpha) alone, with no other category's tails added,
    are too narrow at small counts: a fraction near 0.9 would certify
    at 31 of 32 trials to epsilon 0.05 with delta 0.1.
    """
    _check_rule_inputs(posterior, epsilon, category)
    n = posterior.n
    if n < 1:
        raise EmptyPosteriorError("posterior holds no observations")
    # Each summed category has one lower tail, whose a is its count.
    tails = list(_tails(posterior, epsilon, category))
    if any(not (above or 0 < a < n) for a, _, _, above in tails):
        return 1.0
    total = 0.0
    for a, b, x, above in tails:
        mass = regularized_incomplete_beta(float(a), float(b), x)
        total += 1.0 - mass if above else mass
    return min(1.0, total)


# Relative room each tail bracket leaves per unit of the magnitudes that
# its log pmf sums (the log-gamma and log-probability terms), plus the
# continued fraction's up to 300 + 10 sqrt(n) steps, counted as
# 300 + 10 n, so that it holds both the tail and the value
# failure_probability_bound computes for it. Both round off a few units
# in the last place of those magnitudes, which grow as n log n; 2^-44 is
# 512 such units.
_SLACK = 2.0 ** -44
# Absolute room per tail: the bound takes some tails as 1 - I, which
# rounds off a few units in the last place of 1.
_ROUNDING = 2.0 ** -48


def _tail_bounds(trials: int, start: int, log_p: float, log_q: float,
                 odds: float) -> tuple[float, float]:
    """Lower and upper bounds on Pr[Binomial(trials, p) >= start].

    ``log_p`` and ``log_q`` are log p and log(1 - p), and ``odds`` is
    p / (1 - p). The ratio of consecutive pmf terms, r_j = (trials - j) /
    (j + 1) * odds, falls with j and must be below 1 at ``start``. So
    the tail is at most its first term over 1 - r_start, and at least
    its first term times the sum of r_(start + m)^i for i = 0..m + 1,
    with m about 2 / (1 - r_start). Both are widened by the margins
    above.
    """
    log_gamma = math.lgamma(trials + 1)
    terms = start * log_p + (trials - start) * log_q
    first = math.exp(log_gamma - math.lgamma(start + 1)
                     - math.lgamma(trials - start + 1) + terms)
    slack = _SLACK * (2.0 * log_gamma - terms + 10.0 * trials + 300.0)
    gap = 1.0 - (trials - start) / (start + 1) * odds - _ROUNDING
    if not gap > 0.0:
        return first * (1.0 - slack), math.inf
    m = min(int(2.0 / gap), trials - start - 1)
    low = first
    if m > 0:
        ratio = (trials - start - m) / (start + m + 1) * odds
        low *= (1.0 - ratio ** (m + 2)) / (1.0 - ratio)
    return (low * (1.0 - slack),
            first / gap * (1.0 + slack) + _ROUNDING)


def should_stop(posterior: DirichletPosterior, epsilon: float,
                delta: float, category: int | None = None) -> bool:
    """Certify the posterior mean to relative error epsilon, risk delta.

    Requires every category observed at least once and the failure
    bound to be at most delta. The bound covers every category's mean,
    or only ``category``'s when one is given. The other categories must
    still have been observed, since the category's Beta tails need n
    above its count.

    The answer is always ``failure_probability_bound(posterior, epsilon,
    category=category) <= delta``, but the bound is evaluated only when
    closed-form brackets cannot decide it. At delta >= 1 the clamped
    bound always certifies, and no tail is taken. Otherwise each tail it
    sums is a binomial tail (integer shapes), bracketed by
    ``_tail_bounds`` widely enough to hold the value the bound computes
    for it too. Smallest categories first, the rule returns False as
    soon as the lower brackets sum above delta, True when the upper
    brackets sum to at most delta, and otherwise evaluates the bound.
    """
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    if min(posterior.counts) < 1:
        return False
    _check_rule_inputs(posterior, epsilon, category)
    if delta >= 1.0:
        return True
    low = high = 0.0
    for a, b, x, above in _tails(posterior, epsilon, category):
        # Beta(a, b) below x is Pr[Binomial(a + b - 1, x) >= a], and
        # above x it is Pr[Binomial(a + b - 1, 1 - x) >= b].
        if above:
            lo, hi = _tail_bounds(a + b - 1, b, math.log1p(-x), math.log(x),
                                  (1.0 - x) / x)
        elif x > 0.0:
            lo, hi = _tail_bounds(a + b - 1, a, math.log(x), math.log1p(-x),
                                  x / (1.0 - x))
        else:
            continue
        low, high = low + lo, high + hi
        if low > delta:
            return False
    return high <= delta or failure_probability_bound(
        posterior, epsilon, category=category) <= delta


def worst_case_sample_bound(s_size: int, epsilon: float, delta: float,
                            phi_min: float) -> int:
    """Trial count that always suffices for the stopping rule.

    ceil((2^s_size / (epsilon^2 * phi_min)) * ln(2 / delta)), where
    phi_min lower-bounds the smallest category probability. A bound that
    is not a finite float (epsilon, delta or phi_min too small) counts as
    a nonpositive phi_min, and the error names all three.
    """
    if s_size < 0:
        raise ValueError(f"s_size must be nonnegative, got {s_size!r}")
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    if not phi_min > 0.0:
        raise NonPositivePhiMinError(
            f"phi_min must be positive, got {phi_min!r}")
    if phi_min > 1.0:
        raise ValueError(f"phi_min must not exceed 1, got {phi_min!r}")
    scale = epsilon * epsilon * phi_min
    bound = ((1 << s_size) / scale * math.log(2.0 / delta) if scale
             else math.inf)
    if not bound < math.inf:
        raise NonPositivePhiMinError(
            f"no finite bound for epsilon {epsilon!r}, delta {delta!r} and "
            f"phi_min {phi_min!r}")
    return max(0, math.ceil(bound))
