import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condsim import sampling
from condsim.dependence import (
    node_bounds,
    phi_min_lower_bound,
    satisfies_ras,
)
from condsim.errors import (
    NetworkTooLargeError,
    OverlappingSetsError,
    RowBudgetExceededError,
    UnknownNodeError,
)
from condsim.exact import (
    exact_conditional,
    exact_distribution_over,
    exact_marginal,
)
from condsim.network import BeliefNetwork, Cpt, parse_network
from condsim.sampling import (
    DEFAULT_ROW_BUDGET,
    RandomSource,
    RasEstimate,
    TrialGeneratorKind,
    _GibbsStream,
    _RejectionStream,
    _make_stream,
    _match_all,
    _match_one,
    _sample_batch,
    _schedule,
    conditioned_sample_batch,
    estimate_conditional_fraction,
    estimate_distribution_over,
    logic_sample_batch,
    mix_seed,
)
from condsim.stopping import worst_case_sample_bound

from helpers import arcless_network, random_network


def test_mix_seed_is_a_stable_pure_function():
    assert mix_seed(5, 0) == mix_seed(5, 0)
    assert mix_seed(5, 0) != mix_seed(5, 1)
    assert mix_seed(5, 0) != mix_seed(6, 0)
    assert 0 <= mix_seed(2 ** 63, 17) < 2 ** 64


def test_random_source_same_seed_same_stream():
    a = RandomSource(123).uniforms(64)
    b = RandomSource(123).uniforms(64)
    assert np.array_equal(a, b)
    assert np.all((a >= 0.0) & (a < 1.0))


def test_derive_depends_only_on_the_original_seed():
    fresh = RandomSource(7)
    consumed = RandomSource(7)
    consumed.uniforms(1000)
    a = fresh.derive(3).uniforms(16)
    b = consumed.derive(3).uniforms(16)
    assert np.array_equal(a, b)


def test_derived_streams_differ_by_index():
    root = RandomSource(7)
    a = root.derive(0).uniforms(16)
    b = root.derive(1).uniforms(16)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("call, outcome", [
    (lambda net: RandomSource(-1), ValueError),
    (lambda net: RandomSource(1 << 64), ValueError),
    (lambda net: RandomSource(1).derive(-1), ValueError),
    (lambda net: repr(RandomSource(5)), "RandomSource(seed=5)"),
    (lambda net: logic_sample_batch(net, RandomSource(1), -1), ValueError),
    (lambda net: conditioned_sample_batch(
        net, {"C": 1}, TrialGeneratorKind.rejection(), RandomSource(1), -1),
     ValueError),
    (lambda net: RasEstimate(1.5, 0.2, 0.1, 10, 5), ValueError),
    (lambda net: RasEstimate(0.5, 0.2, 0.1, 10, 11), ValueError),
    (lambda net: satisfies_ras(0.0, 0.5, 0.2), ValueError),
    (lambda net: satisfies_ras(0.5, 0.5, 0.0), ValueError),
    (lambda net: node_bounds(net, "A", 2, {}), ValueError),
], ids=["seed-negative", "seed-past-64-bits", "stream-negative",
        "source-repr", "logic-count-negative", "conditioned-count-negative",
        "estimate-value-above-1", "estimate-consistent-above-trials",
        "ras-phi-0", "ras-epsilon-0", "node-value-2"])
def test_input_guards(net_c, call, outcome):
    if isinstance(outcome, type):
        with pytest.raises(outcome):
            call(net_c)
    else:
        assert call(net_c) == outcome


def test_generator_kind_validation():
    assert TrialGeneratorKind.rejection().kind == "rejection"
    assert TrialGeneratorKind.gibbs(5).burn_in_sweeps == 5
    with pytest.raises(ValueError):
        TrialGeneratorKind("annealed")
    with pytest.raises(ValueError):
        TrialGeneratorKind("rejection", burn_in_sweeps=3)
    for sweeps in (0, None):
        with pytest.raises(ValueError, match="--burn-in-sweeps"):
            TrialGeneratorKind("gibbs", sweeps)


def test_logic_sample_returns_full_binary_assignment(net_c):
    sample = logic_sample_batch(net_c, RandomSource(11), 1)
    assert sample.shape == (1, 3)
    assert set(np.unique(sample)) <= {0, 1}


def test_logic_sample_tracks_a_nearly_deterministic_net():
    lines = ["network dense"]
    for name in ("X", "Y", "Z"):
        lines += [f"node {name}", f"prior {name} : 0.999999"]
    net = parse_network("\n".join(lines) + "\n")
    rng = RandomSource(42)
    all_ones = sum(
        bool(np.all(logic_sample_batch(net, rng, 1) == 1))
        for _ in range(10))
    assert all_ones >= 9


def test_logic_sample_batch_shape_and_seed_identity(net_a):
    a = logic_sample_batch(net_a, RandomSource(123), 50)
    b = logic_sample_batch(net_a, RandomSource(123), 50)
    assert a.shape == (50, 2)
    assert set(np.unique(a)) <= {0, 1}
    assert np.array_equal(a, b)


def test_logic_sample_batch_hits_known_marginal(net_a):
    rows = logic_sample_batch(net_a, RandomSource(2024), 200_000)
    frac_b = rows[:, net_a.index("B")].mean()
    assert abs(frac_b - 0.41) < 0.005


def test_logic_sample_marginals_converge_across_seeds():
    gen = np.random.Generator(np.random.PCG64(83))
    net = random_network(gen, 6)
    n = 20_000
    hits = 0
    total = 0
    for seed in range(20):
        rows = logic_sample_batch(net, RandomSource(seed), n)
        for name in net.nodes:
            phi = exact_distribution_over(net, [name])[1]
            se = math.sqrt(phi * (1 - phi) / n)
            total += 1
            hits += abs(rows[:, net.index(name)].mean() - phi) <= 4 * se
    assert hits / total >= 0.95


def test_estimate_distribution_empty_subset_is_trivial(net_a):
    probs, trials = estimate_distribution_over(
        net_a, [], 0.2, 0.1, RandomSource(1))
    assert probs == (1.0,)
    assert trials == 0


def test_estimate_distribution_certifies_at_stated_risk(net_a):
    epsilon, delta = 0.2, 0.1
    phi = exact_distribution_over(net_a, ["A"])
    # The checkpoints are the powers of two and the worst-case bound W.
    bound = worst_case_sample_bound(1, epsilon, delta,
                                    phi_min_lower_bound(net_a, ["A"]))
    assert bound == 500
    covered = 0
    for rep in range(200):
        mu, trials = estimate_distribution_over(
            net_a, ["A"], epsilon, delta, RandomSource(mix_seed(909, rep)))
        assert trials >= 2 and (trials & (trials - 1) == 0
                                or trials == bound)
        assert sum(mu) == pytest.approx(1.0)
        covered += all(
            satisfies_ras(p, m, epsilon) for p, m in zip(phi, mu))
    # failure probability is certified at most delta = 0.1 per rep;
    # measured failures sit near 3 percent
    assert covered >= 180


def test_estimate_distribution_never_exceeds_published_bound(net_a):
    # worst_case_sample_bound(1, 0.2, 0.1, 0.3) == 500. The rule is also
    # evaluated at that bound, between the checkpoints 256 and 512.
    for rep in range(200):
        _, trials = estimate_distribution_over(
            net_a, ["A"], 0.2, 0.1, RandomSource(mix_seed(909, rep)))
        assert trials <= 500


def test_estimate_distribution_budget_error_carries_partial_state(net_a):
    # No row is rejected, so the 512-trial checkpoint takes 512 rows and
    # the next batch of 512 would pass 1,000.
    with pytest.raises(RowBudgetExceededError) as einfo:
        estimate_distribution_over(
            net_a, ["A", "B"], 0.05, 0.01, RandomSource(3), row_budget=1000)
    err = einfo.value
    assert err.phase == "distribution"
    assert err.trials == 512
    assert err.cap == 1000


def test_estimate_distribution_rejects_oversized_subsets():
    net = arcless_network(21)
    with pytest.raises(NetworkTooLargeError):
        estimate_distribution_over(
            net, list(net.nodes), 0.5, 0.5, RandomSource(1))


def test_estimate_distribution_rejects_bad_risk_params(net_a):
    with pytest.raises(ValueError):
        estimate_distribution_over(net_a, ["A"], 0.0, 0.1, RandomSource(1))
    with pytest.raises(ValueError):
        estimate_distribution_over(net_a, ["A"], 0.2, 0.0, RandomSource(1))


def test_conditioned_trial_respects_condition(net_a):
    trial = conditioned_sample_batch(net_a, {"A": 1},
                                     TrialGeneratorKind.rejection(),
                                     RandomSource(5), 1)
    assert trial.shape == (1, 2)
    assert trial[0, net_a.index("A")] == 1


def test_conditioned_batch_consistency_postcondition(net_c):
    for kind in (TrialGeneratorKind.rejection(), TrialGeneratorKind.gibbs(4)):
        none = conditioned_sample_batch(net_c, {"C": 1}, kind,
                                        RandomSource(6), 0)
        assert none.shape == (0, 3)
        rows = conditioned_sample_batch(net_c, {"C": 1}, kind,
                                        RandomSource(6), 500)
        assert rows.shape == (500, 3)
        assert np.all(rows[:, net_c.index("C")] == 1)


def test_rejection_matches_exact_conditional(net_a):
    rows = conditioned_sample_batch(
        net_a, {"A": 1}, TrialGeneratorKind.rejection(), RandomSource(17),
        100_000)
    frac = rows[:, net_a.index("B")].mean()
    assert abs(frac - 0.9) < 0.01


def test_rejection_joint_total_variation(net_c):
    n = 100_000
    rows = conditioned_sample_batch(
        net_c, {"C": 1}, TrialGeneratorKind.rejection(), RandomSource(19), n)
    ia, ib = net_c.index("A"), net_c.index("B")
    tv = 0.0
    for a in (0, 1):
        for b in (0, 1):
            phi = exact_conditional(net_c, {"A": a, "B": b}, {"C": 1})
            obs = np.mean((rows[:, ia] == a) & (rows[:, ib] == b))
            tv += abs(obs - phi)
    assert tv / 2 <= 0.02


def test_gibbs_matches_exact_conditional(net_a):
    rows = conditioned_sample_batch(
        net_a, {"B": 1}, TrialGeneratorKind.gibbs(5), RandomSource(23),
        20_000)
    frac = rows[:, net_a.index("A")].mean()
    assert abs(frac - 27 / 41) < 0.03


def test_gibbs_survives_blanket_weights_that_underflow():
    # As products, both weights of A's blanket update underflow to 0:
    # Pr[A=1, B=1, C=1] is about 5e-324 / 4 and Pr[A=0, B=1, C=1] is
    # 1e-640, so Pr[A=1 | B=1, C=1] is about 1.
    net = BeliefNetwork("underflow", ("A", "B", "C"), (
        Cpt((), (5e-324,)), Cpt(("A",), (1e-320, 0.5)),
        Cpt(("A",), (1e-320, 0.5))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = conditioned_sample_batch(net, {"B": 1, "C": 1},
                                        TrialGeneratorKind.gibbs(4),
                                        RandomSource(1), 1000)
    assert rows[:, net.index("A")].sum() >= 990


def test_conditioned_trial_needs_an_unbound_node(net_a):
    with pytest.raises(ValueError):
        conditioned_sample_batch(net_a, {"A": 0, "B": 1},
                                 TrialGeneratorKind.rejection(),
                                 RandomSource(1), 1)


def test_fraction_rejects_overlapping_assignments(net_c):
    with pytest.raises(OverlappingSetsError):
        estimate_conditional_fraction(
            net_c, {"A": 1, "B": 0}, {"B": 1}, 0.2, 0.1,
            TrialGeneratorKind.rejection(), RandomSource(1))


def test_fraction_rejects_unknown_nodes(net_a):
    with pytest.raises(UnknownNodeError):
        estimate_conditional_fraction(
            net_a, {"Q": 1}, {}, 0.2, 0.1,
            TrialGeneratorKind.rejection(), RandomSource(1))


def test_fraction_empty_target_needs_no_trials(net_a):
    est = estimate_conditional_fraction(
        net_a, {}, {"A": 1}, 0.25, 0.05, TrialGeneratorKind.rejection(),
        RandomSource(1))
    assert est == RasEstimate(1.0, 0.25, 0.05, 0, 0)


@pytest.mark.parametrize("target,condition,phi", [
    ({"B": 1}, {"A": 1}, 0.9),
    ({"A": 1}, {"B": 1}, 27 / 41),
])
def test_fraction_certifies_at_stated_risk(net_a, target, condition, phi):
    epsilon, delta = 0.2, 0.1
    covered = 0
    for rep in range(200):
        est = estimate_conditional_fraction(
            net_a, target, condition, epsilon, delta,
            TrialGeneratorKind.rejection(),
            RandomSource(mix_seed(414, rep)))
        assert est.trials & (est.trials - 1) == 0
        assert est.consistent <= est.trials
        covered += satisfies_ras(phi, est.value, epsilon)
    assert covered >= 180


def test_fraction_stops_at_first_two_sided_checkpoint(net_a):
    est = estimate_conditional_fraction(
        net_a, {"B": 1}, {}, 1.0, 1.0, TrialGeneratorKind.rejection(),
        RandomSource(29))
    assert est.trials & (est.trials - 1) == 0
    assert 1 <= est.consistent <= est.trials - 1
    assert est.trials <= 64


def test_fraction_budget_error_carries_partial_state(net_a):
    with pytest.raises(RowBudgetExceededError) as einfo:
        estimate_conditional_fraction(
            net_a, {"B": 1}, {}, 0.05, 0.01,
            TrialGeneratorKind.rejection(), RandomSource(31),
            row_budget=1000)
    err = einfo.value
    assert err.phase == "fraction"
    assert err.trials == 512
    assert err.cap == 1000


def test_row_budget_raises_with_phase():
    # B is a child, so the condition B=1 (probability 1e-6) is rejected on,
    # and 2^20 raw rows hold about one accepted row: at most the first
    # checkpoint, 2 trials, is scored.
    net = parse_network(
        "network rare\n"
        "node A\nprior A : 0.5\n"
        "node B\nparents B : A\ncpt B : 0.000001 0.000001\n")
    with pytest.raises(RowBudgetExceededError) as einfo:
        estimate_conditional_fraction(
            net, {"A": 1}, {"B": 1}, 0.2, 0.1,
            TrialGeneratorKind.rejection(), RandomSource(37),
            row_budget=1 << 20)
    assert einfo.value.phase == "fraction"
    assert einfo.value.cap == 1 << 20
    assert einfo.value.trials in (0, 2)


def test_rare_root_condition_is_clamped_not_rejected():
    # A is a root, so the condition A=1 (probability 1e-6) is clamped and
    # no row is rejected: a budget of the rows the estimate scores is
    # enough, and it gives the same estimate.
    net = parse_network(
        "network rare\n"
        "node A\nprior A : 0.000001\n"
        "node B\nparents B : A\ncpt B : 0.4 0.6\n")

    def estimate(**budget):
        return estimate_conditional_fraction(
            net, {"B": 1}, {"A": 1}, 0.1, 0.1,
            TrialGeneratorKind.rejection(), RandomSource(37), **budget)

    est = estimate()
    assert satisfies_ras(0.6, est.value, 0.1)
    # Past the first batch of 256, a stream that rejects nothing makes
    # exactly the rows its checkpoints score.
    assert est.trials >= sampling._FIRST_RAW_BATCH
    assert estimate(row_budget=est.trials) == est


def test_row_budget_bounds_the_raw_rows_a_take_draws(net_c):
    # Half the rows have C=1, so 4,096 accepted rows need about 8,192 raw
    # rows: the take raises before its stream draws past 4,096, and a
    # budget of 2^14 lets it through.
    kind = TrialGeneratorKind.rejection()
    stream = _RejectionStream(net_c, {"C": 1}, RandomSource(1), 4096,
                              tuple(range(net_c.n)))
    with pytest.raises(RowBudgetExceededError) as einfo:
        stream.take(4096)
    assert einfo.value.trials == 0
    assert einfo.value.cap == 4096
    assert 0 < stream._drawn <= 4096
    with pytest.raises(RowBudgetExceededError):
        conditioned_sample_batch(net_c, {"C": 1}, kind, RandomSource(1),
                                 4096, row_budget=4096)
    rows = conditioned_sample_batch(net_c, {"C": 1}, kind, RandomSource(1),
                                    4096, row_budget=1 << 14)
    assert np.array_equal(rows, conditioned_sample_batch(
        net_c, {"C": 1}, kind, RandomSource(1), 4096))


def test_rejection_budget_error_counts_scored_trials(net_c):
    scored = []
    for seed in range(8):
        with pytest.raises(RowBudgetExceededError) as einfo:
            estimate_conditional_fraction(
                net_c, {"A": 1}, {"C": 1}, 0.01, 0.1,
                TrialGeneratorKind.rejection(), RandomSource(seed),
                row_budget=1 << 13)
        assert einfo.value.phase == "fraction"
        assert einfo.value.cap == 1 << 13
        scored.append(einfo.value.trials)
    # Trials are scored a checkpoint at a time, and checkpoints double;
    # each scored trial is one of the budget's raw rows.
    assert all(t & (t - 1) == 0 for t in scored)
    assert all(0 < t <= 1 << 13 for t in scored)


def _banded_fractions(seed, lo, hi, count):
    """Random fraction cases whose true values spread over [lo, hi].

    The range is cut into ``count`` bands of equal width in log-odds, and
    each band takes the first draw whose Pr[target | condition] falls in
    it. Conditions have probability at least 0.05, so rejection stays
    cheap. Returns (net, target, condition, truth) tuples, by band.
    """
    gen = np.random.Generator(np.random.PCG64(seed))
    odds = np.linspace(math.log(lo / (1 - lo)), math.log(hi / (1 - hi)),
                       count + 1)
    edges = 1.0 / (1.0 + np.exp(-odds))
    cases = {}
    while len(cases) < count:
        n = int(gen.integers(3, 8))
        net = random_network(gen, n, lo=0.02, hi=0.98)
        names = [str(x) for x in gen.permutation(net.nodes)]
        k = int(gen.integers(1, 3))
        c = k + int(gen.integers(0, 3))
        target = {x: int(gen.integers(0, 2)) for x in names[:k]}
        condition = {x: int(gen.integers(0, 2)) for x in names[k:c]}
        if condition and exact_marginal(net, condition) < 0.05:
            continue
        truth = exact_conditional(net, target, condition)
        band = int(np.searchsorted(edges, truth, side="right")) - 1
        if 0 <= band < count:
            cases.setdefault(band, (net, target, condition, truth))
    return [cases[band] for band in range(count)]


@pytest.mark.parametrize("epsilon,lo,hi,count,reps", [
    (0.2, 0.02, 0.98, 16, 50),
    # Near 0.9 a fraction certifies within a few hundred trials. Here the
    # tails of Beta(alpha, n - alpha) alone missed 185 of the 960 runs.
    (0.05, 0.87, 0.92, 12, 80),
], ids=["eps-0.2-across", "eps-0.05-near-0.9"])
def test_fraction_coverage_against_the_oracle(epsilon, lo, hi, count, reps):
    delta = 0.1
    cases = _banded_fractions(131, lo, hi, count)
    runs = misses = 0
    for ci, (net, target, condition, truth) in enumerate(cases):
        for rep in range(reps):
            est = estimate_conditional_fraction(
                net, target, condition, epsilon, delta,
                TrialGeneratorKind.rejection(),
                RandomSource(mix_seed(ci, rep)))
            runs += 1
            misses += not satisfies_ras(truth, est.value, epsilon)
    threshold = delta + 3 * math.sqrt(delta * (1 - delta) / runs)
    assert misses / runs <= threshold, (
        f"{misses} misses in {runs} runs, threshold {threshold:.4f}")


# The epsilon 0.05 runs at mu 0.1 and 0.01 take 16,384 and 131,072
# trials, so their batches draw bytes, and this gate covers that rule.
@pytest.mark.parametrize("mu, epsilon", [
    (mu, epsilon) for mu in (0.9, 0.5, 0.1, 0.01)
    for epsilon in (0.2, 0.5, 0.05)])
def test_fraction_coverage_holds_in_every_cell(mu, epsilon):
    # Pooled runs can hide a cell that breaks delta, so each (mu, epsilon)
    # cell is gated on its own. A one-node network makes the truth exact,
    # and its worst-case bound W is a checkpoint like any other. The
    # worst cell misses 97 of 1,500 runs (mu 0.9, epsilon 0.05), against
    # 288 when the one-category tails take no extra pseudo-observation.
    delta, runs = 0.1, 1500
    net = parse_network(f"network one\nnode A\nprior A : {mu!r}\n")
    misses = 0
    for rep in range(runs):
        est = estimate_conditional_fraction(
            net, {"A": 1}, {}, epsilon, delta, TrialGeneratorKind.rejection(),
            RandomSource(rep))
        misses += not satisfies_ras(mu, est.value, epsilon)
    threshold = delta + 3 * math.sqrt(delta * (1 - delta) / runs)
    assert misses / runs <= threshold, (
        f"{misses} misses in {runs} runs, threshold {threshold:.4f}")


def test_fraction_near_one_stops_on_its_own_category():
    net = parse_network(
        "network near_one\nnode A\nprior A : 0.5\n"
        "node B\nparents B : A\ncpt B : 0.3 0.95\n")
    est = estimate_conditional_fraction(
        net, {"B": 1}, {"A": 1}, 0.2, 0.1, TrialGeneratorKind.rejection(),
        RandomSource(3))
    # Certifying the 0.05 complement too took 2,048 trials on this seed.
    assert est.trials <= 1024
    assert satisfies_ras(0.95, est.value, 0.2)


def test_fraction_is_deterministic_per_seed(net_c):
    kinds = (TrialGeneratorKind.rejection(), TrialGeneratorKind.gibbs(3))
    for kind in kinds:
        a = estimate_conditional_fraction(
            net_c, {"A": 1}, {"C": 1}, 0.3, 0.2, kind, RandomSource(43))
        b = estimate_conditional_fraction(
            net_c, {"A": 1}, {"C": 1}, 0.3, 0.2, kind, RandomSource(43))
        assert a == b


def _walk_order(net, keep, condition, clamp):
    """The forward walk's node order, stated on the graph.

    Each condition node, in declaration order, follows its ancestors not
    yet walked; then the rest of the ancestral closure of ``keep``, in
    declaration order. Ancestors are followed through unclamped nodes.
    """
    def closure(cols):
        found, todo = set(cols), list(cols)
        while todo:
            col = todo.pop()
            if col in clamp:
                continue
            for parent in net.parents(net.nodes[col]):
                if net.index(parent) not in found:
                    found.add(net.index(parent))
                    todo.append(net.index(parent))
        return found

    order = []
    for col in sorted(c for c, _ in condition):
        order += sorted(closure([col]) - set(order))
    return order + sorted(closure(keep) - set(order))


def _outcomes(rng, count, bound):
    """The byte rule's draws, each as the integer k of its 2^53 outcomes.

    A row reads one byte c, and a row whose c equals its ``bound`` (the
    top byte of its T) reads the top 45 bits x of one more word, the tied
    rows in order; k is c * 2^45 + x, with x = 0 where there is no tie.
    The row is 1 exactly when k < T, that is u < p for u = k * 2^-53.
    """
    k = rng.bytes(count).astype(np.uint64) << np.uint64(45)
    tie = np.flatnonzero(k >> np.uint64(45) == bound)
    k[tie] |= rng.words(len(tie)) >> np.uint64(19)
    return k


def _survivor_rows(net, rng, count, keep, condition, clamp):
    """A forward batch in walk order that draws for live rows only.

    A batch of at least ``_BYTE_BATCH`` rows takes each row's outcome k
    from ``_outcomes`` and is 1 when k < ceil(p * 2^53); a smaller one
    is 1 when its next double is below p.
    """
    rows = np.zeros((count, net.n), dtype=np.uint8)
    alive = np.arange(count)
    want = dict(condition)
    for col in _walk_order(net, keep, condition, clamp):
        if col in clamp:
            rows[:, col] = clamp[col]
            continue
        cpt = net.cpt(net.nodes[col])
        idx = np.zeros(len(alive), dtype=np.int64)
        for parent in cpt.parents:
            idx = 2 * idx + rows[alive, net.index(parent)]
        if len(alive) and count >= sampling._BYTE_BATCH:
            t = np.array([math.ceil(p * 2 ** 53) for p in cpt.rows],
                         dtype=np.uint64)[idx]
            rows[alive, col] = _outcomes(rng, len(alive), t >> 45) < t
        elif len(alive):
            u = rng.uniforms(len(alive))
            rows[alive, col] = u < np.asarray(cpt.rows)[idx]
        if col in want:
            alive = alive[rows[alive, col] == want[col]]
    return rows, alive


def _pruned_cases(seed, cases, first_count=0):
    """Random (net, keep, condition, clamp, count) sampling requests.

    Counts lie in ``first_count`` + [1, 2000).
    """
    gen = np.random.Generator(np.random.PCG64(seed))
    for case in range(cases):
        net = random_network(gen, int(gen.integers(2, 13)),
                             max_parents=int(gen.integers(1, 4)))
        order = [int(c) for c in gen.permutation(net.n)]
        n_keep = int(gen.integers(1, net.n + 1))
        n_bound = int(gen.integers(0, min(4, net.n - n_keep) + 1))
        keep = tuple(order[:n_keep])
        bound = tuple((c, int(gen.integers(0, 2)))
                      for c in order[n_keep:n_keep + n_bound])
        clamp = bound if case % 4 == 3 else ()
        condition = () if clamp else bound
        yield (net, keep, condition, clamp,
               first_count + int(gen.integers(1, 2000)))


def test_pruned_batch_matches_a_filtered_full_batch():
    # Drawing only for live rows, in walk order, must leave every drawn
    # value, every surviving row and the stream's position as the
    # reference walk, which filters its rows after each condition node.
    # The first cases draw doubles, the last 30 bytes.
    cases = (*_pruned_cases(59, 60),
             *_pruned_cases(61, 30, sampling._BYTE_BATCH))
    for case, (net, keep, condition, clamp, count) in enumerate(cases):
        rng, ref = RandomSource(case), RandomSource(case)
        rows = _sample_batch(net, rng, count, keep, condition, clamp)
        full, alive = _survivor_rows(net, ref, count, keep, condition,
                                     dict(clamp))
        assert np.array_equal(rows, full[alive][:, keep].T)
        assert np.array_equal(rng.uniforms(4), ref.uniforms(4))


def _wide_parent_cases(seed, cases):
    """Sampling requests on nets with one node W of 9 to 12 parents.

    W and its child C follow a random net; the condition binds W or C,
    and every third case also clamps some of W's parents.
    """
    gen = np.random.Generator(np.random.PCG64(seed))
    for case in range(cases):
        base = random_network(gen, int(gen.integers(12, 17)))
        k = int(gen.integers(9, 13))
        picks = sorted(gen.choice(base.n, size=k, replace=False))
        wide = Cpt(tuple(base.nodes[j] for j in picks),
                   tuple(float(p) for p in gen.uniform(0.05, 0.95, 1 << k)))
        child = Cpt(("W", base.nodes[-1]),
                    tuple(float(p) for p in gen.uniform(0.05, 0.95, 4)))
        net = BeliefNetwork("wide", (*base.nodes, "W", "C"),
                            (*base.cpts, wide, child))
        w, c = net.n - 2, net.n - 1
        bound = ((w if case % 2 else c, int(gen.integers(0, 2))),)
        clamp = tuple((int(j), int(gen.integers(0, 2)))
                      for j in picks[:3]) if case % 3 == 2 else ()
        keep = (c, w, *(int(j) for j in gen.permutation(picks)[3:6]))
        yield net, keep, bound, clamp, int(gen.integers(1000, 5000))


def test_wide_parent_sets_match_the_reference_walk():
    # A CPT of 2^9 to 2^12 rows is looked up with every parent's bit;
    # kept rows and the stream position must be those of the reference
    # walk. Batches of 1,000 to 5,000 rows fall on both sides of the
    # byte rule's threshold.
    cases = list(_wide_parent_cases(131, 12))
    assert {c[-1] >= sampling._BYTE_BATCH for c in cases} == {True, False}
    for case, (net, keep, condition, clamp, count) in enumerate(cases):
        rng, ref = RandomSource(case), RandomSource(case)
        rows = _sample_batch(net, rng, count, keep, condition, clamp)
        full, alive = _survivor_rows(net, ref, count, keep, condition,
                                     dict(clamp))
        assert 0 < len(alive) < count, case
        assert np.array_equal(rows, full[alive][:, keep].T), case
        assert np.array_equal(rng.uniforms(4), ref.uniforms(4)), case


def test_gibbs_chains_count_one_row_per_sweep(net_c):
    # A first batch of 256 chains of 4 sweeps each costs 1,024 rows. One
    # row less refuses it before any uniform is drawn.
    kind = TrialGeneratorKind.gibbs(4)
    for budget, passes in ((4 * 256, True), (4 * 256 - 1, False)):
        rng = _CountingSource(3)
        stream = _make_stream(net_c, {"C": 1}, kind, rng, budget, (0,))
        if passes:
            assert stream.take(256).shape == (1, 256)
            continue
        with pytest.raises(RowBudgetExceededError) as einfo:
            stream.take(256)
        assert einfo.value.cap == budget
        assert rng.sizes == [] and rng.skipped == []


def _ancestors(net, col):
    parents = [net.index(p) for p in net.parents(net.nodes[col])]
    return set(parents).union(*(_ancestors(net, p) for p in parents))


def test_schedule_walks_evidence_ancestors_first():
    for net, keep, condition, clamp, _ in _pruned_cases(73, 200):
        fixes, draws, out = _schedule(net, keep, condition, clamp)
        walk = [c for c, _ in fixes] + [d[0] for d in draws]
        assert [c for c, _ in fixes] == sorted(
            c for c, _ in clamp if c in walk)
        assert [walk[s] for s in out] == list(keep)
        for i, (col, pslots, _, want) in enumerate(draws, len(fixes)):
            assert pslots == tuple(walk.index(net.index(p))
                                   for p in net.parents(net.nodes[col]))
            assert all(s < i for s in pslots)
            assert want == dict(condition).get(col, -1)
        drawn = [d[0] for d in draws]
        if not condition:
            assert drawn == sorted(drawn)
        for i, col in enumerate(drawn):
            if col not in dict(condition):
                continue
            earlier = [c for c in drawn[:i] if c in dict(condition)]
            reach = _ancestors(net, col).union(
                *({c} | _ancestors(net, c) for c in earlier))
            assert set(drawn[:i]) <= reach


class _CountingSource(RandomSource):
    """A random source that records the size of every draw and skip:
    ``sizes`` of the doubles, ``byte_sizes`` and ``word_sizes`` of the
    byte rule's bytes and tie words."""

    def __init__(self, seed):
        super().__init__(seed)
        self.sizes = []
        self.byte_sizes = []
        self.word_sizes = []
        self.skipped = []

    def uniforms(self, count):
        self.sizes.append(count)
        return super().uniforms(count)

    def bytes(self, count):
        self.byte_sizes.append(count)
        return super().bytes(count)

    def words(self, count):
        self.word_sizes.append(count)
        return super().words(count)

    def skip(self, count):
        self.skipped.append(count)
        super().skip(count)


def test_rejected_rows_draw_no_more_uniforms(net_c):
    a, b, c = (net_c.index(x) for x in "ABC")
    # B is walked after A and rejects; C then draws for B's survivors.
    rng = _CountingSource(79)
    hits = _sample_batch(net_c, rng, 1000, (c,), ((b, 1),)).shape[1]
    assert rng.sizes == [1000, 1000, hits]
    # The evidence A comes first; B and C draw for A's survivors only.
    rng = _CountingSource(79)
    hits = _sample_batch(net_c, rng, 1000, (c,), ((a, 0),)).shape[1]
    assert rng.sizes == [1000, hits, hits]
    # From _BYTE_BATCH raw rows on, a batch draws a byte, not a double,
    # per live row, and a tie word per tie only.
    rng = _CountingSource(79)
    _sample_batch(net_c, rng, sampling._BYTE_BATCH - 1, (c,), ((b, 1),))
    assert rng.byte_sizes == [] and len(rng.sizes) == 3
    count = sampling._BYTE_BATCH
    rng = _CountingSource(79)
    hits = _sample_batch(net_c, rng, count, (c,), ((b, 1),)).shape[1]
    assert rng.sizes == [] and rng.byte_sizes == [count, count, hits]
    assert len(rng.word_sizes) == 3
    assert 0 < sum(rng.word_sizes) < (2 * count + hits) / 128
    for case, (net, keep, condition, clamp, count) in enumerate(
            _pruned_cases(83, 60)):
        rng = _CountingSource(case)
        hits = _sample_batch(net, rng, count, keep, condition,
                             clamp).shape[1]
        _, draws, _ = _schedule(net, keep, condition, clamp)
        assert len(rng.sizes) <= len(draws)
        assert rng.sizes[0] == count
        for j in range(1, len(rng.sizes)):
            # Only a condition step can drop rows.
            if draws[j - 1][3] < 0:
                assert rng.sizes[j] == rng.sizes[j - 1]
            else:
                assert 0 < rng.sizes[j] <= rng.sizes[j - 1]
        if condition and len(rng.sizes) == len(draws):
            assert hits <= rng.sizes[-1]
            if draws[-1][3] < 0:
                assert hits == rng.sizes[-1]


def test_a_batch_that_empties_draws_nothing_more():
    # A, with its ancestor R, is drawn first and rejects every row, so
    # its kept descendant B draws nothing.
    net = parse_network("network empty\nnode R\nprior R : 0.5\nnode A\n"
                        "parents A : R\ncpt A : 1e-12 1e-12\nnode B\n"
                        "parents B : A\ncpt B : 0.3 0.6\n")
    keep = (net.index("B"),)
    rng, ref = _CountingSource(5), RandomSource(5)
    rows = _sample_batch(net, rng, 1000, keep, ((net.index("A"), 1),))
    assert rows.shape == (len(keep), 0)
    assert rng.sizes == [1000, 1000]
    ref.uniforms(1000)  # R
    ref.uniforms(1000)  # A
    assert np.array_equal(rng.uniforms(4), ref.uniforms(4))


class _FixedSource:
    """Hands out the bytes and tie words it is given, in order."""

    def __init__(self, byte_values, words):
        self._bytes = np.array(byte_values, dtype=np.uint8)
        self.words_left = list(words)

    def bytes(self, count):
        assert count == len(self._bytes)
        return self._bytes

    def words(self, count):
        taken = self.words_left[:count]
        del self.words_left[:count]
        return np.array(taken, dtype=np.uint64)


def test_byte_rule_is_one_on_exactly_t_outcomes():
    # A draw is one of 2^53 equally likely outcomes: a byte c and, when c
    # ties T's top byte, the top 45 bits x of one more word (its other 19
    # bits are ignored). Outcome k = c * 2^45 + x must give 1 exactly
    # when u = k * 2^-53 is below p, as a double does, which makes T =
    # ceil(p * 2^53) outcomes of 1. Each p is tried at every byte, with
    # tie words on each side of T's low part and at both ends.
    gen = np.random.Generator(np.random.PCG64(137))
    ps = (1e-40, 2 ** -8, 255 / 256, 0.3, 0.5 + 2 ** -40, 1 - 2 ** -53,
          *map(float, gen.uniform(0.0, 1.0, 20)),
          *map(float, 10.0 ** -gen.uniform(1, 300, 10)))
    for p in ps:
        t = math.ceil(Fraction(p) * 2 ** 53)
        net = parse_network(f"network one\nnode A\nprior A : {p!r}\n")
        (_, _, _, hi, lo), = sampling._plan(net)
        assert (int(hi[0]) << 45) + int(lo[0]) == t, p
        tie, low = int(hi[0]), int(lo[0])
        tops = {0, low - 1, low, int(gen.integers(0, 1 << 45)),
                (1 << 45) - 1} - {-1}
        for x in tops:
            spare = int(gen.integers(0, 1 << 19))
            source = _FixedSource(range(256), [x << 19 | spare])
            out = np.empty(256, dtype=bool)
            sampling._byte_draw(source, 0, hi, lo, out)
            assert source.words_left == []
            for c in range(256):
                k = (c << 45) + x
                assert out[c] == (Fraction(k, 2 ** 53) < p), (p, c, x)
            # Every byte below the tie is all 2^45 of its outcomes; the
            # tie gives 1 for x in [0, low) only.
            assert np.count_nonzero(np.delete(out, tie)) == tie
            assert out[tie] == (x < low)


def test_byte_rule_reads_the_little_endian_bytes_of_raw_words():
    # A node's bytes are the bytes of the next 64-bit outputs, least
    # significant first, whatever the platform's byte order; the spare
    # bytes of the last output are dropped, and the node's tie words
    # follow. The reference builds them from random_raw with shifts.
    net = parse_network("network two\nnode A\nprior A : 0.3\nnode B\n"
                        "parents B : A\ncpt B : 0.7 0.4\n")
    count = sampling._BYTE_BATCH + 5
    for seed in range(3):
        rng = RandomSource(seed)
        rows = _sample_batch(net, rng, count)
        raw = iter(int(w) for w in
                   np.random.PCG64(seed).random_raw(8 * count))
        want = np.zeros((2, count), dtype=np.uint8)
        for col, cpt in enumerate(net.cpts):
            words = [next(raw) for _ in range(-(-count // 8))]
            stream = [w >> 8 * j & 255 for w in words for j in range(8)]
            for r, c in enumerate(stream[:count]):
                idx = want[0, r] if cpt.parents else 0
                t = math.ceil(Fraction(cpt.rows[idx]) * 2 ** 53)
                k = c << 45
                if c == t >> 45:
                    k += next(raw) >> 19
                want[col, r] = k < t
        assert np.array_equal(rows, want), seed
        doubles = [(next(raw) >> 11) * 2.0 ** -53 for _ in range(4)]
        assert rng.uniforms(4).tolist() == doubles


def _mixed_conditions(seed, cases):
    """Random nets with conditions that have closed and unclosed nodes.

    A condition node is closed when all its ancestors are condition
    nodes too. Yields ``(net, condition, closed)``.
    """
    gen = np.random.Generator(np.random.PCG64(seed))
    found = 0
    while found < cases:
        net = random_network(gen, int(gen.integers(4, 9)), max_parents=2,
                             lo=0.2, hi=0.8)
        picks = gen.choice(net.n, size=int(gen.integers(2, 4)),
                           replace=False)
        condition = {net.nodes[c]: int(gen.integers(0, 2)) for c in picks}
        closed = {name: value for name, value in condition.items()
                  if all(net.nodes[a] in condition
                         for a in _ancestors(net, net.index(name)))}
        if 0 < len(closed) < len(condition):
            found += 1
            yield net, condition, closed


def test_rejection_with_clamped_conditions_matches_exact_conditional():
    count = 20_000
    for case, (net, condition, closed) in enumerate(
            _mixed_conditions(97, 8)):
        rows = conditioned_sample_batch(net, condition,
                                        TrialGeneratorKind.rejection(),
                                        RandomSource(case), count)
        for name, value in condition.items():
            assert np.all(rows[:, net.index(name)] == value)
        for name in net.nodes:
            if name in condition:
                continue
            phi = exact_conditional(net, {name: 1}, condition)
            se = math.sqrt(phi * (1 - phi) / count)
            frac = rows[:, net.index(name)].mean()
            assert abs(frac - phi) < 5 * se, (case, name, frac, phi)


def test_clamped_condition_nodes_draw_no_uniforms(monkeypatch):
    calls = []

    def counted(self, m, _next=_RejectionStream._next):
        before = len(self._rng.sizes)
        accepted = _next(self, m)
        calls.append((len(self._rng.sizes) - before, accepted.shape[1]))
        return accepted

    monkeypatch.setattr(_RejectionStream, "_next", counted)
    for case, (net, condition, closed) in enumerate(
            _mixed_conditions(101, 8)):
        drawn = net.n - len(closed)
        # A closed condition rejects no row: one batch of 256 rows draws
        # one uniform per row for each node outside the condition.
        rng = _CountingSource(case)
        conditioned_sample_batch(net, closed, TrialGeneratorKind.rejection(),
                                 rng, 256)
        assert rng.sizes == [256] * drawn
        # With unclosed nodes too, the closed ones still draw nothing: a
        # batch draws once per other node, fewer times if it runs out of
        # rows before the last.
        calls.clear()
        conditioned_sample_batch(net, condition,
                                 TrialGeneratorKind.rejection(),
                                 _CountingSource(case), 256)
        for draws, accepted in calls:
            assert draws == drawn if accepted else draws <= drawn


@pytest.mark.parametrize("condition,kind", [
    ({"C": 1}, TrialGeneratorKind.rejection()),
    ({"C": 1}, TrialGeneratorKind.gibbs(1)),
    ({}, TrialGeneratorKind.rejection())],
    ids=["rejection", "gibbs", "weights"])
def test_streams_ignore_how_takes_are_split(net_c, condition, kind):
    # With no condition, rejection is the weight phase's logic sampling.
    keep = tuple(range(net_c.n))

    def stream():
        return _make_stream(net_c, condition, kind, RandomSource(89),
                            DEFAULT_ROW_BUDGET, keep)

    for a, b in ((1, 300), (255, 2), (256, 256), (300, 400), (511, 600)):
        split = stream()
        head = split.take(a)
        tail = split.take(b)
        whole = stream().take(a + b)
        assert np.array_equal(np.concatenate([head, tail], axis=1), whole)


def test_rejection_batches_stop_near_each_checkpoint():
    # B=1 holds on about 3% of rows and is rejected on. Each batch aims at
    # the next power-of-two total from the acceptance seen, so fewer
    # accepted rows than one first batch are made past each checkpoint.
    net = parse_network("network thin\nnode A\nprior A : 0.5\nnode B\n"
                        "parents B : A\ncpt B : 0.02 0.04\n")
    for seed in range(3):
        stream = _RejectionStream(net, {"B": 1}, RandomSource(seed),
                                  DEFAULT_ROW_BUDGET, (0,))
        taken, checkpoint, unscored = 0, 256, []
        while checkpoint <= 1 << 17:
            stream.take(checkpoint - taken)
            taken = checkpoint
            unscored.append(stream._made - taken)
            checkpoint *= 2
        assert 0.025 < stream._made / stream._drawn < 0.035
        assert max(unscored) < sampling._FIRST_RAW_BATCH, unscored
        assert sum(unscored) < 0.01 * taken, unscored


def test_streams_make_only_what_the_checkpoints_score(net_c, monkeypatch):
    made = []
    for cls in (_GibbsStream, _RejectionStream):
        def counted(self, m, _next=cls._next):
            made.append(m)
            return _next(self, m)
        monkeypatch.setattr(cls, "_next", counted)
    for seed in range(3):
        made.clear()
        est = estimate_conditional_fraction(
            net_c, {"A": 1}, {"C": 1}, 0.1, 0.1, TrialGeneratorKind.gibbs(1),
            RandomSource(seed))
        assert est.trials >= 512
        assert sum(made) == est.trials
    # The smaller epsilon certifies past _MAX_RAW_BATCH and _MAX_CHUNK.
    for epsilon in (0.2, 0.01):
        made.clear()
        _, trials = estimate_distribution_over(
            net_c, ("A", "B"), epsilon, 0.1, RandomSource(5))
        assert trials >= 256
        assert sum(made) == trials


def _naive_bayes(children: int):
    gen = np.random.Generator(np.random.PCG64(61))
    names = ("R",) + tuple(f"K{i}" for i in range(children))
    cpts = [Cpt((), (0.37,))] + [
        Cpt(("R",), tuple(float(p) for p in gen.uniform(0.05, 0.95, 2)))
        for _ in range(children)]
    return BeliefNetwork("naive_bayes", names, tuple(cpts))


def _row_digest(rows):
    return hashlib.sha256(np.ascontiguousarray(rows).tobytes()).hexdigest()


@pytest.mark.parametrize("case,digest", [
    pytest.param(
        "wide-blanket",
        "b60d9d3b22172cabc4e32e4b64af496b010e7a541b8b6e856ad6cc6c99de6c56",
        id="wide-blanket"),
    pytest.param(
        "clamped-blankets",
        "f81b03cd52d2abb1b71156eb680d44dfd09f62e3c8a4a223d045f8db6a8dd635",
        id="clamped-blankets"),
    pytest.param(
        "16-node-blanket",
        "ba1ffff67dbaee8943eded4354509db4cef2329daf57f84b2dca5c7999a0af87",
        id="16-node-blanket"),
    pytest.param(
        "17-node-blanket",
        "d68e4081740d5b573bc65fc8b93e6776ec05fb93085c07d989aa8efebb33a591",
        id="17-node-blanket")])
def test_gibbs_rows_are_pinned(case, digest):
    # Recorded at version 0.3.0. A change that fails this changes a random
    # stream, so it bumps the version and says so in CHANGES.md.
    # The root of the first net has 27 unbound children, more than one
    # blanket table spans; the second clamps nodes inside other nodes'
    # blankets. The root's unbound blanket in the last two has 16 nodes,
    # the most a table spans, and 17, one more.
    if case == "wide-blanket":
        net = _naive_bayes(30)
        condition = {"K0": 1, "K5": 0, "K29": 1}
    elif case.endswith("-node-blanket"):
        net = _naive_bayes(int(case.split("-")[0]) + 1)
        condition = {"K0": 1}
    else:
        net = random_network(np.random.Generator(np.random.PCG64(67)), 10,
                             max_parents=3)
        condition = {"N3": 1, "N5": 0, "N6": 1}
    rows = conditioned_sample_batch(net, condition,
                                    TrialGeneratorKind.gibbs(3),
                                    RandomSource(71), 700)
    assert rows.shape == (700, net.n)
    assert _row_digest(rows) == digest


def _components(net, condition):
    """Components of the unbound nodes joined by unbound-blanket edges.

    Two nodes share a blanket exactly when they share a family (a node
    and its parents), so the edges are the moral graph's.
    """
    link = {x: set() for x in net.nodes if x not in condition}
    for x in net.nodes:
        family = [y for y in (x, *net.parents(x)) if y in link]
        for y in family:
            link[y].update(z for z in family if z != y)
    found = {}
    for x in link:
        if x not in found:
            members = {x}
            frontier = [x]
            while frontier:
                for z in link[frontier.pop()] - members:
                    members.add(z)
                    frontier.append(z)
            for z in members:
                found[z] = frozenset(members)
    return found


def _gibbs_cases(seed, cases):
    """Random nets with a condition and an unbound target node.

    Yields ``(net, condition, target)`` until ``cases`` targets sit
    alone in their component and ``cases`` other targets sit beside a
    component of two or more nodes that the target cannot read.
    """
    gen = np.random.Generator(np.random.PCG64(seed))
    alone = beside = 0
    while alone < cases or beside < cases:
        net = random_network(gen, int(gen.integers(4, 10)), max_parents=2,
                             lo=0.2, hi=0.8)
        picks = gen.choice(net.n, size=int(gen.integers(1, net.n - 1)),
                           replace=False)
        condition = {net.nodes[c]: int(gen.integers(0, 2)) for c in picks}
        target = str(gen.choice([x for x in net.nodes
                                 if x not in condition]))
        components = _components(net, condition)
        own = components[target]
        unread = any(len(c) > 1 and c != own for c in components.values())
        if len(own) == 1 and alone < cases:
            alone += 1
        elif unread and beside < cases:
            beside += 1
        else:
            continue
        yield net, condition, target


def test_kept_column_streams_match_full_sweeps():
    # A stream that keeps only the target sweeps only what the target can
    # read, and skips sweeps it does not need; its column, and the stream
    # position it leaves, are those of sweeping every node.
    kind = TrialGeneratorKind.gibbs(3)
    for case, (net, condition, target) in enumerate(_gibbs_cases(103, 10)):
        col = net.index(target)
        rng = RandomSource(case)
        kept = _make_stream(net, condition, kind, rng,
                            DEFAULT_ROW_BUDGET, (col,)).take(700)
        full_rng = RandomSource(case)
        full = conditioned_sample_batch(net, condition, kind, full_rng, 700)
        assert np.array_equal(kept[0], full[:, col]), case
        assert np.array_equal(rng.uniforms(4), full_rng.uniforms(4)), case


def test_wide_gibbs_sweeps_draw_at_most_the_bound(monkeypatch):
    # 40 unbound nodes on 65,536 chains make 2.6M doubles a sweep. Each
    # sweep draws them in pieces of at most the bound, whole blocks each,
    # and the rows and the stream position are those of one draw a sweep.
    net = random_network(np.random.Generator(np.random.PCG64(113)), 44)
    condition = {"N3": 1, "N17": 0, "N30": 1, "N41": 0}
    m = 1 << 16

    def batch(rng):
        return _make_stream(net, condition, TrialGeneratorKind.gibbs(2),
                            rng, DEFAULT_ROW_BUDGET,
                            tuple(range(net.n)))._next(m)

    rng = _CountingSource(127)
    rows = batch(rng)
    # The start state draws 40 times, from bytes; each sweep draws 16,
    # 16 and 8 blocks of doubles.
    assert rng.byte_sizes == [m] * 40
    assert max(rng.sizes) <= sampling._MAX_DRAW == 16 * m
    assert rng.sizes == [16 * m, 16 * m, 8 * m] * 2
    monkeypatch.setattr(sampling, "_MAX_DRAW", 40 * m)
    ref = _CountingSource(127)
    assert np.array_equal(batch(ref), rows)
    assert ref.sizes == [40 * m] * 2
    assert np.array_equal(rng.uniforms(4), ref.uniforms(4))


def test_skip_then_draw_is_a_slice_of_one_draw():
    for n, j in ((0, 5), (1, 1), (7, 64), (3 * 256 * 127, 3)):
        rng = RandomSource(41)
        rng.skip(n)
        assert np.array_equal(rng.uniforms(j),
                              RandomSource(41).uniforms(n + j)[n:])


def test_one_node_kept_component_draws_the_start_state_and_one_sweep():
    # A -> B -> C with A and C bound leaves B alone; D -> E is a second
    # component, unbound and unread. Three unbound nodes, m = 256 chains.
    net = parse_network("""\
network parted
node A
prior A : 0.3
node B
parents B : A
cpt B : 0.2 0.7
node C
parents C : B
cpt C : 0.4 0.9
node D
prior D : 0.6
node E
parents E : D
cpt E : 0.1 0.8
""")
    rng = _CountingSource(43)
    _make_stream(net, {"A": 1, "C": 0}, TrialGeneratorKind.gibbs(128), rng,
                 DEFAULT_ROW_BUDGET, (net.index("B"),)).take(256)
    # The start state draws once per unbound node, then the last sweep
    # draws once; the 127 sweeps before it are skipped, not drawn.
    assert rng.sizes == [256, 256, 256, 3 * 256]
    assert rng.skipped == [127 * 3 * 256]


def test_gibbs_on_a_one_node_kept_component_is_exact():
    # Bound to its whole Markov blanket, the query's update is its exact
    # conditional, so one sweep samples it exactly.
    count = 20_000
    gen = np.random.Generator(np.random.PCG64(107))
    for case in range(6):
        net = random_network(gen, int(gen.integers(4, 9)), max_parents=2,
                             lo=0.2, hi=0.8)
        query = str(gen.choice(net.nodes))
        kids = [x for x in net.nodes if query in net.parents(x)]
        blanket = {*net.parents(query), *kids,
                   *(p for x in kids for p in net.parents(x))} - {query}
        condition = {x: int(gen.integers(0, 2)) for x in sorted(blanket)}
        assert len(_components(net, condition)[query]) == 1
        rows = _make_stream(net, condition, TrialGeneratorKind.gibbs(1),
                            RandomSource(case), DEFAULT_ROW_BUDGET,
                            (net.index(query),)).take(count)
        phi = exact_conditional(net, {query: 1}, condition)
        se = math.sqrt(phi * (1 - phi) / count)
        assert abs(rows[0].mean() - phi) < 5 * se, (case, phi)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 4), st.integers(0, 300), st.integers(0, 2 ** 32 - 1),
       st.data())
def test_one_slot_classifier_counts_as_the_general_one(width, count, seed,
                                                       data):
    # Streams return rows of 0s and 1s, often as a view of a wider batch.
    batch = np.random.default_rng(seed).integers(0, 2, (width, count + 7),
                                                 dtype=np.uint8)
    rows = batch[:, :count]
    at = data.draw(st.integers(0, width - 1))
    value = data.draw(st.integers(0, 1))
    assert _match_one(at, value)(rows) == _match_all([at], [value])(rows)
