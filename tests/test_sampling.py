import math

import numpy as np
import pytest

from condsim.dependence import satisfies_ras
from condsim.errors import (
    NetworkTooLargeError,
    OverlappingSetsError,
    RejectionBudgetExceededError,
    SampleBudgetExceededError,
    UnknownNodeError,
)
from condsim.exact import exact_conditional, exact_distribution_over
from condsim.network import parse_network
from condsim.sampling import (
    RandomSource,
    RasEstimate,
    TrialGeneratorKind,
    conditioned_sample_batch,
    default_burn_in_sweeps,
    estimate_conditional_fraction,
    estimate_distribution_over,
    logic_sample_batch,
    mix_seed,
)
from condsim.stopping import PriorChoice

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


def test_generator_kind_validation():
    assert TrialGeneratorKind.rejection().kind == "rejection"
    assert TrialGeneratorKind.gibbs().burn_in_sweeps is None
    assert TrialGeneratorKind.gibbs(5).burn_in_sweeps == 5
    with pytest.raises(ValueError):
        TrialGeneratorKind("annealed")
    with pytest.raises(ValueError):
        TrialGeneratorKind("rejection", burn_in_sweeps=3)
    with pytest.raises(ValueError):
        TrialGeneratorKind.gibbs(0)


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
        net_a, [], 0.2, 0.1, PriorChoice.UNBIASED, RandomSource(1))
    assert probs == (1.0,)
    assert trials == 0


def test_estimate_distribution_certifies_at_stated_risk(net_a):
    epsilon, delta = 0.2, 0.1
    phi = exact_distribution_over(net_a, ["A"])
    covered = 0
    for rep in range(200):
        mu, trials = estimate_distribution_over(
            net_a, ["A"], epsilon, delta, PriorChoice.UNBIASED,
            RandomSource(mix_seed(909, rep)))
        assert trials >= 2 and trials & (trials - 1) == 0
        assert sum(mu) == pytest.approx(1.0)
        covered += all(
            satisfies_ras(p, m, epsilon) for p, m in zip(phi, mu))
    # failure probability is certified at most delta = 0.1 per rep;
    # measured failures sit near 3 percent
    assert covered >= 180


@pytest.mark.xfail(
    strict=False,
    reason="the published worst-case trial bound (500 here) assumes the "
    "stopping rule is checked after every trial; checking at doubling "
    "checkpoints overshoots to 512 whenever certification first holds "
    "between 257 and 512 trials, which happens with probability about "
    "0.024 per run, so some violation among 200 runs is near certain "
    "(measured 99.2 percent)")
def test_estimate_distribution_never_exceeds_published_bound(net_a):
    # worst_case_sample_bound(1, 0.2, 0.1, 0.3) == 500
    for rep in range(200):
        _, trials = estimate_distribution_over(
            net_a, ["A"], 0.2, 0.1, PriorChoice.UNBIASED,
            RandomSource(mix_seed(909, rep)))
        assert trials <= 500


def test_estimate_distribution_budget_error_carries_partial_state(net_a):
    with pytest.raises(SampleBudgetExceededError) as einfo:
        estimate_distribution_over(
            net_a, ["A", "B"], 0.05, 0.01, PriorChoice.UNBIASED,
            RandomSource(3), sample_cap=4)
    err = einfo.value
    assert err.phase == "distribution"
    assert err.trials == 4
    assert err.cap == 4


def test_estimate_distribution_rejects_oversized_subsets():
    net = arcless_network(21)
    with pytest.raises(NetworkTooLargeError):
        estimate_distribution_over(
            net, list(net.nodes), 0.5, 0.5, PriorChoice.UNBIASED,
            RandomSource(1))


def test_estimate_distribution_rejects_bad_risk_params(net_a):
    with pytest.raises(ValueError):
        estimate_distribution_over(net_a, ["A"], 0.0, 0.1,
                                   PriorChoice.UNBIASED, RandomSource(1))
    with pytest.raises(ValueError):
        estimate_distribution_over(net_a, ["A"], 0.2, 0.0,
                                   PriorChoice.UNBIASED, RandomSource(1))


def test_conditioned_trial_respects_condition(net_a):
    trial = conditioned_sample_batch(net_a, {"A": 1},
                                     TrialGeneratorKind.rejection(),
                                     RandomSource(5), 1)
    assert trial.shape == (1, 2)
    assert trial[0, net_a.index("A")] == 1


def test_conditioned_batch_consistency_postcondition(net_c):
    for kind in (TrialGeneratorKind.rejection(), TrialGeneratorKind.gibbs(4)):
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


def test_default_burn_in_sweeps_reference_value(net_a):
    # conditioned dependence value is 20.25; 20.25^4 rounds up to 168152
    assert default_burn_in_sweeps(net_a, {"B": 1}) == 168152


def test_default_burn_in_sweeps_is_capped():
    gen = np.random.Generator(np.random.PCG64(89))
    net = random_network(gen, 8, lo=0.01, hi=0.99)
    assert default_burn_in_sweeps(net, {}) <= 1_000_000


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
    with pytest.raises(SampleBudgetExceededError) as einfo:
        estimate_conditional_fraction(
            net_a, {"B": 1}, {}, 0.05, 0.01,
            TrialGeneratorKind.rejection(), RandomSource(31), sample_cap=2)
    err = einfo.value
    assert err.phase == "fraction"
    assert err.trials == 2
    assert err.cap == 2


def test_rejection_attempt_cap_raises_with_phase():
    net = parse_network(
        "network rare\n"
        "node A\nprior A : 0.000001\n"
        "node B\nparents B : A\ncpt B : 0.4 0.6\n")
    with pytest.raises(RejectionBudgetExceededError) as einfo:
        estimate_conditional_fraction(
            net, {"B": 1}, {"A": 1}, 0.2, 0.1,
            TrialGeneratorKind.rejection(), RandomSource(37),
            attempt_cap=100)
    assert einfo.value.phase == "rejection"
    assert einfo.value.cap == 100


def test_rejection_cap_counts_runs_inside_a_batch(net_c):
    # Half the rows have C=1, so the stream's first 4096 forward rows hold
    # a run of more than 5 rejected rows; no batch ends in a run that long.
    with pytest.raises(RejectionBudgetExceededError) as einfo:
        conditioned_sample_batch(net_c, {"C": 1},
                                 TrialGeneratorKind.rejection(),
                                 RandomSource(1), 4096, attempt_cap=5)
    assert einfo.value.trials == 0


def test_rejection_budget_error_counts_scored_trials(net_c):
    scored = []
    for seed in range(8):
        with pytest.raises(RejectionBudgetExceededError) as einfo:
            estimate_conditional_fraction(
                net_c, {"A": 1}, {"C": 1}, 0.02, 0.1,
                TrialGeneratorKind.rejection(), RandomSource(seed),
                attempt_cap=5)
        scored.append(einfo.value.trials)
    # Trials are scored a checkpoint at a time, and checkpoints double.
    assert all(t & (t - 1) == 0 for t in scored)
    assert max(scored) > 0


def test_fraction_is_deterministic_per_seed(net_c):
    kinds = (TrialGeneratorKind.rejection(), TrialGeneratorKind.gibbs(3))
    for kind in kinds:
        a = estimate_conditional_fraction(
            net_c, {"A": 1}, {"C": 1}, 0.3, 0.2, kind, RandomSource(43))
        b = estimate_conditional_fraction(
            net_c, {"A": 1}, {"C": 1}, 0.3, 0.2, kind, RandomSource(43))
        assert a == b
