import hashlib
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
from condsim.network import BeliefNetwork, Cpt, parse_network
from condsim.sampling import (
    RandomSource,
    RasEstimate,
    TrialGeneratorKind,
    _sample_batch,
    conditioned_sample_batch,
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


def test_skip_then_draw_is_a_slice_of_one_draw():
    for skipped, drawn in ((0, 5), (5, 3), (1000, 3), (3 * 65536 + 1, 17)):
        whole = RandomSource(47).uniforms(skipped + drawn)
        rng = RandomSource(47)
        rng.skip(skipped)
        assert np.array_equal(rng.uniforms(drawn), whole[skipped:])
    rng = RandomSource(53)
    head = rng.uniforms(5)
    rng.skip(1000)
    tail = rng.uniforms(3)
    whole = RandomSource(53).uniforms(1008)
    assert np.array_equal(head, whole[:5])
    assert np.array_equal(tail, whole[1005:])


def _forward_rows(net, rng, count, clamp):
    """A full forward batch, one block of uniforms per unclamped node."""
    rows = np.zeros((count, net.n), dtype=np.uint8)
    for name in net.nodes:
        col = net.index(name)
        if col in clamp:
            rows[:, col] = clamp[col]
            continue
        cpt = net.cpt(name)
        idx = np.zeros(count, dtype=np.int64)
        for parent in cpt.parents:
            idx = 2 * idx + rows[:, net.index(parent)]
        rows[:, col] = rng.uniforms(count) < np.asarray(cpt.rows)[idx]
    return rows


def test_pruned_batch_matches_a_filtered_full_batch():
    # Skipping barren nodes and dropping rejected rows early must leave
    # every drawn value, every hit position and the stream's position as
    # a full forward batch filtered afterwards would.
    gen = np.random.Generator(np.random.PCG64(59))
    for case in range(60):
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
        count = int(gen.integers(1, 2000))
        rng, ref = RandomSource(case), RandomSource(case)
        rows, hits = _sample_batch(net, rng, count, keep, condition, clamp)
        full = _forward_rows(net, ref, count, dict(clamp))
        ok = np.ones(count, dtype=bool)
        for col, value in condition:
            ok &= full[:, col] == value
        if condition:
            assert np.array_equal(hits, np.flatnonzero(ok))
        else:
            assert hits is None
        assert np.array_equal(rows, full[ok][:, keep].T)
        assert np.array_equal(rng.uniforms(4), ref.uniforms(4))


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
    ("wide-blanket",
     "0a28677620feb0e5e9a6603586b656ff2abf5c2d5ed0bd423a31e9081ae66495"),
    ("clamped-blankets",
     "501644635aceca3e24ea5a2fce3d19317600cf14d4d031b3f7f339931345a8c8"),
    ("16-node-blanket",
     "d74ae72c37cd81d0ddd3a206e47797e7a5f49dea6c1b923c81a8d54dffa34329"),
    ("17-node-blanket",
     "7f02e52327a932af04a36b603688892ec353a2966255e65fa026b805d64717ef")])
def test_gibbs_rows_are_pinned(case, digest):
    # Recorded at version 0.1.0: the first two with the per-row Gibbs
    # kernel, the last two with blanket tables spanning up to 16 nodes.
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
