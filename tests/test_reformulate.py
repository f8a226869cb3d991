from dataclasses import replace
from math import inf

import numpy as np
import pytest

from condsim.dependence import dependence_value, satisfies_ras
from condsim.errors import (
    LengthMismatchError,
    OverlappingSetsError,
    RowBudgetExceededError,
    ZeroDenominatorError,
)
from condsim.exact import exact_conditional, exact_distribution_over, \
    exact_marginal
from condsim.network import BeliefNetwork, Cpt, parse_network
from condsim.reformulate import (
    DEFAULT_SEED,
    InferConfig,
    bayes_ratio,
    combine_weighted,
    decompose,
    greedy_select,
    infer,
)
from condsim.sampling import (
    RandomSource,
    RasEstimate,
    TrialGeneratorKind,
    conditioned_sample_batch,
    estimate_conditional_fraction,
    estimate_distribution_over,
    mix_seed,
)
from condsim.stopping import DirichletPosterior, should_stop

from helpers import (
    BARREN_SOURCE,
    ISOLATED_SOURCE,
    arcless_network,
    random_network,
)


def test_greedy_trace_on_the_chain_network(net_c):
    selected, trace = greedy_select(net_c, {})
    assert selected == ("A", "B")
    assert trace.stop_reason == "weight term dominates"
    assert len(trace.steps) == 2

    first, second = trace.steps
    assert first.node == "B"
    assert first.added == ("A",)
    assert first.lambda_before == pytest.approx(9.0)
    assert first.candidate_ratio == pytest.approx(4.5)
    assert first.cost_before.subproblem_term == pytest.approx(
        1296.0 ** 4)
    assert first.cost_before.weight_term == pytest.approx(1.0)
    assert first.cost_after.subproblem_term == pytest.approx(131072.0)
    assert first.cost_after.weight_term == pytest.approx(4.0)

    assert second.node == "C"
    assert second.added == ("B",)
    assert second.lambda_before == pytest.approx(4.0)
    assert second.candidate_ratio == pytest.approx(2.0)
    assert second.cost_after.subproblem_term == pytest.approx(4.0)
    assert second.cost_after.weight_term == pytest.approx(80.0)

    assert trace.final_cost.subproblem_term == pytest.approx(4.0)
    assert trace.final_cost.weight_term == pytest.approx(80.0)


def test_greedy_skips_independent_networks():
    net = arcless_network(5)
    selected, trace = greedy_select(net, {})
    assert selected == ()
    assert trace.stop_reason == "weight term dominates"
    assert trace.steps == ()


def test_greedy_stops_when_evidence_already_decouples(net_a):
    selected, trace = greedy_select(net_a, {"A": 1})
    assert selected == ()
    assert trace.stop_reason == "weight term dominates"


def test_greedy_selects_the_parent_of_a_strong_link(net_a):
    selected, trace = greedy_select(net_a, {})
    assert selected == ("A",)
    assert trace.steps[0].node == "B"


def test_greedy_exclusion_blocks_the_only_candidate(net_a):
    selected, trace = greedy_select(net_a, {}, exclude=("A",))
    assert selected == ()
    assert trace.stop_reason == "no eligible candidate"


def test_greedy_respects_the_size_cap(net_c):
    selected, trace = greedy_select(net_c, {}, max_s=1)
    assert selected == ("A",)
    assert trace.stop_reason == "size cap reached"
    assert len(trace.steps) == 1


def test_greedy_parameter_validation(net_a):
    with pytest.raises(ValueError):
        greedy_select(net_a, {}, max_s=-1)


def test_removed_settings_fail_loudly(net_a):
    # 0.10.0 removed the stopping rule's prior and greedy's exponent,
    # the prior's enum and the budget errors' base class. Their old call
    # shapes raise instead of binding an argument to another parameter.
    calls = (
        lambda: InferConfig(prior="uniform"),
        lambda: InferConfig(greedy_exponent=2.0),
        lambda: greedy_select(net_a, {}, 2.0),
        lambda: estimate_distribution_over(net_a, ("A",), 0.2, 0.1,
                                           "unbiased", RandomSource(1)),
        lambda: estimate_conditional_fraction(
            net_a, {"B": 1}, {}, 0.2, 0.1, TrialGeneratorKind.rejection(),
            RandomSource(1), prior="unbiased"),
        lambda: DirichletPosterior((1, 3), "uniform"),
    )
    for call in calls:
        with pytest.raises(TypeError):
            call()
    with pytest.raises(ImportError):
        from condsim import PriorChoice  # noqa: F401
    with pytest.raises(ImportError):
        from condsim import BudgetExceededError  # noqa: F401


def test_greedy_never_returns_excluded_or_bound_nodes():
    gen = np.random.Generator(np.random.PCG64(97))
    for _ in range(25):
        net = random_network(gen, int(gen.integers(3, 9)))
        names = list(net.nodes)
        evidence = {names[0]: 1}
        exclude = (names[1],)
        selected, _ = greedy_select(net, evidence, exclude=exclude)
        assert set(selected).isdisjoint(evidence)
        assert set(selected).isdisjoint(exclude)
        assert len(set(selected)) == len(selected)


def test_decompose_enumerates_instantiations(net_c):
    subs = decompose(net_c, {"C": 1}, {}, ("A", "B"))
    assert len(subs) == 4
    assert [s.index for s in subs] == [0, 1, 2, 3]
    assert subs[2].instantiation == {"A": 1, "B": 0}
    assert subs[2].numerator_target == {"C": 1}
    assert subs[2].denominator_target == {}


def test_decompose_merges_evidence_into_the_numerator(net_c):
    subs = decompose(net_c, {"C": 1}, {"B": 0}, ("A",))
    assert len(subs) == 2
    assert subs[1].instantiation == {"A": 1}
    assert subs[1].numerator_target == {"C": 1, "B": 0}
    assert subs[1].denominator_target == {"B": 0}


def test_decompose_rejects_overlaps(net_c):
    with pytest.raises(OverlappingSetsError):
        decompose(net_c, {"C": 1}, {"C": 0}, ())
    with pytest.raises(OverlappingSetsError):
        decompose(net_c, {"C": 1}, {}, ("C",))
    with pytest.raises(OverlappingSetsError):
        decompose(net_c, {"C": 1}, {"B": 0}, ("B",))
    with pytest.raises(OverlappingSetsError):
        decompose(net_c, {"C": 1}, {}, ("A", "A"))


def test_combine_weighted_reference_value():
    assert combine_weighted([0.9, 0.2], [0.3, 0.7]) == pytest.approx(0.41)


def test_combine_weighted_passthrough_and_convexity():
    assert combine_weighted([0.123], [1.0]) == pytest.approx(0.123)
    gen = np.random.Generator(np.random.PCG64(101))
    for _ in range(20):
        values = gen.uniform(0, 1, size=4)
        raw = gen.uniform(0, 1, size=4)
        weights = raw / raw.sum()
        mixed = combine_weighted(list(values), list(weights))
        assert values.min() - 1e-12 <= mixed <= values.max() + 1e-12


def test_combine_weighted_guards():
    with pytest.raises(LengthMismatchError):
        combine_weighted([0.5], [0.5, 0.5])
    with pytest.raises(ValueError):
        combine_weighted([0.5, 0.5], [0.7, -0.2])


def test_bayes_ratio_reference_values():
    value, clamped = bayes_ratio(0.27, 0.41)
    assert value == pytest.approx(27 / 41)
    assert not clamped
    assert bayes_ratio(0.3, 0.3) == (1.0, False)
    assert bayes_ratio(0.0, 0.5) == (0.0, False)
    assert bayes_ratio(0.5, 0.4) == (1.0, True)


def test_bayes_ratio_guards():
    with pytest.raises(ZeroDenominatorError):
        bayes_ratio(0.2, 0.0)
    with pytest.raises(ValueError):
        bayes_ratio(-0.1, 0.5)


def test_weighted_decomposition_identities_hold_exactly():
    # with oracle values in place of estimates the combination must
    # reproduce the oracle conditional
    gen = np.random.Generator(np.random.PCG64(103))
    done = 0
    while done < 30:
        n = int(gen.integers(3, 9))
        net = random_network(gen, n)
        names = list(gen.permutation(net.nodes))
        s_size = int(gen.integers(1, min(4, n - 1)))
        s_nodes = tuple(names[:s_size])
        query = {names[s_size]: int(gen.integers(0, 2))}
        evidence = {}
        if n > s_size + 1 and gen.random() < 0.7:
            evidence = {names[s_size + 1]: int(gen.integers(0, 2))}
        weights = exact_distribution_over(net, list(s_nodes))
        nums = []
        dens = []
        for sub in decompose(net, query, evidence, s_nodes):
            nums.append(exact_conditional(net, sub.numerator_target,
                                          sub.instantiation))
            dens.append(exact_conditional(net, sub.denominator_target,
                                          sub.instantiation))
        numerator = combine_weighted(nums, weights)
        denominator = combine_weighted(dens, weights)
        target = {**query, **evidence}
        assert numerator == pytest.approx(exact_marginal(net, target),
                                          abs=1e-10)
        value, clamped = bayes_ratio(numerator, denominator)
        want = exact_conditional(net, query, evidence)
        if not clamped:
            assert value == pytest.approx(want, abs=1e-10)
        done += 1


def test_infer_guards(net_a):
    with pytest.raises(ValueError):
        infer(net_a, {"B": 1}, {}, 0.2, 0.1, strategy="magic")
    with pytest.raises(ValueError):
        infer(net_a, {"B": 1}, {}, 0.0, 0.1)
    with pytest.raises(ValueError):
        infer(net_a, {"B": 1}, {}, 0.2, 1.5)
    with pytest.raises(ValueError):
        infer(net_a, {}, {"A": 1}, 0.2, 0.1)
    with pytest.raises(OverlappingSetsError):
        infer(net_a, {"B": 1}, {"B": 0}, 0.2, 0.1)


def test_infer_auto_falls_back_to_direct(net_a):
    result = infer(net_a, {"B": 1}, {"A": 1}, 0.2, 0.1, seed=5)
    assert result.strategy_used == "direct"
    assert result.selected_s == ()
    assert result.mu_s == (1.0,)
    assert result.weight_trials == 0
    assert result.denominator == 1.0
    assert not result.clamped
    assert result.subproblem_estimates[0][1] == RasEstimate(
        1.0, 0.2, 0.1, 0, 0)
    assert result.greedy_trace is not None
    assert result.dependence_after == result.dependence_before


def test_auto_takes_selective_exactly_when_greedy_selects(net_a, net_c):
    # Auto runs selective when greedy's S is nonempty and direct when it
    # is empty; only the greedy trace tells the direct answer apart.
    selective = infer(net_c, {"C": 1}, {}, 0.2, 0.1, "selective", seed=13)
    assert selective.selected_s == ("A", "B")
    assert infer(net_c, {"C": 1}, {}, 0.2, 0.1, "auto", seed=13) == selective
    auto = infer(net_a, {"B": 1}, {"A": 1}, 0.2, 0.1, "auto", seed=5)
    assert auto.selected_s == () and auto.greedy_trace is not None
    direct = infer(net_a, {"B": 1}, {"A": 1}, 0.2, 0.1, "direct", seed=5)
    assert replace(auto, greedy_trace=None) == direct


def test_infer_direct_strategy_skips_greedy(net_c):
    result = infer(net_c, {"C": 1}, {}, 0.3, 0.2, strategy="direct",
                   seed=5)
    assert result.strategy_used == "direct"
    assert result.greedy_trace is None
    assert result.trials_total == result.subproblem_estimates[0][0].trials


def test_infer_direct_uses_its_reserved_stream(net_a, net_c):
    seed = 8675309
    # In the second case C is barren: infer drops it, and rejection draws
    # the same rows on the whole network.
    for net, query, evidence in ((net_a, {"B": 1}, {"A": 1}),
                                 (net_c, {"A": 1}, {"B": 1})):
        result = infer(net, query, evidence, 0.2, 0.1, strategy="direct",
                       seed=seed)
        manual = estimate_conditional_fraction(
            net, query, evidence, 0.2, 0.1,
            TrialGeneratorKind.rejection(), RandomSource(seed).derive(1))
        assert result.estimate == manual.value
        assert result.trials_total == manual.trials


def test_infer_selective_accounting(net_c):
    result = infer(net_c, {"C": 1}, {}, 0.2, 0.1, strategy="selective",
                   seed=11)
    assert result.strategy_used == "selective"
    assert result.selected_s == ("A", "B")
    assert len(result.mu_s) == 4
    assert sum(result.mu_s) == pytest.approx(1.0)
    assert len(result.subproblem_estimates) == 4
    assert result.dependence_before == pytest.approx(1296.0)
    assert result.dependence_after == pytest.approx(1.0)
    spent = result.weight_trials + sum(
        n.trials + d.trials for n, d in result.subproblem_estimates)
    assert result.trials_total == spent
    assert result.denominator == pytest.approx(1.0)
    value, clamped = bayes_ratio(result.numerator, result.denominator)
    assert result.estimate == value
    assert result.clamped == clamped


def test_infer_is_deterministic_per_seed(net_c):
    a = infer(net_c, {"C": 1}, {"A": 0}, 0.3, 0.2, seed=DEFAULT_SEED)
    b = infer(net_c, {"C": 1}, {"A": 0}, 0.3, 0.2, seed=DEFAULT_SEED)
    assert a == b
    c = infer(net_c, {"C": 1}, {"A": 0}, 0.3, 0.2, seed=DEFAULT_SEED + 1)
    assert c.estimate != a.estimate or c.trials_total != a.trials_total


def test_infer_direct_certifies_at_stated_risk(net_a):
    epsilon, delta = 0.1, 0.05
    phi = 27 / 41
    covered = 0
    for rep in range(200):
        result = infer(net_a, {"A": 1}, {"B": 1}, epsilon, delta,
                       seed=mix_seed(515, rep))
        assert result.strategy_used == "direct"
        covered += satisfies_ras(phi, result.estimate, epsilon)
    assert covered >= 190


def test_worst_case_checkpoint_covers_a_target_rarer_than_its_own_bound():
    # Pr[A=1 | B=1] = 0.001996 lies far below phi_min over A alone (0.5);
    # W, the checkpoint, is sized over A and B, whose bound is 0.0005.
    net = parse_network("network rare\nnode A\nprior A : 0.5\nnode B\n"
                        "parents B : A\ncpt B : 0.5 0.001\n")
    phi = exact_conditional(net, {"A": 1}, {"B": 1})
    for seed in range(3):
        result = infer(net, {"A": 1}, {"B": 1}, 0.2, 0.1, "direct",
                       seed=seed)
        assert satisfies_ras(phi, result.estimate, 0.2)


def test_infer_selective_certifies_at_stated_risk(net_c):
    epsilon, delta = 0.2, 0.1
    phi = 0.5
    covered = 0
    for rep in range(200):
        result = infer(net_c, {"C": 1}, {}, epsilon, delta,
                       strategy="selective", seed=mix_seed(616, rep))
        covered += satisfies_ras(phi, result.estimate, epsilon)
    assert covered >= 180


def test_infer_dependence_never_grows_under_conditioning():
    gen = np.random.Generator(np.random.PCG64(107))
    for _ in range(15):
        net = random_network(gen, int(gen.integers(3, 8)))
        names = list(net.nodes)
        result = infer(net, {names[-1]: 1}, {}, 0.5, 0.5,
                       seed=int(gen.integers(0, 2 ** 32)))
        assert result.dependence_after <= result.dependence_before + 1e-9


# At 2^15 rows, subproblem 0's stream (acceptance 0.5) scores the
# 8,192-trial checkpoint and cannot draw the next; its numerator and
# denominator, both unfinished, count 8,192 each. At 3 * 2^15 rows, the
# numerator is unfinished at 32,768 trials; its denominator reads the
# same stream and certified at 16,384 trials, which count in place of
# the loop's. Since 0.12.0, seed 2's stream accepts enough rows to score
# the 16,384-trial checkpoint within 2^15 rows, so the seeds are 0, 1
# and 3.
@pytest.mark.parametrize("config,error,phase,subproblem_trials", [
    (InferConfig(row_budget=1 << 15), RowBudgetExceededError, "fraction",
     1 << 14),
    (InferConfig(row_budget=3 << 15), RowBudgetExceededError, "fraction",
     (1 << 15) + (1 << 14))])
def test_infer_budget_error_counts_the_run_s_scored_trials(
        net_c, config, error, phase, subproblem_trials):
    for seed in (0, 1, 3):
        weight_trials = infer(net_c, {"A": 1}, {"C": 1}, 0.2, 0.1,
                              "selective", seed=seed).weight_trials
        with pytest.raises(error) as einfo:
            infer(net_c, {"A": 1}, {"C": 1}, 0.2, 0.1, "selective", config,
                  seed)
        assert einfo.value.phase == phase
        assert einfo.value.trials == weight_trials + subproblem_trials
        assert str(einfo.value).startswith("subproblem 0 numerator: ")


def test_subproblem_readers_count_their_stream_s_rows(net_c):
    # Subproblem i's numerator and denominator read stream i + 1: each
    # counts the target-consistent rows among the first rows of that
    # stream, as many as its trials.
    seed = 23
    result = infer(net_c, {"A": 1}, {"C": 1}, 0.2, 0.1, "selective",
                   seed=seed)
    assert result.selected_s == ("B",)
    a, c = net_c.index("A"), net_c.index("C")
    for b, (num, den) in enumerate(result.subproblem_estimates):
        assert num.trials != den.trials
        rows = conditioned_sample_batch(
            net_c, {"B": b}, TrialGeneratorKind.rejection(),
            RandomSource(seed).derive(b + 1), max(num.trials, den.trials))
        evidence = rows[:, c] == 1
        assert den.consistent == np.count_nonzero(evidence[:den.trials])
        assert num.consistent == np.count_nonzero(
            (evidence & (rows[:, a] == 1))[:num.trials])


def test_auto_answers_where_a_step_would_raise_the_total_cost():
    # Conditioning on B too would trade a subproblem term of 45,037.5 for
    # a weight term of 8e10, the cost of certifying Pr[A=0, B=1] = 5e-11,
    # so greedy stops at S = [A].
    net = parse_network("network overflow\nnode A\nprior A : 0.5\n"
                        "node B\nparents B : A\ncpt B : 1e-10 0.9\n"
                        "node C\nparents C : B\ncpt C : 0.2 0.7\n")
    result = infer(net, {"C": 1}, {}, 0.2, 0.1)
    assert result.selected_s == ("A",)
    assert result.greedy_trace.stop_reason == "total cost not lowered"
    assert satisfies_ras(exact_conditional(net, {"C": 1}, {}),
                         result.estimate, 0.2)


def test_infer_accepts_gibbs_generator(net_c):
    config = InferConfig(generator=TrialGeneratorKind.gibbs(4))
    result = infer(net_c, {"C": 1}, {"A": 1}, 0.3, 0.2, strategy="direct",
                   config=config, seed=21)
    phi = exact_conditional(net_c, {"C": 1}, {"A": 1})
    assert abs(result.estimate - phi) < 0.15


def test_infer_conditions_on_the_closure_not_on_barren_nodes():
    net = parse_network(BARREN_SOURCE)
    # On the whole network greedy conditions on the barren X and Y.
    whole, _ = greedy_select(net, {"E": 1}, exclude=("Q",))
    assert set(whole) & {"X", "Y", "Z"}
    result = infer(net, {"Q": 1}, {"E": 1}, 0.2, 0.1, seed=17)
    assert result.strategy_used == "direct"
    assert result.selected_s == ()
    assert result.nodes_kept == 2
    assert result.dependence_before == pytest.approx(3.5 ** 2)
    assert satisfies_ras(exact_conditional(net, {"Q": 1}, {"E": 1}),
                         result.estimate, 0.2)


def test_infer_drops_evidence_the_query_does_not_depend_on():
    # Pr[N0=0 | N3=0, N1=1] is Pr[N0=0]. Conditioned on that evidence,
    # auto selected S = [N2] and scored about 540,000 trials.
    net = parse_network(ISOLATED_SOURCE)
    query, evidence = {"N0": 0}, {"N3": 0, "N1": 1}
    result = infer(net, query, evidence, 0.2, 0.1, seed=7)
    assert result.evidence_dropped == ("N1", "N3")
    assert result.strategy_used == "direct" and result.selected_s == ()
    assert result.nodes_kept == 1
    assert 100 <= result.trials_total < 1000
    assert satisfies_ras(exact_conditional(net, query, evidence),
                         result.estimate, 0.2)


def test_many_independent_components_report_a_finite_dependence():
    names, cpts = [], []
    for i in range(200):
        names += [f"A{i}", f"B{i}"]
        cpts += [Cpt((), (0.5,)), Cpt((f"A{i}",), (0.001, 0.999))]
    net = BeliefNetwork("wide", tuple(names), tuple(cpts))
    assert dependence_value(net, {}).value == inf
    result = infer(net, {"B7": 1}, {}, 0.2, 0.1, strategy="direct", seed=3)
    assert result.nodes_kept == 2
    assert result.dependence_before == pytest.approx(999.0 ** 2)


_GIBBS_3 = InferConfig(generator=TrialGeneratorKind.gibbs(3))
_ROWS_1000 = InferConfig(row_budget=1000)
_ROWS_10000 = InferConfig(row_budget=10000)


@pytest.mark.parametrize(
    "query,evidence,epsilon,strategy,config,seed,pinned",
    [({"A": 1}, {"C": 1}, 0.2, "direct", None, 11,
      (0.71875, 64, (1.0,))),
     ({"C": 1}, {"A": 1}, 0.2, "selective", None, 12,
      (0.724185263077039, 301568, (0.490234375, 0.509765625))),
     ({"A": 1}, {"C": 1}, 0.001, "direct", _GIBBS_3, 13,
      (0.6723127365112305, 2097152, (1.0,))),
     ({"A": 1}, {"C": 1}, 0.001, "direct", None, 11,
      (0.7404356002807617, 1048576, (1.0,))),
     ({"A": 1}, {"C": 1}, 0.05, "direct", _ROWS_1000, 11,
      ("RowBudgetExceededError", "fraction", 256, 1000,
       "subproblem 0 numerator: next batch would pass the row budget of "
       "1000 raw rows")),
     ({"C": 1}, {"A": 1}, 0.2, "selective", _ROWS_10000, 11,
      ("RowBudgetExceededError", "fraction", 12288, 10000,
       "subproblem 0 numerator: next batch would pass the row budget of "
       "10000 raw rows")),
     ({"C": 1}, {"A": 1}, 0.2, "selective", _ROWS_1000, 11,
      ("RowBudgetExceededError", "distribution", 512, 1000,
       "next batch would pass the row budget of 1000 raw rows")),
     ({"C": 1}, {"A": 1}, 0.2, "direct", None, 15,
      (0.84375, 32, (1.0,))),
     ({"A": 1}, {"B": 1}, 0.2, "direct", _GIBBS_3, 16,
      (0.84375, 32, (1.0,)))],
    ids=["rejection", "selective", "gibbs-past-2^18", "rejection-past-2^18",
         "budget-fraction",
         "budget-subproblem", "budget-distribution", "clamped-condition",
         "gibbs-barren"])
def test_random_streams_are_pinned(net_c, query, evidence, epsilon, strategy,
                                   config, seed, pinned):
    # Recorded at version 0.7.0, whose subproblem numerators and
    # denominators read one stream and whose rejection batches aim at the
    # next checkpoint; the Gibbs and clamped-condition cases and the
    # first rejection case are unchanged since 0.6.0. The three
    # row-budget errors were added at 0.8.0, whose budget replaced
    # 0.7.0's attempt cap; no answer or stop point of the other cases
    # moved, nor at 0.9.0, which removed the sample cap and its two
    # pinned errors. The past-2^18 cases run at
    # epsilon 0.001 so that a checkpoint still spans several 2^18-trial
    # chunks. The selective and past-2^18 answers were re-pinned at
    # 0.12.0, whose forward batches of 4,096 rows or more draw bytes;
    # their trial counts and stop points did not move. A change that
    # fails this changes a random stream or a stop point, so it bumps
    # the version and says so in CHANGES.md.
    try:
        result = infer(net_c, query, evidence, epsilon, 0.1, strategy,
                       config, seed)
    except RowBudgetExceededError as exc:
        got = (type(exc).__name__, exc.phase, exc.trials, exc.cap, str(exc))
    else:
        got = (result.estimate, result.trials_total, result.mu_s)
    assert got == pinned


def test_an_answer_builds_a_generator_only_for_the_streams_it_reads(
        net_c, monkeypatch):
    # infer's root source only derives the sources that draw: one for a
    # direct answer, and for a selective one the weights' and one per
    # subproblem.
    built = []
    generator = np.random.Generator

    def counted(bits):
        built.append(bits)
        return generator(bits)

    monkeypatch.setattr(np.random, "Generator", counted)
    infer(net_c, {"A": 1}, {"C": 1}, 0.2, 0.1, "direct", seed=11)
    assert len(built) == 1
    built.clear()
    result = infer(net_c, {"C": 1}, {"A": 1}, 0.2, 0.1, "selective", seed=12)
    assert len(built) == 1 + 2 ** len(result.selected_s) == 3


def test_the_certify_loop_checks_no_posterior_it_builds(net_c, monkeypatch):
    checked = []
    post_init = DirichletPosterior.__post_init__

    def counted(self):
        checked.append(self.counts)
        post_init(self)

    monkeypatch.setattr(DirichletPosterior, "__post_init__", counted)
    result = infer(net_c, {"C": 1}, {"A": 1}, 0.2, 0.1, "selective", seed=12)
    assert result.trials_total == 301568
    assert checked == []
    # A posterior that a caller builds is still checked, and so are the
    # rule's inputs.
    with pytest.raises(ValueError):
        DirichletPosterior((-1, 2))
    assert checked == [(-1, 2)]
    posterior = DirichletPosterior((3, 4))
    for epsilon, delta, category in ((0.0, 0.1, None), (0.2, 0.0, None),
                                     (0.2, 0.1, 2)):
        with pytest.raises(ValueError):
            should_stop(posterior, epsilon, delta, category)
