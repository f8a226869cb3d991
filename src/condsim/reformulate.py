"""Conditioning-set selection and query reformulation.

A hard inference Pr[query | evidence] is split into easier pieces: a
greedy search picks a conditioning set S of parent nodes whose joint
distribution elimination can compute, that distribution is computed
once, exactly, each instantiation of S spawns a pair of
conditioned subproblems, and the weighted pieces recombine into a ratio
estimate whose relative-error and failure budgets compose to the
caller's epsilon and delta.
"""

from dataclasses import dataclass

from .dependence import (
    CostEstimate,
    DependenceReport,
    _cost,
    _phi_floor,
    _value_given,
    dependence_value,
)
from .errors import (
    LengthMismatchError,
    NetworkTooLargeError,
    OverlappingSetsError,
    RowBudgetExceededError,
    ZeroDenominatorError,
)
from .exact import _frontiers, exact_distribution_over
from .network import (
    Assignment,
    BeliefNetwork,
    ancestral_network,
    check_disjoint,
    relevant_network,
)
from .sampling import (
    DEFAULT_ROW_BUDGET,
    _MAX_CATEGORY_NODES,
    RandomSource,
    RasEstimate,
    TrialGeneratorKind,
    _RowAccount,
    _check_risk_params,
    _fractions,
    estimate_conditional_fraction,
)

DEFAULT_SEED = 271828182845

_STRATEGIES = ("direct", "selective", "auto")


def _check_greedy_settings(max_s: int) -> None:
    """greedy_select's settings rule, which InferConfig applies too."""
    if not 0 <= max_s <= _MAX_CATEGORY_NODES:
        raise ValueError(f"max_s must lie in 0..{_MAX_CATEGORY_NODES}, "
                         f"got {max_s!r}")


@dataclass(frozen=True, kw_only=True)
class InferConfig:
    """Tunables for infer; defaults suit networks of desk scale."""

    max_s: int = 12
    generator: TrialGeneratorKind = TrialGeneratorKind.rejection()
    row_budget: int = DEFAULT_ROW_BUDGET

    def __post_init__(self) -> None:
        _check_greedy_settings(self.max_s)
        if self.row_budget < 1:
            raise ValueError("row_budget (--row-budget) must be at least 1, "
                             f"got {self.row_budget!r}")


@dataclass(frozen=True)
class GreedyStep:
    """One accepted addition of a candidate's unbound parents."""

    node: str
    added: tuple[str, ...]
    lambda_before: float
    candidate_ratio: float
    cost_before: CostEstimate
    cost_after: CostEstimate


@dataclass(frozen=True)
class GreedyTrace:
    steps: tuple[GreedyStep, ...]
    stop_reason: str
    final_cost: CostEstimate


@dataclass(frozen=True)
class Subproblem:
    """One instantiation of the conditioning set with its two targets."""

    index: int
    instantiation: dict[str, int]
    numerator_target: dict[str, int]
    denominator_target: dict[str, int]


@dataclass(frozen=True)
class InferenceResult:
    """Estimate plus the full accounting needed to audit or rerun it."""

    estimate: float
    epsilon: float
    delta: float
    strategy_used: str
    selected_s: tuple[str, ...]
    mu_s: tuple[float, ...]
    weight_trials: int
    subproblem_estimates: tuple[tuple[RasEstimate, RasEstimate], ...]
    numerator: float
    denominator: float
    clamped: bool
    dependence_before: float
    dependence_after: float
    nodes_kept: int
    evidence_dropped: tuple[str, ...]
    trials_total: int
    seed: int
    greedy_trace: "GreedyTrace | None"


def greedy_select(net: BeliefNetwork, evidence: Assignment, *,
                  max_s: int = 12, exclude: tuple[str, ...] = (),
                  report: DependenceReport | None = None
                  ) -> tuple[tuple[str, ...], GreedyTrace]:
    """Pick a conditioning set that shrinks the dependence value.

    Each round scores every node i whose conditioned lambda exceeds 1:
    with u' its parents not yet bound, i is eligible when 2^|u'| is less
    than lambda, and the eligible candidate with the largest
    lambda / 2^|u'| wins (declaration order breaks ties). The
    search stops when no candidate is eligible ("no eligible
    candidate"), or when the next addition would push |S| past max_s
    ("size cap reached"), give S an ancestral closure on which
    elimination of Pr[S] is refused ("weights would not fit
    elimination"), or not lower the subproblem term 2^|S| * D^4 ("total
    cost not lowered"). So infer always computes the weights exactly,
    and they add nothing to the price; each cost still reports
    ``weight_term``, the paper's price of logic-sampling them.
    Nodes in ``exclude`` never enter S, so query nodes can be kept out of
    the conditioning set. Every lambda and cost comes from ``report``,
    dependence_value(net, evidence), which is computed when not given.
    """
    _check_greedy_settings(max_s)
    net.validate_assignment(evidence)
    if report is None:
        report = dependence_value(net, evidence)
    bound = set(evidence)
    kept_out = set(exclude)
    selected: list[str] = []
    steps: list[GreedyStep] = []

    def cost(s_nodes):  # predicted_cost(net, evidence, s_nodes)
        return _cost(_value_given(report, net, bound.union(s_nodes)),
                     len(s_nodes), _phi_floor(net, s_nodes))

    cost_now = cost(())
    while True:
        best = None
        for rank, (name, cpt) in enumerate(zip(net.nodes, net.cpts)):
            # node_lambda(net, name, evidence, selected): 1 once every
            # parent is bound.
            unbound = tuple(p for p in cpt.parents
                            if p not in bound and p not in selected)
            lam = report.per_node[name][1]
            if lam <= 1.0 or not unbound:
                continue
            if any(p in kept_out for p in unbound):
                continue
            subsets = float(1 << len(unbound))
            if not subsets < lam:
                continue
            key = (lam / subsets, -rank)
            if best is None or key > best[0]:
                best = (key, name, unbound, lam)
        if best is None:
            reason = "no eligible candidate"
            break
        _, name, unbound, lam = best
        s_after = (*selected, *unbound)
        if len(s_after) > max_s:
            reason = "size cap reached"
            break
        try:
            _frontiers(ancestral_network(net, s_after), s_after)
        except NetworkTooLargeError:
            reason = "weights would not fit elimination"
            break
        after = cost(s_after)
        if not after.subproblem_term < cost_now.subproblem_term:
            reason = "total cost not lowered"
            break
        steps.append(GreedyStep(name, unbound, lam, best[0][0],
                                cost_now, after))
        selected.extend(unbound)
        cost_now = after
    trace = GreedyTrace(tuple(steps), reason, cost_now)
    return tuple(selected), trace


def decompose(net: BeliefNetwork, query: Assignment, evidence: Assignment,
              s_nodes: tuple[str, ...]) -> list[Subproblem]:
    """One subproblem per instantiation of the conditioning set.

    Index i encodes the instantiation in binary with the first listed
    node as the most significant bit. Every subproblem shares the same
    numerator target (query plus evidence) and denominator target
    (evidence); its trial condition is the instantiation alone.
    """
    net.validate_assignment(query)
    net.validate_assignment(evidence)
    for name in s_nodes:
        net.index(name)
    numerator_target = {**query, **evidence}
    check_disjoint(query, evidence, "query and evidence")
    check_disjoint(s_nodes, numerator_target,
                   "conditioning set and query or evidence")
    if len(set(s_nodes)) != len(s_nodes):
        raise OverlappingSetsError("conditioning set repeats a node")
    width = len(s_nodes)
    out = []
    for index in range(1 << width):
        inst = {name: (index >> (width - 1 - pos)) & 1
                for pos, name in enumerate(s_nodes)}
        out.append(Subproblem(index, inst, dict(numerator_target),
                              dict(evidence)))
    return out


def combine_weighted(sub_values: "list[float] | tuple[float, ...]",
                     weights: "list[float] | tuple[float, ...]") -> float:
    """Weighted sum accumulated in index order."""
    if len(sub_values) != len(weights):
        raise LengthMismatchError(
            f"{len(sub_values)} values against {len(weights)} weights")
    if any(w < 0.0 for w in weights):
        raise ValueError("weights must be nonnegative")
    total = 0.0
    for value, weight in zip(sub_values, weights):
        total += value * weight
    return total


def bayes_ratio(numerator: float,
                denominator: float) -> tuple[float, bool]:
    """numerator / denominator clamped into [0, 1], with a clamp flag."""
    if denominator <= 0.0:
        raise ZeroDenominatorError(
            f"denominator must be positive, got {denominator!r}")
    if numerator < 0.0:
        raise ValueError(f"numerator must be nonnegative: {numerator!r}")
    value = numerator / denominator
    if value > 1.0:
        return 1.0, True
    return value, False


def _budget_split(epsilon: float, delta: float,
                  s_size: int) -> tuple[float, float]:
    """Stage epsilon and per-subproblem delta whose composition meets
    (epsilon, delta).

    These are the paper's budgets, split for logic-sampled weights: both
    sums and their ratio multiply (1 + e) factors, so each stage runs at
    (1 + epsilon)^(1/4) - 1; failure probabilities add, so the weight
    phase gets delta/2 and each of the 2 * 2^s_size subproblem estimates
    gets delta / (4 * 2^s_size). infer computes the weights exactly,
    with no error and no failure, so the weight phase's stage factor and
    delta/2 are not spent: every estimate certifies at these budgets,
    and the answer meets (epsilon, delta) with room to spare.
    """
    stage_eps = (1.0 + epsilon) ** 0.25 - 1.0
    return stage_eps, delta / (4.0 * (1 << s_size))


def infer(net: BeliefNetwork, query: Assignment, evidence: Assignment,
          epsilon: float, delta: float, strategy: str = "auto",
          config: InferConfig | None = None,
          seed: int = DEFAULT_SEED) -> InferenceResult:
    """Estimate Pr[query | evidence] to relative error epsilon with
    failure probability at most delta.

    The direct strategy scores trials conditioned on the evidence. The
    selective strategy reformulates through the greedy conditioning set:
    each instantiation s of S contributes certified numerator and
    denominator fractions, read from one conditioned stream (subproblem
    i reads stream i + 1), and the sums weighted by mu_s = Pr[S = s]
    meet in a clamped ratio. Auto picks selective exactly when the
    greedy set is nonempty. Equal arguments and seed reproduce the
    result bit for bit. All of it runs on relevant_network's problem:
    the evidence the query does not depend on is dropped
    (``evidence_dropped``, in declaration order), and the ancestral
    closure of the query and kept evidence (``nodes_kept`` nodes) is
    kept; the rest is barren.

    The weights depart from the paper, which estimates them by logic
    sampling (sampling.estimate_distribution_over): they are computed
    exactly, by elimination on the ancestral closure of S, which
    greedy_select keeps within elimination's reach. ``weight_trials``
    is always 0 and stream 0 is left unread. The stage budgets are
    still _budget_split's, the paper's.

    One row budget, ``config.row_budget``, bounds the whole run: every
    stream a selective run reads charges its raw rows to one account. A
    direct run reads one stream. A selective run whose stage epsilon or
    delta underflows to 0 is refused with a ValueError before it draws.
    A :class:`RowBudgetExceededError` from a subproblem estimate is
    raised again with the trials the whole run had scored, its message
    naming the subproblem and its first unfinished reader, the numerator
    or the denominator.
    """
    if config is None:
        config = InferConfig()
    if strategy not in _STRATEGIES:
        raise ValueError(f"strategy must be one of {_STRATEGIES}, "
                         f"got {strategy!r}")
    _check_risk_params(epsilon, delta)
    net.validate_assignment(query)
    net.validate_assignment(evidence)
    if not query:
        raise ValueError("query must bind at least one node")
    check_disjoint(query, evidence, "query and evidence")
    pruned, kept = relevant_network(net, query, evidence)
    dropped = tuple(sorted(evidence.keys() - kept.keys(), key=net.index))
    net, evidence = pruned, kept
    root = RandomSource(seed)
    report = dependence_value(net, evidence)

    scored = 0

    def certified(label, estimate, *args, **kwargs):
        # A budget error counts the trials the whole run had scored.
        try:
            return estimate(*args, **kwargs)
        except RowBudgetExceededError as exc:
            raise RowBudgetExceededError(
                f"{label}{exc}", phase=exc.phase,
                trials=scored + exc.trials, cap=exc.cap) from exc

    trace: GreedyTrace | None = None
    selected: tuple[str, ...] = ()
    if strategy != "direct":
        selected, trace = greedy_select(net, evidence, max_s=config.max_s,
                                        exclude=tuple(query), report=report)
    use_selective = (strategy == "selective"
                     or (strategy == "auto" and bool(selected)))
    mu_s = (exact_distribution_over(ancestral_network(net, selected),
                                    selected) if selected else (1.0,))

    if use_selective:
        stage_eps, delta_s = _budget_split(epsilon, delta, len(selected))
        if not (stage_eps > 0.0 and delta_s > 0.0):
            raise ValueError(
                f"epsilon {epsilon!r} and delta {delta!r} split over "
                f"|S| = {len(selected)} give a stage epsilon of "
                f"{stage_eps!r} and a subproblem delta of {delta_s!r}; "
                "both must be positive")
        account = _RowAccount(config.row_budget)
        pairs = []
        for sub in decompose(net, query, evidence, selected):
            # Subproblem i reads stream i + 1; its numerator and
            # denominator are two readers of it.
            fractions = certified(
                f"subproblem {sub.index} ", _fractions, net,
                {"numerator": sub.numerator_target,
                 "denominator": sub.denominator_target},
                sub.instantiation, stage_eps, delta_s, config.generator,
                root.derive(sub.index + 1), account)
            pairs.append((fractions["numerator"], fractions["denominator"]))
            scored += sum(est.trials for est in fractions.values())
        dependence_after = _value_given(report, net, {*evidence, *selected})
    else:
        # One subproblem of weight 1 whose denominator is exactly 1.
        pairs = [(certified("subproblem 0 numerator: ",
                            estimate_conditional_fraction, net, query,
                            evidence, epsilon, delta, config.generator,
                            root.derive(1), row_budget=config.row_budget),
                  RasEstimate(1.0, epsilon, delta, 0, 0))]
        dependence_after = report.value
    numerator = combine_weighted([num.value for num, _ in pairs], mu_s)
    denominator = combine_weighted([den.value for _, den in pairs], mu_s)
    estimate, clamped = bayes_ratio(numerator, denominator)
    return InferenceResult(
        estimate=estimate, epsilon=epsilon, delta=delta,
        strategy_used="selective" if use_selective else "direct",
        selected_s=selected, mu_s=mu_s, weight_trials=0,
        subproblem_estimates=tuple(pairs), numerator=numerator,
        denominator=denominator, clamped=clamped,
        dependence_before=report.value,
        dependence_after=dependence_after, nodes_kept=net.n,
        evidence_dropped=dropped,
        trials_total=sum(num.trials + den.trials for num, den in pairs),
        seed=seed, greedy_trace=trace)
