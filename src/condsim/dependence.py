"""Per-node probability bounds, dependence values, and the cost model.

For a node whose parents are only partially bound, the conditional
probability of seeing a given value ranges over an interval [lo, hi]
(one endpoint per reachable table row). The node's lambda compresses that
interval into a worst-case ratio, and the product of squared lambdas is
the network's dependence value for the bound set. The dependence value
feeds a two-term cost model that prices conditioning a set of nodes:
a simulation-difficulty term and a weight-estimation term.
"""

from dataclasses import dataclass
from collections.abc import Sequence
from math import inf

from .network import Assignment, BeliefNetwork, Cpt, check_disjoint


@dataclass(frozen=True)
class NodeBounds:
    """Extremes of one node's conditional probability over free parents."""

    lo: float
    hi: float


@dataclass(frozen=True)
class CostEstimate:
    """Predicted cost split of conditioning a node set.

    ``subproblem_term`` prices simulating all instantiations of the set;
    ``weight_term`` prices estimating the set's weight vector, using the
    analytic lower bound ``phi_min_bound`` for the rarest instantiation.
    """

    subproblem_term: float
    weight_term: float
    phi_min_bound: float


@dataclass(frozen=True)
class DependenceReport:
    """Bounds and lambda per node, and the resulting dependence value."""

    per_node: dict[str, tuple[NodeBounds, float]]
    value: float


def node_bounds(net: BeliefNetwork, node: str, node_value: int,
                fixed: Assignment) -> NodeBounds:
    """Range of Pr[node = node_value | parents] over free parent values.

    Parents bound in ``fixed`` are pinned to their values; the remaining
    parents range over both values. Bindings of the node itself or of
    non-parents are ignored.
    """
    if node_value not in (0, 1):
        raise ValueError(f"node value must be 0 or 1, got {node_value!r}")
    net.validate_assignment(fixed)
    return _bounds(net.cpt(node), node_value, fixed)


def _bounds(cpt: Cpt, node_value: int, fixed: Assignment) -> NodeBounds:
    """node_bounds for a table, with the value and binding checked."""
    # A row is reachable when its bits at the bound parents' places,
    # picked out by mask, hold their values.
    mask = want = 0
    for parent in cpt.parents:
        mask, want = mask << 1, want << 1
        if parent in fixed:
            mask, want = mask | 1, want | (fixed[parent] == 1)
    ps = [p for row, p in enumerate(cpt.rows) if row & mask == want]
    if node_value == 0:
        ps = [1.0 - p for p in ps]
    return NodeBounds(min(ps), max(ps))


def node_lambda(net: BeliefNetwork, node: str, fixed: Assignment,
                conditioning: Sequence[str] = ()) -> float:
    """Worst-case probability ratio contributed by one node.

    ``fixed`` binds nodes with known values (evidence); ``conditioning``
    names nodes that are held fixed but instantiated both ways, so they
    count as bound for the all-parents-bound rule while their own lambda
    takes the max over both value branches.

    Returns exactly 1.0 for parentless nodes and for nodes whose parents
    are all bound.
    """
    net.validate_assignment(fixed)
    cpt = net.cpt(node)
    bound = set(fixed) | set(conditioning)
    if all(p in bound for p in cpt.parents):
        return 1.0
    return _spread(_bounds(cpt, 1, fixed), fixed.get(node))


def _spread(b: NodeBounds, value: int | None) -> float:
    """The lambda of a node with a free parent and bounds ``b`` for value
    1: the ratio for its bound ``value``, or the larger one when it is
    unbound (None)."""
    if value is None:
        return max(b.hi / b.lo, (1.0 - b.lo) / (1.0 - b.hi))
    if value == 1:
        return b.hi / b.lo
    return (1.0 - b.lo) / (1.0 - b.hi)


def dependence_value(net: BeliefNetwork, fixed: Assignment,
                     conditioning: Sequence[str] = ()) -> DependenceReport:
    """Product over all nodes of lambda squared, with per-node detail.

    The report's bounds are for node value 1. The value is always >= 1 and
    never increases when more nodes are bound. Each node's bounds are
    taken once, and its lambda is node_lambda's.
    """
    net.validate_assignment(fixed)
    bound = set(fixed) | set(conditioning)
    per_node: dict[str, tuple[NodeBounds, float]] = {}
    value = 1.0
    for node, cpt in zip(net.nodes, net.cpts):
        b = _bounds(cpt, 1, fixed)
        lam = (1.0 if all(p in bound for p in cpt.parents)
               else _spread(b, fixed.get(node)))
        per_node[node] = (b, lam)
        value *= lam * lam
    return DependenceReport(per_node, value)


def _value_given(report: DependenceReport, net: BeliefNetwork,
                 bound) -> float:
    """dependence_value(net, fixed, conditioning).value, from ``report``,
    that of dependence_value(net, fixed); ``bound`` holds the nodes of
    both. Binding more nodes only sets to 1 the lambda of each node whose
    parents they all bind, and the product keeps its order."""
    value = 1.0
    for cpt, (_, lam) in zip(net.cpts, report.per_node.values()):
        if all(p in bound for p in cpt.parents):
            lam = 1.0
        value *= lam * lam
    return value


def phi_min_lower_bound(net: BeliefNetwork,
                        subset: Sequence[str]) -> float:
    """Analytic lower bound on the rarest joint instantiation of a set.

    The product over the set of min(lo, 1 - hi), with bounds taken over
    all parent configurations. Any full instantiation of the set has at
    least this probability, by the chain rule. Empty set: 1.
    """
    net.validate_nodes(subset)
    return _phi_floor(net, subset)


def _phi_floor(net: BeliefNetwork, nodes: Sequence[str]) -> float:
    """phi_min_lower_bound of checked nodes."""
    product = 1.0
    for node in nodes:
        rows = net.cpt(node).rows
        product *= min(min(rows), 1.0 - max(rows))
    return product


def predicted_cost(net: BeliefNetwork, evidence: Assignment,
                   conditioning: Sequence[str]) -> CostEstimate:
    """Two-term cost prediction for conditioning the given node set.

    subproblem_term = 2^|S| * D^4 with D the dependence value after
    binding evidence and the set, or infinity when D^4 overflows;
    weight_term = 2^|S| divided by the analytic lower bound on the
    rarest instantiation probability, or infinity when that bound
    underflows to 0.
    """
    check_disjoint(evidence, conditioning, "evidence and conditioning set")
    d = dependence_value(net, evidence, conditioning).value
    return _cost(d, len(conditioning),
                 phi_min_lower_bound(net, conditioning))


def _cost(d: float, s_size: int, phi_bound: float) -> CostEstimate:
    """predicted_cost from the dependence value D, |S| and phi_min's
    bound."""
    try:
        d4 = d ** 4
    except OverflowError:  # float ** raises where * would give inf
        d4 = inf
    scale = float(1 << s_size)
    return CostEstimate(subproblem_term=scale * d4,
                        weight_term=scale / phi_bound if phi_bound else inf,
                        phi_min_bound=phi_bound)


def satisfies_ras(phi: float, mu: float, epsilon: float) -> bool:
    """Whether mu approximates phi within relative factor (1 + epsilon).

    True iff phi / (1 + epsilon) <= mu <= phi * (1 + epsilon).
    """
    if phi <= 0.0:
        raise ValueError(f"phi must be positive, got {phi!r}")
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    return phi / (1.0 + epsilon) <= mu <= phi * (1.0 + epsilon)
