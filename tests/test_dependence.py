import math

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condsim import (
    dependence_value,
    exact_distribution_over,
    node_bounds,
    node_lambda,
    parse_network,
    phi_min_lower_bound,
    predicted_cost,
    satisfies_ras,
)
from condsim.dependence import _value_given
from condsim.errors import OverlappingSetsError
from condsim.network import conditional_row
from condsim.reformulate import greedy_select

from helpers import arcless_network, random_network


def test_node_bounds_reference_values(net_a):
    b = node_bounds(net_a, "B", 1, {})
    assert (b.lo, b.hi) == (0.2, 0.9)
    b = node_bounds(net_a, "B", 1, {"A": 1})
    assert (b.lo, b.hi) == (0.9, 0.9)
    b = node_bounds(net_a, "A", 1, {})
    assert (b.lo, b.hi) == (0.3, 0.3)


def test_node_bounds_value_zero_complements(net_a):
    b = node_bounds(net_a, "B", 0, {})
    assert b.lo == pytest.approx(0.1)
    assert b.hi == pytest.approx(0.8)


def test_lambda_reference_values(net_a):
    assert node_lambda(net_a, "B", {}) == pytest.approx(8.0)
    assert node_lambda(net_a, "A", {}) == 1.0
    assert node_lambda(net_a, "B", {"B": 1}) == pytest.approx(4.5)


def test_lambda_evidence_value_zero(net_a):
    # bound to 0 the ratio uses the complements: 0.8 / 0.1
    assert node_lambda(net_a, "B", {"B": 0}) == pytest.approx(8.0)


def test_lambda_one_when_parents_bound(net_a):
    assert node_lambda(net_a, "B", {"A": 0}) == 1.0
    assert node_lambda(net_a, "B", {}, conditioning=("A",)) == 1.0


def test_dependence_reference_values(net_a):
    assert dependence_value(net_a, {}).value == pytest.approx(64.0)
    assert dependence_value(arcless_network(5), {}).value == 1.0
    assert dependence_value(net_a, {"B": 1}).value == pytest.approx(20.25)


def test_dependence_report_is_product_of_squared_lambdas(net_c):
    report = dependence_value(net_c, {})
    product = math.prod(lam * lam for _, lam in report.per_node.values())
    assert report.value == pytest.approx(product, rel=1e-9)
    assert report.value == pytest.approx(1296.0)


def test_dependence_with_conditioning(net_c):
    assert dependence_value(net_c, {}, conditioning=("A", "B")).value == 1.0


def test_phi_min_lower_bound_reference_values(net_a, net_c):
    assert phi_min_lower_bound(net_a, ["A"]) == pytest.approx(0.3)
    assert phi_min_lower_bound(net_c, ["A", "B"]) == pytest.approx(0.05)
    assert phi_min_lower_bound(net_a, []) == 1.0


def test_phi_min_bound_never_exceeds_true_minimum():
    gen = np.random.Generator(np.random.PCG64(41))
    for _ in range(50):
        net = random_network(gen, int(gen.integers(2, 11)))
        size = int(gen.integers(1, min(4, net.n) + 1))
        subset = [net.nodes[j]
                  for j in gen.choice(net.n, size=size, replace=False)]
        bound = phi_min_lower_bound(net, subset)
        assert bound <= min(exact_distribution_over(net, subset)) + 1e-12


def test_predicted_cost_reference_values(net_c):
    cost = predicted_cost(net_c, {}, ["A", "B"])
    assert cost.subproblem_term == pytest.approx(4.0)
    assert cost.weight_term == pytest.approx(80.0)
    assert cost.phi_min_bound == pytest.approx(0.05)
    empty = predicted_cost(net_c, {}, [])
    assert empty.subproblem_term == pytest.approx(1296.0 ** 4, rel=1e-9)
    assert empty.weight_term == 1.0
    one = predicted_cost(arcless_network(1), {}, [])
    assert (one.subproblem_term, one.weight_term) == (1.0, 1.0)
    # The weight term of a set whose phi_min bound underflows is infinite.
    tiny = parse_network("network tiny\nnode A\nprior A : 1e-200\n"
                         "node B\nprior B : 1e-200\n")
    cost = predicted_cost(tiny, {}, ["A", "B"])
    assert (cost.subproblem_term, cost.weight_term) == (4.0, math.inf)
    assert cost.phi_min_bound == 0.0
    # D = 2.5e79, so D^4 overflows a float: the subproblem term is
    # infinite, and conditioning on A brings it back to 2.
    steep = parse_network("network steep\nnode A\nprior A : 0.5\nnode B\n"
                          "parents B : A\ncpt B : 1e-40 0.5\n")
    assert predicted_cost(steep, {}, []).subproblem_term == math.inf
    assert predicted_cost(steep, {}, ["A"]).subproblem_term == 2.0


def test_predicted_cost_rejects_overlap(net_a):
    with pytest.raises(OverlappingSetsError):
        predicted_cost(net_a, {"A": 1}, ["A"])


def test_satisfies_ras_reference_values():
    assert satisfies_ras(0.5, 0.5, 0.01)
    assert not satisfies_ras(0.5, 0.56, 0.1)
    assert satisfies_ras(0.5, 0.46, 0.1)


def test_satisfies_ras_interval_endpoints():
    assert satisfies_ras(0.5, 0.55, 0.1)
    assert satisfies_ras(0.5, 0.5 / 1.1, 0.1)
    assert not satisfies_ras(0.5, 0.551, 0.1)


def test_satisfies_ras_exact_estimate_always_passes():
    gen = np.random.Generator(np.random.PCG64(43))
    for _ in range(100):
        phi = float(gen.uniform(1e-6, 1 - 1e-6))
        eps = float(gen.uniform(1e-3, 2.0))
        assert satisfies_ras(phi, phi, eps)


def test_dependence_at_least_one_and_monotone():
    gen = np.random.Generator(np.random.PCG64(47))
    for _ in range(100):
        net = random_network(gen, int(gen.integers(2, 10)))
        k = int(gen.integers(0, net.n + 1))
        picks = list(gen.choice(net.n, size=k, replace=False))
        larger = {net.nodes[j]: int(gen.integers(0, 2)) for j in picks}
        keep = int(gen.integers(0, len(picks) + 1)) if picks else 0
        smaller = {name: larger[name]
                   for name in list(larger)[:keep]}
        d_large = dependence_value(net, larger).value
        d_small = dependence_value(net, smaller).value
        assert d_large >= 1.0 - 1e-12
        assert d_large <= d_small + 1e-9 * d_small


def test_lambda_at_least_one_everywhere():
    gen = np.random.Generator(np.random.PCG64(53))
    for _ in range(50):
        net = random_network(gen, int(gen.integers(2, 10)))
        fixed = {name: int(gen.integers(0, 2))
                 for name in net.nodes if gen.random() < 0.3}
        for name in net.nodes:
            assert node_lambda(net, name, fixed) >= 1.0


@st.composite
def bound_networks(draw):
    """A network of 1 to 7 nodes with up to 3 parents each, evidence, and
    a conditioning set disjoint from it."""
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    net = random_network(gen, draw(st.integers(1, 7)), max_parents=3,
                         lo=0.01, hi=0.99)
    bound = draw(st.lists(st.sampled_from(net.nodes), unique=True))
    split = draw(st.integers(0, len(bound)))
    evidence = {name: draw(st.integers(0, 1)) for name in bound[:split]}
    return net, evidence, tuple(bound[split:])


def _brute_bounds(net, node, fixed):
    """Extremes of Pr[node = 1 | parents] over every parent row that
    agrees with ``fixed``, by table lookups."""
    parents = net.parents(node)
    ps = [conditional_row(net, node, 1, dict(zip(parents, values)))
          for values in itertools.product((0, 1), repeat=len(parents))
          if all(fixed.get(p, v) == v for p, v in zip(parents, values))]
    return min(ps), max(ps)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(bound_networks())
def test_one_dependence_pass_is_the_per_node_functions(case):
    # Floats compare exactly, so each equality holds bit for bit.
    net, fixed, conditioning = case
    report = dependence_value(net, fixed, conditioning)
    for v in net.nodes:
        bounds, lam = report.per_node[v]
        assert (bounds, lam) == (node_bounds(net, v, 1, fixed),
                                 node_lambda(net, v, fixed, conditioning))
        assert (bounds.lo, bounds.hi) == _brute_bounds(net, v, fixed)
    # Greedy and infer price a set from the report without it.
    alone = dependence_value(net, fixed)
    assert _value_given(alone, net, {*fixed, *conditioning}) == report.value
    selected, trace = greedy_select(net, fixed)
    chosen: tuple[str, ...] = ()
    for step in trace.steps:
        assert step.cost_before == predicted_cost(net, fixed, chosen)
        chosen += step.added
        assert step.cost_after == predicted_cost(net, fixed, chosen)
    assert trace.final_cost == predicted_cost(net, fixed, selected)
