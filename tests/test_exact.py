import tracemalloc

import numpy as np
import pytest

from condsim import (
    exact_conditional,
    exact_distribution_over,
    exact_marginal,
)
from condsim.errors import (
    NetworkTooLargeError,
    OverlappingSetsError,
    ZeroDenominatorError,
)
from condsim.network import BeliefNetwork, Cpt, parse_network

from helpers import (
    arcless_network,
    brute_marginal,
    random_chain,
    random_network,
    wide_network,
)


def test_marginal_reference_values(net_a):
    assert exact_marginal(net_a, {"B": 1}) == pytest.approx(0.41, abs=1e-12)
    assert exact_marginal(net_a, {}) == pytest.approx(1.0, abs=1e-12)
    assert exact_marginal(net_a, {"A": 1, "B": 1}) == pytest.approx(
        0.27, abs=1e-12)


def test_conditional_reference_values(net_a, net_c):
    assert exact_conditional(net_a, {"A": 1}, {"B": 1}) == pytest.approx(
        27 / 41, abs=1e-12)
    assert exact_conditional(net_a, {"A": 1}, {}) == pytest.approx(0.3)
    # rows of net_c are symmetric around one half
    assert exact_conditional(net_c, {"C": 1}, {}) == pytest.approx(
        0.5, abs=1e-12)


def test_conditional_rejects_overlap(net_a):
    with pytest.raises(OverlappingSetsError):
        exact_conditional(net_a, {"A": 1}, {"A": 0, "B": 1})


def test_conditional_with_underflowing_evidence_raises():
    # Pr[A=1, B=1] = 1e-600 is 0 in floating point; Pr[A=1] is not.
    net = parse_network("network x\nnode A\nprior A : 1e-300\n"
                        "node B\nprior B : 1e-300\nnode C\nprior C : 0.5\n")
    with pytest.raises(ZeroDenominatorError, match="underflows"):
        exact_conditional(net, {"C": 1}, {"A": 1, "B": 1})
    assert exact_conditional(net, {"C": 1}, {"A": 1}) == pytest.approx(0.5)


def test_distribution_reference_values(net_a, net_c):
    assert exact_distribution_over(net_a, ["A"]) == pytest.approx(
        (0.7, 0.3), abs=1e-12)
    assert exact_distribution_over(net_a, []) == (1.0,)
    assert exact_distribution_over(net_c, ["A", "B"]) == pytest.approx(
        (0.45, 0.05, 0.05, 0.45), abs=1e-12)


def test_distribution_entries_positive_and_normalized():
    gen = np.random.Generator(np.random.PCG64(23))
    for _ in range(20):
        net = random_network(gen, int(gen.integers(2, 10)))
        size = int(gen.integers(1, min(4, net.n) + 1))
        subset = [net.nodes[j]
                  for j in gen.choice(net.n, size=size, replace=False)]
        dist = exact_distribution_over(net, subset)
        assert all(p > 0.0 for p in dist)
        assert sum(dist) == pytest.approx(1.0, abs=1e-9)


def test_marginal_matches_brute_enumeration():
    gen = np.random.Generator(np.random.PCG64(31))
    for _ in range(30):
        net = random_network(gen, int(gen.integers(2, 9)))
        k = int(gen.integers(0, net.n + 1))
        picks = gen.choice(net.n, size=k, replace=False)
        partial = {net.nodes[j]: int(gen.integers(0, 2)) for j in picks}
        assert exact_marginal(net, partial) == pytest.approx(
            brute_marginal(net, partial), abs=1e-12)


def test_chain_rule_identity():
    gen = np.random.Generator(np.random.PCG64(37))
    for _ in range(20):
        net = random_network(gen, int(gen.integers(3, 10)))
        order = list(gen.permutation(net.n))
        target = {net.nodes[order[0]]: int(gen.integers(0, 2))}
        evidence = {net.nodes[j]: int(gen.integers(0, 2))
                    for j in order[1:3]}
        lhs = exact_marginal(net, {**target, **evidence})
        rhs = (exact_conditional(net, target, evidence)
               * exact_marginal(net, evidence))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_width_guard():
    with pytest.raises(NetworkTooLargeError, match="21 > 20 live nodes"):
        exact_marginal(wide_network(21), {})
    # Binding a root takes its axis off the frontier.
    assert exact_marginal(wide_network(21), {"R0": 1}) == pytest.approx(
        0.3, rel=1e-12)
    assert exact_marginal(wide_network(20), {}) == pytest.approx(
        1.0, rel=1e-12)


def test_chunked_enumeration_matches_closed_form():
    # 2^21 states take two enumeration chunks; node Z0 splits them.
    net = arcless_network(21)
    partial = {"Z0": 1, "Z7": 0, "Z20": 1}
    assert exact_marginal(net, partial) == pytest.approx(
        0.4 * 0.6 * 0.4, abs=1e-12)
    assert exact_distribution_over(net, ["Z20", "Z0"]) == pytest.approx(
        (0.36, 0.24, 0.24, 0.16), abs=1e-12)


def test_projection_of_twenty_nodes_answers():
    net = arcless_network(22)
    dist = exact_distribution_over(net, list(net.nodes)[:20])
    assert len(dist) == 2 ** 20
    assert dist[-1] == pytest.approx(0.4 ** 20, rel=1e-12, abs=0)


def test_projection_guard():
    net = arcless_network(22)
    with pytest.raises(NetworkTooLargeError):
        exact_distribution_over(net, list(net.nodes)[:21])


def test_enumeration_is_deterministic(net_c):
    a = exact_marginal(net_c, {"C": 1})
    b = exact_marginal(net_c, {"C": 1})
    assert a == b


def _reversed_parents(net):
    """The same nodes and rows with each parent list reversed, so that
    parents stop being listed in declaration order."""
    return BeliefNetwork(net.name, net.nodes, tuple(
        Cpt(cpt.parents[::-1], cpt.rows) for cpt in net.cpts))


def test_every_state_is_the_declaration_order_product():
    gen = np.random.Generator(np.random.PCG64(41))
    for n in range(1, 13):
        net = random_network(gen, n, max_parents=3)
        if n % 2:
            net = _reversed_parents(net)
        subset = [net.nodes[j] for j in gen.permutation(n)]
        for i, p in enumerate(exact_distribution_over(net, subset)):
            state = {x: (i >> (n - 1 - k)) & 1 for k, x in enumerate(subset)}
            assert p == brute_marginal(net, state), (n, i)


def test_entries_past_twenty_nodes_match_brute_force():
    # 21 to 23 nodes, with kept and bound nodes drawn both from the first
    # n - 20 nodes and from the rest.
    gen = np.random.Generator(np.random.PCG64(43))
    for n in (21, 22, 23):
        net = _reversed_parents(random_network(gen, n, max_parents=3))
        high = n - 20
        inside = [int(c) for c in gen.permutation(high)]
        outside = [int(c) for c in gen.permutation(range(high, n))]
        picks = [inside[0], *outside[:14]]
        subset = [net.nodes[c] for c in gen.permutation(picks)]
        dist = exact_distribution_over(net, subset)
        for i in gen.choice(len(dist), size=6, replace=False):
            entry = {x: (int(i) >> (len(subset) - 1 - k)) & 1
                     for k, x in enumerate(subset)}
            assert dist[i] == pytest.approx(
                brute_marginal(net, entry), rel=1e-12, abs=0), (n, i)
        bound = {net.nodes[c]: int(gen.integers(0, 2))
                 for c in (*inside[-1:], *outside[-13:])}
        target = dict([bound.popitem()])
        assert exact_marginal(net, bound) == pytest.approx(
            brute_marginal(net, bound), rel=1e-12, abs=0), n
        assert exact_conditional(net, target, bound) == pytest.approx(
            brute_marginal(net, {**target, **bound})
            / brute_marginal(net, bound), rel=1e-12, abs=0), n


def _transfer(net, first, last):
    """Entry (a, b) is Pr[N<first> = a, N<last> = b] on a chain, from its
    2x2 transfer matrices."""
    prior = net.cpts[0].rows[0]
    marginal = np.array([1.0 - prior, prior])
    steps = [np.array([[1.0 - p, p] for p in cpt.rows])
             for cpt in net.cpts[1:]]
    for step in steps[:first]:
        marginal = marginal @ step
    joint = np.diag(marginal)
    for step in steps[first:last]:
        joint = joint @ step
    return joint


def test_long_chain_matches_transfer_matrices():
    net = random_chain(np.random.Generator(np.random.PCG64(53)), 200)
    joint = _transfer(net, 0, 199)
    assert exact_distribution_over(net, ["N0", "N199"]) == pytest.approx(
        tuple(joint.ravel()), rel=1e-12, abs=0)
    assert exact_conditional(net, {"N0": 1}, {"N199": 1}) == pytest.approx(
        joint[1, 1] / joint[:, 1].sum(), rel=1e-12, abs=0)
    # Four links apart, N100 and N104 are still strongly dependent.
    near = _transfer(net, 100, 104)
    assert exact_distribution_over(net, ["N104", "N100"]) == pytest.approx(
        tuple(near.T.ravel()), rel=1e-12, abs=0)


def test_arcless_network_of_300_nodes_matches_closed_form():
    net = arcless_network(300)
    bound = {f"Z{i}": i % 2 for i in range(0, 300, 3)}
    assert exact_marginal(net, bound) == pytest.approx(
        0.4 ** 50 * 0.6 ** 50, rel=1e-12, abs=0)
    assert exact_conditional(net, {"Z1": 1}, bound) == pytest.approx(
        0.4, rel=1e-12, abs=0)
    assert exact_distribution_over(net, ["Z299", "Z0"]) == pytest.approx(
        (0.36, 0.24, 0.24, 0.16), rel=1e-12, abs=0)


def test_calls_hold_no_state_arrays():
    net = random_network(np.random.Generator(np.random.PCG64(47)), 22)
    calls = (
        lambda: exact_marginal(net, {"N0": 1, "N21": 0}),
        lambda: exact_conditional(net, {"N5": 1}, {"N1": 0, "N20": 1}),
        lambda: exact_distribution_over(net, ["N21", "N0", "N9"]),
    )
    tracemalloc.start()
    try:
        for call in calls:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            call()
            held, peak = tracemalloc.get_traced_memory()
            assert held - before < 2 ** 20
            assert peak - before < 32 * 2 ** 20
    finally:
        tracemalloc.stop()
