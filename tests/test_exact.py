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
from condsim.network import parse_network

from helpers import arcless_network, brute_marginal, random_network


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


def test_size_guard():
    big = arcless_network(26)
    with pytest.raises(NetworkTooLargeError):
        exact_marginal(big, {})


def test_chunked_enumeration_matches_closed_form():
    # 2^21 states take two enumeration chunks; node Z0 splits them.
    net = arcless_network(21)
    partial = {"Z0": 1, "Z7": 0, "Z20": 1}
    assert exact_marginal(net, partial) == pytest.approx(
        0.4 * 0.6 * 0.4, abs=1e-12)
    assert exact_distribution_over(net, ["Z20", "Z0"]) == pytest.approx(
        (0.36, 0.24, 0.24, 0.16), abs=1e-12)


def test_projection_guard():
    net = arcless_network(22)
    with pytest.raises(NetworkTooLargeError):
        exact_distribution_over(net, list(net.nodes)[:21])


def test_enumeration_is_deterministic(net_c):
    a = exact_marginal(net_c, {"C": 1})
    b = exact_marginal(net_c, {"C": 1})
    assert a == b
