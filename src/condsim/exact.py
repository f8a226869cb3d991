"""Exact inference by full enumeration, for checking sampled answers.

Every query is answered by summing the joint probability over complete
assignments, so cost grows as 2**n. Calls are refused above the size
guards (25 nodes, 20 projection nodes). Each chunk's joint is a running
product of CPT tables in declaration order, summed in a fixed order, so
repeated calls return bit-identical values; no state array outlives a call.
"""

from functools import lru_cache

import numpy as np

from .errors import NetworkTooLargeError, ZeroDenominatorError
from .network import Assignment, BeliefNetwork, check_disjoint

MAX_NODES = 25
MAX_PROJECTION = 20

# Nodes that vary within one enumeration chunk; the first n - 20 nodes
# are fixed per chunk, so networks up to 20 nodes take a single chunk.
_CHUNK_BITS = 20


def _guard(net: BeliefNetwork) -> None:
    if net.n > MAX_NODES:
        raise NetworkTooLargeError(
            f"exact enumeration refuses n = {net.n} > {MAX_NODES} nodes")


@lru_cache(maxsize=64)
def _tables(net: BeliefNetwork) -> tuple[tuple[list[int], np.ndarray], ...]:
    """Per node: its family in declaration order, and its CPT as a table
    with one length-2 axis per member in that order: ``rows`` reshaped
    (first parent first), then the node's own axis of 1 - p and p."""
    tables = []
    for i, cpt in enumerate(net.cpts):
        family = [net.index(parent) for parent in cpt.parents] + [i]
        rows = np.asarray(cpt.rows, dtype=np.float64)
        table = np.stack([1.0 - rows, rows], -1).reshape((2,) * len(family))
        tables.append((sorted(family), table.transpose(np.argsort(family))))
    return tuple(tables)


def _project(net: BeliefNetwork, keep: tuple[str, ...],
             fix: Assignment) -> np.ndarray:
    """Joint mass of the states that satisfy ``fix``, by values of ``keep``.

    The result has one length-2 axis per kept node, in ``keep`` order;
    ``keep`` and ``fix`` name disjoint nodes. A chunk's joint is the
    running product from 1.0 of the CPT tables in declaration order, each
    sliced at the nodes that ``fix`` or the chunk binds; a free node adds
    an axis. The nodes not kept are summed out one axis at a time, so a
    total's rounding error grows with the logarithm of the number of
    states, not with the number. No chunk outlives the call.
    """
    high = max(0, net.n - _CHUNK_BITS)
    kept = [net.index(node) for node in keep]
    fixed = {net.index(node): value for node, value in fix.items()}
    free = [c for c in range(high, net.n) if c not in fixed]
    inner = [c for c in free if c in kept]
    order = [inner.index(c) for c in kept if c >= high]
    mass = np.zeros((2,) * len(kept))
    for chunk in range(1 << high):
        top = [(chunk >> (high - 1 - c)) & 1 for c in range(high)]
        if any(top[c] != v for c, v in fixed.items() if c < high):
            continue
        bound = {**dict(enumerate(top)), **fixed}
        part = np.ones((1,) * len(free))
        for family, table in _tables(net):
            factor = table[tuple([bound.get(c, slice(None)) for c in family])]
            part = part * factor.reshape(
                [2 if c in family else 1 for c in free])
        for axis in reversed(range(len(free))):
            if free[axis] not in inner:
                part = part.sum(axis=axis)
        mass[tuple(top[c] if c < high else slice(None) for c in kept)] += \
            part.transpose(order)
    return mass


def exact_marginal(net: BeliefNetwork, partial: Assignment) -> float:
    """Exact probability that every binding in ``partial`` holds."""
    _guard(net)
    net.validate_assignment(partial)
    return float(_project(net, (), partial))


def exact_conditional(net: BeliefNetwork, target: Assignment,
                      evidence: Assignment) -> float:
    """Exact Pr[target | evidence].

    ``target`` and ``evidence`` must bind disjoint node sets. Table
    entries are strictly inside (0, 1), so Pr[evidence] > 0, but its
    float value can underflow to 0; that raises ZeroDenominatorError.
    """
    _guard(net)
    check_disjoint(target, evidence, "target and evidence")
    merged = {**target, **evidence}
    denominator = exact_marginal(net, evidence)
    if denominator == 0.0:
        raise ZeroDenominatorError("Pr[evidence] underflows to 0")
    return exact_marginal(net, merged) / denominator


def exact_distribution_over(net: BeliefNetwork,
                            subset: list[str] | tuple[str, ...]
                            ) -> tuple[float, ...]:
    """Exact joint distribution over every instantiation of ``subset``.

    Entry i is the marginal probability of the i-th instantiation, where i
    reads the subset values as a binary number with the first listed node
    as the most significant bit.
    """
    _guard(net)
    net.validate_nodes(subset)
    if len(subset) > MAX_PROJECTION:
        raise NetworkTooLargeError(
            f"projection over {len(subset)} > {MAX_PROJECTION} nodes")
    return tuple(float(p) for p in _project(net, tuple(subset), {}).ravel())
