"""Exact inference by variable elimination, for checking sampled answers.

The CPT tables are multiplied from 1.0 in declaration order, and each
node not kept is summed out right after the table of its last child, so
cost grows as 2**(frontier width), not 2**n. Calls whose live frontier,
kept nodes included, would pass MAX_WIDTH nodes are refused. The order of
products and sums is fixed, so repeated calls return bit-identical
values; no table outlives a call.
"""

from functools import lru_cache

import numpy as np

from .errors import NetworkTooLargeError, ZeroDenominatorError
from .network import Assignment, BeliefNetwork, check_disjoint

# Live nodes after each table: 2**20 doubles, 8 MB.
MAX_WIDTH = 20


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
    ``keep`` and ``fix`` name disjoint nodes. The running product from
    1.0 takes the CPT tables in declaration order, each sliced at the
    nodes that ``fix`` binds, so a free node adds an axis at its own
    table. A node not kept is summed out, one axis at a time, after the
    last table that reads it. The live axes never pass MAX_WIDTH.
    """
    kept = [net.index(node) for node in keep]
    fixed = {net.index(node): value for node, value in fix.items()}
    tables = _tables(net)
    last = {c: i for i, (family, _) in enumerate(tables) for c in family}
    live: list[int] = []
    mass = np.ones(())
    for i, (family, table) in enumerate(tables):
        factor = table[tuple(fixed.get(c, slice(None)) for c in family)]
        if i not in fixed:
            live.append(i)
            mass = mass[..., None]
        mass = mass * factor.reshape([2 if c in family else 1 for c in live])
        for axis in reversed(range(len(live))):
            if last[live[axis]] == i and live[axis] not in kept:
                mass = mass.sum(axis=axis)
                del live[axis]
        if len(live) > MAX_WIDTH:
            raise NetworkTooLargeError(
                f"exact elimination needs {len(live)} > {MAX_WIDTH} live "
                f"nodes after node {net.nodes[i]!r}")
    return mass.transpose([live.index(c) for c in kept])


def exact_marginal(net: BeliefNetwork, partial: Assignment) -> float:
    """Exact probability that every binding in ``partial`` holds."""
    net.validate_assignment(partial)
    return float(_project(net, (), partial))


def exact_conditional(net: BeliefNetwork, target: Assignment,
                      evidence: Assignment) -> float:
    """Exact Pr[target | evidence].

    ``target`` and ``evidence`` must bind disjoint node sets. Table
    entries are strictly inside (0, 1), so Pr[evidence] > 0, but its
    float value can underflow to 0; that raises ZeroDenominatorError.
    """
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
    net.validate_nodes(subset)
    return tuple(float(p) for p in _project(net, tuple(subset), {}).ravel())
