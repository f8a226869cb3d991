"""Shared builders and independent oracles for the test suite.

The brute-force routines here deliberately avoid the exact module so
they can serve as a second, independent route to the same numbers.
"""

import itertools

import numpy as np

from condsim.network import BeliefNetwork, Cpt, conditional_row
from condsim.stopping import DirichletPosterior, failure_probability_bound

NET_A_SOURCE = """\
network net_a
node A
prior A : 0.3
node B
parents B : A
cpt B : 0.2 0.9
"""

NET_C_SOURCE = """\
network net_c
node A
prior A : 0.5
node B
parents B : A
cpt B : 0.1 0.9
node C
parents C : B
cpt C : 0.2 0.8
"""

# Pr[Q | E] reads only Q and E. X, Y and Z are barren for it, yet their
# strong links dominate the whole network's dependence value.
BARREN_SOURCE = """\
network barren
node Q
prior Q : 0.3
node E
parents E : Q
cpt E : 0.2 0.7
node X
prior X : 0.5
node Y
parents Y : X
cpt Y : 0.01 0.99
node Z
parents Z : Y
cpt Z : 0.01 0.99
"""

# A case of the mixed-small benchmark workload: N0 is a lone root and
# N1 -> N2 -> N3 a chain, so evidence on N1 and N3 says nothing of N0.
ISOLATED_SOURCE = """\
network random
node N0
prior N0 : 0.5966645857311637
node N1
prior N1 : 0.13750553133293358
node N2
parents N2 : N1
cpt N2 : 0.13568765254309306 0.4351316676336704
node N3
parents N3 : N2
cpt N3 : 0.11137213831328571 0.8564166023206661
"""


def brute_marginal(net: BeliefNetwork, partial: dict) -> float:
    """Marginal by raw enumeration over completions, CPT lookups only."""
    free = [name for name in net.nodes if name not in partial]
    total = 0.0
    for values in itertools.product((0, 1), repeat=len(free)):
        full = dict(partial)
        full.update(zip(free, values))
        p = 1.0
        for name in net.nodes:
            parent_values = {q: full[q] for q in net.parents(name)}
            p *= conditional_row(net, name, full[name], parent_values)
        total += p
    return total


def random_network(gen: np.random.Generator, n: int, max_parents: int = 2,
                   lo: float = 0.05, hi: float = 0.95) -> BeliefNetwork:
    """Random DAG where node i draws up to max_parents predecessors."""
    names = tuple(f"N{i}" for i in range(n))
    cpts = []
    for i in range(n):
        k = int(gen.integers(0, min(i, max_parents) + 1))
        if k:
            picks = sorted(gen.choice(i, size=k, replace=False))
            parents = tuple(names[j] for j in picks)
        else:
            parents = ()
        rows = tuple(float(p) for p in gen.uniform(lo, hi, 1 << k))
        cpts.append(Cpt(parents, rows))
    return BeliefNetwork("random", names, tuple(cpts))


def random_chain(gen: np.random.Generator, n: int) -> BeliefNetwork:
    """Chain N0 -> N1 -> ... with strong, randomly oriented links."""
    names = tuple(f"N{i}" for i in range(n))
    cpts = [Cpt((), (float(gen.uniform(0.2, 0.8)),))]
    for i in range(1, n):
        lo = float(gen.uniform(0.02, 0.2))
        hi = float(gen.uniform(0.8, 0.98))
        rows = (lo, hi) if gen.integers(0, 2) else (hi, lo)
        cpts.append(Cpt((names[i - 1],), rows))
    return BeliefNetwork("chain", names, tuple(cpts))


def random_tree(gen: np.random.Generator, n: int) -> BeliefNetwork:
    """Tree where each later node hangs off one random predecessor."""
    names = tuple(f"N{i}" for i in range(n))
    cpts = [Cpt((), (float(gen.uniform(0.2, 0.8)),))]
    for i in range(1, n):
        parent = names[int(gen.integers(0, i))]
        lo = float(gen.uniform(0.02, 0.2))
        hi = float(gen.uniform(0.8, 0.98))
        rows = (lo, hi) if gen.integers(0, 2) else (hi, lo)
        cpts.append(Cpt((parent,), rows))
    return BeliefNetwork("tree", names, tuple(cpts))


def arcless_network(n: int, p: float = 0.4) -> BeliefNetwork:
    names = tuple(f"Z{i}" for i in range(n))
    cpts = tuple(Cpt((), (p,)) for _ in names)
    return BeliefNetwork("arcless", names, cpts)


def wide_network(roots: int) -> BeliefNetwork:
    """``roots`` roots declared first, then one child per root, so that
    along declaration order every root stays live until its child."""
    names = tuple(f"R{i}" for i in range(roots)) + tuple(
        f"C{i}" for i in range(roots))
    cpts = tuple(Cpt((), (0.3,)) for _ in range(roots)) + tuple(
        Cpt((f"R{i}",), (0.2, 0.7)) for i in range(roots))
    return BeliefNetwork("wide", names, cpts)


def expected_stop_n(probs, epsilon: float, delta: float, start: int) -> int:
    """First geometric checkpoint whose expected counts clear the rule.

    A deterministic stand-in for the random stopping point, used only to
    price a case before running it.
    """
    n = max(start, 1)
    for _ in range(60):
        counts = tuple(int(round(n * p)) for p in probs)
        if min(counts) >= 1:
            post = DirichletPosterior(counts)
            bound = failure_probability_bound(post, epsilon)
            if bound <= delta:
                return n
        n *= 2
    return n
