"""Shared builders and independent oracles for the test suite.

The brute-force routines here deliberately avoid the exact module so
they can serve as a second, independent route to the same numbers.
"""

import itertools

import numpy as np
from scipy import stats

from condsim.dependence import satisfies_ras
from condsim.network import BeliefNetwork, Cpt, conditional_row
from condsim.stopping import (
    DirichletPosterior,
    failure_probability_bound,
    should_stop,
    worst_case_sample_bound,
)

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


def wide_ancestry_source(tail: str, width: int = 21) -> str:
    """A network source: ``width`` roots R0.., then a chain M0 -> M1 ->
    ... in which M{i} also reads R{i}, then ``tail``, node declarations
    that may read the chain's last node M{width - 1}.

    Along declaration order every root stays live until its chain node,
    so at width 21 elimination over any set whose ancestral closure holds
    M20 needs more than 20 live nodes and is refused. The chain's links
    are mild (lambda below 4), so greedy does not condition on them.
    """
    roots = "".join(f"node R{i}\nprior R{i} : 0.5\n" for i in range(width))
    chain = "node M0\nparents M0 : R0\ncpt M0 : 0.4 0.6\n" + "".join(
        f"node M{i}\nparents M{i} : M{i - 1} R{i}\n"
        f"cpt M{i} : 0.4 0.5 0.5 0.6\n" for i in range(1, width))
    return f"network wide\n{roots}{chain}{tail}"


# NET_C_SOURCE's A, B and C hung below wide_ancestry_source's chain: A
# reads M20 with a flat row, so Pr[A, B, C] is net_c's, but the closure
# of any conditioning set is too wide for elimination.
WIDE_NET_C_SOURCE = wide_ancestry_source("""\
node A
parents A : M20
cpt A : 0.5 0.5
node B
parents B : A
cpt B : 0.1 0.9
node C
parents C : B
cpt C : 0.2 0.8
""")


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


def fraction_checkpoints(mu: float, epsilon: float, delta: float):
    """The trial counts at which sampling._certify evaluates the rule for
    estimate_conditional_fraction on a one-node network of prior ``mu``
    with target 1: the powers of two from k = 2, and the worst-case bound
    W over the node, in increasing order, without end."""
    w = worst_case_sample_bound(1, epsilon, delta, min(mu, 1.0 - mu))
    n = 2
    while True:
        if 2 < w < n and w & (w - 1):
            yield w
            w = 0
        yield n
        n *= 2


def exact_fraction_miss(mu: float, epsilon: float, delta: float,
                        drop: float = 1e-16) -> float:
    """Exact probability that estimate_conditional_fraction, reading
    i.i.d. Bernoulli(mu) rows, certifies a value outside
    [mu / (1 + epsilon), mu * (1 + epsilon)], by recursion over the
    checkpoints (Armitage, McPherson and Rowe, JRSS A 1969).

    Between checkpoints the unstopped count grows by a binomial
    increment; at each checkpoint every count that the rule certifies
    stops, a miss when its value is outside the interval. Mass below
    ``drop`` at either end of a count distribution is cut, and counted
    as missed, so the result bounds the miss probability from above.
    """
    first, alive = 0, np.ones(1)  # alive[j]: Pr[count = first + j]
    n, missed = 0, 0.0
    for stop in fraction_checkpoints(mu, epsilon, delta):
        m = stop - n
        mean, sd = m * mu, (m * mu * (1.0 - mu)) ** 0.5
        lo = max(0, int(mean - 12.0 * sd) - 12)
        hi = min(m, int(mean + 12.0 * sd) + 12)
        step = stats.binom.pmf(np.arange(lo, hi + 1), m, mu)
        missed += alive.sum() * max(0.0, 1.0 - step.sum())
        alive, first, n = np.convolve(alive, step), first + lo, stop
        cum = np.cumsum(alive)
        head = int(np.searchsorted(cum, drop))
        tail = int(np.searchsorted(cum, cum[-1] - drop)) + 1
        missed += cum[-1] - (cum[tail - 1] - (cum[head - 1] if head else 0))
        alive, first = alive[head:tail].copy(), first + head
        for j, mass in enumerate(alive):
            count = first + j
            posterior = DirichletPosterior._trusted((n - count, count), n)
            if mass and should_stop(posterior, epsilon, delta, category=1):
                missed += 0.0 if satisfies_ras(mu, count / n,
                                               epsilon) else mass
                alive[j] = 0.0
        if alive.sum() < drop:
            return missed + alive.sum()
