"""Binary belief networks: data model, text format, table lookups.

A network is a DAG of binary nodes, each declared after its parents.
Every node stores one table row per parent configuration, and each row
holds Pr[node = 1 | parents]. The joint probability of a full assignment
is the product of one table lookup per node.

Text format (``.bnet``), one directive per line, ``#`` starts a comment:

    network <name>
    node <id>
    parents <id> : <p1> <p2> ...     (optional, parents declared earlier)
    cpt <id> : <r0> ... <r_{2^k-1}>  (k = parent count)
    prior <id> : <p>                 (parentless nodes)

Row order: the row index is the parent values read as a binary number with
the first listed parent as the most significant bit. All probabilities are
strictly between 0 and 1.
"""

from collections.abc import Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from .errors import (
    BnetSyntaxError,
    DuplicateNodeError,
    MissingParentBindingError,
    NetworkFormatError,
    OverlappingSetsError,
    ProbabilityOutOfRangeError,
    UndeclaredParentError,
    UnknownNodeError,
    WrongRowCountError,
)

# An assignment binds node names to values in {0, 1}.
Assignment = Mapping[str, int]


def _check_probability(p: float, line: int | None = None) -> float:
    if not (0.0 < p < 1.0):
        raise ProbabilityOutOfRangeError(
            f"probability {p!r} is not strictly between 0 and 1", line)
    return float(p)


@dataclass(frozen=True)
class Cpt:
    """Conditional probability table of one binary node.

    ``rows[i]`` is Pr[node = 1 | parent configuration i] where i is the
    parent values read as a binary number, first listed parent most
    significant. A parentless node has the single row ``rows[0]``.
    """

    parents: tuple[str, ...]
    rows: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(set(self.parents)) != len(self.parents):
            raise NetworkFormatError(f"repeated parent in {self.parents}")
        if len(self.rows) != 1 << len(self.parents):
            raise WrongRowCountError(
                f"expected {1 << len(self.parents)} rows for "
                f"{len(self.parents)} parents, got {len(self.rows)}")
        for p in self.rows:
            _check_probability(p)

    def row_index(self, assignment: Assignment) -> int:
        """Table row selected by the parent values in ``assignment``."""
        index = 0
        for parent in self.parents:
            value = assignment.get(parent)
            if value is None:
                raise MissingParentBindingError(
                    f"parent {parent!r} is unbound")
            index = (index << 1) | _check_value(value, parent)
        return index


def _check_value(value: int, node: str) -> int:
    if value not in (0, 1):
        raise ValueError(f"node {node!r} bound to {value!r}, expected 0 or 1")
    return int(value)


@dataclass(frozen=True)
class BeliefNetwork:
    """Immutable network: node names in declaration order plus their tables.

    Declaration order is the sampling order, so every parent is declared
    before its child, as in the text format; a parent declared later (or
    not at all) raises :class:`UndeclaredParentError`.
    """

    name: str
    nodes: tuple[str, ...]
    cpts: tuple[Cpt, ...]
    _index: dict = field(init=False, compare=False, repr=False)
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.nodes) != len(self.cpts):
            raise NetworkFormatError(
                f"{len(self.nodes)} nodes but {len(self.cpts)} tables")
        if not self.nodes:
            raise NetworkFormatError("a network needs at least one node")
        index: dict[str, int] = {}
        for i, (node, cpt) in enumerate(zip(self.nodes, self.cpts)):
            if not node or node.split() != [node]:
                raise NetworkFormatError(f"bad node identifier {node!r}")
            if node in index:
                raise DuplicateNodeError(f"node {node!r} declared twice")
            for parent in cpt.parents:
                if parent not in index:
                    raise UndeclaredParentError(
                        f"parent {parent!r} of node {node!r} is not "
                        "declared yet")
            index[node] = i
        object.__setattr__(self, "_index", index)
        # Networks key the sampler's and the oracle's caches: hash every
        # table's rows once here, not at each lookup.
        object.__setattr__(self, "_hash",
                           hash((self.name, self.nodes, self.cpts)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def n(self) -> int:
        return len(self.nodes)

    def index(self, node: str) -> int:
        try:
            return self._index[node]
        except KeyError:
            raise UnknownNodeError(f"unknown node {node!r}") from None

    def cpt(self, node: str) -> Cpt:
        return self.cpts[self.index(node)]

    def parents(self, node: str) -> tuple[str, ...]:
        return self.cpt(node).parents

    def validate_assignment(self, assignment: Assignment) -> None:
        """Check that every bound node exists and every value is 0 or 1."""
        for node, value in assignment.items():
            self.index(node)
            _check_value(value, node)

    def validate_nodes(self, nodes: Sequence[str]) -> None:
        """Check that ``nodes`` repeats no node and names only known ones."""
        if len(set(nodes)) != len(nodes):
            raise UnknownNodeError(f"repeated node in {list(nodes)}")
        for node in nodes:
            self.index(node)


def check_disjoint(first: Iterable[str], second: Iterable[str],
                   names: str) -> None:
    """Raise OverlappingSetsError when ``first`` and ``second`` share a
    node; ``names`` names the two in the message."""
    shared = sorted(set(first) & set(second))
    if shared:
        raise OverlappingSetsError(f"{names} both bind: {', '.join(shared)}")


def ancestral_network(net: BeliefNetwork,
                      nodes: Iterable[str]) -> BeliefNetwork:
    """The sub-network of ``nodes`` and their ancestors, in declaration
    order (``net`` itself when that is every node). The nodes left out
    are barren: no marginal over ``nodes`` depends on them."""
    needed = {net.index(node) for node in nodes}
    for i in range(net.n - 1, -1, -1):
        if i in needed:
            needed.update(net.index(p) for p in net.cpts[i].parents)
    if len(needed) == net.n:
        return net
    nodes, cpts = zip(*((net.nodes[i], net.cpts[i]) for i in sorted(needed)))
    return BeliefNetwork(net.name, nodes, cpts)


def relevant_network(net: BeliefNetwork, query: Collection[str],
                     evidence: Assignment
                     ) -> tuple[BeliefNetwork, dict[str, int]]:
    """The network and evidence that Pr[query | evidence] depends on.

    In the moral graph of the ancestral closure of the query and
    evidence, a walk from the query nodes that may reach an evidence
    node but not pass through it finds the evidence to keep. The kept
    evidence separates the query from the rest, so the query is
    independent of the rest given it (Lauritzen, Dawid, Larsen and
    Leimer, Networks 1990); every table entry lies strictly inside
    (0, 1), so the rest has positive probability and dropping it leaves
    Pr[query | evidence] unchanged. Returns the ancestral closure of the
    query and kept evidence, and the kept evidence in its given order.
    One walk finds all there is to drop: each node it passes through
    is an ancestor of the query or of kept evidence, so the smaller
    closure keeps every link it used and a second walk reaches the same
    evidence. ``query`` and ``evidence`` must name disjoint nodes.
    """
    closure = ancestral_network(net, (*query, *evidence))
    links: dict[str, set[str]] = {node: set() for node in closure.nodes}
    for node, cpt in zip(closure.nodes, closure.cpts):
        family = (*cpt.parents, node)
        for member in family:
            links[member].update(family)
    reached = set(query)
    frontier = list(reached)
    while frontier:
        for node in links[frontier.pop()] - reached:
            reached.add(node)
            if node not in evidence:
                frontier.append(node)
    kept = {node: value for node, value in evidence.items()
            if node in reached}
    if len(kept) < len(evidence):
        closure = ancestral_network(net, (*query, *kept))
    return closure, kept


def parse_network(text: str) -> BeliefNetwork:
    """Parse ``.bnet`` source text into a :class:`BeliefNetwork`.

    Raises subclasses of :class:`NetworkFormatError` carrying the line
    number of the first problem found.
    """
    name: str | None = None
    declared: dict[str, Cpt] = {}
    order: list[str] = []
    pending: str | None = None
    pending_parents: tuple[str, ...] | None = None
    lineno = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0]

        if name is None:
            if keyword != "network" or len(tokens) != 2:
                raise BnetSyntaxError(
                    "expected 'network <name>' as the first directive",
                    lineno)
            name = tokens[1]
            continue

        if keyword == "node":
            if len(tokens) != 2:
                raise BnetSyntaxError("expected 'node <id>'", lineno)
            if pending is not None:
                raise BnetSyntaxError(
                    f"node {pending!r} has no cpt or prior line", lineno)
            node = tokens[1]
            if node in declared:
                raise DuplicateNodeError(
                    f"node {node!r} declared twice", lineno)
            pending = node
            pending_parents = None
            continue

        if keyword in ("parents", "cpt", "prior"):
            if pending is None:
                raise BnetSyntaxError(
                    f"'{keyword}' outside a node block", lineno)
            if len(tokens) < 4 or tokens[1] != pending or tokens[2] != ":":
                raise BnetSyntaxError(
                    f"expected '{keyword} {pending} : ...'", lineno)
            body = tokens[3:]
        else:
            raise BnetSyntaxError(f"unknown directive {keyword!r}", lineno)

        if keyword == "parents":
            if pending_parents is not None:
                raise BnetSyntaxError(
                    f"duplicate parents line for node {pending!r}", lineno)
            for parent in body:
                if parent not in declared:
                    raise UndeclaredParentError(
                        f"parent {parent!r} of node {pending!r} is not "
                        "declared yet", lineno)
            if len(set(body)) != len(body):
                raise BnetSyntaxError(
                    f"node {pending!r} repeats a parent", lineno)
            pending_parents = tuple(body)
            continue

        # keyword is cpt or prior: the directive completes the node block.
        parents = pending_parents or ()
        rows: list[float] = []
        for token in body:
            try:
                value = float(token)
            except ValueError:
                raise BnetSyntaxError(
                    f"bad probability literal {token!r}", lineno) from None
            rows.append(_check_probability(value, lineno))
        expected = 1 << len(parents)
        if keyword == "prior" and len(rows) != 1:
            raise BnetSyntaxError(
                "'prior' takes exactly one probability", lineno)
        if len(rows) != expected:
            raise WrongRowCountError(
                f"node {pending!r} needs {expected} rows for "
                f"{len(parents)} parents, got {len(rows)}", lineno)
        declared[pending] = Cpt(parents, tuple(rows))
        order.append(pending)
        pending = None
        pending_parents = None

    if name is None:
        raise BnetSyntaxError("empty source, expected 'network <name>'", 1)
    if pending is not None:
        raise BnetSyntaxError(
            f"node {pending!r} has no cpt or prior line", lineno)
    return BeliefNetwork(name, tuple(order),
                         tuple(declared[node] for node in order))


def serialize_network(net: BeliefNetwork) -> str:
    """Render a network as ``.bnet`` text.

    Probabilities are written with ``repr`` so they survive a round trip
    bit for bit: ``parse_network(serialize_network(net)) == net``.
    """
    lines = [f"network {net.name}"]
    for node, cpt in zip(net.nodes, net.cpts):
        lines.append(f"node {node}")
        if cpt.parents:
            lines.append(f"parents {node} : " + " ".join(cpt.parents))
            lines.append(f"cpt {node} : " + " ".join(repr(r)
                                                     for r in cpt.rows))
        else:
            lines.append(f"prior {node} : {cpt.rows[0]!r}")
    return "\n".join(lines) + "\n"


def conditional_row(net: BeliefNetwork, node: str, node_value: int,
                    parent_assignment: Assignment) -> float:
    """Pr[node = node_value | parents as bound in ``parent_assignment``].

    ``parent_assignment`` must bind the node's parents and nothing else.
    """
    _check_value(node_value, node)
    row = net.cpt(node)
    extras = sorted(set(parent_assignment) - set(row.parents))
    if extras:
        raise MissingParentBindingError(
            f"bindings beyond the parents of {node!r}: "
            f"{', '.join(extras)}")
    p_one = row.rows[row.row_index(parent_assignment)]
    return p_one if node_value == 1 else 1.0 - p_one
