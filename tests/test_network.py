import itertools

import numpy as np
import pytest

from condsim import (
    BeliefNetwork,
    cli,
    Cpt,
    ancestral_network,
    parse_network,
    serialize_network,
    conditional_row,
)
from condsim.errors import (
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
from condsim.dependence import phi_min_lower_bound, predicted_cost
from condsim.exact import exact_conditional, exact_distribution_over
from condsim.network import relevant_network
from condsim.reformulate import decompose, infer
from condsim.sampling import (
    RandomSource,
    TrialGeneratorKind,
    estimate_conditional_fraction,
    estimate_distribution_over,
)

from helpers import NET_A_SOURCE, brute_marginal, random_network


def test_parse_reference_network(net_a):
    assert net_a.nodes == ("A", "B")
    assert net_a.parents("A") == ()
    assert net_a.parents("B") == ("A",)
    assert net_a.cpt("A").rows == (0.3,)
    assert net_a.cpt("B").rows == (0.2, 0.9)
    with pytest.raises(UnknownNodeError):
        net_a.validate_assignment({"A": 1, "B": 0, "X": 1})


def test_parse_preserves_declaration_order(net_c):
    assert net_c.nodes == ("A", "B", "C")


def test_parse_skips_comments_and_blank_lines():
    source = ("# header\nnetwork x\n\nnode A  # trailing\n"
              "prior A : 0.25\n\n")
    net = parse_network(source)
    assert net.cpt("A").rows == (0.25,)


def test_parse_wrong_row_count():
    source = ("network x\nnode A\nprior A : 0.3\nnode B\nparents B : A\n"
              "cpt B : 0.2\n")
    with pytest.raises(WrongRowCountError):
        parse_network(source)


def test_parse_probability_boundaries_rejected():
    with pytest.raises(ProbabilityOutOfRangeError):
        parse_network("network x\nnode A\nprior A : 1.0\n")
    with pytest.raises(ProbabilityOutOfRangeError):
        parse_network("network x\nnode A\nprior A : 0\n")


def test_parse_duplicate_node():
    source = "network x\nnode A\nprior A : 0.3\nnode A\nprior A : 0.4\n"
    with pytest.raises(DuplicateNodeError):
        parse_network(source)


def test_parse_forward_parent_reference():
    source = "network x\nnode B\nparents B : A\ncpt B : 0.2 0.9\n"
    with pytest.raises(UndeclaredParentError):
        parse_network(source)


_PRIOR_A = "network x\nnode A\nprior A : 0.5\n"


@pytest.mark.parametrize("source,line", [
    (_PRIOR_A + "bogus line\n", 4),
    ("node A\nprior A : 0.3\n", 1),
    ("network x\nnode A B\n", 2),
    ("network x\nnode A\nnode B\nprior B : 0.5\n", 3),
    ("network x\nnode A\n\n", 3),
    ("network x\nprior A : 0.3\n", 2),
    ("network x\nnode A\nprior B : 0.3\n", 3),
    ("network x\nnode A\nprior A = 0.3\n", 3),
    (_PRIOR_A + "node B\nparents B : A\nparents B : A\n", 6),
    (_PRIOR_A + "node B\nparents B : A A\n", 5),
    ("network x\nnode A\nprior A : 0,3\n", 3),
    ("network x\nnode A\nprior A : 0.3 0.4\n", 3),
    ("", 1),
    ("# nothing but a comment\n", 1),
], ids=["unknown-directive", "missing-header", "node-arity",
        "unfinished-node", "unfinished-node-at-eof", "outside-node-block",
        "other-node", "missing-colon", "duplicate-parents-line",
        "repeated-parent", "bad-literal", "prior-with-two-values",
        "empty-source", "comment-only-source"])
def test_parse_syntax_error_reports_line(source, line):
    with pytest.raises(BnetSyntaxError, match=f"^line {line}: ") as einfo:
        parse_network(source)
    assert type(einfo.value) is BnetSyntaxError
    assert einfo.value.line == line


def test_direct_construction_detects_cycle():
    with pytest.raises(UndeclaredParentError):
        BeliefNetwork("cyc", ("A", "B"),
                      (Cpt(("B",), (0.2, 0.8)), Cpt(("A",), (0.3, 0.7))))


_PRIOR = Cpt((), (0.5,))


@pytest.mark.parametrize("build,error,message", [
    (lambda: Cpt(("A", "A"), (0.1, 0.2, 0.3, 0.4)), NetworkFormatError,
     "repeated parent"),
    (lambda: BeliefNetwork("x", ("A", "B"), (_PRIOR,)), NetworkFormatError,
     "2 nodes but 1 tables"),
    (lambda: BeliefNetwork("x", (), ()), NetworkFormatError,
     "at least one node"),
    (lambda: BeliefNetwork("x", ("A B",), (_PRIOR,)), NetworkFormatError,
     "bad node identifier"),
    (lambda: BeliefNetwork("x", ("",), (_PRIOR,)), NetworkFormatError,
     "bad node identifier"),
    (lambda: BeliefNetwork("x", ("A", "A"), (_PRIOR, _PRIOR)),
     DuplicateNodeError, "node 'A' declared twice"),
    (lambda: BeliefNetwork("x", ("B",), (Cpt(("Z",), (0.1, 0.2)),)),
     UndeclaredParentError, "parent 'Z' of node 'B' is not declared yet"),
    # Acyclic, but B is declared before its parent A: the parser rejects
    # the text serialize_network would write, so construction must too.
    (lambda: BeliefNetwork("x", ("B", "A"),
                           (Cpt(("A",), (0.2, 0.9)), _PRIOR)),
     UndeclaredParentError, "parent 'A' of node 'B' is not declared yet"),
    (lambda: BeliefNetwork("x", ("A",), (_PRIOR,)).validate_assignment(
        {"A": 2}), ValueError, "expected 0 or 1"),
], ids=["cpt-repeated-parent", "count-mismatch", "empty-network",
        "spaced-identifier", "empty-identifier", "duplicate-node",
        "unknown-parent", "parent-declared-later", "value-out-of-range"])
def test_constructors_reject_malformed_input(build, error, message):
    with pytest.raises(error, match=message) as einfo:
        build()
    assert type(einfo.value) is error


def test_serialize_round_trip(net_a, net_c):
    assert parse_network(serialize_network(net_a)) == net_a
    assert parse_network(serialize_network(net_c)) == net_c


def test_serialize_single_node_layout():
    net = BeliefNetwork("one", ("Z",), (Cpt((), (0.5,)),))
    text = serialize_network(net)
    assert "node Z" in text
    assert "prior Z : 0.5" in text


def test_serialize_keeps_full_precision():
    source = "network p\nnode A\nprior A : 0.1234567890123456\n"
    net = parse_network(source)
    again = parse_network(serialize_network(net))
    assert again.cpt("A").rows[0] == net.cpt("A").rows[0]


def test_serialize_round_trip_random_networks():
    gen = np.random.Generator(np.random.PCG64(5))
    for _ in range(10):
        net = random_network(gen, int(gen.integers(2, 8)))
        assert parse_network(serialize_network(net)) == net


def test_ancestral_network_reference_values(net_c):
    assert ancestral_network(net_c, ["A"]).nodes == ("A",)
    sub = ancestral_network(net_c, ["B", "A"])
    assert sub.nodes == ("A", "B")
    assert sub.cpts == net_c.cpts[:2]
    assert ancestral_network(net_c, ["C"]) is net_c
    with pytest.raises(UnknownNodeError):
        ancestral_network(net_c, ["Q"])


def test_ancestral_network_keeps_the_marginals_of_its_nodes():
    gen = np.random.Generator(np.random.PCG64(23))
    for _ in range(20):
        net = random_network(gen, int(gen.integers(2, 9)))
        named = [str(x) for x in gen.choice(net.nodes, size=2,
                                             replace=False)]
        sub = ancestral_network(net, named)
        # Declaration order, closed under parents, and nothing more.
        assert sub.nodes == tuple(x for x in net.nodes if x in sub.nodes)
        assert all(set(sub.parents(x)) <= set(sub.nodes)
                   for x in sub.nodes)
        assert all(any(x == v or x in _ancestors(net, v) for v in named)
                   for x in sub.nodes)
        for values in itertools.product((0, 1), repeat=2):
            partial = dict(zip(named, values))
            assert brute_marginal(sub, partial) == pytest.approx(
                brute_marginal(net, partial), rel=1e-12)


def test_relevant_network_reference_values():
    # A -> B -> Q -> E <- X, and Y a lone root.
    net = parse_network(
        "network ref\nnode A\nprior A : 0.3\nnode B\nparents B : A\n"
        "cpt B : 0.2 0.7\nnode Q\nparents Q : B\ncpt Q : 0.4 0.9\n"
        "node X\nprior X : 0.6\nnode E\nparents E : Q X\n"
        "cpt E : 0.1 0.3 0.5 0.8\nnode Y\nprior Y : 0.5\n")
    # B separates A from Q; A stays in the closure as B's parent.
    sub, kept = relevant_network(net, {"Q": 1}, {"A": 1, "B": 0})
    assert kept == {"B": 0}
    assert sub.nodes == ("A", "B", "Q")
    # X is independent of Q until E, a child of both, is observed.
    assert relevant_network(net, {"Q": 1}, {"X": 1, "Y": 0}) == (
        ancestral_network(net, ["Q"]), {})
    sub, kept = relevant_network(net, {"Q": 1}, {"Y": 0, "X": 1, "E": 1})
    assert kept == {"X": 1, "E": 1}
    assert sub.nodes == ("A", "B", "Q", "X", "E")
    with pytest.raises(UnknownNodeError):
        relevant_network(net, {"Q": 1}, {"Z": 1})


def test_relevant_network_keeps_the_conditional_of_its_query():
    # Separation in the moral graph (Lauritzen et al., 1990): the pruned
    # problem has the whole network's Pr[q | e], it keeps a subset of the
    # evidence in its given order, and pruning it again changes nothing.
    gen = np.random.Generator(np.random.PCG64(31))
    pruned = 0
    for _ in range(200):
        net = random_network(gen, int(gen.integers(7, 13)),
                             max_parents=int(gen.integers(1, 4)))
        size = int(gen.integers(2, 6))
        width = int(gen.integers(1, 3))
        picks = [str(x) for x in gen.choice(net.nodes, size=width + size,
                                             replace=False)]
        query = {x: int(gen.integers(0, 2)) for x in picks[:width]}
        evidence = {x: int(gen.integers(0, 2)) for x in picks[width:]}
        sub, kept = relevant_network(net, query, evidence)
        assert kept.items() <= evidence.items()
        assert list(kept) == [x for x in evidence if x in kept]
        assert relevant_network(sub, query, kept) == (sub, kept)
        assert relevant_network(net, query, kept) == (sub, kept)
        assert exact_conditional(sub, query, kept) == pytest.approx(
            exact_conditional(net, query, evidence), rel=1e-12, abs=0)
        pruned += len(kept) < len(evidence)
    assert pruned >= 100


def test_equal_networks_hash_equal(net_c, monkeypatch):
    rebuilt = BeliefNetwork(net_c.name, net_c.nodes, tuple(
        Cpt(cpt.parents, cpt.rows) for cpt in net_c.cpts))
    closure = ancestral_network(net_c, ["B"])
    pair = BeliefNetwork(net_c.name, net_c.nodes[:2], net_c.cpts[:2])
    assert rebuilt == net_c and hash(rebuilt) == hash(net_c)
    assert closure == pair and hash(closure) == hash(pair)
    # A built network's hash walks no table.
    def refuse(cpt):
        raise AssertionError("Cpt hashed")
    monkeypatch.setattr(Cpt, "__hash__", refuse)
    assert {rebuilt: 1}[net_c] == 1
    assert hash(closure) == hash(pair)


def _ancestors(net, node):
    parents = set(net.parents(node))
    return parents.union(*(_ancestors(net, p) for p in parents))


def test_conditional_row_reference_values(net_a):
    assert conditional_row(net_a, "B", 1, {"A": 1}) == 0.9
    assert conditional_row(net_a, "B", 0, {"A": 1}) == pytest.approx(0.1)
    assert conditional_row(net_a, "A", 1, {}) == 0.3


def test_conditional_row_requires_exact_parent_set(net_a):
    with pytest.raises(MissingParentBindingError):
        conditional_row(net_a, "B", 1, {})
    with pytest.raises(MissingParentBindingError):
        conditional_row(net_a, "B", 1, {"A": 1, "B": 0})


def test_cpt_row_indexing_is_msb_first():
    # first-listed parent is the most significant bit of the row index
    net = parse_network(
        "network x\nnode A\nprior A : 0.5\nnode B\nprior B : 0.5\n"
        "node C\nparents C : A B\ncpt C : 0.1 0.2 0.3 0.4\n")
    assert conditional_row(net, "C", 1, {"A": 0, "B": 1}) == 0.2
    assert conditional_row(net, "C", 1, {"A": 1, "B": 0}) == 0.3


def test_joint_sums_to_one_and_stays_positive(net_a):
    assert brute_marginal(net_a, {"A": 1, "B": 1}) == pytest.approx(
        0.27, abs=1e-15)
    assert brute_marginal(net_a, {"A": 0, "B": 0}) == pytest.approx(
        0.56, abs=1e-15)
    gen = np.random.Generator(np.random.PCG64(17))
    for _ in range(25):
        net = random_network(gen, int(gen.integers(2, 10)))
        total = 0.0
        for values in itertools.product((0, 1), repeat=net.n):
            p = brute_marginal(net, dict(zip(net.nodes, values)))
            assert p > 0.0
            total += p
        assert total == pytest.approx(1.0, abs=1e-9)


def test_cpt_validation():
    with pytest.raises(WrongRowCountError):
        Cpt(("A",), (0.5,))
    with pytest.raises(ProbabilityOutOfRangeError):
        Cpt((), (0.0,))


def _analyze(net, query, evidence):
    args = cli.build_parser().parse_args(
        ["analyze", "--network", "unread.bnet", "--query", query,
         "--evidence", evidence])
    return cli.cmd_analyze(args, serialize_network(net))


def _fraction(net, target, condition):
    return estimate_conditional_fraction(
        net, target, condition, 0.2, 0.1, TrialGeneratorKind.rejection(),
        RandomSource(1))


def _distribution(net, nodes):
    return estimate_distribution_over(net, nodes, 0.2, 0.1, RandomSource(1))


@pytest.mark.parametrize("call,error,message", [
    (lambda net: infer(net, {"B": 1}, {"B": 0}, 0.2, 0.1),
     OverlappingSetsError, "query and evidence both bind: B"),
    (lambda net: decompose(net, {"C": 1}, {"C": 0}, ()),
     OverlappingSetsError, "query and evidence both bind: C"),
    (lambda net: decompose(net, {"C": 1}, {"B": 0}, ("B", "A")),
     OverlappingSetsError,
     "conditioning set and query or evidence both bind: B"),
    (lambda net: decompose(net, {"C": 1}, {}, ("C",)),
     OverlappingSetsError,
     "conditioning set and query or evidence both bind: C"),
    (lambda net: _analyze(net, "A=1,B=1", "B=0,A=0"),
     OverlappingSetsError, "query and evidence both bind: A, B"),
    (lambda net: _fraction(net, {"A": 1, "B": 0}, {"B": 1}),
     OverlappingSetsError, "target and condition both bind: B"),
    (lambda net: predicted_cost(net, {"A": 1}, ("A",)),
     OverlappingSetsError, "evidence and conditioning set both bind: A"),
    (lambda net: exact_conditional(net, {"B": 1}, {"B": 0}),
     OverlappingSetsError, "target and evidence both bind: B"),
    (lambda net: net.validate_nodes(("Q", "Q")),
     UnknownNodeError, "repeated node in ['Q', 'Q']"),
    (lambda net: net.validate_nodes(("A", "Q")),
     UnknownNodeError, "unknown node 'Q'"),
    (lambda net: _distribution(net, ("A", "A")),
     UnknownNodeError, "repeated node in ['A', 'A']"),
    (lambda net: _distribution(net, ("A", "Q")),
     UnknownNodeError, "unknown node 'Q'"),
    (lambda net: phi_min_lower_bound(net, ("B", "B")),
     UnknownNodeError, "repeated node in ['B', 'B']"),
    (lambda net: phi_min_lower_bound(net, ("Q",)),
     UnknownNodeError, "unknown node 'Q'"),
    (lambda net: exact_distribution_over(net, ["C", "C"]),
     UnknownNodeError, "repeated node in ['C', 'C']"),
    (lambda net: exact_distribution_over(net, ["C", "Q"]),
     UnknownNodeError, "unknown node 'Q'"),
], ids=["infer", "decompose-query-evidence", "decompose-evidence-s",
        "decompose-query-s", "analyze", "fraction", "predicted-cost",
        "exact-conditional", "validate-nodes-repeated",
        "validate-nodes-unknown", "distribution-repeated",
        "distribution-unknown", "phi-min-repeated", "phi-min-unknown",
        "exact-distribution-repeated", "exact-distribution-unknown"])
def test_every_entry_point_states_the_input_rules_alike(net_c, call, error,
                                                        message):
    # Disjointness and node lists are each checked in one place, so every
    # entry point raises the same type with the same text.
    with pytest.raises(error) as raised:
        call(net_c)
    assert str(raised.value) == message
