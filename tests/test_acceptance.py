"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line in a fixed format before asserting,
so `pytest tests/test_acceptance.py -s` reads as a checklist. Thresholds
and random streams are frozen; reruns see the exact numbers reported
here.
"""

import contextlib
import functools
import io
import json
import math

import numpy as np
from scipy import integrate

from condsim import cli
from condsim.dependence import (
    dependence_value,
    node_lambda,
    satisfies_ras,
)
from condsim.exact import (
    exact_conditional,
    exact_distribution_over,
    exact_marginal,
)
from condsim.network import parse_network, serialize_network
from condsim.reformulate import greedy_select, infer
from condsim.sampling import (
    RandomSource,
    TrialGeneratorKind,
    conditioned_sample_batch,
    logic_sample_batch,
    mix_seed,
)
from condsim.stopping import (
    DirichletPosterior,
    regularized_incomplete_beta,
    should_stop,
    worst_case_sample_bound,
)

from helpers import (
    NET_A_SOURCE,
    NET_C_SOURCE,
    arcless_network,
    expected_stop_n,
    random_chain,
    random_network,
    random_tree,
)


def _record(n: int, ok: bool, description: str) -> bool:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {description}")
    return ok


# ---------------------------------------------------------------- 1

_EPS_1, _DELTA_1 = 0.2, 0.1
_PART_EPS_1 = 1.2 ** 0.25 - 1.0
# Cases whose deterministic cost model prices above this many raw
# trials are skipped: the suite has a five-minute budget and a handful
# of heavy draws (tiny evidence probabilities) would eat all of it.
# The cap admits 30 of the first 41 draws; wall time tracks the
# prediction at roughly 5e-8 seconds per raw trial.
_PRED_RAW_CAP = 4_000_000


def _predicted_raw(net, query, evidence, s):
    """Deterministic price of one run, in raw forward trials."""
    if not s:
        target = dict(query)
        target.update(evidence)
        phi = exact_marginal(net, target)
        return expected_stop_n((1 - phi, phi), _EPS_1, _DELTA_1, 2)
    k = 1 << len(s)
    delta_w, delta_s = _DELTA_1 / 2, _DELTA_1 / (4 * k)
    dist = exact_distribution_over(net, list(s))
    total = float(expected_stop_n(dist, _PART_EPS_1, delta_w, k))
    for i, p_i in enumerate(dist):
        inst = {name: (i >> (len(s) - 1 - j)) & 1
                for j, name in enumerate(s)}
        num_t = dict(query)
        num_t.update(evidence)
        phi_n = exact_conditional(net, num_t, inst)
        total += expected_stop_n((1 - phi_n, phi_n), _PART_EPS_1,
                                 delta_s, 2) / p_i
        if evidence:
            phi_d = exact_conditional(net, dict(evidence), inst)
            total += expected_stop_n((1 - phi_d, phi_d), _PART_EPS_1,
                                     delta_s, 2) / p_i
    return total


@functools.lru_cache(maxsize=1)
def _criterion_1_cases():
    gen = np.random.Generator(np.random.PCG64(424242))
    cases = []
    while len(cases) < 30:
        n = int(gen.integers(3, 13))
        net = random_network(gen, n)
        qnode = f"N{gen.integers(0, n)}"
        qval = int(gen.integers(0, 2))
        n_ev = int(gen.integers(0, 3))
        others = [x for x in net.nodes if x != qnode]
        ev_idx = gen.choice(len(others), size=min(n_ev, len(others)),
                            replace=False)
        evidence = {others[j]: int(gen.integers(0, 2)) for j in ev_idx}
        query = {qnode: qval}
        s, _ = greedy_select(net, evidence, exclude=(qnode,))
        if _predicted_raw(net, query, evidence, s) > _PRED_RAW_CAP:
            continue
        cases.append((net, query, evidence))
    return tuple(cases)


def test_criterion_1_oracle_coverage():
    runs = 0
    failures = 0
    for ci, (net, query, evidence) in enumerate(_criterion_1_cases()):
        phi = exact_conditional(net, query, evidence)
        for rep in range(50):
            result = infer(net, query, evidence, _EPS_1, _DELTA_1,
                           seed=mix_seed(ci, rep))
            runs += 1
            failures += not satisfies_ras(phi, result.estimate, _EPS_1)

    threshold = _DELTA_1 + 3 * math.sqrt(_DELTA_1 * (1 - _DELTA_1) / 1500)
    rate = failures / runs
    ok = runs == 1500 and rate <= threshold
    _record(1, ok, "randomized estimates meet the relative-error "
                   "interval at the stated risk (30 networks x 50 seeds)")
    assert ok, (f"{failures} failures over {runs} runs, rate {rate:.4f} "
                f"vs threshold {threshold:.4f}")


def _binomial_gate(n, p, risk):
    """Smallest m with Pr[Binomial(n, p) > m] <= risk."""
    tail = 1.0
    for m in range(n + 1):
        tail -= math.comb(n, m) * p ** m * (1 - p) ** (n - m)
        if tail <= risk:
            return m
    return n


def test_criterion_1_selective_oracle_coverage():
    # Criterion 1's cases again, each forced through the selective plan,
    # whose numerator and denominator read one stream. With S empty the
    # plan is one subproblem, Pr[q, e] over Pr[e]. A case that misses
    # more often than its gate allows fails on its own.
    reps = 5
    gate = _binomial_gate(reps, _DELTA_1, 1e-3)
    runs = failures = 0
    per_case = []
    for ci, (net, query, evidence) in enumerate(_criterion_1_cases()):
        phi = exact_conditional(net, query, evidence)
        misses = 0
        for rep in range(reps):
            result = infer(net, query, evidence, _EPS_1, _DELTA_1,
                           strategy="selective", seed=mix_seed(ci, rep))
            assert result.strategy_used == "selective"
            misses += not satisfies_ras(phi, result.estimate, _EPS_1)
        per_case.append(misses)
        runs += reps
        failures += misses
    threshold = _DELTA_1 + 3 * math.sqrt(_DELTA_1 * (1 - _DELTA_1) / runs)
    ok = (max(per_case) <= gate and failures / runs <= threshold)
    _record(1, ok, "selective estimates meet the relative-error interval "
                   f"per case and pooled (30 networks x {reps} seeds)")
    assert ok, (f"misses per case {per_case} (gate {gate}), {failures} "
                f"over {runs} runs vs threshold {threshold:.4f}")


# ---------------------------------------------------------------- 2

def test_criterion_2_dependence_value_properties():
    gen = np.random.Generator(np.random.PCG64(2001))
    ok = True

    for _ in range(1000):
        net = random_network(gen, int(gen.integers(2, 11)))
        report = dependence_value(net, {})
        ok &= report.value >= 1.0
        product = 1.0
        for _, lam in report.per_node.values():
            ok &= lam >= 1.0
            product *= lam * lam
        ok &= abs(report.value - product) <= 1e-9 * product

    ok &= dependence_value(arcless_network(7), {}).value == 1.0

    for _ in range(1000):
        n = int(gen.integers(2, 11))
        net = random_network(gen, n)
        perm = list(gen.permutation(net.nodes))
        k1 = int(gen.integers(0, n + 1))
        k2 = int(gen.integers(k1, n + 1))
        smaller = {perm[i]: int(gen.integers(0, 2)) for i in range(k1)}
        larger = dict(smaller)
        larger.update({perm[i]: int(gen.integers(0, 2))
                       for i in range(k1, k2)})
        d_large = dependence_value(net, larger).value
        d_small = dependence_value(net, smaller).value
        ok &= d_large <= d_small * (1.0 + 1e-9)

    bound_checks = 0
    while bound_checks < 100:
        net = random_network(gen, int(gen.integers(2, 11)))
        with_parents = [x for x in net.nodes if net.parents(x)]
        if not with_parents:
            continue
        node = with_parents[int(gen.integers(0, len(with_parents)))]
        fixed = {p: int(gen.integers(0, 2)) for p in net.parents(node)}
        ok &= node_lambda(net, node, fixed) == 1.0
        bound_checks += 1

    _record(2, ok, "dependence value is >= 1, multiplicative, 1 without "
                   "arcs, and monotone under binding")
    assert ok


# ---------------------------------------------------------------- 3

def test_criterion_3_decomposition_identities():
    from condsim.reformulate import bayes_ratio, combine_weighted, decompose

    gen = np.random.Generator(np.random.PCG64(3003))
    worst = 0.0
    done = 0
    while done < 200:
        n = int(gen.integers(3, 11))
        net = random_network(gen, n)
        perm = list(gen.permutation(net.nodes))
        s_size = int(gen.integers(1, min(5, n)))
        s_nodes = tuple(perm[:s_size])
        if s_size >= n:
            continue
        query = {perm[s_size]: int(gen.integers(0, 2))}
        evidence = {}
        if n > s_size + 1 and gen.random() < 0.7:
            evidence = {perm[s_size + 1]: int(gen.integers(0, 2))}
        weights = exact_distribution_over(net, list(s_nodes))
        nums, dens = [], []
        for sub in decompose(net, query, evidence, s_nodes):
            nums.append(exact_conditional(net, sub.numerator_target,
                                          sub.instantiation))
            dens.append(exact_conditional(net, sub.denominator_target,
                                          sub.instantiation))
        numerator = combine_weighted(nums, weights)
        denominator = combine_weighted(dens, weights)
        target = {**query, **evidence}
        worst = max(worst, abs(numerator - exact_marginal(net, target)))
        worst = max(worst,
                    abs(denominator - exact_marginal(net, evidence)))
        value, clamped = bayes_ratio(numerator, denominator)
        if not clamped:
            worst = max(worst, abs(value - exact_conditional(net, query,
                                                             evidence)))
        done += 1

    ok = worst <= 1e-10
    _record(3, ok, "weighted decomposition identities match the exact "
                   "oracle within 1e-10 (200 tuples)")
    assert ok, f"worst deviation {worst:.3e}"


# ---------------------------------------------------------------- 4, 5

def _coverage_experiment():
    """500 paired stopping runs on random 4-category distributions."""
    k = 4
    eps, delta = 0.2, 0.1
    records = []
    for rep in range(500):
        gen = np.random.Generator(np.random.PCG64(mix_seed(777, rep)))
        while True:
            cuts = np.sort(gen.uniform(0, 1, k - 1))
            probs = np.diff(np.concatenate(([0.0], cuts, [1.0])))
            if probs.min() >= 0.05:
                break
        counts = np.zeros(k, dtype=np.int64)
        n = 0
        checkpoint = k
        stop_u = stop_f = None
        mu_u = None
        while stop_u is None or stop_f is None:
            counts += gen.multinomial(checkpoint - n, probs)
            n = checkpoint
            raw = tuple(int(c) for c in counts)
            post_u = DirichletPosterior(raw)
            # A uniform prior's posterior is the unbiased posterior of
            # the counts plus one; the rule still waits for every raw
            # count to reach one.
            post_f = DirichletPosterior(tuple(c + 1 for c in raw))
            if stop_u is None and should_stop(post_u, eps, delta):
                stop_u, mu_u = n, post_u.mu
            if stop_f is None and min(raw) >= 1 and should_stop(
                    post_f, eps, delta):
                stop_f = n
            checkpoint *= 2
        covered = all(satisfies_ras(float(p), m, eps)
                      for p, m in zip(probs, mu_u))
        bound = worst_case_sample_bound(2, eps, delta, float(probs.min()))
        records.append((stop_u, stop_f, covered, bound))
    return records


def test_criterion_4_stopping_rule_coverage():
    records = _coverage_experiment()
    covered = sum(r[2] for r in records)
    within_bound = all(r[0] <= r[3] and r[1] <= r[3] for r in records)
    ok = covered >= 450 and within_bound
    _record(4, ok, "stopping rule covers all categories in >= 90% of "
                   "runs and never exceeds the worst-case trial bound")
    assert ok, (f"covered {covered}/500, "
                f"bound respected: {within_bound}")


def test_criterion_5_prior_insensitivity():
    records = _coverage_experiment()
    ns_u = np.array([r[0] for r in records], dtype=float)
    ns_f = np.array([r[1] for r in records], dtype=float)
    med_u, med_f = float(np.median(ns_u)), float(np.median(ns_f))
    ok = abs(med_u - med_f) <= 0.1 * max(med_u, med_f)
    big = np.maximum(ns_u, ns_f) >= 10_000
    if big.any():
        bu, bf = float(np.median(ns_u[big])), float(np.median(ns_f[big]))
        ok &= abs(bu - bf) <= 0.1 * max(bu, bf)
    _record(5, ok, "median stopping point is insensitive to the choice "
                   "of informationless prior (within 10%)")
    assert ok, f"medians {med_u} vs {med_f}"


# ---------------------------------------------------------------- 6

def _beta_quadrature(a: float, b: float, x: float) -> float:
    """Adaptive quadrature after t = sin^2(theta), stable for a,b >= 0.5."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    lognorm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    value, _ = integrate.quad(
        lambda t: 2.0 * math.exp(lognorm
                                 + (2 * a - 1) * math.log(math.sin(t))
                                 + (2 * b - 1) * math.log(math.cos(t))),
        0.0, math.asin(math.sqrt(x)), epsabs=1e-13, epsrel=1e-13,
        limit=300)
    return value


def test_criterion_6_beta_kernel_accuracy():
    gen = np.random.Generator(np.random.PCG64(131))
    worst = 0.0
    for _ in range(200):
        a = float(gen.uniform(0.5, 50.0))
        b = float(gen.uniform(0.5, 50.0))
        x = float(gen.uniform(0.0, 1.0))
        worst = max(worst, abs(regularized_incomplete_beta(a, b, x)
                               - _beta_quadrature(a, b, x)))
    ok = worst <= 1e-10
    ok &= round(regularized_incomplete_beta(2, 5, 0.3), 6) == 0.579825
    ok &= abs(regularized_incomplete_beta(1, 1, 0.25) - 0.25) <= 1e-12
    ok &= abs(regularized_incomplete_beta(7.5, 7.5, 0.5) - 0.5) <= 1e-12
    _record(6, ok, "incomplete beta kernel matches adaptive quadrature "
                   "within 1e-10 across shapes in [0.5, 50]")
    assert ok, f"worst deviation {worst:.3e}"


# ---------------------------------------------------------------- 7

def test_criterion_7_greedy_cost_reduction():
    ok = True

    net_c = parse_network(NET_C_SOURCE)
    selected, trace = greedy_select(net_c, {})
    ok &= selected == ("A", "B")
    ok &= tuple(step.added for step in trace.steps) == (("A",), ("B",))
    ok &= tuple(step.node for step in trace.steps) == ("B", "C")
    ok &= math.isclose(trace.steps[0].lambda_before, 9.0, rel_tol=1e-12)
    ok &= math.isclose(trace.steps[1].lambda_before, 4.0, rel_tol=1e-12)
    ok &= math.isclose(trace.final_cost.subproblem_term, 4.0,
                       rel_tol=1e-12)
    ok &= math.isclose(trace.final_cost.weight_term, 80.0, rel_tol=1e-12)

    gen = np.random.Generator(np.random.PCG64(7007))
    accepted = 0
    for i in range(20):
        n = int(gen.integers(4, 9))
        net = (random_chain if i % 2 == 0 else random_tree)(gen, n)
        _, trace = greedy_select(net, {})
        for step in trace.steps:
            accepted += 1
            ok &= (1 << len(step.added)) < step.lambda_before
            ok &= step.candidate_ratio > 1.0
            ok &= (step.cost_after.subproblem_term
                   < step.cost_before.subproblem_term)
    ok &= accepted >= 5

    _record(7, ok, "every accepted greedy step passes the eligibility "
                   "test and shrinks the subproblem term")
    assert ok, f"{accepted} accepted steps"


# ---------------------------------------------------------------- 8

def test_criterion_8_sampler_correctness():
    gen = np.random.Generator(np.random.PCG64(881))
    nets = [parse_network(NET_A_SOURCE), parse_network(NET_C_SOURCE),
            random_network(gen, 5), random_network(gen, 5)]

    n_draw = 200_000
    checks = 0
    hits = 0
    for net in nets:
        for seed in range(20):
            rows = logic_sample_batch(net, RandomSource(seed), n_draw)
            for name in net.nodes:
                phi = exact_marginal(net, {name: 1})
                se = math.sqrt(phi * (1 - phi) / n_draw)
                checks += 1
                hits += abs(rows[:, net.index(name)].mean() - phi) \
                    <= 4 * se
    marginals_ok = hits / checks >= 0.95

    conditions = [(nets[0], {"A": 1}), (nets[1], {"C": 1}),
                  (nets[2], {"N4": 1}), (nets[3], {"N0": 0})]
    tv_ok = True
    n_cond = 100_000
    for trial_seed, (net, condition) in enumerate(conditions):
        rows = conditioned_sample_batch(
            net, condition, TrialGeneratorKind.rejection(),
            RandomSource(1234 + trial_seed), n_cond)
        free = [x for x in net.nodes if x not in condition]
        cols = [net.index(x) for x in free]
        idx = np.zeros(n_cond, dtype=np.int64)
        for col in cols:
            idx = (idx << 1) | rows[:, col]
        observed = np.bincount(idx, minlength=1 << len(free)) / n_cond
        tv = 0.0
        for state in range(1 << len(free)):
            inst = {name: (state >> (len(free) - 1 - j)) & 1
                    for j, name in enumerate(free)}
            tv += abs(observed[state]
                      - exact_conditional(net, inst, condition))
        tv_ok &= tv / 2 <= 0.02

    ok = marginals_ok and tv_ok
    _record(8, ok, "sampler marginals within 4 standard errors; "
                   "conditioned joints within total variation 0.02")
    assert ok, (f"marginal checks {hits}/{checks}, "
                f"tv within bound: {tv_ok}")


# ---------------------------------------------------------------- 9

def test_criterion_9_report_reproducibility(tmp_path):
    gen = np.random.Generator(np.random.PCG64(990))
    ok = True
    for i in range(20):
        n = int(gen.integers(3, 8))
        net = random_network(gen, n)
        path = tmp_path / f"net_{i}.bnet"
        path.write_text(serialize_network(net))
        names = list(net.nodes)
        qnode = names[int(gen.integers(0, n))]
        query = f"{qnode}={int(gen.integers(0, 2))}"
        evidence = ""
        if gen.random() < 0.5:
            others = [x for x in names if x != qnode]
            pick = others[int(gen.integers(0, len(others)))]
            evidence = f"{pick}={int(gen.integers(0, 2))}"
        seed = int(gen.integers(0, 2 ** 31))
        argv = ["infer", "--network", str(path), "--query", query,
                "--epsilon", "0.3", "--delta", "0.2",
                "--seed", str(seed), "--report", "json"]
        if evidence:
            argv += ["--evidence", evidence]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
        ok &= code == 0
        report = json.loads(sink.getvalue())
        replay = cli.rerun_report(report)
        ok &= replay.estimate == report["result"]["estimate"]
        ok &= replay.trials_total == report["result"]["trials_total"]
        ok &= list(replay.mu_s) == report["result"]["mu_s"]
    _record(9, ok, "every report re-executed from its recorded seed "
                   "reproduces its estimate bit-exactly")
    assert ok
