"""condsim benchmark: certified answers end to end, and a traced run per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
One process and one closed-loop client with no threads: each answer is
requested through ``condsim.reformulate.infer`` after the previous one
returns. Answers run in passes over the workload's cases; pass ``p``
answers case ``i`` with seed ``mix(seed, p, i)``.

Both modes first answer the pool untimed for up to ``WARM_UP_S`` seconds,
with seeds no timed pass uses. ``--trace 0`` then runs whole passes until
the run is as near ``--seconds`` as whole passes allow, and reports the
end-to-end metrics. ``--trace 1`` runs pairs of passes, each pass once
untraced and once traced with the same seeds, and reports the per-layer
metrics; the first traced pass gives the counts, so they repeat exactly
for a seed. Both modes check every answer against the exact oracle, check
that the first answers replay bit for bit through the CLI, and write a
run record under ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit status is
0 when the outputs are correct, 1 when a check failed and 2 when the
library cannot be found. NOTES.md explains the workloads and metrics.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

# Set-up probes run half before and half after the timed loop, so that
# their median straddles the machine's slow and fast spells.
SETUP_PROBES = 8
# Untimed answers before the first timed pass. Without them the first
# answers after the set-up probes ran up to 40% slower than the rest.
WARM_UP_S = 2.0
WARM_UP_PASS = -1
REPLAY_SAMPLE = 3
# Chance that a program keeping its (epsilon, delta) promise still fails
# the miss gate on one run.
MISS_GATE_RISK = 1e-4
# ROADMAP item 3: the Beta kernel gives up at these shapes.
KERNEL_FAILURE_POINT = ((430587, 617989), 0.0005, 0.1)
GRID_COUNTS = (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)
GRID_SHARES = (0.5, 0.05)


@dataclass
class Answer:
    """Outcome of one ``infer`` call."""

    case: int
    pass_no: int
    seed: int
    seconds: float
    estimate: float | None = None
    trials: int = 0
    weight_trials: int = 0
    strategy: str = ""
    selected_s: tuple = ()
    d_before: float = 1.0
    d_after: float = 1.0
    error: str | None = None
    message: str = ""


class Bench:
    """Parsed networks and per-case arguments, ready to answer."""

    def __init__(self, workload: workloads.Workload, seed: int) -> None:
        from condsim import reformulate
        from condsim.sampling import TrialGeneratorKind
        from setup_probe import set_up

        # infer is looked up on the module at each call, so that the
        # tracer's rebinding applies.
        self.reformulate = reformulate
        self.workload = workload
        self.seed = seed
        self.nets = set_up([c.network for c in workload.cases])
        self.configs = []
        for case in workload.cases:
            kind = (TrialGeneratorKind.gibbs(case.burn_in_sweeps)
                    if case.generator == "gibbs"
                    else TrialGeneratorKind.rejection())
            self.configs.append(reformulate.InferConfig(generator=kind))

    def answer(self, i: int, pass_no: int) -> Answer:
        case = self.workload.cases[i]
        seed = workloads.mix(self.seed, pass_no, i)
        net = self.nets[case.network]
        start = time.perf_counter()
        try:
            r = self.reformulate.infer(net, case.query, case.evidence,
                                       case.epsilon, case.delta,
                                       case.strategy, self.configs[i], seed)
        except Exception as exc:  # every failure is counted, never skipped
            return Answer(i, pass_no, seed, time.perf_counter() - start,
                          error=type(exc).__name__, message=str(exc))
        return Answer(i, pass_no, seed, time.perf_counter() - start,
                      r.estimate, r.trials_total, r.weight_trials,
                      r.strategy_used, r.selected_s, r.dependence_before,
                      r.dependence_after)

    def log10_d(self, a: Answer, after: bool) -> float:
        """log10 of an answer's dependence value. The library's product
        overflows to inf on wide-direct's ~500 nodes; the sum of the
        per-node log factors is finite."""
        value = a.d_after if after else a.d_before
        if math.isfinite(value):
            return math.log10(value)
        from condsim.dependence import dependence_value

        case = self.workload.cases[a.case]
        report = dependence_value(self.nets[case.network], case.evidence,
                                  a.selected_s if after else ())
        return sum(2.0 * math.log10(lam) for _, lam in
                   report.per_node.values())

    def warm_up(self, seconds: float) -> None:
        """Answer the pool once, untimed, stopping after ``seconds``."""
        start = time.perf_counter()
        for i in range(len(self.workload.cases)):
            if time.perf_counter() - start >= seconds:
                return
            self.answer(i, WARM_UP_PASS)

    def run_pass(self, pass_no: int,
                 tracer: Tracer | None = None) -> list[Answer]:
        out = []
        for i in range(len(self.workload.cases)):
            if tracer is not None:
                tracer.answer_id = i
            out.append(self.answer(i, pass_no))
        return out


def repeat_passes(run_one, seconds: float) -> float:
    """Call ``run_one(p)`` for p = 0, 1, ... while another call is
    expected to end the run nearer ``seconds``; return the elapsed time.

    Whole passes only: a cut pass would weight the run toward the cases
    at the front of the pool.
    """
    start = time.perf_counter()
    p = 0
    while True:
        run_one(p)
        p += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / p / 2 >= seconds:
            return elapsed


# ------------------------------------------------------------ helpers

def _ms(ns: float) -> float:
    return ns / 1e6


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _diff(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def binomial_gate(n: int, p: float, risk: float) -> int:
    """Smallest m with Pr[Binomial(n, p) > m] <= risk."""
    if n == 0:
        return 0
    cdf = 0.0
    for k in range(n + 1):
        cdf += math.exp(math.lgamma(n + 1) - math.lgamma(k + 1)
                        - math.lgamma(n - k + 1) + k * math.log(p)
                        + (n - k) * math.log1p(-p))
        if 1.0 - cdf <= risk:
            return k
    return n


def harrell_davis(values: list[float], p: float, grid: int = 64) -> float:
    """The Harrell-Davis estimate of the p-quantile (Biometrika, 1982).

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of all order statistics, in
    place of the one or two that a plain percentile reads. On mixed-small
    the slowest 10% of answers come from three cases, the next case is
    about a third faster, and the plain p90 fell anywhere in that gap.
    The Beta weights are integrated numerically, ``grid`` points per
    order statistic.
    """
    import numpy as np

    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    t = (np.arange(n * grid) + 0.5) / (n * grid)
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    weights = np.exp(log_pdf - log_pdf.max()).reshape(n, grid).sum(axis=1)
    return float(np.dot(weights / weights.sum(), xs))


def setup_seconds(texts: list[str], probes: int) -> list[float]:
    """Set-up time of fresh processes, one per probe, in seconds."""
    payload = json.dumps(texts)
    times = []
    for _ in range(probes):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            input=payload, capture_output=True, text=True, timeout=120,
            check=True)
        times.append(json.loads(done.stdout)["ready"] - start)
    return times


# ------------------------------------------------------------- checks

def check_answers(bench: Bench, answers: list[Answer]) -> dict:
    """Compare each answer with the exact truth; gate rejection misses."""
    from condsim.exact import exact_conditional
    from condsim.network import parse_network

    def key(case: workloads.Case) -> tuple:
        return (case.oracle_network, tuple(case.query.items()),
                tuple(case.evidence.items()))

    cases = bench.workload.cases
    truths, truth_ns = {}, []
    parsed = dict(bench.nets)
    for i in sorted({a.case for a in answers}):
        case = cases[i]
        if key(case) in truths:
            continue
        text = case.oracle_network
        if text not in parsed:
            parsed[text] = parse_network(text)
        start = time.perf_counter_ns()
        truths[key(case)] = exact_conditional(parsed[text], case.query,
                                              case.evidence)
        truth_ns.append(time.perf_counter_ns() - start)
    tally = {"rejection": [0, 0], "gibbs": [0, 0]}
    for a in answers:
        if a.error is not None:
            continue
        case = cases[a.case]
        truth = truths[key(case)]
        miss = not (truth / (1.0 + case.epsilon) <= a.estimate
                    <= truth * (1.0 + case.epsilon))
        tally[case.generator][0] += 1
        tally[case.generator][1] += miss
    n, misses = tally["rejection"]
    delta = max(c.delta for c in cases)
    gate = binomial_gate(n, delta, MISS_GATE_RISK)
    return {"rejection_answers": n, "rejection_misses": misses,
            "miss_gate": gate, "miss_ok": misses <= gate,
            "gibbs_answers": tally["gibbs"][0],
            "gibbs_misses": tally["gibbs"][1],
            "truth_ms": [_ms(t) for t in truth_ns]}


def check_replay(bench: Bench, answers: list[Answer]) -> dict:
    """Replay the first answers through ``cli.main`` and ``rerun_report``.

    Each report must carry the timed answer's estimate, and re-running
    the report must reproduce it bit for bit.
    """
    from condsim import cli

    sample = [a for a in answers if a.error is None][:REPLAY_SAMPLE]
    rows = []
    work = OUT / f"replay-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for a in sample:
            case = bench.workload.cases[a.case]
            path = work / f"case{a.case}.bnet"
            path.write_text(case.network, encoding="utf-8")
            argv = ["infer", "--network", str(path),
                    "--query", _assignment(case.query),
                    "--evidence", _assignment(case.evidence),
                    "--epsilon", repr(case.epsilon),
                    "--delta", repr(case.delta),
                    "--strategy", case.strategy, "--seed", str(a.seed),
                    "--report", "json"]
            if case.generator == "gibbs":
                argv += ["--generator", "gibbs",
                         "--burn-in-sweeps", str(case.burn_in_sweeps)]
            buffer = io.StringIO()
            start = time.perf_counter_ns()
            with contextlib.redirect_stdout(buffer):
                status = cli.main(argv)
            report_ns = time.perf_counter_ns() - start
            report = json.loads(buffer.getvalue())
            start = time.perf_counter_ns()
            rerun = cli.rerun_report(report)
            replay_ns = time.perf_counter_ns() - start
            reported = report["result"]["estimate"]
            rows.append({"case": a.case, "seed": a.seed, "status": status,
                         "estimate": a.estimate, "reported": reported,
                         "replayed": rerun.estimate,
                         "ok": (status == 0 and reported == a.estimate
                                and rerun.estimate == a.estimate),
                         "report_ms": _ms(report_ns),
                         "replay_ms": _ms(replay_ns)})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"answers": rows, "ok": bool(rows) and all(r["ok"] for r in rows)}


def _assignment(values: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in values.items())


# ------------------------------------------------------ layer probes

def stopping_grid(workload: workloads.Workload) -> list[dict]:
    """Time ``should_stop`` on fixed posteriors at the workload's stage
    epsilons, plus the point where the Beta kernel gives up."""
    from condsim.stopping import DirichletPosterior, should_stop

    delta = max(c.delta for c in workload.cases)
    points = [((n - round(share * n), round(share * n)), eps, delta)
              for eps in workload.stage_epsilons for n in GRID_COUNTS
              for share in GRID_SHARES]
    points.append(KERNEL_FAILURE_POINT)
    rows = []
    for counts, eps, dlt in points:
        posterior = DirichletPosterior(counts)
        times, error = [], None
        # At least 5 evaluations; more, up to 200, until 5 ms are spent.
        while len(times) < 5 or (sum(times) < 5e6 and len(times) < 200):
            start = time.perf_counter_ns()
            try:
                should_stop(posterior, eps, dlt)
            except Exception as exc:  # a failed evaluation is a result
                error = type(exc).__name__
            times.append(time.perf_counter_ns() - start)
            if error is not None:
                break
        rows.append({"counts": list(counts), "epsilon": eps, "delta": dlt,
                     "us": statistics.median(times) / 1e3, "error": error})
    return rows


def parse_ms(texts: list[str]) -> list[float]:
    """Median of five ``parse_network`` timings per distinct network."""
    from condsim.network import parse_network

    out = []
    for text in dict.fromkeys(texts):
        times = []
        for _ in range(5):
            start = time.perf_counter_ns()
            parse_network(text)
            times.append(time.perf_counter_ns() - start)
        out.append(_ms(statistics.median(times)))
    return out


# ----------------------------------------------------------- the runs

def end_to_end(bench: Bench, seconds: float) -> tuple[list, list, dict,
                                                     dict]:
    """Untraced passes: returns every answer, the answers to check (the
    same), the end-to-end metrics and run details."""
    texts = [c.network for c in bench.workload.cases]
    setups = setup_seconds(texts, SETUP_PROBES // 2)
    bench.warm_up(WARM_UP_S)
    answers: list[Answer] = []
    pass_rates = []

    def timed_pass(pass_no: int) -> None:
        start = time.perf_counter()
        done = bench.run_pass(pass_no)
        elapsed = time.perf_counter() - start
        answers.extend(done)
        pass_rates.append(sum(a.error is None for a in done) / elapsed)

    loop_s = repeat_passes(timed_pass, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups += setup_seconds(texts, SETUP_PROBES - SETUP_PROBES // 2)
    counted = [a for a in answers if a.pass_no == 0 and a.error is None]
    latencies = [a.seconds for a in answers]
    ok = [a for a in answers if a.error is None]
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "answers_per_s": (statistics.median(pass_rates), "1/s", len(ok)),
        "answer_s.p50": (harrell_davis(latencies, 0.5), "s",
                         len(latencies)),
        "answer_s.p90": (harrell_davis(latencies, 0.9), "s",
                         len(latencies)),
        "trials_per_answer": (_ratio(sum(a.trials for a in counted),
                                     len(counted)), "count", len(counted)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    extra = {"setup_s": setups, "loop_s": loop_s, "pass_rates": pass_rates,
             "passes": answers[-1].pass_no + 1}
    return answers, answers, metrics, extra


def traced(bench: Bench, seconds: float) -> tuple[list, list, dict, dict]:
    """Pairs of untraced and traced passes: returns every answer, the
    untraced ones to check, the per-layer metrics and run details."""
    tracer = Tracer()
    answers: list[Answer] = []
    traced_answers: list[Answer] = []
    times = {"plain": 0.0, "traced": 0.0}
    first = {}

    def plain(pass_no: int) -> None:
        start = time.perf_counter()
        answers.extend(bench.run_pass(pass_no))
        times["plain"] += time.perf_counter() - start

    def pair(pass_no: int) -> None:
        # Alternate which side runs first, so drift in machine speed
        # does not bias trace.overhead.
        if pass_no % 2 == 0:
            plain(pass_no)
        before = tracer.snapshot()
        tracer.keep_spans = pass_no == 0
        start = time.perf_counter()
        tracer.install()
        try:
            traced_answers.extend(bench.run_pass(pass_no, tracer))
        finally:
            tracer.uninstall()
        times["traced"] += time.perf_counter() - start
        if pass_no % 2 == 1:
            plain(pass_no)
        if pass_no == 0:
            after = tracer.snapshot()
            first["counts"] = _diff(after["counts"], before["counts"])
            first["calls"] = _diff(after["calls"], before["calls"])
            first["max_n"] = tracer.max_posterior_n

    bench.warm_up(WARM_UP_S)
    repeat_passes(pair, seconds)
    same = all(p.estimate == t.estimate and p.error == t.error
               for p, t in zip(answers, traced_answers))
    metrics = layer_metrics(bench, tracer, traced_answers, first["counts"],
                            first["calls"], first["max_n"])
    metrics["trace.overhead"] = (times["plain"] / times["traced"], "ratio",
                                 len(traced_answers))
    grid = stopping_grid(bench.workload)
    good = [r["us"] for r in grid if r["error"] is None]
    metrics["stopping.grid_us_per_eval"] = (statistics.median(good), "us",
                                            len(good))
    metrics["stopping.grid_failed_evals"] = (
        sum(r["error"] is not None for r in grid), "count", len(grid))
    parses = parse_ms([c.network for c in bench.workload.cases])
    metrics["network.parse_ms"] = (statistics.mean(parses), "ms",
                                   len(parses))
    extra = {"passes": answers[-1].pass_no + 1,
             "traced_equals_untraced": same,
             "rows_observable": tracer.rows_observable,
             "untraced_functions": sorted(tracer.missing),
             "dependence_overflows": sum(
                 not math.isfinite(a.d_before) for a in traced_answers),
             "stopping_grid": grid, "spans": tracer.spans}
    return answers + traced_answers, answers, metrics, extra


def layer_metrics(bench: Bench, tracer: Tracer,
                  traced_answers: list[Answer], counts: dict, calls: dict,
                  max_n: int) -> dict:
    """Per-layer metrics: counts from the first traced pass, times from
    every traced pass."""
    t_ns, s_ns, n_calls, n_all = (tracer.total_ns, tracer.self_ns,
                                  tracer.calls, tracer.counts)
    first = [a for a in traced_answers if a.pass_no == 0]
    ok = [a for a in first if a.error is None]
    n_first = len(first)
    scored = sum(counts.get(f"trials.{k}", 0)
                 for k in ("rejection", "gibbs", "weights"))
    answer_ns = t_ns.get("reformulate.infer", 0)
    phases = ("sampling.fraction.rejection", "sampling.fraction.gibbs",
              "reformulate.weights")
    sampling_ns = sum(s_ns.get(p, 0) + n_all.get("rng_ns_in." + p, 0)
                      for p in phases)
    gibbs_ns = (s_ns.get("sampling.fraction.gibbs", 0)
                + n_all.get("rng_ns_in.sampling.fraction.gibbs", 0))
    uniforms_all = n_all.get("sampling.rng", 0)
    forward_rows = counts.get("rows", 0) - counts.get("trials.gibbs", 0)
    accepted = (counts.get("trials.rejection", 0)
                + counts.get("trials.weights", 0))
    fractions = (calls.get("sampling.fraction.rejection", 0)
                 + calls.get("sampling.fraction.gibbs", 0))
    stop_calls = n_calls.get("stopping.should_stop", 0)
    return {
        "dependence.value_ms": (
            _ms(_ratio(t_ns.get("dependence.value", 0),
                       n_calls.get("dependence.value", 0))), "ms",
            n_calls.get("dependence.value", 0)),
        "dependence.log10_D_before": (
            _ratio(sum(bench.log10_d(a, False) for a in ok), len(ok)),
            "log10", len(ok)),
        "dependence.log10_D_after": (
            _ratio(sum(bench.log10_d(a, True) for a in ok), len(ok)),
            "log10", len(ok)),
        "reformulate.greedy_ms": (
            _ms(_ratio(t_ns.get("reformulate.greedy", 0),
                       len(traced_answers))), "ms", len(traced_answers)),
        "reformulate.selective_share": (
            _ratio(sum(a.strategy == "selective" for a in ok), len(ok)),
            "ratio", len(ok)),
        "reformulate.subproblems_per_answer": (
            _ratio(fractions, n_first), "count", n_first),
        "reformulate.weight_trials_share": (
            _ratio(sum(a.weight_trials for a in ok),
                   sum(a.trials for a in ok)), "ratio", len(ok)),
        "reformulate.weight_s_share": (
            _ratio(t_ns.get("reformulate.weights", 0), answer_ns), "ratio",
            len(traced_answers)),
        "sampling.uniforms_per_answer": (
            _ratio(counts.get("sampling.rng", 0), n_first), "count",
            n_first),
        "sampling.uniforms_per_trial": (
            _ratio(counts.get("sampling.rng", 0), scored), "count", scored),
        "sampling.acceptance_rate": (
            _ratio(accepted, forward_rows), "ratio", forward_rows),
        "sampling.ns_per_uniform": (
            _ratio(sampling_ns, uniforms_all), "ns", uniforms_all),
        "sampling.rng_ns_per_uniform": (
            _ratio(t_ns.get("sampling.rng", 0), uniforms_all), "ns",
            uniforms_all),
        "sampling.self_share": (_ratio(sampling_ns, answer_ns), "ratio",
                                len(traced_answers)),
        "sampling.gibbs_ns_per_row_sweep": (
            _ratio(gibbs_ns, n_all.get("gibbs.row_sweeps", 0)), "ns",
            n_all.get("gibbs.row_sweeps", 0)),
        "stopping.evals_per_answer": (
            _ratio(calls.get("stopping.should_stop", 0), n_first), "count",
            n_first),
        "stopping.us_per_eval": (
            _ratio(t_ns.get("stopping.should_stop", 0), stop_calls) / 1e3,
            "us", stop_calls),
        "stopping.self_share": (
            _ratio(t_ns.get("stopping.should_stop", 0), answer_ns), "ratio",
            len(traced_answers)),
        "stopping.max_posterior_n": (max_n, "count", n_first),
    }


# --------------------------------------------------------- reporting

def environment(workload: str, seed: int) -> dict:
    import numpy

    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((SRC / "condsim").glob("*.py")))
    return {"git_sha": _git_sha(), "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "workload": workload, "seed": seed,
            "src_condsim_lines": lines}


def _git_sha() -> str | None:
    """HEAD's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "condsim" / "__init__.py").is_file():
        print(f"perfbench: no library at {SRC / 'condsim'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = workloads.WORKLOADS[args.workload]()
    bench = Bench(workload, args.seed)
    run = traced if args.trace else end_to_end
    answers, checked, metrics, extra = run(bench, args.seconds)
    misses = check_answers(bench, checked)
    replay = check_replay(bench, checked)
    if args.trace:
        metrics["exact.truth_ms"] = (statistics.mean(misses["truth_ms"]),
                                     "ms", len(misses["truth_ms"]))
        metrics["cli.report_ms"] = (
            _ratio(sum(r["report_ms"] for r in replay["answers"]),
                   len(replay["answers"])), "ms", len(replay["answers"]))
        metrics["cli.replay_ms"] = (
            _ratio(sum(r["replay_ms"] for r in replay["answers"]),
                   len(replay["answers"])), "ms", len(replay["answers"]))

    errors: dict[str, int] = {}
    for a in answers:
        if a.error is not None:
            errors[a.error] = errors.get(a.error, 0) + 1
    failed = sum(errors.values())
    correct = (misses["miss_ok"] and replay["ok"]
               and extra.get("traced_equals_untraced", True))
    summary = {
        "error_rate": (_ratio(failed, len(answers)), "ratio", len(answers)),
        "miss_rate": (_ratio(misses["rejection_misses"],
                             misses["rejection_answers"]), "ratio",
                      misses["rejection_answers"]),
        "miss_rate.gibbs": (_ratio(misses["gibbs_misses"],
                                   misses["gibbs_answers"]), "ratio",
                            misses["gibbs_answers"]),
    }

    env = environment(args.workload, args.seed)
    print(f"condsim benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace}  sha={env['git_sha']}  nproc={env['nproc']}  "
          f"python={env['python']} numpy={env['numpy']}  "
          f"src/condsim lines={env['src_condsim_lines']}")
    print(f"  {'metric':36} {'value':>14} {'unit':>6}  samples")
    for name, (value, unit, n) in {**metrics, **summary}.items():
        print(f"  {name:36} {value:14.6g} {unit:>6}  {n}")
    print(f"  errors by type: {errors or 'none'}")
    print(f"  rejection misses {misses['rejection_misses']} of "
          f"{misses['rejection_answers']} (gate {misses['miss_gate']} at "
          f"risk {MISS_GATE_RISK}); gibbs misses {misses['gibbs_misses']} "
          f"of {misses['gibbs_answers']} (not gated)")
    print(f"  replay bit-exact: {replay['ok']} over "
          f"{len(replay['answers'])} answers")

    OUT.mkdir(exist_ok=True)
    record = {"environment": env, "args": vars(args), "correct": correct,
              "attempted": len(answers), "failed": failed, "errors": errors,
              "metrics": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in {**metrics,
                                               **summary}.items()},
              "misses": {k: v for k, v in misses.items() if k != "truth_ms"},
              "replay": replay,
              "run": {k: v for k, v in extra.items() if k != "spans"},
              "answers": [{k: repr(v) if isinstance(v, float)
                           and not math.isfinite(v) else v
                           for k, v in vars(a).items()} for a in answers]}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            {"columns": ["id", "parent", "name", "start_ns", "end_ns",
                         "case"], "spans": extra["spans"]}))
    print(json.dumps({"correct": correct, "attempted": len(answers),
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u, _) in metrics.items()}},
                      allow_nan=False))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
