import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from condsim import __version__, cli
from condsim.dependence import satisfies_ras
from condsim.errors import RowBudgetExceededError
from condsim.exact import exact_conditional
from condsim.network import (
    ancestral_network,
    parse_network,
    relevant_network,
)
from condsim.reformulate import InferConfig, InferenceResult, infer
from condsim.sampling import RandomSource, estimate_distribution_over

from helpers import (
    BARREN_SOURCE,
    ISOLATED_SOURCE,
    NET_C_SOURCE,
    random_network,
)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv + ["--report", "json"])
    return code, (json.loads(out) if out else None), err


def test_parse_assignment_text_units():
    assert cli.parse_assignment_text("") == {}
    assert cli.parse_assignment_text("  ") == {}
    assert cli.parse_assignment_text("A=1") == {"A": 1}
    assert cli.parse_assignment_text(" A = 1 , B = 0 ") == {"A": 1, "B": 0}
    with pytest.raises(ValueError):
        cli.parse_assignment_text("A")
    with pytest.raises(ValueError):
        cli.parse_assignment_text("A=2")
    with pytest.raises(ValueError):
        cli.parse_assignment_text("=1")
    with pytest.raises(ValueError):
        cli.parse_assignment_text("A=1,A=0")


def test_analyze_text_report(capsys, net_a_path):
    code, out, _ = run_cli(capsys, ["analyze", "--network", net_a_path])
    assert code == 0
    assert "dependence value D = 64" in out
    assert "selected S = [A]" in out


def test_analyze_json_report(capsys, net_a_path):
    code, report, _ = run_json(capsys,
                               ["analyze", "--network", net_a_path])
    assert code == 0
    assert report["command"] == "analyze"
    assert report["network_name"] == "net_a"
    assert report["per_node"]["B"]["lambda"] == pytest.approx(8.0)
    assert report["per_node"]["B"]["lo"] == pytest.approx(0.2)
    assert report["dependence_value"] == pytest.approx(64.0)
    assert report["selected_s"] == ["A"]


def test_analyze_chain_reports_full_conditioning(capsys, net_c_path):
    code, report, _ = run_json(capsys,
                               ["analyze", "--network", net_c_path])
    assert code == 0
    assert report["dependence_value"] == pytest.approx(1296.0)
    assert report["selected_s"] == ["A", "B"]
    assert report["dependence_after"] == pytest.approx(1.0)
    assert report["greedy_trace"]["stop_reason"] == "weight term dominates"


def test_analyze_with_evidence(capsys, net_a_path):
    code, report, _ = run_json(
        capsys, ["analyze", "--network", net_a_path, "--evidence", "B=1"])
    assert code == 0
    assert report["evidence"] == {"B": 1}
    assert report["dependence_value"] == pytest.approx(20.25)


def test_analyze_query_prices_the_ancestral_closure(capsys, tmp_path):
    path = _write(tmp_path, BARREN_SOURCE)
    argv = ["analyze", "--network", path, "--evidence", "E=1"]
    code, whole, _ = run_json(capsys, argv)
    assert code == 0
    assert whole["nodes_kept"] == 5
    assert set(whole["selected_s"]) & {"X", "Y", "Z"}
    code, report, _ = run_json(capsys, argv + ["--query", "Q=1"])
    assert code == 0
    assert report["query"] == {"Q": 1}
    assert report["nodes_kept"] == 2
    assert list(report["per_node"]) == ["Q", "E"]
    assert report["dependence_value"] == pytest.approx(3.5 ** 2)
    assert report["selected_s"] == []
    code, out, _ = run_cli(capsys, argv + ["--query", "Q=1"])
    assert code == 0
    assert "network barren (5 nodes, 2 kept)" in out
    assert "dependence value D = 12.25" in out


def test_infer_prices_the_network_it_ran_on(capsys, tmp_path):
    code, report, _ = run_json(
        capsys, ["infer", "--network", _write(tmp_path, BARREN_SOURCE),
                 "--query", "Q=1", "--evidence", "E=1",
                 "--epsilon", "0.2", "--delta", "0.1"])
    assert code == 0
    result = report["result"]
    assert result["nodes_kept"] == 2
    assert result["dependence_before"] == pytest.approx(3.5 ** 2)
    assert report["cost_before"]["subproblem_term"] == pytest.approx(
        result["dependence_before"] ** 4)
    assert report["cost_after"] == report["cost_before"]


def test_analyze_and_infer_drop_the_same_evidence(capsys, tmp_path):
    # analyze --query prices the problem that infer and its oracle solve.
    path = _write(tmp_path, ISOLATED_SOURCE)
    bindings = ["--network", path, "--query", "N0=0",
                "--evidence", "N3=0,N1=1"]
    code, analyzed, _ = run_json(capsys, ["analyze", *bindings])
    assert code == 0
    assert analyzed["evidence"] == {"N3": 0, "N1": 1}
    assert analyzed["evidence_dropped"] == ["N1", "N3"]
    assert analyzed["nodes_kept"] == 1
    run = ["infer", *bindings, "--epsilon", "0.2", "--delta", "0.1",
           "--exact"]
    code, report, _ = run_json(capsys, run)
    assert code == 0
    result = report["result"]
    assert result["evidence_dropped"] == ["N1", "N3"]
    assert result["nodes_kept"] == 1
    assert result["dependence_before"] == analyzed["dependence_value"]
    assert result["selected_s"] == analyzed["selected_s"] == []
    assert report["exact"]["oracle"] == pytest.approx(
        exact_conditional(parse_network(ISOLATED_SOURCE), {"N0": 0},
                          {"N3": 0, "N1": 1}), rel=1e-12, abs=0)
    code, out, _ = run_cli(capsys, run)
    assert code == 0
    assert "network random (4 nodes, 1 kept)" in out
    assert "  evidence dropped: N1, N3" in out
    code, out, _ = run_cli(capsys, ["analyze", *bindings])
    assert "evidence dropped: N1, N3" in out


def test_missing_network_file_is_a_read_error(capsys, tmp_path):
    not_utf8 = tmp_path / "latin.bnet"
    not_utf8.write_bytes(b"network x\nnode A\nprior A : 0.5 \xff\n")
    for path in ("/no/such/file.bnet", str(not_utf8)):
        code, _, err = run_cli(capsys, ["analyze", "--network", path])
        assert code == 3
        assert "cannot read network" in err


def test_malformed_network_is_a_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.bnet"
    bad.write_text("network broken\nnode A\nprior A : 1.5\n")
    code, _, err = run_cli(capsys, ["analyze", "--network", str(bad)])
    assert code == 3
    assert "parse error" in err


def test_bad_assignment_token_is_a_usage_error(capsys, net_a_path):
    code, _, err = run_cli(
        capsys, ["analyze", "--network", net_a_path, "--evidence", "B=="])
    assert code == 2
    assert err


def test_unknown_node_is_a_usage_error(capsys, net_a_path):
    code, _, _ = run_cli(
        capsys, ["infer", "--network", net_a_path, "--query", "Z=1",
                 "--epsilon", "0.2", "--delta", "0.1"])
    assert code == 2


def test_nonpositive_epsilon_is_a_usage_error(capsys, net_a_path):
    code, _, _ = run_cli(
        capsys, ["infer", "--network", net_a_path, "--query", "B=1",
                 "--epsilon", "0", "--delta", "0.1"])
    assert code == 2


def test_duplicate_binding_is_a_usage_error(capsys, net_a_path):
    code, _, _ = run_cli(
        capsys, ["infer", "--network", net_a_path, "--query", "B=1,B=0",
                 "--epsilon", "0.2", "--delta", "0.1"])
    assert code == 2


def test_overlapping_query_and_evidence_is_a_usage_error(capsys,
                                                         net_a_path):
    # One message, with or without the exact oracle.
    infer_argv = ["infer", "--network", net_a_path, "--query", "A=1,B=1",
                  "--evidence", "B=0", "--epsilon", "0.2", "--delta", "0.1"]
    for argv in (infer_argv, infer_argv + ["--exact"],
                 ["analyze", "--network", net_a_path, "--query", "B=1",
                  "--evidence", "B=0"]):
        assert run_cli(capsys, argv) == (
            2, "", "condsim: query and evidence both bind: B\n")


@pytest.mark.parametrize("strategy", ["direct", "selective", "auto"])
@pytest.mark.parametrize("flags", [
    ["--max-s", "-3"],
    ["--max-s", "21"],
], ids=["negative-max-s", "max-s-above-20"])
def test_every_strategy_refuses_the_same_greedy_settings(capsys, net_c_path,
                                                         strategy, flags):
    # direct never runs the greedy search, yet its report would record
    # the settings for a replay under any strategy.
    code, out, err = run_cli(
        capsys, ["infer", "--network", net_c_path, "--query", "A=1",
                 "--evidence", "C=1", "--epsilon", "0.2", "--delta", "0.1",
                 "--strategy", strategy, *flags])
    assert code == 2
    assert out == ""
    assert "must" in err and flags[1] in err


def test_infer_exact_verdict(capsys, net_a_path):
    code, report, _ = run_json(
        capsys, ["infer", "--network", net_a_path, "--query", "A=1",
                 "--evidence", "B=1", "--epsilon", "0.2", "--delta", "0.1",
                 "--seed", "7", "--exact"])
    assert code == 0
    assert report["result"]["strategy_used"] == "direct"
    assert report["exact"]["oracle"] == pytest.approx(27 / 41)
    assert report["exact"]["satisfies_ras"] is True
    assert report["seed"] == 7


def test_infer_direct_strategy_omits_greedy_trace(capsys, net_a_path):
    code, report, _ = run_json(
        capsys, ["infer", "--network", net_a_path, "--query", "B=1",
                 "--epsilon", "0.3", "--delta", "0.2",
                 "--strategy", "direct", "--seed", "1"])
    assert code == 0
    assert report["result"]["strategy_used"] == "direct"
    assert report["result"]["greedy_trace"] is None
    assert report["result"]["selected_s"] == []


def test_infer_selective_report_shape(capsys, net_c_path):
    code, report, _ = run_json(
        capsys, ["infer", "--network", net_c_path, "--query", "C=1",
                 "--strategy", "selective", "--epsilon", "0.2",
                 "--delta", "0.1", "--seed", "13"])
    assert code == 0
    result = report["result"]
    assert list(result) == [
        "subproblems" if f.name == "subproblem_estimates" else f.name
        for f in fields(InferenceResult)]
    assert result["strategy_used"] == "selective"
    assert result["selected_s"] == ["A", "B"]
    assert len(result["subproblems"]) == 4
    assert result["trials_total"] == result["weight_trials"] + sum(
        s["numerator"]["trials"] + s["denominator"]["trials"]
        for s in result["subproblems"])
    assert report["cost_before"]["subproblem_term"] == pytest.approx(
        1296.0 ** 4)
    assert report["cost_after"]["weight_term"] == pytest.approx(80.0)


def test_infer_text_report_mentions_estimate(capsys, net_a_path):
    code, out, _ = run_cli(
        capsys, ["infer", "--network", net_a_path, "--query", "B=1",
                 "--epsilon", "0.3", "--delta", "0.2", "--seed", "1"])
    assert code == 0
    assert "Pr[B=1 | nothing]" in out
    assert "strategy" in out


def test_infer_defaults_are_the_library_defaults(capsys, net_c_path):
    code, report, _ = run_json(
        capsys, ["infer", "--network", net_c_path, "--query", "A=1",
                 "--evidence", "C=1", "--epsilon", "0.2", "--delta", "0.1",
                 "--seed", "21"])
    assert code == 0
    assert cli._infer_config(report["config"]) == InferConfig()
    result = infer(parse_network(NET_C_SOURCE), {"A": 1}, {"C": 1}, 0.2,
                   0.1, seed=21)
    assert report["result"]["estimate"] == result.estimate
    assert report["result"]["trials_total"] == result.trials_total


def test_rerun_report_reproduces_the_estimate(capsys, net_c_path):
    code, report, _ = run_json(
        capsys, ["infer", "--network", net_c_path, "--query", "C=1",
                 "--evidence", "A=0",
                 "--epsilon", "0.25", "--delta", "0.1", "--seed", "99"])
    assert code == 0
    replay = cli.rerun_report(report)
    assert replay.estimate == report["result"]["estimate"]
    assert replay.trials_total == report["result"]["trials_total"]
    assert list(replay.mu_s) == report["result"]["mu_s"]


def test_rerun_report_refuses_another_version(capsys, net_c_path):
    # A report replays only under the version that wrote it: another
    # version may draw other streams or read its config otherwise.
    code, report, _ = run_json(
        capsys, ["infer", "--network", net_c_path, "--query", "C=1",
                 "--evidence", "A=0", "--epsilon", "0.25", "--delta", "0.1",
                 "--seed", "99"])
    assert code == 0
    assert report["version"] == __version__
    with pytest.raises(ValueError) as einfo:
        cli.rerun_report({**report, "version": "0.9.0"})
    assert "0.9.0" in str(einfo.value) and __version__ in str(einfo.value)
    replay = cli.rerun_report(report)
    assert replay.estimate == report["result"]["estimate"]
    assert replay.trials_total == report["result"]["trials_total"]


def test_rerun_report_round_trips_through_serialized_text(capsys,
                                                          net_a_path):
    code, report, _ = run_json(
        capsys, ["infer", "--network", net_a_path, "--query", "A=1",
                 "--evidence", "B=1", "--epsilon", "0.2", "--delta", "0.1",
                 "--generator", "gibbs", "--burn-in-sweeps", "6",
                 "--seed", "55"])
    assert code == 0
    replay = cli.rerun_report(json.loads(json.dumps(report)))
    assert replay.estimate == report["result"]["estimate"]


def test_burn_in_with_rejection_is_a_usage_error(capsys, net_a_path):
    code, _, _ = run_cli(
        capsys, ["infer", "--network", net_a_path, "--query", "B=1",
                 "--epsilon", "0.2", "--delta", "0.1",
                 "--burn-in-sweeps", "5"])
    assert code == 2


def test_nonpositive_burn_in_is_a_usage_error(capsys, net_a_path):
    code, _, _ = run_cli(
        capsys, ["infer", "--network", net_a_path, "--query", "B=1",
                 "--epsilon", "0.2", "--delta", "0.1",
                 "--generator", "gibbs", "--burn-in-sweeps", "0"])
    assert code == 2


def test_gibbs_without_burn_in_is_a_usage_error(capsys, net_a_path):
    code, _, err = run_cli(
        capsys, ["infer", "--network", net_a_path, "--query", "B=1",
                 "--epsilon", "0.2", "--delta", "0.1",
                 "--generator", "gibbs"])
    assert code == 2
    assert "--burn-in-sweeps" in err


def test_failed_report_write_is_a_runtime_failure(capsys, monkeypatch,
                                                  net_a_path):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    code = cli.main(["infer", "--network", net_a_path, "--query", "B=1",
                     "--strategy", "direct", "--epsilon", "0.2",
                     "--delta", "0.1", "--exact", "--report", "json"])
    err = capsys.readouterr().err
    assert code == 4
    assert "cannot write report" in err
    assert "cannot read network" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a /dev/full device")
def test_report_write_to_a_full_device_ends_without_a_traceback(
        net_a_path):
    # A real descriptor whose every write fails: the failed write leaves
    # nothing buffered, so the flush at interpreter exit cannot fail
    # again and print a traceback.
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "condsim.cli", "analyze", "--network",
             net_a_path], stdout=full, stderr=subprocess.PIPE, text=True,
            env=env, timeout=120)
    assert done.returncode == 4
    assert done.stderr.startswith(
        "condsim: cannot write report: [Errno 28] ")
    assert "Traceback" not in done.stderr


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, ["--version"])
    assert code == 0
    assert out.startswith("condsim")


def test_version_matches_pyproject():
    # A regex, since tomllib is missing on Python 3.10.
    text = (Path(__file__).resolve().parents[1]
            / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE)
    assert match and match.group(1) == __version__


def test_extreme_root_evidence_is_clamped(capsys, tmp_path):
    # Rejection on A=1 would need about 1e300 rows; A is a root, so it is
    # clamped and the run answers.
    path = tmp_path / "extreme.bnet"
    path.write_text("network extreme\nnode A\nprior A : 1e-300\nnode B\n"
                    "parents B : A\ncpt B : 0.3 0.6\n", encoding="utf-8")
    code, report, _ = run_json(
        capsys, ["infer", "--network", str(path), "--query", "B=1",
                 "--evidence", "A=1", "--epsilon", "0.2", "--delta", "0.1",
                 "--exact"])
    assert code == 0
    assert report["exact"]["oracle"] == pytest.approx(0.6)
    assert report["exact"]["satisfies_ras"] is True


def test_missing_subcommand_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, [])
    assert code == 2
    assert "usage" in err


@pytest.mark.parametrize("argv", [
    ["infer", "--query", "B=1", "--epsilon", "nan", "--delta", "0.1"],
    ["infer", "--query", "B=1", "--epsilon", "0.2", "--delta", "nan"],
], ids=["epsilon", "delta"])
def test_nan_parameter_is_a_usage_error(capsys, net_a_path, argv):
    code, _, err = run_cli(capsys,
                           argv[:1] + ["--network", net_a_path] + argv[1:])
    assert code == 2
    assert "must" in err and "nan" in err


@pytest.mark.parametrize("flags", [
    ["--epsilon", "inf"],
    ["--row-budget", "0"],
    ["--row-budget", "-5"],
], ids=["infinite-epsilon", "zero-row-budget", "negative-row-budget"])
def test_out_of_range_parameter_is_a_usage_error(capsys, net_c_path, flags):
    # Each of these used to reach sampling and exit 5 with a cap of 0 or
    # less; it is refused before the first trial.
    code, out, err = run_cli(
        capsys, ["infer", "--network", net_c_path, "--query", "A=1",
                 "--evidence", "C=1", "--epsilon", "0.2", "--delta", "0.1",
                 "--strategy", "direct", *flags])
    assert code == 2
    assert out == ""
    assert "must" in err and flags[1] in err


@pytest.mark.parametrize("epsilon,delta", [("0.2", "1e-323"),
                                           ("1e-17", "0.1")],
                         ids=["delta", "epsilon"])
def test_stage_budget_that_underflows_is_refused_before_sampling(
        capsys, net_c_path, monkeypatch, epsilon, delta):
    # Greedy selects B, so each stage runs at (1 + epsilon)^(1/4) - 1
    # and each subproblem estimate at delta / 8: here one of them is 0,
    # a value the caller never gave. No stream is built.
    built = []
    generator = np.random.Generator

    def counted(bits):
        built.append(bits)
        return generator(bits)

    monkeypatch.setattr(np.random, "Generator", counted)
    code, out, err = run_cli(
        capsys, ["infer", "--network", net_c_path, "--query", "A=1",
                 "--evidence", "C=1", "--strategy", "selective",
                 "--epsilon", epsilon, "--delta", delta])
    assert code == 2
    assert out == ""
    assert f"epsilon {epsilon} and delta {delta} split over |S| = 1" in err
    assert built == []


_ROW_BUDGET = ["--row-budget", str(1 << 20)]


@pytest.mark.parametrize("flag", ["--rejection-cap", "--sample-cap"],
                         ids=["rejection-cap", "sample-cap"])
def test_removed_cap_flag_is_a_usage_error(capsys, net_c_path, flag):
    # The row budget replaced the attempt cap at 0.8.0 and the sample cap
    # at 0.9.0.
    code, out, err = run_cli(
        capsys, ["infer", "--network", net_c_path, "--query", "A=1",
                 "--epsilon", "0.2", "--delta", "0.1", flag, "10"])
    assert code == 2
    assert out == ""
    assert flag in err


@pytest.mark.parametrize("argv", [
    ["infer", "--query", "A=1", "--epsilon", "0.2", "--delta", "0.1",
     "--prior", "uniform"],
    ["infer", "--query", "A=1", "--epsilon", "0.2", "--delta", "0.1",
     "--greedy-exponent", "2"],
    ["analyze", "--greedy-exponent", "2"],
], ids=["infer-prior", "infer-greedy-exponent", "analyze-greedy-exponent"])
def test_removed_setting_flag_is_a_usage_error(capsys, net_c_path, argv):
    # 0.10.0 removed the stopping rule's prior and greedy's exponent.
    code, out, err = run_cli(
        capsys, argv[:1] + ["--network", net_c_path] + argv[1:])
    assert code == 2
    assert out == ""
    assert argv[-2] in err


def test_epsilon_without_a_finite_bound_ends_at_the_row_budget(
        capsys, net_c_path):
    # phi_min is 0.1 here: epsilon 1e-300 leaves the worst-case bound
    # without a finite value, and no certificate is within reach.
    code, report, err = run_json(
        capsys, ["infer", "--network", net_c_path, "--query", "A=1",
                 "--evidence", "C=1", "--epsilon", "1e-300",
                 "--delta", "0.1", "--strategy", "direct", *_ROW_BUDGET])
    assert code == 5
    assert report["error"]["kind"] == "RowBudgetExceededError"
    assert report["error"]["cap"] == 1 << 20
    assert "row budget" in err


def test_delta_without_a_finite_bound_answers(capsys, net_c_path):
    # delta 1e-320 leaves the worst-case bound without a finite value;
    # the rule certifies all the same.
    code, report, _ = run_json(
        capsys, ["infer", "--network", net_c_path, "--query", "A=1",
                 "--evidence", "C=1", "--epsilon", "0.2",
                 "--delta", "1e-320", "--strategy", "direct", "--exact",
                 *_ROW_BUDGET])
    assert code == 0
    assert report["exact"]["satisfies_ras"]


def _ring(roots):
    # Roots first, so all of them are live at once; C{i} reads R{i} and
    # the next root round the ring, so every C{i} is evidence for C0.
    return "network ring\n" + "".join(
        f"node R{i}\nprior R{i} : 0.3\n" for i in range(roots)) + "".join(
        f"node C{i}\nparents C{i} : R{i} R{(i + 1) % roots}\n"
        f"cpt C{i} : 0.2 0.4 0.6 0.7\n" for i in range(roots))


def _star(leaves, p):
    # N1..N{leaves} are children of N0, so each is evidence for N0.
    return "network star\nnode N0\nprior N0 : 0.5\n" + "".join(
        f"node N{i}\nparents N{i} : N0\ncpt N{i} : {p} {p}\n"
        for i in range(1, leaves + 1))


@pytest.mark.parametrize("report", ["text", "json"])
@pytest.mark.parametrize("source,query,evidence,message", [
    (_ring(21), "C0=1",
     ",".join(f"C{i}=1" for i in range(1, 21)), "21 > 20 live nodes"),
    (_star(2, 5e-324), "N0=1", "N1=1,N2=1",
     "Pr[evidence] underflows to 0"),
], ids=["too-many-nodes", "evidence-underflows"])
def test_exact_oracle_that_cannot_run_is_a_usage_error(
        capsys, tmp_path, source, query, evidence, message, report):
    # Gibbs answers both queries; the oracle cannot, and that is known
    # before any sampling.
    code, out, err = run_cli(
        capsys, ["infer", "--network", _write(tmp_path, source),
                 "--query", query, "--evidence", evidence,
                 "--epsilon", "0.2", "--delta", "0.1",
                 "--generator", "gibbs", "--burn-in-sweeps", "1",
                 "--exact", "--report", report])
    assert code == 2
    assert out == ""
    assert "--exact" in err and message in err


def _pairs_network(pairs):
    return "network pairs\n" + "".join(
        f"node A{i}\nprior A{i} : 0.3\nnode B{i}\nparents B{i} : A{i}\n"
        f"cpt B{i} : 0.2 0.7\n" for i in range(pairs))


def test_exact_oracle_runs_on_the_network_infer_answers_on(capsys,
                                                           tmp_path):
    # 30 nodes are more than the oracle enumerates, but the query and the
    # evidence keep one A -> B pair, where Pr[A0=1 | B0=1] = 0.21 / 0.35.
    code, report, _ = run_json(
        capsys, ["infer", "--network", _write(tmp_path, _pairs_network(15)),
                 "--query", "A0=1", "--evidence", "B0=1", "--epsilon", "0.2",
                 "--delta", "0.1", "--exact"])
    assert code == 0
    assert report["result"]["nodes_kept"] == 2
    assert report["exact"]["oracle"] == pytest.approx(0.6)
    assert isinstance(report["exact"]["satisfies_ras"], bool)


def test_exact_oracle_on_the_closure_keeps_its_value(capsys, tmp_path):
    # Barren nodes cannot change Pr[q | e]; the closure's enumeration
    # differs from the whole network's only in rounding.
    net = parse_network(BARREN_SOURCE)
    code, report, _ = run_json(
        capsys, ["infer", "--network", _write(tmp_path, BARREN_SOURCE),
                 "--query", "Q=1", "--evidence", "E=1", "--epsilon", "0.2",
                 "--delta", "0.1", "--exact"])
    assert code == 0
    assert report["result"]["nodes_kept"] == 2
    assert report["exact"]["oracle"] == pytest.approx(
        exact_conditional(net, {"Q": 1}, {"E": 1}), rel=1e-12, abs=0)


def test_exact_oracle_reaches_a_long_chain(capsys, tmp_path):
    # The closure of N0 and N59 is the whole 60-node chain; elimination
    # keeps one node live at a time. Pr[N0=1 | N59=1] from the chain's
    # transfer matrices, whose links are steep enough that N59 still
    # moves N0. The direct strategy keeps the sampling short.
    source = "network chain\nnode N0\nprior N0 : 0.4\n" + "".join(
        f"node N{i}\nparents N{i} : N{i - 1}\ncpt N{i} : 0.02 0.99\n"
        for i in range(1, 60))
    step = np.array([[0.98, 0.02], [0.01, 0.99]])
    joint = np.diag([0.6, 0.4]) @ np.linalg.matrix_power(step, 59)
    code, report, _ = run_json(
        capsys, ["infer", "--network", _write(tmp_path, source),
                 "--query", "N0=1", "--evidence", "N59=1", "--epsilon",
                 "0.2", "--delta", "0.1", "--strategy", "direct",
                 "--exact"])
    assert code == 0
    assert report["result"]["nodes_kept"] == 60
    assert report["exact"]["oracle"] == pytest.approx(
        joint[1, 1] / joint[:, 1].sum(), rel=1e-12, abs=0)


def _source(net):
    lines = [f"network {net.name}"]
    for x in net.nodes:
        cpt = net.cpt(x)
        rows = " ".join(map(repr, cpt.rows))
        lines.append(f"node {x}")
        if cpt.parents:
            lines.append(f"parents {x} : {' '.join(cpt.parents)}")
            lines.append(f"cpt {x} : {rows}")
        else:
            lines.append(f"prior {x} : {rows}")
    return "\n".join(lines) + "\n"


def test_exact_oracle_on_random_closures_keeps_its_value(capsys, tmp_path):
    # On random networks of at most 25 nodes with barren nodes, the CLI's
    # oracle on the pruned closure is the whole network's enumeration.
    gen = np.random.Generator(np.random.PCG64(113))
    cases = 0
    while cases < 12:
        net = random_network(gen, int(gen.integers(4, 25 + 1)),
                             max_parents=2, lo=0.2, hi=0.8)
        q, e = (net.nodes[i] for i in gen.choice(net.n, 2, replace=False))
        query, evidence = {q: int(gen.integers(0, 2))}, {e: 1}
        if ancestral_network(net, (*query, *evidence)).n == net.n:
            continue
        kept = relevant_network(net, query, evidence)[0].n
        cases += 1
        code, report, _ = run_json(
            capsys, ["infer", "--network", _write(tmp_path, _source(net)),
                     "--query", f"{q}={query[q]}", "--evidence", f"{e}=1",
                     "--epsilon", "0.3", "--delta", "0.2", "--exact"])
        assert code == 0
        assert report["result"]["nodes_kept"] == kept
        assert report["exact"]["oracle"] == pytest.approx(
            exact_conditional(net, query, evidence), rel=1e-12, abs=0)


_TINY_PAIR = "network tiny\nnode A\nprior A : {p}\nnode B\nprior B : {p}\n"
_TINY_TRIPLE = """\
network tiny
node A
prior A : 1e-120
node B
prior B : 1e-120
node C
prior C : 1e-120
node D
parents D : A B C
cpt D : 0.01 0.99 0.99 0.01 0.99 0.01 0.01 0.99
"""
_TINY_ROW = """\
network tiny
node A
prior A : 0.999
node B
parents B : A
cpt B : 1e-320 0.5
"""


def _write(tmp_path, source):
    path = tmp_path / "tiny.bnet"
    path.write_text(source, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("source,query,strategy,phase", [
    (_TINY_PAIR.format(p="1e-160"), "A=1,B=1", "direct", "fraction"),
    (_TINY_PAIR.format(p="1e-200"), "A=1,B=1", "direct", "fraction"),
    # D's rows are steep enough that D^4 overflows, so greedy takes the
    # step to S = [A, B, C] although its weight term is 8e306.
    (_TINY_TRIPLE.replace("1e-120", "1e-102").replace("0.01", "1e-80"),
     "D=1", "selective", "distribution"),
], ids=["bound-overflows", "phi-underflows", "weight-bound-overflows"])
def test_rare_target_without_a_finite_bound_ends_at_the_row_budget(
        capsys, tmp_path, source, query, strategy, phase):
    # phi_min is too small for a finite worst-case bound W, so W is no
    # checkpoint, and the target (or a weight category) is too rare to
    # observe: the row budget ends the run, with a partial report.
    code, report, err = run_json(
        capsys, ["infer", "--network", _write(tmp_path, source),
                 "--query", query, "--strategy", strategy,
                 "--epsilon", "0.2", "--delta", "0.1", *_ROW_BUDGET])
    assert code == 5
    assert report["error"]["kind"] == "RowBudgetExceededError"
    assert report["error"]["phase"] == phase
    assert report["error"]["cap"] == 1 << 20
    assert "row budget" in report["error"]["message"]
    assert "row budget" in err


def test_weights_without_a_finite_bound_end_at_the_row_budget():
    # The three priors' product underflows, so the weight phase has no
    # finite worst-case bound, and its rarest categories never appear.
    with pytest.raises(RowBudgetExceededError) as einfo:
        estimate_distribution_over(
            parse_network(_TINY_TRIPLE), ("A", "B", "C"), 0.2, 0.1,
            RandomSource(1), row_budget=1 << 16)
    assert einfo.value.phase == "distribution"
    assert einfo.value.cap == 1 << 16
    # Every scored trial is a checkpoint's, within the budget.
    trials = einfo.value.trials
    assert 0 < trials <= 1 << 16 and trials & (trials - 1) == 0


def test_underflowing_row_answers_within_epsilon(capsys, tmp_path):
    # B's row 1e-320 leaves no finite worst-case bound over B and A; the
    # rule certifies Pr[B=1] (about 0.4995) all the same.
    code, report, _ = run_json(
        capsys, ["infer", "--network", _write(tmp_path, _TINY_ROW),
                 "--query", "B=1", "--strategy", "direct",
                 "--epsilon", "0.2", "--delta", "0.1", "--exact",
                 *_ROW_BUDGET])
    assert code == 0
    assert report["exact"]["satisfies_ras"]



def test_analyze_reports_an_infinite_weight_term(capsys, tmp_path):
    # Conditioning on A, B and C would make the weight term infinite, so
    # greedy stops before that step.
    code, report, _ = run_json(
        capsys, ["analyze", "--network", _write(tmp_path, _TINY_TRIPLE)])
    assert code == 0
    assert report["selected_s"] == []
    assert report["greedy_trace"]["stop_reason"] == "weight term infinite"
    assert report["cost_after"]["weight_term"] == 1.0


_OVERFLOW = """\
network overflow
node A
prior A : 0.5
node B
parents B : A
cpt B : 1e-10 0.9
node C
parents C : B
cpt C : 0.2 0.7
"""


def test_greedy_strength_that_overflows_is_infinite(capsys, tmp_path):
    # B's lambda is 9e9, so greedy takes A, B's parent, first.
    path = _write(tmp_path, _OVERFLOW)
    code, report, _ = run_json(capsys, ["analyze", "--network", path])
    assert code == 0
    assert report["greedy_trace"]["steps"][0]["node"] == "B"
    # The next step, C adding B, would trade a subproblem term of 45,037.5
    # for a weight term of 8e10, so greedy stops before it.
    assert report["selected_s"] == ["A"]
    assert report["greedy_trace"]["stop_reason"] == "total cost not lowered"
    code, report, err = run_json(
        capsys, ["infer", "--network", path, "--query", "C=1",
                 "--epsilon", "0.2", "--delta", "0.1",
                 "--row-budget", "100000"])
    assert code == 0
    assert report["result"]["selected_s"] == ["A"]
    assert "Traceback" not in err


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=refuse)


def test_json_reports_write_values_that_are_not_finite_as_null(capsys,
                                                               tmp_path):
    # D^4 overflows on this network, and a JSON report is strict JSON.
    path = _write(tmp_path, _STEEP)
    code, out, _ = run_cli(capsys, ["analyze", "--network", path,
                                    "--report", "json"])
    assert code == 0
    report = _strict_json(out)
    assert report["cost_before"]["subproblem_term"] is None
    code, out, _ = run_cli(capsys, ["analyze", "--network", path])
    assert "subproblem inf" in out
    # An infer report that holds a null replays.
    code, out, _ = run_cli(
        capsys, ["infer", "--network", path, "--query", "B=1",
                 "--epsilon", "0.2", "--delta", "0.1", "--strategy",
                 "direct", "--report", "json"])
    assert code == 0
    report = _strict_json(out)
    assert report["cost_before"]["subproblem_term"] is None
    assert (cli.rerun_report(report).estimate
            == report["result"]["estimate"])


def test_auto_answers_when_the_weight_term_is_infinite(capsys, tmp_path):
    code, report, _ = run_json(
        capsys, ["infer", "--network", _write(tmp_path, _TINY_TRIPLE),
                 "--query", "D=1", "--epsilon", "0.2", "--delta", "0.1",
                 "--exact"])
    assert code == 0
    assert report["result"]["strategy_used"] == "direct"
    assert report["exact"]["satisfies_ras"]


_STEEP = """\
network steep
node A
prior A : 0.5
node B
parents B : A
cpt B : 1e-40 0.5
"""


def test_overflowing_subproblem_term_is_reported_as_infinite(capsys,
                                                             tmp_path):
    path = _write(tmp_path, _STEEP)
    code, report, _ = run_json(capsys, ["analyze", "--network", path])
    assert code == 0
    assert report["cost_before"]["subproblem_term"] is None
    query = ["infer", "--network", path, "--query", "B=1",
             "--epsilon", "0.2", "--delta", "0.1"]
    code, report, _ = run_json(capsys, query + ["--strategy", "direct"])
    assert code == 0
    assert report["cost_before"]["subproblem_term"] is None
    # Selective conditions on A, whose A=0 numerator (probability 1e-40)
    # rejection cannot certify: the row budget ends the run, and the
    # partial report has no result.
    code, report, _ = run_json(capsys, query + ["--strategy", "selective",
                                                "--row-budget", "100000"])
    assert code == 5
    assert report["error"]["kind"] == "RowBudgetExceededError"
    assert "result" not in report


def _chain(n, prior, rows):
    return f"network chain\nnode N0\nprior N0 : {prior}\n" + "".join(
        f"node N{i}\nparents N{i} : N{i - 1}\ncpt N{i} : {rows}\n"
        for i in range(1, n))


@pytest.mark.parametrize("source,flags,phase", [
    # Auto conditions on A, and rejection cannot observe B=1 given A=0.
    (_STEEP, ["--query", "B=1"], "fraction"),
    (_STEEP.replace("1e-40 0.5", "1e-40 1e-40"),
     ["--query", "B=1", "--strategy", "direct"], "fraction"),
    # Greedy takes S = N1..N12, whose 4,096 weight categories include
    # ones far too rare to observe.
    (_chain(60, 0.4, "0.3 0.8"), ["--query", "N0=1", "--evidence", "N59=1"],
     "distribution"),
], ids=["steep-auto", "flat-direct", "chain-auto"])
def test_runs_that_used_to_stall_end_at_the_row_budget(capsys, tmp_path,
                                                       source, flags, phase):
    code, report, err = run_json(
        capsys, ["infer", "--network", _write(tmp_path, source), *flags,
                 "--epsilon", "0.2", "--delta", "0.1", *_ROW_BUDGET])
    assert code == 5
    assert report["error"]["kind"] == "RowBudgetExceededError"
    assert report["error"]["phase"] == phase
    assert "row budget" in err


def test_gibbs_chains_past_the_row_budget_end_at_zero_trials(capsys,
                                                             net_c_path):
    # One chain of 10^9 sweeps costs 10^9 rows, so the first batch of
    # 256 chains is refused before it draws.
    code, report, _ = run_json(
        capsys, ["infer", "--network", net_c_path, "--query", "A=1",
                 "--evidence", "C=1", "--epsilon", "0.2", "--delta", "0.1",
                 "--strategy", "direct", "--generator", "gibbs",
                 "--burn-in-sweeps", str(10 ** 9), *_ROW_BUDGET])
    assert code == 5
    assert report["error"]["kind"] == "RowBudgetExceededError"
    assert report["error"]["trials"] == 0


def test_a_rare_query_answers_at_a_wide_epsilon(capsys, tmp_path):
    # Pr[A=1] = 0.01 at epsilon 5: the worst-case bound is 24 trials, but
    # the rule needs A=1 observed, which takes about 100. A default cap
    # of ten times the bound refused most of these seeds.
    path = _write(tmp_path, "network one\nnode A\nprior A : 0.01\n")
    for seed in range(200):
        code, report, _ = run_json(
            capsys, ["infer", "--network", path, "--query", "A=1",
                     "--strategy", "direct", "--epsilon", "5",
                     "--delta", "0.1", "--seed", str(seed), *_ROW_BUDGET])
        assert code == 0, seed
        assert report["result"]["trials_total"] > 0
