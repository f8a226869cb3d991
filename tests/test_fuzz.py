"""Fuzz gate: every input the CLI accepts ends in an answer, a usage
error, a parse error or a budget error, never a traceback or exit 4.

Networks of 1-8 nodes are generated as ``.bnet`` text with rows drawn
from the extremes of the open unit interval, and each one is run through
``infer`` with random flags and through ``analyze``; both also take a
random ``--max-s``. The row budget, the one work bound, is drawn from
[1, 1e5], so that every case ends quickly.
Every flag the gate generates must parse: a run that argparse refuses
tests nothing past the parser, so it fails the gate. Every JSON report
must parse as strict JSON (RFC 8259), with no NaN or Infinity constant.
"""

import contextlib
import io
import json
from dataclasses import dataclass

from hypothesis import example, given, settings
from hypothesis import strategies as st

from condsim import cli

# What argparse writes when it refuses a flag or a choice.
_PARSER_REFUSALS = ("unrecognized arguments", "invalid choice")
# Half the rows are extreme and half moderate, so that many runs answer.
_ROWS = st.one_of(
    st.sampled_from((5e-324, 1e-320, 1e-160, 1e-40, 1e-8, 1e-3,
                     1 - 1e-3, 1 - 1e-8, 1 - 1e-16)),
    st.sampled_from((0.1, 0.3, 0.5, 0.7, 0.9)))
_EXIT_CODES = {0, 2, 3, 5}
# Mostly the largest budget, so that most runs can answer.
_BUDGETS = st.one_of(st.just(10 ** 5), st.integers(1, 10 ** 5))


@dataclass(frozen=True)
class Case:
    source: str
    query: str
    evidence: str
    flags: tuple[str, ...]
    report: str
    greedy: tuple[str, ...] = ()


@st.composite
def cases(draw):
    n = draw(st.integers(1, 8))
    names = [f"N{i}" for i in range(n)]
    lines = ["network fuzz"]
    for i, name in enumerate(names):
        parents = draw(st.lists(st.sampled_from(names[:i]), unique=True,
                                max_size=3)) if i else []
        size = 1 << len(parents)
        rows = draw(st.lists(_ROWS, min_size=size,
                             max_size=size))
        lines.append(f"node {name}")
        if parents:
            lines.append(f"parents {name} : {' '.join(parents)}")
            lines.append(f"cpt {name} : {' '.join(map(repr, rows))}")
        else:
            lines.append(f"prior {name} : {rows[0]!r}")
    bound = draw(st.lists(st.sampled_from(names), unique=True, min_size=1,
                          max_size=min(n, 4)))
    split = draw(st.integers(1, len(bound)))
    values = [draw(st.integers(0, 1)) for _ in bound]
    pairs = [f"{name}={value}" for name, value in zip(bound, values)]
    flags = ["--strategy", draw(st.sampled_from(("auto", "direct",
                                                 "selective"))),
             "--epsilon", repr(draw(st.sampled_from((0.1, 0.2, 0.5)))),
             "--delta", repr(draw(st.sampled_from((0.05, 0.1, 0.5)))),
             "--row-budget", str(draw(_BUDGETS)),
             "--seed", str(draw(st.integers(0, 2 ** 64 - 1)))]
    if draw(st.booleans()):
        flags += ["--generator", "gibbs",
                  "--burn-in-sweeps", str(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        flags.append("--exact")
    greedy = ("--max-s", str(draw(st.integers(0, 8))))
    return Case("\n".join(lines) + "\n", ",".join(pairs[:split]),
                ",".join(pairs[split:]), tuple(flags),
                draw(st.sampled_from(("text", "json"))), greedy)


def _reproducer(source, query, *flags):
    return Case(source, query, "",
                ("--epsilon", "0.2", "--delta", "0.1", "--row-budget",
                 "100000", *flags), "json")


_PAIR = "network tiny\nnode A\nprior A : {p}\nnode B\nprior B : {p}\n"
_TRIPLE = ("network tiny\nnode A\nprior A : 1e-120\nnode B\n"
           "prior B : 1e-120\nnode C\nprior C : 1e-120\nnode D\n"
           "parents D : A B C\n"
           "cpt D : 0.01 0.99 0.99 0.01 0.99 0.01 0.01 0.99\n")
_ROW = ("network tiny\nnode A\nprior A : 0.999\nnode B\nparents B : A\n"
        "cpt B : 1e-320 0.5\n")
_STEEP = ("network steep\nnode A\nprior A : 0.5\nnode B\nparents B : A\n"
          "cpt B : 1e-40 0.5\n")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _refuse(constant):
    raise ValueError(f"not JSON (RFC 8259): {constant}")


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(cases())
@example(_reproducer(_PAIR.format(p="1e-160"), "A=1,B=1",
                     "--strategy", "direct"))
@example(_reproducer(_PAIR.format(p="1e-200"), "A=1,B=1",
                     "--strategy", "direct"))
@example(_reproducer(_TRIPLE, "D=1"))
@example(_reproducer(_TRIPLE.replace("1e-120", "1e-102"), "D=1"))
@example(_reproducer(_ROW, "B=1", "--strategy", "direct"))
@example(_reproducer(_STEEP, "B=1"))
@example(_reproducer(_STEEP, "B=1", "--generator", "gibbs",
                     "--burn-in-sweeps", "2", "--exact"))
@example(_reproducer(_STEEP.replace("1e-40 0.5", "1e-40 1e-40"), "B=1",
                     "--strategy", "direct"))
@example(Case("network fuzz\nnode A\nprior A : 5e-324\nnode B\n"
              "prior B : 5e-324\nnode C\nprior C : 0.1\n",
              "C=0", "A=1,B=1",
              ("--epsilon", "0.1", "--delta", "0.05", "--row-budget", "100000",
               "--generator", "gibbs", "--burn-in-sweeps", "1", "--exact"),
              "text"))
@example(Case("network extreme\nnode A\nprior A : 1e-300\nnode B\n"
              "parents B : A\ncpt B : 0.3 0.6\n",
              "B=1", "A=1",
              ("--epsilon", "0.2", "--delta", "0.1", "--exact"), "json"))
def test_cli_ends_in_an_answer_or_a_reported_error(tmp_path_factory, case):
    path = tmp_path_factory.mktemp("fuzz") / "net.bnet"
    path.write_text(case.source, encoding="utf-8")
    runs = (
        ["infer", "--network", str(path), "--query", case.query,
         "--evidence", case.evidence, "--report", case.report, *case.flags],
        ["analyze", "--network", str(path), "--evidence", case.evidence,
         "--report", case.report],
        ["analyze", "--network", str(path), "--query", case.query,
         "--evidence", case.evidence, "--report", case.report],
    )
    for argv in runs:
        argv += case.greedy
        code, out, err = _run(argv)
        assert code in _EXIT_CODES, (argv, case.source, err)
        assert "Traceback" not in err, (argv, case.source, err)
        assert not any(refusal in err for refusal in _PARSER_REFUSALS), (
            argv, err)
        if case.report == "json" and out:
            json.loads(out, parse_constant=_refuse)
