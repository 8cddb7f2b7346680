"""Self-test of the pipeline benchmark on tiny op lists (``pytest benchmarks/pipeline``)."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run_pipeline  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]

#: Pass processes run this instead of ``workloads.py``: the same module,
#: with the planted patch applied first.
WRAPPER = """\
import sys
sys.path.insert(0, {here!r})
import workloads
{patch}
sys.exit(workloads.main(sys.argv))
"""
TINY = """\
full = workloads._population
workloads._population = lambda name: full(name)[:2]
"""
DROP_POINT = """\
real = workloads.solve_tree
def dropping(problem, **kwargs):
    solution = real(problem, **kwargs)
    solution.points = solution.points[1:]
    return solution
workloads.solve_tree = dropping
"""


def _patch_passes(monkeypatch, tmp_path, patch):
    script = tmp_path / "pass_wrapper.py"
    script.write_text(WRAPPER.format(here=str(HERE), patch=patch))
    monkeypatch.setattr(run_pipeline, "child_command",
                        lambda spec: [sys.executable, str(script), str(spec)])


def _run(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run_pipeline.main(list(argv))
    out = buf.getvalue()
    return code, out, json.loads(out.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """An untraced and a traced run of every workload on two-circuit op
    lists."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        _patch_passes(monkeypatch, tmp_path_factory.mktemp("tiny"), TINY)
        return {trace: _run("--seed", "3", "--seconds", "0.2", "--trace", trace)
                for trace in ("0", "1")}


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_printed_with_unit(runs, trace, kind):
    code, out, result = runs[trace]
    assert code == 0, out
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2 * len(NAMES)
    sections = out.split("== ")[1:]
    assert [s.split()[0] for s in sections] == NAMES
    for workload, section in zip(NAMES, sections):
        for metric in SPEC[kind]:
            name, unit = metric["name"], metric["unit"]
            assert any(line.split()[:1] == [name] and line.rstrip().endswith(unit)
                       for line in section.splitlines()), (workload, name)
            entry = result["metrics"][f"{workload}.{name}"]
            assert entry["unit"] == unit
            assert isinstance(entry["value"], float)


def test_planted_wrong_answer_fails_the_run(tmp_path, monkeypatch):
    _patch_passes(monkeypatch, tmp_path, DROP_POINT)
    code, out, result = _run("--workload", "tree_dp", "--seed", "2",
                             "--seconds", "1")
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert "FAILED" in out and "cost" in out


def test_golden_mismatch_fails_the_op():
    results = [{"ops": [{"index": 0, "in": "a", "out": "b"},
                        {"index": 1, "in": "c", "out": "d"}]}]
    run_pipeline._check_digests("w", results, {"w": {"0": ["a", "b"],
                                                        "1": ["c", "x"]}})
    assert "error" not in results[0]["ops"][0]
    assert "golden" in results[0]["ops"][1]["error"]


def test_same_seed_same_inputs_and_digests(tmp_path):
    for name in NAMES:
        assert workloads.build_ops(name, 5) == workloads.build_ops(name, 5)
    ctx = workloads.Context(seed=5, workdir=tmp_path)
    for name in ("tree_dp", "coverage_sim"):
        op = workloads.build_ops(name, 5)[1]
        first, second = (workloads.run_one(name, op, ctx, None, None)
                         for _ in range(2))
        assert "error" not in first, first
        assert (first["in"], first["out"]) == (second["in"], second["out"])


def test_different_seed_different_circuits():
    write = workloads.write_bench
    for name in NAMES:
        one = [write(c) for c in workloads.circuits(name, 1)]
        two = [write(c) for c in workloads.circuits(name, 2)]
        assert len(one) == len(two)
        # The sweep keeps its prefilled half fixed across seeds.
        assert sum(a != b for a, b in zip(one, two)) >= len(one) // 2, name
