"""Tests of the benchmark harness itself.

    python3 -m pytest k3bench -q
"""

import json
import sys

import pytest

import run

run.use_source_tree()

import k3acm.cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckError  # noqa: E402

ROOT = run.ROOT


def _ops(workload, seed, tmp_path):
    return workloads.build_ops(workload, seed, ROOT, tmp_path / f"w{seed}")


def _op(ops, key):
    return next(op for op in ops if op.key == key)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_the_same_op_list(workload, tmp_path):
    first = [op.key for op in _ops(workload, 7, tmp_path)]
    again = [op.key for op in _ops(workload, 7, tmp_path)]
    assert first == again
    others = {tuple(op.key for op in _ops(workload, s, tmp_path)) for s in (1, 2, 3)}
    assert len(others) > 1


def test_same_seed_writes_the_same_mutant_configs(tmp_path):
    workloads.build_ops("verify-mutants", 5, ROOT, tmp_path / "a")
    workloads.build_ops("verify-mutants", 5, ROOT, tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert len(names) == 12 * 7
    for name in names:
        assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()


def test_destabilize_grid_keeps_every_query():
    assert len(workloads.destabilize_grid(ROOT)) == workloads.GRID_SIZE


def test_planted_extra_survivor_is_caught(tmp_path):
    op = _op(_ops("theorem-wide", 1, tmp_path), "quartic_b2neg2_bh1.json")
    out = op.run()
    op.check(out)
    out["survivors"].append([5, -3])
    with pytest.raises(CheckError, match="survivors"):
        op.check(out)


def test_planted_unverified_report_is_caught(tmp_path):
    op = _op(_ops("theorem-wide", 1, tmp_path), "quartic_b22_bh5.json")
    out = op.run()
    out["substitution"]["report"]["status"] = "FAILED"
    with pytest.raises(CheckError):
        op.check(out)


def test_mutant_reported_as_success_is_caught(tmp_path):
    ops = _ops("verify-mutants", 1, tmp_path)
    mutant = next(op for op in ops
                  if op.key.startswith("case-B24.") and ".clean" not in op.key)
    code, stdout = mutant.run()
    assert code == 1
    mutant.check((code, stdout))
    report = json.loads(stdout)
    report["status"] = "Success"
    for step in report["steps"]:
        step["status"] = "Verified"
    with pytest.raises(CheckError):
        mutant.check((0, json.dumps(report)))
    with pytest.raises(CheckError):
        mutant.check((1, json.dumps(report)))


def test_false_trace_claim_is_caught(tmp_path):
    op = _op(_ops("destabilize-grid", 1, tmp_path),
             "quartic_b2neg2_bh3.json:4,-2:2:exact")
    out = op.run()
    op.check(out)
    claim = out["records"][0]["trace"][-1]
    negation = {"=": "<", "<=": ">", "<": ">=", ">=": "<", ">": "<="}
    claim["rel"] = negation[claim["rel"]]
    with pytest.raises(CheckError, match="false trace claim"):
        op.check(out)


def test_roadmap_reproducer_counts_as_failed(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK", tmp_path)
    bench = run.Run("destabilize-grid", 1)
    op = _op(bench.ops, "quartic_b2neg2_bh2.json:2,2:8:exact")
    bench.one(op, timed=True)
    assert bench.failures == {"engine-fault": 1}
    assert bench.correct  # a failed op is counted, not reported as wrong
    assert bench.digest.outputs[op.key]


def test_wrong_output_makes_the_run_incorrect(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK", tmp_path)
    bench = run.Run("verify-mutants", 1)
    op = next(op for op in bench.ops if op.key.endswith(".clean"))
    wrong = workloads.Op(key=op.key, run=lambda: (1, ""), check=op.check)
    bench.one(wrong, timed=True)
    assert bench.failures == {"check": 1}
    assert not bench.correct


def test_tracer_wraps_bound_names_and_restores_them(tmp_path):
    necessity = sys.modules["k3acm.casework.necessity"]
    original_main, original_enum = k3acm.cli.main, necessity.enumerate_case
    op = _op(_ops("verify-mutants", 1, tmp_path), "case-B2neg2-Bh1.clean")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert k3acm.cli.main is not original_main
        # bound by a from-import, so wrapped at that name
        assert necessity.enumerate_case is not original_enum
        tracer.op(op.run)
    finally:
        tracer.uninstall()
    assert k3acm.cli.main is original_main
    assert necessity.enumerate_case is original_enum
    metrics = tracer.metrics(0.0)
    assert metrics["cli.main.calls"] == 1
    assert metrics["casework.casebook.builtin_scripts.calls"] == 1
    assert metrics["lattice.Lattice.calls"] >= 13
    assert metrics["casework.constraints.enumerate_case.calls"] == 0
    shares = sum(v for k, v in metrics.items() if k.endswith(".self_share"))
    assert shares == pytest.approx(1.0)


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [["bench.op", 0, 100, -1, 0],
                    ["cli.main", 10, 90, 0, 0],
                    ["lattice.Lattice", 20, 30, 1, 0],
                    ["lattice.Lattice", 40, 70, 1, 0]]
    assert tracer.self_ns() == {"bench.op": 20, "cli.main": 40,
                                "lattice.Lattice": 40}


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert all(m["unit"] == tracing.unit_of(m["name"]) for m in spec["per_layer"])
