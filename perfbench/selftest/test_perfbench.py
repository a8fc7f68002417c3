"""Self-test of the benchmark: tiny runs of each workload pass their checks,
and deliberately corrupted outputs are counted as failures.

Run from the checkout root:  python -m pytest -q perfbench/selftest
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

import corpus      # noqa: E402
import run         # noqa: E402
import workloads   # noqa: E402

TINY_DESIGN = corpus.DesignMix(forests=3, forest_max=25, chain_min=5, chain_max=7,
                               passes=2)
TINY_SIZE = corpus.SizeMix(sizes=((33, 33, 2), (200, 200, 1)))


def _tiny(name, tmp_path):
    if name == "design_metrics":
        return workloads.DesignMetrics(TINY_DESIGN)
    if name == "size_regression":
        return workloads.SizeRegression(TINY_SIZE)
    return workloads.CliCold(ROOT, str(tmp_path / "cli"), model_classes=8)


def _first_outputs(wl):
    return [(case, wl.collect(wl.run_job(case, workloads.NULL_TRACER)))
            for case in wl.cases]


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_tiny_run_passes_its_checks(name, tmp_path):
    wl = _tiny(name, tmp_path)
    wl.setup(7)
    wl.warm_up()
    data = run.measure(wl, 0.0, trace=True)
    outcome = data.outcome
    assert outcome.correct, outcome.examples
    assert outcome.attempted == 2 * len(wl.passes[0])
    # Only the known p-value accuracy defect may show, and it is not a
    # failed job.
    assert set(outcome.kinds) <= {run.KNOWN_DEFECT}
    assert outcome.failed == 0, outcome.examples
    metrics = run.per_layer(wl, data)
    assert set(metrics) == {n for n, _, _ in run.PER_LAYER}
    e2e = run.end_to_end(0.5, data)
    assert set(e2e) == {n for n, *_ in run.END_TO_END}
    assert all(value > 0 for value, _ in e2e.values())
    if name != "cli_cold":
        assert min(data.tracer.child_coverage("job")) >= 0.9


def test_invalid_models_end_in_their_injected_code():
    import moodkit
    for code in corpus.INJECTED_CODES:
        for seed, n in [(s, n) for s in range(20) for n in (10, 12, 40)]:
            case = corpus.omdl_case(seed, n, code)
            diags = moodkit.validate(moodkit.parse(case.source).model)
            assert [d.code for d in diags] == [code], case.source


def test_corrupted_metrics_report_is_a_failure():
    wl = workloads.DesignMetrics(TINY_DESIGN)
    wl.setup(3)
    case, out = next((c, o) for c, o in _first_outputs(wl) if c.kind == "forest")
    assert wl.check(case, out) == []
    report = json.loads(out["json"])
    report["mif"]["numerator"] += 1
    fails = wl.check(case, {"json": json.dumps(report)})
    assert [k for k, _ in fails] == ["metrics"]
    outcome = run.Outcome()
    outcome.add(fails)
    assert outcome.failed == 1 and not outcome.correct


def test_wrong_diagnostic_code_is_a_failure():
    wl = workloads.DesignMetrics(TINY_DESIGN)
    wl.setup(3)
    case = next(c for c in wl.cases if c.kind == "invalid")
    other = next(c for c in corpus.INJECTED_CODES if c != case.code)
    assert wl.check(case, {"codes": [case.code]}) == []
    assert wl.check(case, {"codes": [other]})[0][0] == "diagnostics"
    assert wl.check(case, {"codes": [case.code, case.code]})[0][0] == "diagnostics"


def test_perturbed_coefficient_is_a_failure():
    wl = workloads.SizeRegression(TINY_SIZE)
    wl.setup(3)
    case, out = next((c, o) for c, o in _first_outputs(wl) if c.label == "table1")
    assert wl.check(case, out) == []
    payload = json.loads(out["json"])
    payload["fits"][2]["coefficients"][1]["beta"] *= 1 + 1e-6
    fails = wl.check(case, dict(out, json=json.dumps(payload)))
    assert "fit" in {k for k, _ in fails}


def test_wrong_p_value_is_a_hard_failure():
    wl = workloads.SizeRegression(TINY_SIZE)
    wl.setup(3)
    case, out = next((c, o) for c, o in _first_outputs(wl) if c.label == "table1")
    payload = json.loads(out["json"])
    payload["fits"][1]["coefficients"][2]["p"] += 1e-6
    fails = wl.check(case, dict(out, json=json.dumps(payload)))
    assert {k for k, _ in fails} == {"p_value"}
    outcome = run.Outcome()
    outcome.add(fails)
    assert outcome.failed == 1 and not outcome.correct


def test_known_p_defect_is_tallied_apart_from_failures():
    outcome = run.Outcome()
    outcome.add([(run.KNOWN_DEFECT, "p-value off scipy by 2e-11")], times=3)
    assert (outcome.attempted, outcome.failed, outcome.defect) == (3, 0, 3)
    assert outcome.correct
    outcome.add([(run.KNOWN_DEFECT, "p-value off scipy by 2e-11"), ("fit", "coefficients")])
    assert (outcome.attempted, outcome.failed, outcome.defect) == (4, 1, 3)
    assert not outcome.correct


def test_percentile_lies_within_the_samples():
    from spans import percentile
    assert percentile([0.25] * 7, 90) == pytest.approx(0.25)
    values = [float(v) for v in range(1, 201)]
    assert 99 < percentile(values, 50) < 102
    assert 178 < percentile(values, 90) < 183
    assert percentile(values, 50) < percentile(values, 90) <= max(values)


def test_broken_write_side_is_a_failure():
    wl = workloads.SizeRegression(TINY_SIZE)
    wl.setup(3)
    case, out = next((c, o) for c, o in _first_outputs(wl) if c.rows == 200)
    bad_svg = list(out["svg"])
    bad_svg[0] = bad_svg[0].replace("</svg>", "")
    kinds = {k for k, _ in wl.check(case, dict(out, svg=bad_svg))}
    assert kinds == {"svg"}
    kinds = {k for k, _ in wl.check(case, dict(out, csv=out["csv"] + "1,1,1,1\n"))}
    assert kinds == {"write_csv"}


def test_wrong_exit_code_is_a_failure(tmp_path):
    wl = workloads.CliCold(ROOT, str(tmp_path / "cli"), model_classes=8)
    wl.setup(5)
    case = next(c for c in wl.cases if c.label == "metrics-invalid")
    out = wl.collect(wl.run_job(case, workloads.NULL_TRACER))
    assert wl.check(case, out) == []
    assert wl.check(case, dict(out, exit=0))[0][0] == "exit"
    # A job whose subprocess could not run or timed out is a failed job.
    raised = wl.collect({"raised": "TimeoutExpired: 120 s"})
    assert wl.check(case, raised) == [("raised", "TimeoutExpired: 120 s")]


def test_benchmark_json_matches_the_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == run.benchmark_spec()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design_metrics",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
