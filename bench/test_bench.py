"""Tests of the benchmark itself (not part of the program's test suite):

    python3 -m pytest -q bench

They run each workload at a reduced size, so they take about half a minute.
"""

from __future__ import annotations

import cProfile
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402
from superflag.cli import main  # noqa: E402

# Reduced sizes: osp tower level 3, sl3 degree bound 2, region dilation 2
# with the union of dilations 1..2; verify-example has no size to reduce.
SHORT = {"osp_tower": 3, "sl3_degenerate": 2, "verify_catalog": None, "region_toric": 2}


@pytest.fixture()
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def profiled_traced_run(commands):
    """Run commands traced and under cProfile; (tracer, outcomes, calls by
    code object)."""
    t = tracer.Tracer()
    t.install()
    prof = cProfile.Profile()
    prof.enable()
    try:
        _, outcomes = tracer.run_commands(commands, main)
    finally:
        prof.disable()
        t.uninstall()
    calls = {e.code: e.callcount for e in prof.getstats() if not isinstance(e.code, str)}
    return t, outcomes, calls


@pytest.mark.parametrize("name", SHORT)
def test_every_call_of_a_reached_function_records_a_span(name, tmp_path, at_root):
    """A wrapper that misses a by-name binding lets calls through untraced;
    cProfile still sees them, so the counts would differ."""
    prepared = workloads.prepare(name, str(tmp_path), 0, level=SHORT[name])
    _, untraced = tracer.run_commands(prepared.commands, main)
    t, traced, calls = profiled_traced_run(prepared.commands)
    assert traced == untraced, "tracing changed a report or exit code"
    layers = t.layer_totals()
    reached = 0
    for target in t.names:
        code = tracer.resolve(target)[2].__code__
        assert layers[target]["calls"] == calls.get(code, 0), target
        reached += layers[target]["calls"] > 0
    assert reached >= 3


def test_uninstall_restores_every_binding():
    before = {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if name.startswith("superflag")
    }
    t = tracer.Tracer()
    t.install()
    assert tracer.resolve("modules.pbw_act")[2] is not before["superflag.modules"]["pbw_act"]
    t.uninstall()
    for name, attrs in before.items():
        assert dict(vars(sys.modules[name])) == attrs, name
    assert tracer.resolve("linalg.SpanAccumulator.insert")[2].__name__ == "insert"
    assert not hasattr(tracer.resolve("linalg.SpanAccumulator.insert")[2], "__wrapped__")


def test_self_times_and_residual_add_up_to_the_traced_total(tmp_path, at_root):
    prepared = workloads.prepare("sl3_degenerate", str(tmp_path), 0, level=2)
    record, t = tracer.traced_run(prepared.commands, 0)
    m = record["metrics"]
    assert record["self_s_sum"] + m["cli.residual_s"] == pytest.approx(record["traced_s"], abs=1e-9)
    assert m["cli.residual_s"] >= 0
    assert set(m) == {name for name, _ in tracer.LAYER_METRICS}
    assert m["degeneration.lift_relations.steps_per_relation"] >= 1
    assert 0 < m["linalg.SpanAccumulator.insert.independent_ratio"] <= 1


def test_generated_union_matches_the_program_enumeration():
    from superflag.polytopes import dilate, enumerate_lattice_points, parse_system

    header, rows, odd = workloads.read_region(os.path.join(ROOT, workloads.REGION))
    with open(os.path.join(ROOT, workloads.REGION), encoding="utf-8") as fh:
        system = parse_system(fh.read())
    for k in (1, 2, 3):
        program = enumerate_lattice_points(dilate(system, k))
        assert sorted(program.points) == workloads.region_points(rows, odd, k)
    assert len(workloads.union_of_dilations(rows, odd, (1, 2, 3))) == 172
    assert len(workloads.region_points(rows, odd, 10)) == 5566


def test_seeded_inputs_are_reproducible(tmp_path, at_root):
    texts = []
    for sub in ("a", "b"):
        work = tmp_path / sub
        work.mkdir()
        workloads.prepare("region_toric", str(work), 7)
        texts.append([(work / f).read_text() for f in ("region.txt", "union.txt")])
    assert texts[0] == texts[1]
    zero = workloads.prepare("osp_tower", str(tmp_path), 0)
    assert zero.commands[0][2] == workloads.OSP_CFG


@pytest.mark.parametrize("name", ["osp_tower", "sl3_degenerate", "region_toric"])
def test_reports_do_not_depend_on_the_seed(name, tmp_path, at_root):
    reports = []
    for seed in (0, 5):
        work = tmp_path / str(seed)
        work.mkdir()
        prepared = workloads.prepare(name, str(work), seed, level=SHORT[name])
        _, outcomes = tracer.run_commands(prepared.commands, main)
        assert [o["code"] for o in outcomes] == [0] * len(outcomes)
        assert workloads.check(name, prepared, outcomes, None) == []
        reports.append([o["stdout"] for o in outcomes])
    assert reports[0] == reports[1]


VERIFY_TODAY = """\
PASS polytope-count: 10 lattice points (expected 10)
PASS essential-computation: 5 essential monomials at level 1
FAIL polytope-match: 5 shared, 5 only-in-polytope, 0 only-in-module
FAIL order-search: 0 basis-order/monomial-order combinations realize the polytope points
PASS semigroup: level 1 + level 1 -> level 2 on 14 exponents
PASS favourable: chains found for all exponents up to level 3
PASS graded-kernel: 0 kernel generators at degree <= 2, all lifted exactly
PASS family-fibers: graded dimensions h=1:5 h=2:14 agree on fibers t=0,1,2,5
PASS toric-certificate: verdict toric, faithful yes on the 10-point generator set
FAILED stages: polytope-match, order-search
"""


def verify_outcome(stdout: str, code: int) -> list[dict]:
    return [{"argv": ["verify-example"], "code": code, "stdout": stdout, "stderr": ""}]


def test_verify_catalog_contract():
    prepared = workloads.prepare("verify_catalog", ".", 0)

    def problems(stdout, code):
        return workloads.check("verify_catalog", prepared, verify_outcome(stdout, code), None)

    assert problems(VERIFY_TODAY, 1) == []
    assert problems(VERIFY_TODAY, 0)
    fixed = VERIFY_TODAY.replace("FAIL ", "PASS ").replace(
        "FAILED stages: polytope-match, order-search", "all stages passed"
    )
    assert problems(fixed, 0) == []
    broken = VERIFY_TODAY.replace("PASS semigroup", "FAIL semigroup").replace(
        "stages: polytope-match, order-search", "stages: polytope-match, order-search, semigroup"
    )
    assert problems(broken, 1)
    assert problems(VERIFY_TODAY.replace("PASS favourable", "PASS favorable"), 1)
    crashed = verify_outcome(VERIFY_TODAY, 1)
    crashed[0]["stderr"] = "Traceback (most recent call last):\n"
    assert workloads.check("verify_catalog", prepared, crashed, None)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    import json

    import run

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.LAYER_METRICS)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
