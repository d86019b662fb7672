"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py

Small scales keep them quick.  Tests that plant a wrong answer run the
passes in this process, so that the planted function is the one called.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from qrationals import cli, qpoly, snake  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDED = ("qrat-large", "stats-words", "cli-mix", "verify-parts")
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def assert_reported(proc, expected):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    printed = {line.split()[1]: line.split()[-1] for line in lines if line.startswith("# ") and len(line.split()) == 4}
    assert {k: printed[k] for k in expected} == expected
    return result


def test_workload_names_match():
    assert tuple(w["name"] for w in SPEC["workloads"]) == SEEDED == run.WORKLOADS


@pytest.mark.parametrize("workload", SEEDED)
@pytest.mark.parametrize("trace", ("0", "1"))
def test_smoke_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", trace, "--scale", "0.2")
    assert_reported(proc, PER_LAYER if trace == "1" else END_TO_END)


@pytest.mark.parametrize("workload", SEEDED)
def test_seed_and_pass_fix_the_inputs(workload):
    digest = run.generate(workload, 7, 0, 0.5)[1]
    assert run.generate(workload, 7, 0, 0.5)[1] == digest
    assert run.generate(workload, 8, 0, 0.5)[1] != digest
    assert run.generate(workload, 7, 1, 0.5)[1] != digest


def test_gauged_time_is_over_the_kernel_runs_around_it():
    # operation k runs between kernel runs k and k + 1, and is divided by
    # the median of runs k - 1 to k + 2 that exist: 2, 3 and 6
    assert run.gauged([2.0, 6.0, 12.0], [0, 1, 2], [1.0, 2.0, 4.0, 8.0, 16.0]) == [1.0, 2.0, 2.0]


def _shifted_q_rational(original):
    def wrong(x):
        return original(Fraction(x) + 1)

    return wrong


def _swapped_statistics(original):
    def wrong(x):
        a, b = original(x)
        return b, a

    return wrong


def _one_object_short(original):
    def wrong(model):
        return original(model)[:-1]

    return wrong


@pytest.mark.parametrize(
    "workload, module, name, plant",
    (
        ("qrat-large", qpoly, "q_rational", _shifted_q_rational),
        ("stats-words", snake, "area_statistics", _swapped_statistics),
        ("cli-mix", cli, "enumerate_ideals", _one_object_short),
        ("verify-parts", snake, "matchings_by_backtracking", _one_object_short),
        ("verify-parts", qpoly, "q_rational", _shifted_q_rational),
    ),
)
def test_planted_wrong_answer_raises_fail_ratio(monkeypatch, workload, module, name, plant):
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    result, meta, messages = run.run(workload, 2, 0.1, 0, scale=0.3, runner=run.one_pass)
    assert not result["correct"] and result["failed"] > 0 and meta["fail_ratio"] > 0
    assert messages


@pytest.fixture(scope="module")
def traced():
    return {workload: run.run(workload, 5, 0.1, 1, scale=0.3)[0]["metrics"] for workload in SEEDED}


@pytest.mark.parametrize("workload", SEEDED)
def test_traced_counts_repeat(traced, workload):
    first = traced[workload]
    second = run.run(workload, 5, 0.1, 1, scale=0.3)[0]["metrics"]
    counts = {k for k, m in first.items() if m["unit"] != "s"}
    assert counts and {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert any(first[k]["value"] for k in counts if k.endswith(".calls"))


def test_every_per_layer_metric_is_measured_on_some_workload(traced):
    assert [name for name in PER_LAYER if not any(traced[w][name]["value"] for w in SEEDED)] == []


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "cli-mix", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
