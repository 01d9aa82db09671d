"""The benchmark's own tests: each check rejects a corrupted output, and
every workload runs end to end on a seed other than the default.

Run from the repository root:  python3 -m pytest benchmark -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tripsem import treeio  # noqa: E402

SEED = 7
assert SEED != run.DEFAULT_SEED


def made(cls, tmp_path):
    workload = cls(SEED, tmp_path)
    workload.prepare_checks()
    return workload


def change_digit(report: str, key: str, nth: int, digit: str | None) -> str:
    """Replace the ``nth`` digit of ``key``'s value by ``digit``, or by the
    next digit when ``digit`` is None."""
    lines = report.splitlines(keepends=True)
    for i, line in enumerate(lines):
        head, sep, value = line.partition(": ")
        if sep and head.endswith(" " + key):
            pos = [m.start() for m in re.finditer(r"\d", value)][nth]
            if digit is None:
                digit = str((int(value[pos]) + 1) % 10)
            assert digit != value[pos]
            lines[i] = head + sep + value[:pos] + digit + value[pos + 1:]
            return "".join(lines)
    raise AssertionError(f"{key} not in report")


@pytest.fixture(scope="module")
def verify_fit(tmp_path_factory):
    workload = made(workloads.VerifyFit, tmp_path_factory.mktemp("verify-fit"))
    return workload, workload.run_op(0)


def test_verify_fit_output_passes(verify_fit):
    workload, output = verify_fit
    assert workload.check(0, output) == []


@pytest.mark.parametrize(
    "report, key, nth, digit",
    [
        (0, "residual_total", 0, None),  # leading digit: off the oracle residual
        (0, "value_only.m_error", -2, "0"),  # e-1x becomes e-0x, above 1e-9
        (0, "value_only.v_error", -2, "0"),
        (0, "samples", 0, None),
        (1, "alpha_not", 0, None),
        (1, "m_error", -2, "0"),
        (1, "v_error", -2, "0"),
        (2, "words", 0, None),
        (3, "baseline.delta", 9, None),  # a change of about 1e-9 relative
        (3, "perturbation_norm", 3, None),
    ],
)
def test_verify_fit_rejects_a_changed_digit(verify_fit, report, key, nth, digit):
    workload, output = verify_fit
    corrupted = list(output)
    code, out, err = corrupted[report]
    corrupted[report] = (code, change_digit(out, key, nth, digit), err)
    assert workload.check(0, corrupted)


def test_verify_fit_rejects_a_failed_check(verify_fit):
    workload, output = verify_fit
    code, out, err = output[1]
    corrupted = [output[0], (1, out.replace("result: PASS", "result: FAIL"), err), *output[2:]]
    assert workload.check(0, corrupted)


@pytest.fixture(scope="module")
def compose_forest(tmp_path_factory):
    return made(workloads.ComposeForest, tmp_path_factory.mktemp("compose-forest"))


def test_compose_forest_outputs_pass(compose_forest):
    for k in range(compose_forest.ops_per_round):
        assert compose_forest.check(k, compose_forest.run_op(k)) == [], k


def test_forest_mixes_the_three_kinds_of_tree(compose_forest):
    leaves = sorted(len(workloads.fringe(t)) for t in compose_forest.trees)
    assert leaves[-7:] == sorted(workloads.ComposeForest.BALANCED + workloads.ComposeForest.CHAINS)
    sentences = [t for t in compose_forest.trees if len(workloads.fringe(t)) <= 20]
    assert len(sentences) == workloads.ComposeForest.SENTENCES
    assert all(workloads.fringe(t).count("not") == 1 for t in sentences)


def test_compose_forest_rejects_a_moved_root_matrix(compose_forest):
    binary, roots = compose_forest.run_op(0)
    root = roots[1]
    moved = SimpleNamespace(v=root.v, M=SimpleNamespace(entries=root.M.entries * (1 + 1e-9)))
    assert compose_forest.check(0, (binary, [roots[0], moved]))


def test_compose_forest_rejects_a_changed_leaf_order(compose_forest):
    binary, roots = compose_forest.run_op(0)
    swapped = treeio.ParseTree.node(binary.tag, binary.children[::-1])
    assert compose_forest.check(0, (swapped, roots))


def test_lexicon_io_rejects_one_changed_float(tmp_path):
    workload = made(workloads.LexiconIO, tmp_path)
    output = workload.run_op(0)
    assert workload.check(0, output) == []
    text = workload.lex_path.read_text()
    start = text.index("\nm ", len(text) // 2) + 3
    pos = next(i for i in range(start, len(text)) if text[i].isdigit() and text[i] != "0")
    workload.lex_path.write_text(text[:pos] + str(int(text[pos]) % 9 + 1) + text[pos + 1:])
    assert workload.check(0, output)


def test_tail_is_the_slowest_sample_with_ten_slower():
    value, pct = run.tail([float(i) for i in range(40)])
    assert (value, pct) == (29.0, 75.0)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_tables_match_benchmark_json():
    spec = benchmark_json()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert layer == [("process.import_s", "s")] + [m[:2] for m in tracing.LAYER_METRICS] + [
        ("trace.overhead_pct", "%")
    ]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def run_benchmark(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run(workload, trace):
    done = run_benchmark(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = benchmark_json()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmark", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_benchmark(tmp_path, "verify-fit", 0)
    assert done.returncode != 0
    assert "correct" not in done.stdout
