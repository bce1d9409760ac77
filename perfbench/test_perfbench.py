"""The benchmark's own tests, on tiny inputs: python3 -m pytest -q perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_printed_with_unit(workload, trace):
    out = _bench(HERE.parent, "--workload", workload, "--seed", "3", "--seconds", "0.3",
                 "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stderr
    *_, info_line, result_line = out.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    info = json.loads(info_line)["info"]
    assert info["seed"] == 3 and info["nproc"] >= 1 and info["failed_share"] == 0
    assert {"python", "numpy", "blas_threads"} <= set(info)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_wrong_pinned_digest_is_a_failed_operation(monkeypatch, capsys):
    fields, classes, _ = workloads.TINY_CANON_PINS["n4p3"]
    monkeypatch.setitem(workloads.TINY_CANON_PINS, "n4p3", (fields, classes, "0" * 64))
    code = run.main(["--workload", "canon", "--seed", "0", "--seconds", "0", "--tiny"])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    passes = result["attempted"] // len(workloads.TINY_CANON_PINS)
    assert result["failed"] == passes >= 1 and result["correct"] is False


def test_same_seed_same_inputs():
    ops = []
    for _ in range(2):
        lib = run.import_library()
        wl = workloads.oracle(lib, run.np.random.default_rng(5), tiny=True)
        ops.append([(op.kind, repr(op.run())) for op in wl.ops[:6]])
    assert ops[0] == ops[1]


def test_without_the_library_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = _bench(tmp_path, "--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_a_uniformly_slower_host_leaves_the_yardstick_metrics_unchanged():
    def passes(scale):
        return [[run.Sample(scale * (t + 0.01 * k), True, 3, None) for t in (0.1, 0.2, 0.4)]
                for k in range(5)]

    fast, _ = run.end_to_end([1.0], passes(1.0), [0.005, 0.006])
    slow, raw = run.end_to_end([1.0], passes(1.5), [0.0075, 0.009])
    for name in ("pass_ref", "work_per_ref"):
        assert slow[name] == pytest.approx(fast[name])
    assert raw["wall_s"] == pytest.approx(1.5 * 0.76)  # the median pass, k = 2
    assert raw["op_p50_ms"] == pytest.approx(1.5 * 220)  # median of the three per-op medians
    assert raw["op_tail_ms"] == pytest.approx(1.5 * 420) and raw["tail_percentile"] == 100.0
