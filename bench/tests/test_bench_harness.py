"""Self-check of the benchmark harness on tiny shapes (seconds, not minutes).

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spec  # noqa: E402


def run_bench(workload, trace, *extra, cwd=ROOT, bench=BENCH):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    result = result_of(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = spec.PER_LAYER if trace else spec.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m.name: m.unit for m in declared}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name


def test_corrupted_embedding_file_raises_the_fail_ratio(tmp_path, monkeypatch):
    import cad_gen
    import flow

    w = spec.workload("de-train", smoke=True)
    g = cad_gen.generate(tmp_path / "data.csv", w.n, w.domain_sizes, w.class_prior,
                         seed=3, profile_seed=w.population_seed, alpha=w.alpha)
    write = flow.write_embedding

    def write_and_damage(path, matrix):
        # change one digit of the first value of the first row
        write(path, matrix)
        data = bytearray(Path(path).read_bytes())
        comma = data.index(b",", data.index(b"\n") + 1)
        pos = next(i for i in range(comma + 1, len(data)) if chr(data[i]).isdigit())
        data[pos] = ord("1") if data[pos] != ord("1") else ord("2")
        Path(path).write_bytes(bytes(data))

    monkeypatch.setattr(flow, "write_embedding", write_and_damage)
    run = flow.WorkloadRun(w, g.path, g.n, tmp_path)
    run.run_untraced(0)
    assert run.ledger.failed / run.ledger.attempted > 0
    assert any("read back differs" in f for f in run.ledger.failures), run.ledger.failures


def test_fails_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work"))
    proc = run_bench("de-train", 0, cwd=tmp_path, bench=tmp_path / "bench")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_is_the_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()
