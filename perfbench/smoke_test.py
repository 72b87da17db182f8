"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py        (or: python3 -m pytest perfbench/smoke_test.py)

Runs every workload at minimal length, untraced and traced, and checks
that each metric ``BENCHMARK.json`` names is emitted with its unit; that
a planted wrong output (a tampered expected digest) is a failed
operation; and that the benchmark refuses to run without the sources.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


def load_spec():
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def run_benchmark(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.01", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


def test_every_metric_is_emitted_with_its_unit():
    spec = load_spec()
    for workload in (entry["name"] for entry in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_benchmark(workload, trace)
            assert proc.returncode == 0, proc.stderr[-2000:]
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, proc.stdout[-2000:]
            assert result["attempted"] >= 1
            expected = {entry["name"]: entry["unit"] for entry in spec[key]}
            emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
            assert emitted == expected, (workload, trace, emitted)
            for name, entry in result["metrics"].items():
                assert isinstance(entry["value"], (int, float)), (workload, name)
                if trace == 0:
                    assert entry["value"] > 0, (workload, name)


def test_per_layer_list_matches_benchmark_json():
    spec = load_spec()
    listed = [(entry["name"], entry["unit"], entry["better"]) for entry in spec["per_layer"]]
    assert listed == [(name, unit, better) for name, unit, better, _ in layers.LAYER_METRICS]
    assert set(run.END_TO_END_UNITS.items()) == {
        (entry["name"], entry["unit"]) for entry in spec["end_to_end"]
    }


def test_tampered_digest_counts_as_failed_operation():
    workdir = os.path.join(HERE, "out", f"smoke-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.TasksFine(workloads.DEFAULT_SEED, workdir)
        planted = workload.key(0)[3]
        workload.expected[planted] = dict(workload.expected[planted], sha256="0" * 64)
        _warm, ops = run.run_ops(workload, 0.0)
        failed = [op for op in ops if op.error is not None]
        assert len(ops) == workload.cycle
        assert len(failed) == 1 and planted in failed[0].error, [op.error for op in ops]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_refuses_to_run_without_sources():
    bare = os.path.join(HERE, "out", f"bare-{os.getpid()}")
    os.makedirs(bare, exist_ok=True)
    try:
        shutil.copy(SPEC_PATH, bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_benchmark("tasks_fine", 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            test()
            print(f"ok  {name}")
