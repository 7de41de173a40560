"""Tiny-size smoke tests for the benchmark itself.

Run with ``python3 -m pytest vtpmbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import run  # noqa: E402
import worlds  # noqa: E402

TINY = ["--seconds", "0.05", "--size", "30"]


def invoke(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "vtpmbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_run_reports_every_metric(workload):
    proc = invoke("--workload", workload, "--seed", "1", "--trace", "0", *TINY)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [name for name, _ in bench.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_layer_ledger_separates_the_layers():
    ledgers = {}
    for workload in run.WORKLOADS:
        proc = invoke("--workload", workload, "--seed", "2", "--trace", "1", *TINY)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = result_of(proc)
        assert list(result["metrics"]) == [name for name, _ in bench.PER_LAYER]
        ledgers[workload] = {k: v["value"] for k, v in result["metrics"].items()}
    pcr, keys, fleet = (ledgers[w] for w in run.WORKLOADS)
    assert pcr["core.policy.calls_per_cmd"] < 0.01 < keys["core.policy.calls_per_cmd"]
    assert pcr["core.identity.calls_per_cmd"] < 0.01 < keys["core.identity.calls_per_cmd"]
    assert pcr["charge.crypto_us_per_cmd"] == 0
    assert keys["core.monitor.deny_frac"] > 0 == pcr["core.monitor.deny_frac"]
    for name in ("cluster.router.self_us_per_cmd", "cluster.migrator.moved_frac",
                 "vtpm.migration.self_ms_per_move", "migration_host_ms_p50"):
        assert fleet[name] > 0 and pcr[name] == 0 and keys[name] == 0


def test_another_seed_changes_inputs_and_still_passes():
    def first_ops(seed):
        world = worlds.FleetChurn(seed)
        stream = world.ops()
        return [next(stream).kind for _ in range(8)], world.warmup_ops

    assert first_ops(1) != first_ops(2)
    virtual = []
    for seed in ("1", "2"):
        proc = invoke("--workload", "key_lifecycle", "--seed", seed, "--trace", "0", *TINY)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        virtual.append(result_of(proc)["metrics"]["virtual_us_per_cmd"]["value"])
    assert virtual[0] != virtual[1]


def test_same_seed_repeats_virtual_and_memory_exactly():
    keys = ("virtual_us_per_cmd", "retained_bytes_per_cmd")
    runs = []
    for _ in range(2):
        proc = invoke("--workload", "pcr_hot", "--seed", "5", "--trace", "0", *TINY)
        runs.append({k: result_of(proc)["metrics"][k]["value"] for k in keys})
    assert runs[0] == runs[1]


def test_failed_output_check_exits_nonzero(monkeypatch, capsys):
    # A broken shadow chain makes every PCR check fail, warm-up first.
    monkeypatch.setattr(worlds, "chain", lambda old, measurement: b"\x01" * 20)
    assert run.main(["--workload", "pcr_hot", "--trace", "0", *TINY]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False


def test_drive_counts_failed_ops():
    world, stream, _ = bench.setup(worlds.PcrHot, 1)
    world.shadow[8] = b"\x02" * 20
    result = bench.drive(world, stream, min_ops=50, max_ops=50)
    assert 0 < result.failed < 50 and result.ops == 50


@pytest.mark.parametrize("args", [
    ["--workload", "nope"],
    ["--seed", "1.5"],
    ["--seed", "abc"],
    ["--size", "0"],
    ["--size", "-3"],
    ["--seconds", "0"],
    ["--trace", "2"],
])
def test_bad_arguments_fail_closed(args):
    proc = invoke(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr


def test_help_works():
    proc = invoke("--help")
    assert proc.returncode == 0 and "--workload" in proc.stdout
    assert run.WORKLOADS == tuple(worlds.WORKLOADS)


def test_checkout_without_the_program_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "vtpmbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = invoke("--workload", "pcr_hot", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
