"""Integration: the experiment runners produce sane, stable results.

These are the same functions the benchmark harness drives, run at small
sizes so the full test suite stays fast.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness.builder import Platform
from repro.harness.experiments import (
    run_ablation,
    run_attack_matrix_experiment,
    run_command_latency,
    run_faulted_recovery,
    run_instance_creation,
    run_migration_sweep,
    run_policy_scaling,
    run_recovery_sweep,
    run_throughput_scaling,
    run_webapp_benchmark,
)
from repro.util.errors import AcceptanceError
from repro.workloads.mixes import OPERATIONS

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestCommandLatency:
    @pytest.fixture(scope="class")
    def result(self):
        return run_command_latency(reps=8)

    def test_covers_every_operation(self, result):
        assert set(result.baseline) == set(OPERATIONS)
        assert set(result.improved) == set(OPERATIONS)

    def test_overhead_bounded(self, result):
        for op, baseline_ms, improved_ms, overhead in result.overhead_rows():
            assert overhead >= 0.0, op
            assert overhead < 25.0, (op, overhead)

    def test_crypto_ops_slowest(self, result):
        rows = {r[0]: r for r in result.overhead_rows()}
        assert rows["create_wrap_key"][1] > rows["extend"][1] * 100
        assert rows["sign"][1] > rows["pcr_read"][1]

    def test_render_mentions_all_ops(self, result):
        text = result.render()
        for op in OPERATIONS:
            assert op in text

    def test_deterministic(self, result):
        again = run_command_latency(reps=8)
        assert again.overhead_rows() == result.overhead_rows()


class TestThroughputScaling:
    def test_loss_small_at_every_point(self):
        result = run_throughput_scaling(vm_counts=(1, 2, 4), ops_per_vm=12)
        for _vms, baseline, improved, loss in result.rows():
            assert improved <= baseline
            assert loss < 10.0


class TestAttackMatrixExperiment:
    def test_shape(self):
        result = run_attack_matrix_experiment(seed=42)
        assert result.improvement_blocks_all()
        assert len(result.rows) == 7


class TestInstanceCreation:
    def test_flat_scaling(self):
        result = run_instance_creation(populations=(0, 2, 4))
        rows = result.rows()
        assert len(rows) == 3
        values = [row[1] for row in rows]
        assert max(values) / min(values) < 1.15


class TestMigrationSweep:
    def test_constant_security_adder(self):
        result = run_migration_sweep(nv_payload_kib=(0, 16))
        rows = result.rows()
        adders = [improved - baseline for _s, baseline, improved in rows]
        assert all(a > 0 for a in adders)
        assert abs(adders[0] - adders[1]) / max(adders) < 0.10


class TestPolicyScaling:
    def test_flat(self):
        result = run_policy_scaling(rule_counts=(10, 1000), lookups=400)
        assert result.is_flat(tolerance=0.10)


class TestWebAppBenchmark:
    def test_ordering(self):
        result = run_webapp_benchmark(requests=400)
        rows = {r[0]: r for r in result.rows}
        assert rows["no-vtpm"][1] >= rows["baseline"][1] >= rows["improved"][1]


class TestAblation:
    def test_components_nonnegative_and_additive(self):
        result = run_ablation(ops=60)
        rows = {label: delta for label, _mean, delta in result.rows}
        assert rows["all-off"] == 0.0
        assert rows["full"] > 0.0
        singles = [rows[k] for k in rows if k.startswith("only ")]
        assert all(s >= 0.0 for s in singles)
        assert result.breakdown  # the ledger saw ac.* charges


class TestRecoveryClaims:
    def test_faulted_recovery_measures_under_python_O(self):
        # ``python -O`` strips asserts: the restarts must not live in one.
        code = (
            "from repro.harness.experiments import run_faulted_recovery\n"
            "(_, _, faulted_ms, _, recoveries), = run_faulted_recovery(\n"
            "    instance_counts=(1,)).points\n"
            "print(faulted_ms, recoveries)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        faulted_ms, recoveries = proc.stdout.split()
        assert float(faulted_ms) > 0.0
        assert int(recoveries) >= 1

    @pytest.mark.parametrize(
        "runner", [run_recovery_sweep, run_faulted_recovery]
    )
    def test_short_restart_fails_the_claim(self, monkeypatch, runner):
        monkeypatch.setattr(
            Platform, "restart_manager", lambda self, clean=True: 0
        )
        with pytest.raises(AcceptanceError, match="recovered 0 of 1"):
            runner(instance_counts=(1,))
