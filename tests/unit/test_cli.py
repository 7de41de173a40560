"""Unit tests for the CLI."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.mode == "improved"
        assert args.seed == 2010

    def test_experiment_quick_flag(self):
        args = build_parser().parse_args(["experiment", "table1", "--quick"])
        assert args.id == "table1"
        assert args.quick

    def test_trace_options(self):
        args = build_parser().parse_args(
            ["trace", "--guests", "7", "--mix", "attestation"]
        )
        assert args.guests == 7
        assert args.mix == "attestation"
        assert args.workload is None

    def test_trace_workload_operand(self):
        args = build_parser().parse_args(["trace", "pcrread", "--count", "3"])
        assert args.workload == "pcrread"
        assert args.count == 3
        assert args.mode == "improved"

    def test_chaos_and_experiment_take_trace_path(self):
        assert build_parser().parse_args(
            ["chaos", "--trace", "out.jsonl"]
        ).trace == "out.jsonl"
        assert build_parser().parse_args(
            ["experiment", "table1", "--trace", "-"]
        ).trace == "-"

    def test_verify_defaults(self):
        args = build_parser().parse_args(["verify"])
        assert args.budget == "small"
        assert args.seed == 2010
        assert args.target is None
        assert args.replay is None
        assert args.inject_bug is None

    def test_verify_options(self):
        args = build_parser().parse_args(
            ["verify", "--budget", "deep", "--target", "40",
             "--inject-bug", "cache-epoch", "--output", "r.json"]
        )
        assert args.budget == "deep"
        assert args.target == 40
        assert args.inject_bug == "cache-epoch"
        assert args.output == "r.json"

    def test_chaos_and_cluster_take_conformance_flag(self):
        assert build_parser().parse_args(
            ["chaos", "--single", "--conformance"]
        ).conformance
        assert build_parser().parse_args(
            ["cluster", "--single", "--conformance"]
        ).conformance
        assert not build_parser().parse_args(["chaos"]).conformance

    @pytest.mark.parametrize("argv", [
        ["chaos", "--commands", "300", "--conformance"],
        ["chaos", "--supervised", "--conformance"],
        ["cluster", "--conformance"],
    ])
    def test_conformance_without_single_is_rejected(self, argv, capsys):
        # The full demos attach no oracle: fail closed, never run them.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--conformance requires --single" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["chaos", "--commands", "-5"],
        ["chaos", "--trace-sample", "-2"],
        ["cluster", "--guests", "-1"],
        ["cluster", "--steps", "-4"],
        ["cluster", "--hosts", "0"],
        ["health", "--commands", "0"],
        ["trace", "--count", "-1"],
        ["trace", "--guests", "0"],
        ["xm", "list", "--guests", "-1"],
        ["profile", "--top", "-3"],
        ["profile", "--commands", "0"],
    ])
    def test_out_of_range_counts_are_usage_errors(self, argv, capsys):
        # Counts fail closed at parse time: usage error, nothing runs.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "integer" in err

    @pytest.mark.parametrize("argv", [
        ["trace", "--rate", "nan"],
        ["trace", "--rate", "inf"],
        ["trace", "--duration", "inf"],
        ["trace", "--rate", "0"],
        ["trace", "--rate", "-1"],
        ["trace", "--duration", "0"],
    ])
    def test_non_finite_or_non_positive_trace_floats_are_usage_errors(
        self, argv, capsys
    ):
        # Before the parse-time check these hung (NaN/inf never reach the
        # duration) or ended in a ReproError traceback.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "finite number above 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["trace", "--rate", "1e12", "--duration", "1e6"],
        ["trace", "--rate", "1e200", "--duration", "1e200"],
        ["trace", "--rate", "300000", "--guests", "4"],
    ])
    def test_huge_synthetic_trace_is_a_usage_error(
        self, argv, capsys, monkeypatch
    ):
        # Finite but huge: the expected entry count is checked before any
        # generation starts (a started generation fails the test at once
        # instead of running until it is killed).
        from repro.workloads.traces import SyntheticTrace

        def refuse(*args, **kwargs):
            raise AssertionError("trace generation started")

        monkeypatch.setattr(SyntheticTrace, "poisson", refuse)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "above the limit of 1,000,000" in err

    def test_zero_top_still_means_off(self):
        assert build_parser().parse_args(["profile", "--top", "0"]).top == 0


class TestCommands:
    def test_demo_runs(self, capsys):
        assert main(["demo", "--mode", "baseline", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "vTPM provisioned" in out
        assert "unsealed" in out

    def test_demo_improved(self, capsys):
        assert main(["demo", "--mode", "improved"]) == 0
        assert "[improved]" in capsys.readouterr().out

    def test_experiment_unknown_id(self, capsys):
        assert main(["experiment", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_experiment_table3_quick(self, capsys):
        assert main(["experiment", "table3", "--quick"]) == 0
        assert "policy decision latency" in capsys.readouterr().out

    def test_trace_emits_loadable_trace(self, capsys):
        assert main(
            ["trace", "--guests", "2", "--rate", "30", "--duration", "0.1"]
        ) == 0
        out = capsys.readouterr().out
        from repro.workloads.traces import SyntheticTrace

        trace = SyntheticTrace.loads(out)
        assert trace.guests == 2

    def test_attack_matrix_single_mode(self, capsys):
        assert main(["attack-matrix", "--mode", "baseline"]) == 0
        out = capsys.readouterr().out
        assert "mem-dump-manager" in out
        assert "succeeded" in out

    def test_trace_live_workload_prints_span_tree(self, capsys):
        assert main(["trace", "pcrread", "--count", "1"]) == 0
        out = capsys.readouterr().out
        assert "frontend.command" in out
        assert "authz" in out
        assert "engine" in out
        assert "== counters ==" in out
        assert 'ac.decisions{outcome="allow"}' in out

    def test_trace_live_unknown_workload(self, capsys):
        assert main(["trace", "frobnicate"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_chaos_supervised_single(self, capsys):
        assert main(
            ["chaos", "--supervised", "--single", "--commands", "150"]
        ) == 0
        out = capsys.readouterr().out
        assert "plan=supervised-chaos" in out
        assert "malformed=0" in out
        assert "settled=True" in out

    def test_health_subcommand(self, capsys):
        assert main(["health", "--commands", "120"]) == 0
        out = capsys.readouterr().out
        assert "victim" in out
        assert "restarting->healthy[restart-probe-ok]" in out
        assert "settled=True" in out

    def test_health_no_faults(self, capsys):
        assert main(["health", "--commands", "60", "--no-faults"]) == 0
        out = capsys.readouterr().out
        assert "plan=fault-free" in out
        assert "state     : healthy" in out

    def test_chaos_single_with_trace_jsonl(self, capsys, tmp_path):
        from repro.obs import load_jsonl, validate_tree_dict

        out = tmp_path / "chaos.jsonl"
        assert main(
            ["chaos", "--single", "--commands", "40", "--trace", str(out)]
        ) == 0
        stdout = capsys.readouterr().out
        assert "trace:" in stdout and "counters:" in stdout
        trees = load_jsonl(out.read_text())
        assert trees
        for tree in trees:
            validate_tree_dict(tree)

    def test_chaos_supervised_demo_honours_trace(self, capsys, tmp_path):
        """Regression: the supervised demo used to drop --trace and write
        an empty file; the chaotic run is now observed and summarized."""
        from repro.obs import load_jsonl, validate_tree_dict

        out = tmp_path / "sup.jsonl"
        assert main([
            "chaos", "--supervised", "--commands", "150",
            "--trace", str(out), "--trace-sample", "4",
        ]) == 0
        stdout = capsys.readouterr().out
        assert "trace:" in stdout and "counters:" in stdout
        trees = load_jsonl(out.read_text())
        assert trees
        for tree in trees:
            validate_tree_dict(tree)

    def test_chaos_supervised_explicit_default_length(self, capsys):
        """Regression: an explicit --commands 1000 used to read as unset
        and run the supervised default of 600."""
        assert main(
            ["chaos", "--supervised", "--single", "--commands", "1000"]
        ) == 0
        assert "commands=1000" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, text", [
        (["chaos", "--commands", "5"], "chaos plan only exercised"),
        (["cluster", "--hosts", "1", "--guests", "2", "--steps", "3"],
         "the plan never"),
    ])
    def test_unprovable_demo_exits_one_naming_the_claim(
        self, argv, text, capsys
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "acceptance failed:" in err and text in err

    def test_demo_claims_survive_optimized_mode(self):
        """Claims are not asserts: under ``python -O`` a demo too short
        to prove them still fails."""
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "repro", "chaos", "--commands", "5"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1, proc.stdout
        assert "acceptance failed:" in proc.stderr

    def test_verify_small_smoke(self, capsys):
        # --target caps the sweep so the unit test stays fast; the full
        # 500+-schedule acceptance run lives in CI.
        assert main(["verify", "--target", "12"]) == 0
        out = capsys.readouterr().out
        assert "distinct schedules explored" in out
        assert "oracle violations           : 0" in out

    def test_verify_inject_bug_catches_and_shrinks(self, capsys, tmp_path):
        from repro.verify import load_repro

        artifact = tmp_path / "repro.json"
        assert main([
            "verify", "--inject-bug", "cache-epoch",
            "--output", str(artifact),
        ]) == 0
        out = capsys.readouterr().out
        assert "injected bug caught and shrunk" in out
        repro = load_repro(str(artifact))
        assert 0 < len(repro.steps) <= 10
        assert repro.inject_bug == "cache-epoch"

    def test_verify_replay_reproduces_then_exits_nonzero(
        self, capsys, tmp_path
    ):
        artifact = tmp_path / "repro.json"
        assert main([
            "verify", "--inject-bug", "cache-epoch",
            "--output", str(artifact),
        ]) == 0
        capsys.readouterr()
        assert main(["verify", "--replay", str(artifact)]) == 1
        assert "violation reproduces" in capsys.readouterr().out

    def test_verify_replay_clean_artifact_exits_zero(self, capsys, tmp_path):
        import json

        from repro.verify import REPRO_FORMAT

        artifact = tmp_path / "clean.json"
        artifact.write_text(json.dumps({
            "format": REPRO_FORMAT, "seed": 2010, "guests": 2,
            "supervised": False, "inject_bug": None,
            "steps": [{"guest": 0, "op": "extend", "arg": 1}],
            "violation": {"kind": "oracle-mismatch", "step_index": 0,
                          "step": None, "predicted": "", "observed": "",
                          "detail": ""},
        }))
        assert main(["verify", "--replay", str(artifact)]) == 0
        assert "replay clean" in capsys.readouterr().out


REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("script", [
    "bench_wallclock_pipeline.py",
    "bench_cluster_scaling.py",
    "bench_verify_explorer.py",
])
def test_bench_script_help_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "benchmarks" / script), "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout
