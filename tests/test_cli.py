"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_inventory(self, capsys):
        assert main(["inventory"]) == 0
        out = capsys.readouterr().out
        assert "Mayo Clinic" in out and "LIDC" in out

    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 4" in out and "Nvidia V100 GPU" in out and "Table 7" in out

    def test_epidemic(self, capsys):
        assert main(["epidemic", "--days", "100"]) == 0
        out = capsys.readouterr().out
        assert "cases per million" in out
        assert "Delta share" in out

    def test_simulate_writes_pairs(self, tmp_path, capsys):
        out_file = str(tmp_path / "pairs.npz")
        assert main(["simulate", "--count", "2", "--size", "32",
                     "--blank-scan", "1000", "--output", out_file]) == 0
        with np.load(out_file) as data:
            assert data["low_dose"].shape == (2, 1, 32, 32)
            assert data["full_dose"].shape == (2, 1, 32, 32)

    def test_diagnose_synthetic(self, capsys):
        assert main(["diagnose", "--size", "16", "--slices", "16", "--covid"]) == 0
        out = capsys.readouterr().out
        assert "P(COVID-19)" in out
        assert "verdict" in out

    def test_diagnose_from_file(self, tmp_path, capsys):
        from repro.data import chest_volume

        path = str(tmp_path / "scan.npy")
        np.save(path, chest_volume(16, 16, rng=np.random.default_rng(0)))
        assert main(["diagnose", "--input", path, "--no-enhancement"]) == 0

    def test_diagnose_rejects_unknown_backend(self, capsys):
        assert main(["diagnose", "--backend", "opt"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown backend 'opt'")
        assert err.count("\n") == 1

    def test_serve_reports_metrics(self, capsys):
        assert main(["serve", "--requests", "40", "--rate", "10",
                     "--policy", "perf-aware"]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "p50" in out and "p95" in out and "p99" in out
        assert "cache" in out and "hit rate" in out
        assert "Nvidia V100 GPU" in out  # per-device utilization lines

    def test_serve_is_deterministic(self, capsys):
        argv = ["serve", "--requests", "30", "--rate", "8", "--seed", "5",
                "--policy", "least-loaded", "--fleet", "gpus"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_serve_writes_json_summary(self, tmp_path, capsys):
        import json

        out_file = str(tmp_path / "serve.json")
        assert main(["serve", "--requests", "25", "--pattern", "burst",
                     "--policy", "round-robin", "--fleet", "V100,T4",
                     "--json", out_file]) == 0
        with open(out_file) as fh:
            summary = json.load(fh)
        assert summary["requests"] == 25
        assert summary["completed"] + summary["shed_queue_full"] + \
            summary["shed_timeout"] + summary["shed_fault"] == 25
        assert "latency_p99_s" in summary and "device_utilization" in summary

    def test_serve_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            main(["serve", "--policy", "fifo"])

    def test_serve_dag_mode(self, capsys):
        assert main(["serve", "--dag", "--requests", "40", "--rate", "10",
                     "--monitor-fraction", "0.3", "--dup-fraction", "0.2",
                     "--queue-capacity", "1000"]) == 0
        out = capsys.readouterr().out
        assert "artifacts" in out and "model swaps" in out
        assert "stage batches" in out

    def test_serve_epi_arrivals(self, capsys):
        assert main(["serve", "--arrivals", "epi", "--requests", "30",
                     "--rate", "8", "--queue-capacity", "1000"]) == 0
        out = capsys.readouterr().out
        assert "epi arrivals" in out

    def test_serve_dag_trace_round_trip(self, tmp_path, capsys):
        """DAG-mode stage events replay through `repro trace summary`."""
        import json

        trace_file = str(tmp_path / "dag.jsonl")
        live_json = str(tmp_path / "live.json")
        replay_json = str(tmp_path / "replay.json")
        assert main(["serve", "--mode", "dag", "--requests", "40",
                     "--rate", "10", "--seed", "3", "--dup-fraction", "0.3",
                     "--queue-capacity", "1000", "--json", live_json,
                     "--trace-out", trace_file]) == 0
        assert main(["trace", "summary", trace_file,
                     "--json", replay_json]) == 0
        assert "stage batches" in capsys.readouterr().out
        with open(live_json) as fh:
            live = json.load(fh)
        with open(replay_json) as fh:
            replay = json.load(fh)
        for key in ("model_swaps", "model_evictions", "stages_skipped",
                    "artifact_entries", "stage_completions"):
            assert replay[key] == live[key], key

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_parser_has_all_commands(self):
        parser = build_parser()
        subs = next(a for a in parser._actions if a.dest == "command")
        assert set(subs.choices) == {"diagnose", "simulate", "tables", "epidemic",
                                     "inventory", "serve", "train", "sweep",
                                     "trace", "bench"}

    def test_serve_trace_round_trip(self, tmp_path, capsys):
        """serve --trace-out → trace summary reproduces the live numbers."""
        import json

        trace_file = str(tmp_path / "trace.jsonl")
        live_json = str(tmp_path / "live.json")
        replay_json = str(tmp_path / "replay.json")
        assert main(["serve", "--requests", "40", "--rate", "10", "--seed", "3",
                     "--json", live_json, "--trace-out", trace_file]) == 0
        assert main(["trace", "summary", trace_file,
                     "--json", replay_json]) == 0
        out = capsys.readouterr().out
        assert "telemetry events" in out
        with open(live_json) as fh:
            live = json.load(fh)
        with open(replay_json) as fh:
            replay = json.load(fh)
        for key in ("requests", "completed", "shed_queue_full", "shed_timeout",
                    "shed_fault", "slo_violations", "makespan_s",
                    "throughput_rps", "latency_p50_s", "latency_p95_s",
                    "latency_p99_s", "latency_mean_s", "latency_max_s",
                    "cache_hits", "retries", "degraded_completed"):
            assert replay[key] == live[key], key

    @pytest.mark.parametrize("bad_line, reason", (
        ('{"t":1.0,"kind":"arrival"}', "lacks field 'seq'"),
        ('{"seq":1,"t":1.0,"kind":', "not a JSON line"),
    ), ids=("missing-seq", "broken-json"))
    def test_trace_summary_refuses_malformed_trace(self, tmp_path, capsys,
                                                   bad_line, reason):
        trace_file = tmp_path / "bad.jsonl"
        trace_file.write_text(
            '{"seq":0,"t":0.0,"kind":"arrival","source":"s","payload":{}}\n'
            + bad_line + "\n")
        assert main(["trace", "summary", str(trace_file)]) == 2
        err = capsys.readouterr().err
        assert f"error: {trace_file}:2: " in err and reason in err

    def test_train_healthy_run(self, capsys):
        assert main(["train", "--ranks", "4", "--epochs", "2"]) == 0
        out = capsys.readouterr().out
        assert "4 ranks x 2 epochs" in out
        assert "crashes []" in out

    def test_train_chaos_trace_round_trip(self, tmp_path, capsys):
        """train --trace-out → trace summary reproduces the live numbers."""
        import json

        trace_file = str(tmp_path / "train.jsonl")
        live_json = str(tmp_path / "live.json")
        replay_json = str(tmp_path / "replay.json")
        assert main(["train", "--ranks", "6", "--epochs", "2",
                     "--faults", "crash", "--regrow-after", "1.0",
                     "--json", live_json, "--trace-out", trace_file]) == 0
        assert main(["trace", "summary", trace_file,
                     "--json", replay_json]) == 0
        out = capsys.readouterr().out
        assert "training trace" in out
        with open(live_json) as fh:
            live = json.load(fh)
        with open(replay_json) as fh:
            replay = json.load(fh)
        assert replay == live
        assert live["rank_crashes"]  # the chaos actually happened
        assert live["shrinks"] >= 1 and live["regrows"] >= 1

    def test_train_fixed_ring_abort_exits_nonzero(self, capsys):
        assert main(["train", "--ranks", "4", "--epochs", "2",
                     "--faults", "crash", "--no-elastic"]) == 1
        out = capsys.readouterr().out
        assert "ABORTED" in out

    def test_sweep_writes_consolidated_artifact(self, tmp_path, capsys):
        import json

        out_file = str(tmp_path / "SWEEP_training.json")
        assert main(["sweep", "--quick", "--ranks", "2,4",
                     "--profiles", "none,crash", "--compress", "none",
                     "--out", out_file]) == 0
        with open(out_file) as fh:
            payload = json.load(fh)
        assert payload["gates_ok"]
        assert len(payload["cells"]) == 4  # 2 ranks x 2 profiles x 1 comp
