"""Tests for the repro-ones command-line interface."""

import json

import pytest

from repro.cli import SCHEDULERS, build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_schedulers_available(self):
        assert {"ones", "drl", "tiresias", "optimus", "gandiva", "fifo", "srtf"} <= set(SCHEDULERS)

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scheduler == "ones"
        assert args.gpus == 64


class TestTraceCommand:
    def test_writes_trace_json(self, tmp_path, capsys):
        output = tmp_path / "trace.json"
        code = main(["trace", "--jobs", "6", "--seed", "3", "--output", str(output)])
        assert code == 0
        payload = json.loads(output.read_text())
        assert len(payload) == 6
        assert "Wrote 6 jobs" in capsys.readouterr().out


class TestRunCommand:
    def test_run_fifo_on_generated_trace(self, tmp_path, capsys):
        csv_path = tmp_path / "jobs.csv"
        code = main([
            "run", "--scheduler", "fifo", "--gpus", "8", "--jobs", "3",
            "--arrival-interval", "10", "--seed", "4", "--csv", str(csv_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "average_jct" in out
        assert csv_path.exists()

    def test_run_replays_saved_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        main(["trace", "--jobs", "3", "--seed", "5", "--output", str(trace_path)])
        capsys.readouterr()
        code = main([
            "run", "--scheduler", "tiresias", "--gpus", "8",
            "--trace", str(trace_path), "--seed", "5",
        ])
        assert code == 0
        assert "completed_jobs" in capsys.readouterr().out

    def test_run_profile_prints_blas_threads_above_the_table(self, capsys):
        code = main([
            "run", "--scheduler", "ones", "--gpus", "8", "--jobs", "3",
            "--arrival-interval", "10", "--seed", "4", "--profile",
        ])
        assert code == 0
        out = capsys.readouterr().out
        threads_at = out.index("BLAS threads per OpenBLAS copy:")
        assert threads_at < out.index("Profile (wall-clock seconds per phase")
        assert "gpr_refit_seconds" in out


class TestCompareCommand:
    def test_compare_serial_with_exports(self, tmp_path, capsys):
        json_path = tmp_path / "compare.json"
        code = main([
            "compare", "--schedulers", "fifo", "srtf", "--gpus", "8", "--jobs", "3",
            "--arrival-interval", "10", "--seed", "4", "--json", str(json_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Average JCT" in out
        assert "2 executed" in out
        payload = json.loads(json_path.read_text())
        assert set(payload["averages"]["jct"]) == {"FIFO", "SRTF"}

    def test_compare_parallel_resume_uses_cache(self, tmp_path, capsys):
        args = [
            "compare", "--schedulers", "fifo", "tiresias", "--gpus", "8", "--jobs", "3",
            "--arrival-interval", "10", "--seed", "4", "--workers", "2",
            "--output-dir", str(tmp_path / "out"),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "2 executed, 0 from cache" in first
        assert "process backend" in first
        assert (tmp_path / "out" / "sweep_report.md").exists()
        assert len(list((tmp_path / "out" / "cells").glob("cell-*.json"))) == 2
        # Resuming executes nothing but prints the same results.
        assert main(args + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "0 executed, 2 from cache" in second
        assert first.splitlines()[1:] == second.splitlines()[1:]


class TestSweepCommand:
    def test_duplicate_cli_values_tolerated(self, capsys):
        code = main([
            "sweep", "--capacities", "8", "8", "--schedulers", "fifo", "fifo",
            "--jobs", "3", "--arrival-interval", "10", "--seeds", "4", "4",
        ])
        assert code == 0
        assert "1 cells: 1 executed" in capsys.readouterr().out

    def test_resume_requires_output_dir(self):
        with pytest.raises(SystemExit, match="output-dir"):
            main(["sweep", "--capacities", "8", "--jobs", "3", "--resume"])

    def test_capacities_chart_in_sorted_order(self, capsys):
        code = main([
            "sweep", "--capacities", "16", "8", "--schedulers", "fifo",
            "--jobs", "3", "--arrival-interval", "10", "--seeds", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith(("8 ", "16 "))]
        assert lines[0].startswith("8")
        assert lines[1].startswith("16")

    def test_sweep_over_capacities(self, tmp_path, capsys):
        json_path = tmp_path / "sweep.json"
        code = main([
            "sweep", "--capacities", "8", "12", "--schedulers", "fifo", "srtf",
            "--jobs", "3", "--arrival-interval", "10", "--seeds", "4",
            "--json", str(json_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig. 17" in out
        assert "4 cells: 4 executed" in out
        payload = json.loads(json_path.read_text())
        assert set(payload) == {"8", "12"}

    def test_multi_trace_grid_via_traces_flag(self, tmp_path, capsys):
        json_path = tmp_path / "sweep.json"
        code = main([
            "sweep", "--capacities", "8", "--schedulers", "fifo",
            "--traces", "3", "5", "--arrival-interval", "10", "--seeds", "4",
            "--json", str(json_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        # one cell per (scheduler, capacity, seed, trace)
        assert "2 cells: 2 executed" in out
        # multi-trace sweeps persist the full artifact (legacy export has
        # no trace axis)
        payload = json.loads(json_path.read_text())
        assert len(payload["spec"]["traces"]) == 2
        assert len(payload["runs"]) == 2

    def test_traces_flag_deduplicates(self, capsys):
        code = main([
            "sweep", "--capacities", "8", "--schedulers", "fifo",
            "--traces", "3", "3", "--arrival-interval", "10", "--seeds", "4",
        ])
        assert code == 0
        assert "1 cells: 1 executed" in capsys.readouterr().out

    def test_profile_flag_prints_phase_table(self, capsys):
        code = main([
            "sweep", "--capacities", "8", "--schedulers", "fifo",
            "--jobs", "3", "--arrival-interval", "10", "--seeds", "4",
            "--profile",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Per-phase wall-clock" in out
        assert "advance_s" in out


class TestQueueBackendCLI:
    def test_queue_backend_requires_queue_dir(self):
        with pytest.raises(SystemExit, match="queue-dir"):
            main(["sweep", "--capacities", "8", "--jobs", "3", "--backend", "queue"])

    def test_queue_dir_requires_queue_backend(self, tmp_path):
        with pytest.raises(SystemExit, match="backend queue"):
            main(["sweep", "--capacities", "8", "--jobs", "3",
                  "--queue-dir", str(tmp_path / "q")])

    def test_sweep_on_queue_backend_and_queue_status(self, tmp_path, capsys):
        queue_dir = tmp_path / "qdir"
        code = main([
            "sweep", "--capacities", "8", "--schedulers", "fifo",
            "--jobs", "3", "--arrival-interval", "10", "--seeds", "4",
            "--backend", "queue", "--queue-dir", str(queue_dir), "--workers", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 cells: 1 executed" in out
        assert "queue backend" in out
        # The durable state survives the sweep and is inspectable.
        code = main(["queue-status", str(queue_dir), "--cells"])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 cells" in out
        assert "completed" in out
        assert "FIFO@8g/seed4" in out

    def test_queue_status_rejects_non_queue_dir(self, tmp_path):
        with pytest.raises(SystemExit, match="queue.json"):
            main(["queue-status", str(tmp_path)])

    def test_queue_status_json_is_machine_readable(self, tmp_path, capsys):
        queue_dir = tmp_path / "qdir"
        code = main([
            "sweep", "--capacities", "8", "--schedulers", "fifo",
            "--jobs", "3", "--arrival-interval", "10", "--seeds", "4",
            "--backend", "queue", "--queue-dir", str(queue_dir), "--workers", "1",
        ])
        assert code == 0
        capsys.readouterr()
        code = main(["queue-status", str(queue_dir), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["states"]["completed"] == 1
        assert payload["lease_ttl"] > 0
        (cell,) = payload["cells"]
        assert cell["state"] == "completed"
        assert cell["label"] == "FIFO@8g/seed4"
        # Lease timing only appears on PROCESSING cells.
        assert "lease_age_s" not in cell

    def test_dead_cells_exit_nonzero_with_summary_table(self, tmp_path, capsys,
                                                        monkeypatch):
        # Poison one cell after the grid expands: the sweep must finish,
        # print the dead-cell table and exit non-zero (satellite of the
        # queue-robustness PR; exercised end to end in the queue tests).
        import repro.cli as cli
        from repro.experiments.artifacts import SweepArtifact, dead_cell_artifact
        from repro.experiments.backends import execute_run

        def fake_run_grid(runner, spec, resume):
            cells = spec.expand()
            runs = [execute_run(cells[0]),
                    dead_cell_artifact(cells[1], "RuntimeError: poisoned", attempts=2)]
            return SweepArtifact(spec=spec, runs=runs)

        monkeypatch.setattr(cli, "_run_grid", fake_run_grid)
        code = main([
            "sweep", "--capacities", "8", "--schedulers", "fifo", "srtf",
            "--jobs", "3", "--arrival-interval", "10", "--seeds", "4",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "ERROR: 1 of 2 cells ended dead" in out
        assert "poisoned" in out
        assert "SRTF@8g/seed4" in out


class TestSchedulersCommand:
    def test_cli_sees_schedulers_registered_after_import(self, capsys):
        """SCHEDULERS is a live registry view, not an import-time snapshot."""
        from repro.baselines.base import SchedulerCapabilities
        from repro.baselines.fifo import FIFOScheduler
        from repro.experiments.registry import register_scheduler, unregister_scheduler

        caps = SchedulerCapabilities(
            strategy="greedy", allows_preemption=False,
            elastic_job_size=False, elastic_batch_size=False,
        )
        register_scheduler("LatePolicy", capabilities=caps)(lambda seed: FIFOScheduler())
        try:
            assert "latepolicy" in SCHEDULERS
            code = main([
                "run", "--scheduler", "latepolicy", "--gpus", "8", "--jobs", "3",
                "--arrival-interval", "10", "--seed", "4",
            ])
            assert code == 0
            assert "completed_jobs" in capsys.readouterr().out
        finally:
            unregister_scheduler("LatePolicy")
        assert "latepolicy" not in SCHEDULERS

    def test_lists_registry(self, capsys):
        assert main(["schedulers"]) == 0
        out = capsys.readouterr().out
        for name in ("ONES", "DRL", "Tiresias", "Optimus", "Gandiva", "FIFO", "SRTF"):
            assert name in out

    def test_paper_only(self, capsys):
        assert main(["schedulers", "--paper-only"]) == 0
        out = capsys.readouterr().out
        assert "ONES" in out
        assert "Gandiva" not in out


class TestFiguresCommand:
    def test_fig16_report(self, capsys):
        code = main(["figures", "--which", "fig16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 16" in out
        assert "vgg16" in out

    def test_fig2_report(self, capsys):
        code = main(["figures", "--which", "fig2"])
        assert code == 0
        assert "Figure 2" in capsys.readouterr().out


class TestServiceCommands:
    def test_parse_tenant_flag_variants(self):
        from repro.cli import _parse_tenant_flag

        quota = _parse_tenant_flag("alice")
        assert quota.tenant == "alice"
        quota = _parse_tenant_flag("alice:16")
        assert (quota.tenant, quota.max_gpus) == ("alice", 16)
        quota = _parse_tenant_flag("alice:16:4")
        assert (quota.max_gpus, quota.max_active) == (16, 4)
        with pytest.raises(SystemExit):
            _parse_tenant_flag(":8")
        with pytest.raises(SystemExit):
            _parse_tenant_flag("a:1:2:3")

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--gpus", "32",
                                          "--tenant", "a:8", "--port", "0"])
        assert args.command == "serve"
        assert args.mode == "virtual"
        assert args.tenant == ["a:8"]

    def test_submit_parser_batch_flags(self):
        args = build_parser().parse_args([
            "submit", "--tenant", "a", "--count", "5",
            "--arrival-profile", "diurnal", "--json",
        ])
        assert args.count == 5
        assert args.arrival_profile == "diurnal"
        assert args.json

    def test_service_status_parser(self):
        args = build_parser().parse_args(["service-status", "--metrics", "--drain"])
        assert args.metrics and args.drain

    def test_serve_and_submit_round_trip(self, tmp_path):
        """Full loop: spawn `serve`, drive it with `submit`/`service-status`."""
        import os
        import signal
        import subprocess
        import sys
        import time
        from pathlib import Path

        env = dict(os.environ)
        root = Path(__file__).resolve().parents[1]
        env["PYTHONPATH"] = str(root / "src")
        log_path = tmp_path / "serve.log"
        with open(log_path, "w") as log:
            server = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--scheduler", "ones",
                 "--gpus", "8", "--port", "0", "--tenant", "cli-t"],
                stdout=log, stderr=subprocess.STDOUT, env=env,
            )
        try:
            port = None
            for _ in range(100):
                text = log_path.read_text()
                if "listening on" in text:
                    port = int(text.split(" on ")[1].split()[0].rsplit(":", 1)[1])
                    break
                time.sleep(0.2)
            assert port, f"server never announced readiness: {log_path.read_text()}"
            submit = subprocess.run(
                [sys.executable, "-m", "repro.cli", "submit", "--port", str(port),
                 "--tenant", "cli-t", "--replicas", "2", "--json"],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert submit.returncode == 0, submit.stderr
            decision = json.loads(submit.stdout.strip().splitlines()[-1])
            assert decision["status"] == "placed"
            status = subprocess.run(
                [sys.executable, "-m", "repro.cli", "service-status",
                 "--port", str(port), "--json"],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert status.returncode == 0, status.stderr
            payload = json.loads(status.stdout)
            assert payload["status"]["submissions"] == 1
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=15) == 0
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=10)


class TestTraceObservability:
    """``--trace-out`` recording plus the ``trace TRACE_FILE`` inspector."""

    @pytest.fixture(autouse=True)
    def _clean_tracer(self):
        from repro.obs.trace import uninstall_tracer

        uninstall_tracer()
        yield
        uninstall_tracer()

    @pytest.fixture()
    def recorded_trace(self, tmp_path, capsys):
        path = tmp_path / "run.trace.jsonl"
        code = main([
            "run", "--scheduler", "ones", "--gpus", "8", "--jobs", "3",
            "--arrival-interval", "10", "--seed", "4",
            "--trace-out", str(path),
        ])
        assert code == 0
        assert "trace:" in capsys.readouterr().out
        return path

    def test_run_trace_out_writes_valid_jsonl(self, recorded_trace):
        from repro.obs.trace import load_jsonl, validate_trace_file

        assert validate_trace_file(str(recorded_trace)) == []
        meta, records = load_jsonl(str(recorded_trace))
        assert meta["schema"] == "repro.trace"
        assert records
        assert {r["cat"] for r in records} >= {"kernel", "ones"}

    def test_inspector_summary(self, recorded_trace, capsys):
        code = main(["trace", str(recorded_trace)])
        assert code == 0
        out = capsys.readouterr().out
        assert "records" in out
        assert "kernel" in out
        assert "reconfig_decision" in out

    def test_inspector_tree_and_filter(self, recorded_trace, capsys):
        code = main([
            "trace", str(recorded_trace), "--tree", "--filter-cat", "ones",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "ones/" in out
        assert "kernel/" not in out

    def test_inspector_chrome_export(self, recorded_trace, tmp_path, capsys):
        chrome = tmp_path / "chrome.json"
        code = main(["trace", str(recorded_trace), "--chrome", str(chrome)])
        assert code == 0
        assert "Perfetto" in capsys.readouterr().out
        payload = json.loads(chrome.read_text())
        assert payload["traceEvents"]

    def test_inspector_rejects_invalid_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "event"}\n')
        code = main(["trace", str(bad)])
        assert code == 1
        assert "SCHEMA ERRORS" in capsys.readouterr().out

    def test_generate_mode_still_requires_output(self):
        with pytest.raises(SystemExit, match="--output is required"):
            main(["trace", "--jobs", "4"])

    def test_compare_rejects_trace_out_with_parallel_backend(self, tmp_path):
        with pytest.raises(SystemExit, match="trace-out"):
            main([
                "compare", "--gpus", "8", "--jobs", "2",
                "--schedulers", "fifo", "--backend", "process",
                "--trace-out", str(tmp_path / "t.jsonl"),
            ])

    def test_queue_status_since_flag_parses(self):
        args = build_parser().parse_args(["queue-status", "q", "--since", "60"])
        assert args.since == 60.0
