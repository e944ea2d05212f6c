"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_all_experiments_are_subcommands(self):
        parser = build_parser()
        for name in EXPERIMENTS:
            args = parser.parse_args(["exp", name])
            assert args.experiment == name

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.mode == "sync"
        assert args.strategy == "isw"
        assert args.workload == "dqn"
        assert args.workers == 4
        assert not hasattr(args, "scheduler")  # one scheduler, no flag
        assert not hasattr(args, "transport")  # the cluster picks it

    def test_transport_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--transport", "train"])
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        help_text = capsys.readouterr().out
        assert "--loss-rate" in help_text and "--transport" not in help_text

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table4" in out and "train" in out

    def test_table1(self, capsys):
        assert main(["exp", "table1"]) == 0
        assert "6.41 MB" in capsys.readouterr().out

    def test_experiment_with_iterations(self, capsys):
        assert main(["exp", "fig12", "--iterations", "3"]) == 0
        assert "Figure 12" in capsys.readouterr().out

    def test_iterations_rejected_where_meaningless(self, capsys):
        assert main(["exp", "table1", "--iterations", "5"]) == 2
        assert "no --iterations" in capsys.readouterr().err

    def test_train_sync(self, capsys):
        code = main(
            [
                "train",
                "--strategy",
                "isw",
                "--workload",
                "ppo",
                "--iterations",
                "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sync-isw" in out
        assert "per-iteration time" in out
        # The result block says which transport produced it.
        assert "transport:          train\n" in out
        # ... and, beneath it, how the switch ingested the trains.
        assert "  train ingest:     view=20\n" in out

    def test_train_with_fault_plan_reports_per_packet_and_why(self, capsys):
        code = main(
            [
                "train", "--workload", "dqn", "--iterations", "8",
                "--fault-plan", "examples/chaos_demo.json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "transport:          packet (loss recovery armed)\n" in out

    def test_train_async(self, capsys):
        code = main(
            [
                "train",
                "--mode",
                "async",
                "--strategy",
                "ps",
                "--workload",
                "ppo",
                "--iterations",
                "10",
            ]
        )
        assert code == 0
        assert "mean staleness" in capsys.readouterr().out

    def test_shards_rejected_without_ps_shard(self, capsys):
        assert main(["train", "--strategy", "ps", "--shards", "2"]) == 2
        assert "ps-shard" in capsys.readouterr().err

    def test_train_bad_strategy(self, capsys):
        assert main(["train", "--strategy", "nccl"]) == 2
        assert "sync strategies" in capsys.readouterr().err

    def test_train_bad_async_strategy(self, capsys):
        assert main(["train", "--mode", "async", "--strategy", "ar"]) == 2
        assert "async strategies" in capsys.readouterr().err


class TestAllCommand:
    def test_all_runs_every_experiment(self, monkeypatch):
        import repro.cli as cli

        ran = []
        monkeypatch.setattr(
            cli, "_run_experiment", lambda name, it: (ran.append(name), 0)[1]
        )
        assert cli.main(["all"]) == 0
        assert ran == list(cli.EXPERIMENTS)

    def test_all_stops_on_failure(self, monkeypatch):
        import repro.cli as cli

        def fail_on_fig8(name, it):
            return 2 if name == "fig8" else 0

        monkeypatch.setattr(cli, "_run_experiment", fail_on_fig8)
        assert cli.main(["all"]) == 2

    def test_full_flag_uses_defaults(self, monkeypatch):
        import repro.cli as cli

        windows = []
        monkeypatch.setattr(
            cli, "_run_experiment", lambda name, it: (windows.append(it), 0)[1]
        )
        cli.main(["all", "--full"])
        assert all(w is None for w in windows)


class TestTelemetryFlags:
    def test_trace_out_writes_valid_chrome_trace(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.json"
        code = main(
            [
                "train",
                "--strategy",
                "isw",
                "--iterations",
                "3",
                "--trace-out",
                str(trace),
            ]
        )
        assert code == 0
        assert "trace written" in capsys.readouterr().out
        doc = json.loads(trace.read_text())
        events = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        assert events
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)
        assert any(e["name"] == "iteration" for e in events)

    def test_metrics_out_prometheus(self, tmp_path):
        metrics = tmp_path / "metrics.prom"
        code = main(
            [
                "train",
                "--strategy",
                "isw",
                "--iterations",
                "2",
                "--metrics-out",
                str(metrics),
            ]
        )
        assert code == 0
        text = metrics.read_text()
        assert "# TYPE repro_link_tx_packets counter" in text

    def test_metrics_out_json(self, tmp_path):
        import json

        metrics = tmp_path / "metrics.json"
        code = main(
            [
                "train",
                "--strategy",
                "isw",
                "--iterations",
                "2",
                "--metrics-out",
                str(metrics),
            ]
        )
        assert code == 0
        doc = json.loads(metrics.read_text())
        assert doc["metrics"]

    def test_live_trace_out_says_it_recorded_no_spans(
        self, tmp_path, capsys, monkeypatch
    ):
        """The live backend records counters only: the (empty) trace is
        still written, and the next line says it holds 0 spans."""
        import json

        import repro.cli as cli
        from repro.distributed.results import TrainingResult
        from repro.telemetry.hub import TelemetryHub

        hub = TelemetryHub()
        hub.inc("live.frames_tx", 260, node="worker0")  # as run_live fills it
        result = TrainingResult(
            "sync-isw", "synth", 2, 2, 0.04, backend="live", telemetry=hub.snapshot()
        )
        monkeypatch.setattr(cli, "run", lambda config: result)
        trace, metrics = tmp_path / "t.json", tmp_path / "m.json"
        out_flags = ["--trace-out", str(trace), "--metrics-out", str(metrics)]
        assert main(["train", "--backend", "live", *out_flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"trace written:      {trace}"
        assert lines[1].startswith("  spans recorded:   0 (the live backend")
        assert lines[2] == f"metrics written:    {metrics}"
        assert json.loads(trace.read_text())["traceEvents"] == []
        assert json.loads(metrics.read_text())["metrics"]

    def test_sim_trace_out_has_spans_and_no_caveat(self, tmp_path, capsys):
        flags = ["--workload", "synth", "--iterations", "2"]
        assert main(["train", *flags, "--trace-out", str(tmp_path / "t.json")]) == 0
        assert "spans recorded" not in capsys.readouterr().out

    def test_loss_rate_flows_through(self, capsys):
        code = main(
            [
                "train",
                "--strategy",
                "isw",
                "--iterations",
                "2",
                "--loss-rate",
                "0.002",
                "--seed",
                "2",
                "--workers",
                "3",
            ]
        )
        assert code == 0
        assert "per-iteration time" in capsys.readouterr().out

    def test_loss_rate_rejected_for_ps(self, capsys):
        code = main(
            [
                "train",
                "--strategy",
                "ps",
                "--iterations",
                "2",
                "--loss-rate",
                "0.01",
            ]
        )
        assert code == 2
        assert "loss recovery" in capsys.readouterr().err


class TestSubcommandGroups:
    """The exp/train/jobs command groups."""

    def test_exp_group_parses(self):
        args = build_parser().parse_args(["exp", "table1"])
        assert args.command == "exp"
        assert args.experiment == "table1"

    def test_exp_group_runs(self, capsys):
        assert main(["exp", "table1"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_bare_experiment_name_rejected(self):
        # The pre-group spelling (`repro table1`) is gone; `exp` is the way.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1"])

    def test_bench_subcommand_is_gone(self, capsys):
        # One way to time the code: benchmarks/perf/run.py, not the CLI.
        with pytest.raises(SystemExit) as excinfo:
            main(["bench"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err
        assert main(["list"]) == 0
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "bench" not in capsys.readouterr().out

    def test_exp_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["exp", "not-a-figure"])

    def test_list_strategies_has_multijob_column(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--list-strategies"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0]
        assert "live" in header
        assert "multi-job" in header
        assert "codecs" in header
        isw_rows = [l for l in out.splitlines() if " isw " in f" {l} "]
        assert isw_rows and all(
            row.rstrip().endswith("all") and " yes " in row for row in isw_rows
        )
        ps_rows = [l for l in out.splitlines() if " ps " in f" {l} "]
        assert ps_rows and all(
            row.rstrip().endswith("fp32") for row in ps_rows
        )

    def test_list_strategies_live_column_matches_registry(self, capsys):
        """The printed live column and the registry flags (the one place
        live support is recorded) must agree — per (mode, strategy) pair."""
        from repro.distributed.registry import strategy_specs

        with pytest.raises(SystemExit) as excinfo:
            main(["--list-strategies"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out

        header, _, *rows = out.splitlines()
        assert header.split()[-3:] == ["live", "multi-job", "codecs"]
        printed = {}
        for row in rows:
            cells = row.split()
            if len(cells) < 8 or cells[0] not in ("sync", "async"):
                break  # past the table body
            printed[(cells[0], cells[1])] = cells[-3]

        registry = {
            (spec.mode, spec.name): spec.supports_live
            for spec in strategy_specs()
        }
        assert set(printed) == set(registry)
        for pair, flag in registry.items():
            assert printed[pair] == ("yes" if flag else "no"), pair

    def test_readme_strategy_table_live_column_matches_registry(self):
        """Doc drift guard: every registry strategy appears in the README
        table with a live checkmark iff some registered mode of it
        supports the live backend (currently: all of them)."""
        from pathlib import Path

        from repro.distributed.registry import strategy_specs

        readme = Path(__file__).resolve().parents[1] / "README.md"
        lines = readme.read_text().splitlines()
        table = {}
        for line in lines:
            if line.startswith("| `") and line.count("|") >= 6:
                cells = [c.strip() for c in line.strip("|").split("|")]
                table[cells[0].strip("`")] = cells[3]
        by_name = {}
        for spec in strategy_specs():
            by_name[spec.name] = by_name.get(spec.name, False) or spec.supports_live
        assert set(table) == set(by_name)
        for name, live in by_name.items():
            assert (table[name] == "✓") == live, name


class TestJobsCommands:
    def test_soak_smoke(self, capsys):
        assert main(["jobs", "soak", "--jobs", "4", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "completed:       4" in out
        assert "result:          OK" in out

    def test_soak_writes_state(self, tmp_path, capsys):
        state = tmp_path / "soak.json"
        assert main(
            ["jobs", "soak", "--jobs", "3", "--state", str(state)]
        ) == 0
        import json

        payload = json.loads(state.read_text())
        assert len(payload["last_run"]) == 3
        assert all(r["status"] == "completed" for r in payload["last_run"])

    def test_submit_and_status_round_trip(self, tmp_path, capsys):
        state = tmp_path / "jobs.json"
        assert main(
            ["jobs", "submit", "--name", "alpha", "--workers", "3",
             "--n-params", "366", "--state", str(state)]
        ) == 0
        assert main(
            ["jobs", "submit", "--name", "beta", "--tenant", "other",
             "--n-params", "732", "--state", str(state)]
        ) == 0
        capsys.readouterr()
        assert main(["jobs", "status", "--state", str(state)]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "beta" in out
        assert out.count("completed") == 2

    def test_submit_no_run_records_only(self, tmp_path, capsys):
        state = tmp_path / "jobs.json"
        assert main(
            ["jobs", "submit", "--name", "later", "--no-run",
             "--state", str(state)]
        ) == 0
        capsys.readouterr()
        assert main(["jobs", "status", "--state", str(state)]) == 0
        assert "recorded" in capsys.readouterr().out

    def test_status_with_no_state_file(self, tmp_path, capsys):
        assert main(
            ["jobs", "status", "--state", str(tmp_path / "missing.json")]
        ) == 0
        assert "no jobs recorded" in capsys.readouterr().out

    def test_jobs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["jobs"])
