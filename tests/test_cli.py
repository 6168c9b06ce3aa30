"""The command-line interface."""

import json

import pytest

from repro.cli import main


class TestCaseStudyCommand:
    def test_prints_all_tables(self, capsys):
        assert main(["case-study"]) == 0
        out = capsys.readouterr().out
        assert "Table 5" in out
        assert "Table 6" in out
        assert "Figure 5" in out
        assert "Table 7" in out
        assert "87.3%" in out
        assert "asyncB mirror, 1 link" in out


class TestListDesigns:
    def test_lists_seven(self, capsys):
        assert main(["list-designs"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 7


class TestOptimizeCommand:
    def test_unconstrained_picks_single_link(self, capsys):
        assert main(["optimize"]) == 0
        out = capsys.readouterr().out
        assert "best: asyncB-1link" in out
        assert "Ranking" in out

    def test_objectives_change_the_winner(self, capsys):
        assert main(["optimize", "--rto", "12 hr", "--rpo", "10 hr"]) == 0
        out = capsys.readouterr().out
        assert "best: asyncB-10link" in out

    def test_impossible_objectives_exit_one(self, capsys):
        assert main(["optimize", "--rto", "1 s", "--rpo", "1 s"]) == 1
        assert "no feasible" in capsys.readouterr().out

    def test_spec_file_inputs(self, tmp_path, capsys):
        import json as json_module

        path = tmp_path / "opt.json"
        path.write_text(
            json_module.dumps(
                {
                    "workload": "cello",
                    "scenarios": ["array"],
                    "requirements": {
                        "unavailability_per_hour": 50000,
                        "loss_per_hour": 50000,
                    },
                }
            )
        )
        assert main(["optimize", str(path)]) == 0


class TestEvaluateCommand:
    def write_spec(self, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_named_design_spec(self, tmp_path, capsys):
        path = self.write_spec(
            tmp_path,
            {
                "workload": "cello",
                "design": "baseline",
                "scenarios": ["object", "array", "site"],
                "requirements": {
                    "unavailability_per_hour": 50000,
                    "loss_per_hour": 50000,
                },
            },
        )
        assert main(["evaluate", path]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out
        assert "recovery time" in out

    def test_objective_violation_exit_code(self, tmp_path, capsys):
        path = self.write_spec(
            tmp_path,
            {
                "design": "baseline",
                "scenarios": ["array"],
                "requirements": {
                    "unavailability_per_hour": 50000,
                    "loss_per_hour": 50000,
                    "rpo": "1 hr",
                },
            },
        )
        assert main(["evaluate", path]) == 1
        assert "WARNING" in capsys.readouterr().out

    def test_custom_design_spec(self, tmp_path, capsys):
        path = self.write_spec(
            tmp_path,
            {
                "workload": "oltp",
                "design": {
                    "name": "mirror-only",
                    "recovery_facility": {
                        "type": "shared",
                        "provisioning_time": "9 hr",
                        "discount": 0.2,
                    },
                    "levels": [
                        {
                            "technique": {"kind": "primary"},
                            "store": {"catalog": "midrange_disk_array"},
                        },
                        {
                            "technique": {"kind": "batched_async_mirror"},
                            "store": {
                                "catalog": "midrange_disk_array",
                                "name": "mirror-array",
                                "location": {"region": "r2", "site": "dr"},
                            },
                            "transport": {"catalog": "oc3_links",
                                          "link_count": 4},
                        },
                    ],
                },
                "scenarios": ["array"],
            },
        )
        assert main(["evaluate", path]) == 0
        assert "mirror-only" in capsys.readouterr().out

    def test_bad_spec_reports_error(self, tmp_path, capsys):
        path = self.write_spec(tmp_path, {"design": "no-such-design"})
        assert main(["evaluate", path]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["evaluate", "/nonexistent/spec.json"]) == 2
        assert "error" in capsys.readouterr().err


class TestObservabilityFlags:
    def test_case_study_trace_and_metrics(self, capsys):
        assert main(["case-study", "--trace", "--metrics"]) == 0
        out = capsys.readouterr().out
        # The per-phase span tree ...
        assert "Trace (per-phase timings)" in out
        assert "evaluate_scenarios" in out
        assert "recovery.plan" in out
        # ... the metrics table ...
        assert "Metrics" in out
        assert "evaluate.calls" in out
        assert "recovery.plan_ms" in out
        # ... and a provenance explanation of all four output metrics.
        assert "Provenance" in out
        for fragment in ("utilization =", "recovery time =", "data loss =", "cost ="):
            assert fragment in out

    def test_evaluate_trace_out_writes_jsonl(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"design": "baseline", "scenarios": ["array"]}))
        trace_path = tmp_path / "trace.jsonl"
        assert main(["evaluate", str(spec), "--trace-out", str(trace_path)]) == 0
        records = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
            if line
        ]
        kinds = {record["kind"] for record in records}
        assert "span" in kinds and "counter" in kinds
        assert any(
            r["kind"] == "span" and r["name"] == "evaluate_scenarios"
            for r in records
        )

    def test_optimize_metrics(self, capsys):
        assert main(["optimize", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "optimizer.candidates" in out

    def test_flags_leave_the_global_obs_state_clean(self, capsys):
        from repro import obs

        assert main(["case-study", "--trace"]) == 0
        assert obs.get_tracer().enabled is False
        assert obs.get_metrics().enabled is False

    def test_without_flags_no_obs_output(self, capsys):
        assert main(["case-study"]) == 0
        out = capsys.readouterr().out
        assert "Trace (per-phase timings)" not in out
        assert "Provenance" not in out

    def test_evaluate_profile_prints_span_profile(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"design": "baseline", "scenarios": ["array"]}))
        assert main(["evaluate", str(spec), "--profile"]) == 0
        out = capsys.readouterr().out
        assert "Span profile" in out
        # Call counts, cumulative and self time per span name ...
        assert "calls" in out and "cum ms" in out and "self ms" in out
        assert "evaluate" in out and "recovery.plan" in out
        # ... and the flamegraph-style merged call-path section.
        assert "Hot call paths" in out

    def test_case_study_profile(self, capsys):
        assert main(["case-study", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "Span profile" in out
        assert "evaluate_scenarios" in out

    def test_optimize_profile(self, capsys):
        assert main(["optimize", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "Span profile" in out
        assert "optimize" in out

    def test_profile_without_trace_skips_span_tree(self, capsys):
        assert main(["case-study", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "Span profile" in out
        assert "Trace (per-phase timings)" not in out


class TestEngineFlags:
    def test_optimize_parallel_output_matches_serial(self, capsys):
        code = main(["optimize"])
        serial = capsys.readouterr().out
        assert main(["optimize", "--workers", "2"]) == code
        assert capsys.readouterr().out == serial

    def test_optimize_cache_dir_second_run_identical(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        main(["optimize", "--cache-dir", cache_dir])
        first = capsys.readouterr().out
        main(["optimize", "--cache-dir", cache_dir])
        second = capsys.readouterr().out
        assert first == second
        assert (tmp_path / "cache" / "results.jsonl").exists()

    def test_optimize_cache_hits_reported_in_metrics(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        main(["optimize", "--cache-dir", cache_dir])
        capsys.readouterr()
        main(["optimize", "--cache-dir", cache_dir, "--metrics"])
        out = capsys.readouterr().out
        assert "engine.cache.hits" in out

    def test_evaluate_with_cache_dir(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "workload": "cello",
            "design": "baseline",
            "scenarios": ["object", "array", "site"],
        }))
        cache_dir = str(tmp_path / "cache")
        main(["evaluate", str(spec), "--cache-dir", cache_dir])
        first = capsys.readouterr().out
        main(["evaluate", str(spec), "--cache-dir", cache_dir])
        assert capsys.readouterr().out == first

    def test_case_study_workers_output_identical(self, capsys):
        assert main(["case-study", "--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert main(["case-study"]) == 0
        assert capsys.readouterr().out == parallel


class TestTelemetryFlags:
    def test_run_dir_writes_complete_ledger(self, tmp_path, capsys):
        run_dir = tmp_path / "out"
        assert main(["optimize", "--run-dir", str(run_dir)]) == 0
        err = capsys.readouterr().err
        assert f"run ledger written to {run_dir}" in err

        from repro.obs import RunLedger, read_manifest

        manifest = read_manifest(run_dir)
        assert manifest["status"] == "ok"
        assert manifest["command"] == "optimize"
        assert manifest["argv"] == ["optimize", "--run-dir", str(run_dir)]
        assert manifest["model_schema_version"].startswith("engine-v")
        assert manifest["spans"] > 0
        assert manifest["heartbeats"] > 0
        assert (run_dir / RunLedger.SPANS).exists()
        prom = (run_dir / RunLedger.METRICS).read_text()
        assert prom.endswith("# EOF\n")
        assert (run_dir / RunLedger.PROGRESS).read_text().strip()

    def test_parallel_run_dir_records_worker_spans(self, tmp_path):
        import os

        run_dir = tmp_path / "out"
        assert main(["optimize", "--workers", "2", "--run-dir", str(run_dir)]) == 0
        records = [
            json.loads(line)
            for line in (run_dir / "spans.jsonl").read_text().splitlines()
            if line
        ]
        pids = {
            r["attributes"]["pid"]
            for r in records
            if r["kind"] == "span" and "pid" in r.get("attributes", {})
        }
        assert pids and os.getpid() not in pids

    def test_progress_goes_to_stderr(self, capsys):
        assert main(["optimize", "--progress"]) == 0
        captured = capsys.readouterr()
        assert "[optimize]" in captured.err
        assert "[optimize]" not in captured.out

    def test_stdout_pure_under_full_telemetry(self, tmp_path, capsys):
        """A parallel run with every telemetry feature on emits exactly
        the stdout of a plain run — the satellite stdout-purity gate."""
        assert main(["optimize"]) == 0
        plain = capsys.readouterr().out
        run_dir = tmp_path / "out"
        assert (
            main(
                [
                    "optimize",
                    "--workers",
                    "2",
                    "--progress",
                    "--run-dir",
                    str(run_dir),
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert captured.out == plain
        assert "[optimize]" in captured.err

    def test_telemetry_flags_leave_globals_clean(self, tmp_path, capsys):
        from repro import obs

        run_dir = tmp_path / "out"
        assert main(["optimize", "--run-dir", str(run_dir), "--progress"]) == 0
        assert obs.current() == obs.Telemetry()

    # The two early exits below are asserted inside the test: the
    # conftest's autouse obs.reset() would hide a leak between tests.

    def test_baseline_without_run_dir_installs_nothing(self, capsys):
        from repro import obs

        assert main(["case-study", "--trace", "--baseline", "x"]) == 2
        assert "error: --baseline requires --run-dir" in capsys.readouterr().err
        assert obs.current() == obs.Telemetry()

    def test_unwritable_run_dir_is_a_clean_error(self, tmp_path, capsys):
        from repro import obs

        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["optimize", "--run-dir", str(blocker / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write run ledger: ")
        assert "Traceback" not in err
        assert obs.current() == obs.Telemetry()


class TestRiskCommand:
    @staticmethod
    def write_spec(tmp_path, ensemble=None, **extra):
        if ensemble is None:
            ensemble = {
                "name": "cli-risk",
                "members": [
                    {"id": "arr", "scenario": "array", "rate": "0.5/yr"}
                ],
            }
        spec = {"workload": "cello", "design": "baseline", **extra}
        if ensemble:
            spec["ensemble"] = ensemble
        path = tmp_path / "risk.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_human_report(self, tmp_path, capsys):
        assert main(["risk", self.write_spec(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "ensemble 'cli-risk' on design 'baseline'" in out
        assert "Annualized risk" in out
        assert "p99" in out

    def test_json_format_is_canonical_and_deterministic(
        self, tmp_path, capsys
    ):
        spec = self.write_spec(tmp_path)
        args = ["risk", spec, "--samples", "50", "--seed", "7",
                "--format", "json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        data = json.loads(first)
        assert data["kind"] == "risk_assessment"
        assert data["monte_carlo"]["samples"] == 50
        assert data["per_member"][0]["member_id"] == "arr"

    def test_workers_flag_never_changes_the_json(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        assert main(["risk", spec, "--format", "json"]) == 0
        serial = capsys.readouterr().out
        assert main(
            ["risk", spec, "--format", "json", "--workers", "2"]
        ) == 0
        assert capsys.readouterr().out == serial

    def test_years_flag_scales_the_horizon(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        assert main(["risk", spec, "--years", "3"]) == 0
        assert "over 3 yr" in capsys.readouterr().out

    def test_monte_carlo_section_appears_with_samples(
        self, tmp_path, capsys
    ):
        assert main(
            ["risk", self.write_spec(tmp_path), "--samples", "50"]
        ) == 0
        assert "Monte Carlo cross-check" in capsys.readouterr().out

    def test_spec_without_ensemble_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "plain.json"
        path.write_text(json.dumps({"design": "baseline"}))
        assert main(["risk", str(path)]) == 2
        assert "no 'ensemble' section" in capsys.readouterr().err

    def test_example_spec_runs(self, capsys):
        assert main(["risk", "examples/specs/risk_ensemble.json"]) == 0
        out = capsys.readouterr().out
        assert "1005 members, 67 distinct scenarios" in out
