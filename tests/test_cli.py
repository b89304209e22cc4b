"""Smoke and error-path tests for the ``python -m repro`` command line."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.cli.main import BENCH_ALIASES

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_module(*argv: str) -> subprocess.CompletedProcess:
    """Run ``python -m repro ...`` as a real subprocess."""
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": REPO_SRC, "PATH": "/usr/bin:/bin"},
        timeout=300,
    )


@pytest.fixture
def storm_trace(tmp_path) -> Path:
    path = tmp_path / "storm.jsonl"
    code = main(
        ["trace", "gen", "--kind", "storm", "--nodes", "60", "--seed", "7", "--out", str(path)]
    )
    assert code == 0
    return path


class TestTraceCommands:
    def test_gen_writes_valid_trace(self, storm_trace, capsys):
        assert main(["trace", "validate", str(storm_trace)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ok:")
        assert "failure_storm" in out

    def test_gen_same_seed_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            assert (
                main(["trace", "gen", "--kind", "poisson", "--nodes", "40", "--seed", "3", "--out", str(path)])
                == 0
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("kind", ["poisson", "rack", "diurnal", "storm", "alibaba"])
    def test_gen_every_kind_validates(self, tmp_path, kind, capsys):
        path = tmp_path / f"{kind}.jsonl"
        assert main(["trace", "gen", "--kind", kind, "--nodes", "32", "--out", str(path)]) == 0
        assert main(["trace", "validate", str(path)]) == 0

    def test_gen_to_stdout(self, capsys):
        assert main(["trace", "gen", "--kind", "alibaba", "--steps", "4"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith('{"metadata"')

    def test_validate_missing_file_is_one_line_error(self, capsys):
        assert main(["trace", "validate", "/no/such/trace.jsonl"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_validate_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json at all\n")
        assert main(["trace", "validate", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestReplayCommand:
    def test_replay_is_byte_identical_across_runs(self, storm_trace, tmp_path):
        outputs = []
        for name in ("one.jsonl", "two.jsonl"):
            out = tmp_path / name
            code = main(
                [
                    "replay", "--trace", str(storm_trace),
                    "--nodes", "60", "--apps", "4", "--seed", "42", "--out", str(out),
                ]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert b'"record":"replay"' in outputs[0]
        assert b'"record":"step"' in outputs[0]

    def test_replay_missing_trace_errors(self, capsys):
        assert main(["replay", "--trace", "/no/such.jsonl"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_replay_node_mismatch_errors(self, storm_trace, capsys):
        # The storm was generated for 60 nodes; a 10-node cluster cannot host it.
        assert main(["replay", "--trace", str(storm_trace), "--nodes", "10", "--apps", "4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--nodes" in err

    def test_replay_full_recompute_matches_incremental(self, storm_trace, tmp_path):
        outputs = []
        for flag in ([], ["--full-recompute"]):
            out = tmp_path / f"m{len(flag)}.jsonl"
            code = main(
                ["replay", "--trace", str(storm_trace), "--nodes", "60", "--apps", "4",
                 "--seed", "42", "--out", str(out), *flag]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_replay_workers_output_identical_to_serial(self, storm_trace, tmp_path):
        outputs = []
        for workers in ("1", "3"):
            out = tmp_path / f"w{workers}.jsonl"
            code = main(
                ["replay", "--trace", str(storm_trace), "--trace", str(storm_trace),
                 "--seeds", "0,5", "--nodes", "60", "--apps", "4",
                 "--workers", workers, "--out", str(out)]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        # two traces x two seeds = four replay headers in input order
        assert outputs[0].count(b'"record":"replay"') == 4

    def test_replay_bad_seeds_errors(self, storm_trace, capsys):
        code = main(["replay", "--trace", str(storm_trace), "--seeds", "1,x"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_replay_bad_workers_errors(self, storm_trace, capsys):
        code = main(["replay", "--trace", str(storm_trace), "--workers", "0",
                     "--nodes", "60", "--apps", "4"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


class TestSweepCommand:
    def test_sweep_prints_scheme_rows(self, capsys):
        code = main(
            ["sweep", "--nodes", "60", "--apps", "4", "--levels", "0.5", "--trials", "1",
             "--schemes", "phoenix-cost,default"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "phoenix-cost" in out and "default" in out
        assert "availability" in out

    def test_sweep_unknown_scheme_errors(self, capsys):
        assert main(["sweep", "--schemes", "nope"]) == 2
        assert "unknown scheme" in capsys.readouterr().err

    def test_sweep_bad_levels_errors(self, capsys):
        assert main(["sweep", "--levels", "abc"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_sweep_workers_output_identical_to_serial(self, capsys):
        outputs = []
        for workers in ("1", "2"):
            code = main(
                ["sweep", "--nodes", "60", "--apps", "4", "--levels", "0.3,0.5",
                 "--schemes", "phoenix-cost,default", "--workers", workers]
            )
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_sweep_bad_workers_errors(self, capsys):
        code = main(["sweep", "--nodes", "60", "--apps", "4", "--levels", "0.5",
                     "--workers", "-1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


class TestChaosCommand:
    def test_chaos_overleaf_passes(self, capsys):
        assert main(["chaos", "--template", "overleaf"]) == 0
        out = capsys.readouterr().out
        assert "Verdict: PASS" in out
        assert "Engine-driven chaos" in out

    def test_chaos_unknown_template_errors(self, capsys):
        assert main(["chaos", "--template", "nope"]) == 2
        assert "unknown template" in capsys.readouterr().err

    def test_chaos_custom_trace_runs_storm_check(self, tmp_path, capsys):
        trace = tmp_path / "storm.jsonl"
        assert main(
            ["trace", "gen", "--kind", "storm", "--nodes", "12", "--out", str(trace)]
        ) == 0
        capsys.readouterr()
        assert main(["chaos", "--template", "overleaf", "--trace", str(trace)]) == 0
        assert "Storm chaos" in capsys.readouterr().out

    def test_chaos_malformed_trace_is_one_line_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"record":"trace","version":1,"metadata":{}}\n{"record":"event","ki',
            encoding="utf-8",
        )
        proc = run_module("chaos", "--template", "overleaf", "--trace", str(bad))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    def test_chaos_missing_trace_file_errors(self, capsys):
        assert main(["chaos", "--trace", "/no/such/trace.jsonl"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_chaos_unknown_event_version_errors(self, tmp_path, capsys):
        bad = tmp_path / "future.jsonl"
        bad.write_text(
            '{"record":"trace","version":1,"metadata":{}}\n'
            '{"record":"event","kind":"node_failure","time":1.0,'
            '"nodes":["node-0"],"version":2}\n',
            encoding="utf-8",
        )
        assert main(["chaos", "--template", "overleaf", "--trace", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "event version" in err


class TestTraceValidateErrorPaths:
    def test_unknown_event_version_is_one_line_error(self, tmp_path):
        bad = tmp_path / "future.jsonl"
        bad.write_text(
            '{"record":"trace","version":1,"metadata":{}}\n'
            '{"record":"event","kind":"node_failure","time":1.0,'
            '"nodes":["node-0"],"version":7}\n',
            encoding="utf-8",
        )
        proc = run_module("trace", "validate", str(bad))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "event version" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_truncated_trailing_line_is_one_line_error(self, tmp_path, capsys):
        bad = tmp_path / "cut.jsonl"
        bad.write_text(
            '{"record":"trace","version":1,"metadata":{}}\n'
            '{"record":"event","kind":"node_fail',
            encoding="utf-8",
        )
        assert main(["trace", "validate", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestCorpusCommand:
    def test_corpus_list(self, capsys):
        assert main(["corpus", "--list"]) == 0
        out = capsys.readouterr().out
        assert "poisson-day" in out and "rack-storms" in out

    def test_corpus_unknown_scenario_errors(self, capsys):
        assert main(["corpus", "--only", "meteor-strike"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "available" in err

    def test_corpus_bad_workers_errors(self, capsys):
        assert main(["corpus", "--workers", "0"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_corpus_workers_output_identical_to_serial(self, tmp_path, capsys):
        reports = []
        for workers in ("1", "2"):
            out = tmp_path / f"corpus-{workers}.jsonl"
            code = main(
                ["corpus", "--only", "capacity-dips", "--workers", workers,
                 "--out", str(out)]
            )
            assert code == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert "corpus: OK" in capsys.readouterr().err


class TestFuzzCommand:
    def test_fuzz_bad_cases_errors(self, capsys):
        assert main(["fuzz", "--cases", "0"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_fuzz_clean_budget_passes(self, capsys, tmp_path):
        code = main(
            ["fuzz", "--cases", "1", "--nodes", "12", "--apps", "2",
             "--horizon", "300", "--no-lockstep",
             "--reproducer", str(tmp_path / "repro.jsonl")]
        )
        assert code == 0
        assert "fuzz: OK" in capsys.readouterr().out
        assert not (tmp_path / "repro.jsonl").exists()  # only written on FAIL


class TestBenchCommand:
    def test_bench_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig8a" in out and "engine" in out

    def test_bench_without_name_errors(self, capsys):
        assert main(["bench"]) == 2
        assert "repro bench --list" in capsys.readouterr().err

    def test_bench_missing_dir_errors(self, tmp_path, capsys):
        assert main(["bench", "fig8a", "--dir", str(tmp_path / "nope")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_bench_aliases_name_existing_files(self):
        bench_dir = Path(__file__).resolve().parent.parent / "benchmarks"
        missing = {
            name: filename
            for name, filename in BENCH_ALIASES.items()
            if not (bench_dir / filename).is_file()
        }
        assert not missing

    @pytest.fixture
    def tiny_bench_dir(self, tmp_path) -> Path:
        """A benchmarks directory with one instant pytest benchmark."""
        bench_dir = tmp_path / "benchmarks"
        bench_dir.mkdir()
        (bench_dir / "bench_tiny.py").write_text(
            "def test_tiny_gate():\n"
            "    print('tiny-bench-ran')\n"
            "    assert 1 + 1 == 2\n",
            encoding="utf-8",
        )
        return bench_dir

    def test_bench_json_record(self, tiny_bench_dir, tmp_path):
        import json

        out = tmp_path / "bench.json"
        code = main(
            ["bench", "bench_tiny.py", "--dir", str(tiny_bench_dir), "--json", str(out)]
        )
        assert code == 0
        record = json.loads(out.read_text(encoding="utf-8"))
        assert record["record"] == "bench"
        assert record["returncode"] == 0
        assert record["duration_seconds"] > 0
        assert "tiny-bench-ran" in record["stdout"]

    def test_bench_json_to_stdout(self, tiny_bench_dir, capsys):
        import json

        code = main(["bench", "bench_tiny.py", "--dir", str(tiny_bench_dir), "--json"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["record"] == "bench" and record["returncode"] == 0

    def test_bench_profile_reports_top_functions(self, tiny_bench_dir, tmp_path):
        import json

        out = tmp_path / "bench.json"
        code = main(
            ["bench", "bench_tiny.py", "--dir", str(tiny_bench_dir),
             "--json", str(out), "--profile"]
        )
        assert code == 0
        record = json.loads(out.read_text(encoding="utf-8"))
        assert "cumulative" in record.get("profile_top", "")

    def test_bench_failure_forwards_exit_code(self, tmp_path):
        bench_dir = tmp_path / "benchmarks"
        bench_dir.mkdir()
        (bench_dir / "bench_fail.py").write_text(
            "def test_gate():\n    assert False, 'gate tripped'\n", encoding="utf-8"
        )
        assert main(["bench", "bench_fail.py", "--dir", str(bench_dir), "--json"]) == 1
        # --profile must forward the failure code too (the cProfile CLI
        # would swallow pytest's SystemExit; the driver avoids that).
        assert (
            main(["bench", "bench_fail.py", "--dir", str(bench_dir), "--profile"]) == 1
        )


class TestEntrypoint:
    def test_module_help(self):
        result = run_module("--help")
        assert result.returncode == 0
        assert "sweep" in result.stdout and "replay" in result.stdout

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--help"),
            ("replay", "--help"),
            ("chaos", "--help"),
            ("bench", "--help"),
            ("trace", "--help"),
            ("trace", "gen", "--help"),
            ("trace", "validate", "--help"),
        ],
    )
    def test_every_subcommand_help(self, argv):
        result = run_module(*argv)
        assert result.returncode == 0
        assert "usage:" in result.stdout

    def test_no_arguments_prints_help(self, capsys):
        assert main([]) == 0
        assert "usage:" in capsys.readouterr().out

    def test_trace_without_subcommand_prints_help(self, capsys):
        assert main(["trace"]) == 0
        assert "usage:" in capsys.readouterr().out

    def test_missing_trace_file_has_no_traceback(self):
        result = run_module("replay", "--trace", "/no/such.jsonl")
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error:")
        assert len(result.stderr.strip().splitlines()) == 1

    def test_unknown_subcommand_exits_nonzero(self):
        result = run_module("frobnicate")
        assert result.returncode == 2
        assert "Traceback" not in result.stderr

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
