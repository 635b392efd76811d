"""Tests for the command-line interface."""

import json
import os
import re
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent


def documented_commands() -> list[tuple[str, list[str]]]:
    """``(where, argv)`` of every ``python -m repro ...`` command that
    README.md or docs/ tell a reader to run."""
    found = []
    for doc in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        lines = doc.read_text().splitlines()
        for number, line in enumerate(lines, start=1):
            for match in re.finditer(r"python -m repro(?:\.cli)? ", line):
                start = match.end()
                inline = line[:match.start()].count("`") % 2 == 1
                text = line[start:line.index("`", start)] if inline else line[start:]
                follow = number
                while True:  # a trailing backslash or an open quote continues
                    try:
                        argv = shlex.split(text, comments=True)
                    except ValueError:
                        argv = None
                    if inline or (argv is not None and not text.endswith("\\")):
                        break
                    text = text.removesuffix("\\") + "\n" + lines[follow]
                    follow += 1
                found.append((f"{doc.name}:{number}", [a for a in argv if a != "&"]))
    return found


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "--figure", "3"])

    def test_every_documented_command_parses(self):
        commands = documented_commands()
        assert {"serve", "client", "shards", "calibrate"} <= {argv[0] for _, argv in commands}
        for where, argv in commands:
            try:
                build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"{where}: python -m repro {shlex.join(argv)} does not parse")


class TestCommands:
    def test_figures_all(self, capsys):
        assert main(["figures", "--points", "5"]) == 0
        out = capsys.readouterr().out
        for n in (8, 9, 10, 11, 12, 13):
            assert f"Figure {n}" in out
        assert "C_IIb" in out and "D_III" in out

    def test_single_figure(self, capsys):
        assert main(["figures", "--figure", "11", "--points", "5"]) == 0
        out = capsys.readouterr().out
        assert "Figure 11" in out
        assert "Figure 12" not in out

    def test_updates(self, capsys):
        assert main(["updates"]) == 0
        out = capsys.readouterr().out
        assert "U_III" in out and "U_IIb" in out

    def test_crossovers(self, capsys):
        assert main(["crossovers"]) == 0
        out = capsys.readouterr().out
        assert "uniform" in out and "p = " in out

    def test_demo(self, capsys):
        assert main(["demo", "--size", "60"]) == 0
        out = capsys.readouterr().out
        assert "strategy" in out and "join-index" in out
        assert "fault injection" not in out

    def test_demo_with_fault_injection(self, capsys):
        assert main([
            "demo", "--size", "60", "--fault-seed", "7", "--fault-rate", "0.05",
        ]) == 0
        out = capsys.readouterr().out
        assert "fault injection: seed=7 rate=0.05" in out
        assert "injected" in out and "consumed" in out
        assert "retries=" in out and "fallbacks=" in out

    def test_demo_fault_seed_alone_enables_injection(self, capsys):
        assert main(["demo", "--size", "40", "--fault-seed", "3"]) == 0
        out = capsys.readouterr().out
        # Rate 0: injection plumbing active, nothing actually injected.
        assert "0 injected" in out

    def test_demo_crash_recovery(self, capsys):
        assert main(["demo", "--size", "60", "--crash-at", "40"]) == 0
        out = capsys.readouterr().out
        assert "crash scheduled at physical write 40" in out
        assert "recovery report" in out
        assert "recovered state = committed prefix" in out
        # The recovery consumed the crash event.
        assert "1 consumed, 0 outstanding" in out
        assert "log writes" in out

    def test_demo_crash_with_torn_tail(self, capsys):
        assert main([
            "demo", "--size", "60", "--crash-at", "25", "--torn-tail",
        ]) == 0
        out = capsys.readouterr().out
        assert "with torn tail" in out
        assert "torn log tail detected: yes" in out
        assert "recovered state = committed prefix" in out

    def test_demo_crash_point_never_reached(self, capsys):
        assert main(["demo", "--size", "20", "--crash-at", "99999"]) == 0
        out = capsys.readouterr().out
        assert "no crash fired" in out
        assert "recovery report" not in out

    def test_updates_durable_column(self, capsys):
        assert main(["updates"]) == 0
        baseline = capsys.readouterr().out
        assert main(["updates", "--durable"]) == 0
        out = capsys.readouterr().out
        assert "durable = " in out and "WAL sync=always" in out
        # The non-durable column is byte-identical to the plain table.
        for line in baseline.splitlines()[1:]:
            assert line in out

    def test_updates_durable_group_policy(self, capsys):
        assert main([
            "updates", "--durable", "--policy", "group",
            "--checkpoint-every", "128",
        ]) == 0
        out = capsys.readouterr().out
        assert "WAL sync=group" in out and "checkpoint every 128 ops" in out


class TestTraceCommand:
    def test_default_run_verifies_conservation(self, capsys):
        assert main(["trace", "--size", "150"]) == 0
        out = capsys.readouterr().out
        assert "traced workload: 150 tuples/relation" in out
        assert "SELECT" in out and "matches" in out
        assert "JOIN" in out and "pairs" in out
        assert "trace accounts for all" in out
        assert "WARNING" not in out

    def test_explain_renders_span_tree(self, capsys):
        assert main(["trace", "--size", "150", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "executor.select" in out
        assert "executor.join" in out
        assert "cost=" in out and "wall=" in out

    def test_drift_renders_verdict(self, capsys):
        assert main([
            "trace", "--size", "150", "--strategy", "tree", "--drift",
        ]) == 0
        out = capsys.readouterr().out
        assert "drift report" in out
        assert "tree" in out and "D_II" in out

    def test_metrics_renders_registry(self, capsys):
        assert main(["trace", "--size", "150", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "cost.page_reads" in out
        assert "buffer." in out

    def test_trace_out_writes_valid_jsonl(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert main([
            "trace", "--size", "150", "--strategy", "tree",
            "--trace-out", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert f"spans to {path}" in out
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert records
        for record in records:
            assert set(record) == {
                "span_id", "parent_id", "uid", "parent_uid", "process",
                "depth", "name", "tags", "wall_seconds", "cost",
                "cost_self",
            }
        # Acceptance criterion: summed exclusive costs equal the sum of
        # the root spans' inclusive totals -- nothing leaks, nothing is
        # double-counted.
        total_self = sum(r["cost_self"].get("total", 0.0) for r in records)
        root_total = sum(
            r["cost"].get("total", 0.0)
            for r in records if r["parent_id"] is None
        )
        assert total_self == pytest.approx(root_total)

    def test_unknown_strategy_fails_cleanly(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--strategy", "bogus"])


class TestObsCommand:
    def test_dashboard_sections_render(self, capsys):
        assert main(["obs", "--size", "120", "--shards", "3"]) == 0
        out = capsys.readouterr().out
        assert "observability dashboard: 3 shards, 120 tuples/relation" in out
        assert "identical to unsharded oracle" in out
        assert "top spans by exclusive cost" in out
        assert "SLO: server.latency_seconds percentiles" in out
        assert "shard_join" in out and "shard_select" in out
        assert "flight recorder:" in out
        assert "drift report" in out
        assert "conservation:" in out
        assert "WARNING" not in out

    def test_kill_at_names_the_incident(self, capsys):
        # Loading 2 relations onto 3 shards consumes dispatch indices
        # 0..11 (create + load per shard per relation); 13 is the join's
        # second shard call, so the kill lands mid-query and the
        # dashboard must show the failover while keeping oracle parity.
        assert main([
            "obs", "--size", "120", "--shards", "3", "--kill-at", "13",
        ]) == 0
        out = capsys.readouterr().out
        assert "1 scheduled kill(s)" in out
        assert "identical to unsharded oracle" in out
        assert "shard_kill" in out
        assert "failover" in out
        assert "wal_recovery" in out
        assert "shard_restart" in out
        assert "WARNING" not in out

    def test_trace_out_writes_grafted_jsonl(self, capsys, tmp_path):
        path = tmp_path / "obs.jsonl"
        assert main([
            "obs", "--size", "120", "--shards", "3",
            "--trace-out", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert f"spans to {path}" in out
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert records
        # Remote spans made it into the export with their worker-side
        # process labels; uids are unique across the merged trees.
        processes = {r["process"] for r in records}
        assert any(p.startswith("shard") for p in processes)
        uids = [r["uid"] for r in records]
        assert len(uids) == len(set(uids))
        total_self = sum(r["cost_self"].get("total", 0.0) for r in records)
        root_total = sum(
            r["cost"].get("total", 0.0)
            for r in records if r["parent_id"] is None
        )
        assert total_self == pytest.approx(root_total)


class TestServiceCommands:
    def test_serve_answers_the_client_and_drains_on_interrupt(self, capsys):
        server = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0", "--size", "100"],
            stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        try:
            banner = server.stdout.readline()
            port = re.search(r"query service on 127\.0\.0\.1:(\d+) ", banner).group(1)
            assert main(["client", "--port", port]) == 0
            assert json.loads(capsys.readouterr().out)["pong"] is True
            assert main(["client", "--port", port, "--request", '{"op": "health"}']) == 0
            assert json.loads(capsys.readouterr().out)["sessions_active"] == 1
            server.send_signal(signal.SIGINT)
            out, _ = server.communicate(timeout=60)
        finally:
            server.kill()
            server.wait()
        assert server.returncode == 0
        assert re.search(r"draining \.\.\.\nserved \d+ queries; bye\n$", out)

    def test_shards_matches_the_oracle_through_a_kill(self, capsys):
        assert main(["shards", "--shards", "4", "--size", "200", "--kill-at", "5"]) == 0
        out = capsys.readouterr().out
        assert out.count("identical to unsharded oracle") == 2
        assert "fault audit: 1 injected, 1 consumed" in out
