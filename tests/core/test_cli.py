"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestCLI:
    def test_summary_command(self, capsys):
        assert main(["summary"]) == 0
        out = capsys.readouterr().out
        assert "201 microbenchmarks" in out
        assert "DRB-ML" in out

    def test_table2_command_prints_table(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "BP1" in out and "BP2" in out

    def test_table5_command_prints_all_models(self, capsys):
        assert main(["table5"]) == 0
        out = capsys.readouterr().out
        for model in ("gpt-4", "gpt-3.5-turbo", "starchat-beta", "llama2-7b"):
            assert model in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["not-a-table"])

    def test_engine_stats_line_printed(self, capsys):
        assert main(["table2", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "[engine]" in out
        assert "cache_hit_rate=" in out
        assert "wall=" in out

    def test_no_stats_flag_suppresses_line(self, capsys):
        assert main(["table2", "--no-stats"]) == 0
        assert "[engine]" not in capsys.readouterr().out

    def test_cache_file_written_and_reused(self, tmp_path, capsys):
        cache_dir = tmp_path / "responses"
        assert main(["table2", "--cache", str(cache_dir)]) == 0
        first = capsys.readouterr().out
        assert cache_dir.is_dir()
        assert list(cache_dir.glob("segment-*.jsonl"))
        assert main(["table2", "--cache", str(cache_dir)]) == 0
        second = capsys.readouterr().out
        assert "cache_hit_rate=100.0%" in second
        # Same table either way: caching never changes results.  Telemetry
        # ([engine] lines) legitimately differs between cold and warm runs.
        def table_rows(out):
            return [l for l in out.splitlines() if "gpt" in l and not l.startswith("[engine]")]

        assert table_rows(first) == table_rows(second)

    def test_executor_flag_selects_backend(self, capsys):
        assert main(["table2", "--executor", "async"]) == 0
        out = capsys.readouterr().out
        assert "executor=async" in out and "Table 2" in out

    def test_executor_process_same_table(self, capsys):
        assert main(["table2", "--no-stats"]) == 0
        serial = capsys.readouterr().out
        assert main(["table2", "--executor", "process", "--jobs", "2", "--no-stats"]) == 0
        process = capsys.readouterr().out
        assert [l for l in serial.splitlines() if "gpt" in l] == [
            l for l in process.splitlines() if "gpt" in l
        ]

    def test_unknown_executor_rejected(self):
        with pytest.raises(SystemExit):
            main(["table2", "--executor", "quantum"])

    def test_dispatch_modes_same_table(self, capsys):
        """--no-lpt/--no-adaptive-batching select the plan-order,
        static-chunk reference schedule; the table rows must not change."""
        assert main(["table2", "--no-stats"]) == 0
        dynamic = capsys.readouterr().out
        assert main(
            [
                "table2",
                "--no-lpt",
                "--no-adaptive-batching",
                "--jobs", "4",
                "--no-stats",
            ]
        ) == 0
        ordered = capsys.readouterr().out
        assert [l for l in dynamic.splitlines() if "gpt" in l] == [
            l for l in ordered.splitlines() if "gpt" in l
        ]

    def test_unknown_dispatch_rejected(self):
        """There is one dispatch loop: the old mode flag is an error."""
        with pytest.raises(SystemExit):
            main(["table2", "--dispatch", "ordered"])

    def test_unknown_snapshot_transport_rejected(self):
        with pytest.raises(SystemExit):
            main(["table2", "--snapshot-transport", "sideways"])

    def test_slowest_groups_printed_with_stats(self, capsys):
        assert main(["table2", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "slowest groups" in out
        assert "gpt-3.5-turbo/BP1" in out

    def test_cost_model_persisted_beside_cache(self, tmp_path, capsys):
        cache_dir = tmp_path / "responses"
        assert main(["table2", "--cache", str(cache_dir)]) == 0
        capsys.readouterr()
        costmodel = cache_dir / "costmodel.json"
        assert costmodel.is_file()
        import json

        payload = json.loads(costmodel.read_text(encoding="utf-8"))
        assert payload["format"] == "repro-cost-model"
        models = {g["model"] for g in payload["groups"]}
        assert "gpt-3.5-turbo" in models

    def test_sequential_requires_all(self):
        with pytest.raises(SystemExit):
            main(["table2", "--sequential"])
