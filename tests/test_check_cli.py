"""The ``repro-check`` command-line contract: exit codes, flag placement,
the command list, bad-input handling, and the self-test ladder runner."""

import json

import pytest

from repro.analysis.cli import SUBCOMMANDS, main
from repro.analysis.findings import Report
from repro.analysis.lockdep import LockOrderRecorder
from repro.storage.durable import DurableDatabase
from repro.workloads.parts import build_assembly


@pytest.fixture
def store(tmp_path):
    directory = tmp_path / "store"
    db = DurableDatabase(str(directory))
    build_assembly(db, depth=1, fanout=2)
    db.close()
    return str(directory)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _unresolved_trace(tmp_path):
    """A replayed trace whose only finding is a PROTO-REFINE warning."""
    return _write(tmp_path, "trace.json", json.dumps({
        "decisions": {}, "shards": {"0": [{"kind": "P", "gtid": "g1"}]},
    }))


class TestExitCodes:
    def test_missing_query_file(self, store, tmp_path, capsys):
        missing = str(tmp_path / "nope.sx")
        assert main(["query", store, missing]) == 2
        assert missing in capsys.readouterr().err

    def test_unreadable_template_file(self, store, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["locklint", store, missing]) == 2
        assert missing in capsys.readouterr().err

    def test_non_json_template_file(self, store, tmp_path, capsys):
        path = _write(tmp_path, "bad.json", "{not json")
        assert main(["locklint", store, path]) == 2
        assert f"repro-check: {path}: " in capsys.readouterr().err
        assert main(["iso", "--templates", path, "--store", store]) == 2
        assert f"repro-check: {path}: " in capsys.readouterr().err

    def test_malformed_history_file(self, tmp_path, capsys):
        path = _write(tmp_path, "h.jsonl", 'garbage\n{"k": "boot"}\n')
        assert main(["iso", path]) == 2
        assert f"repro-check: {path}: " in capsys.readouterr().err

    def test_iso_needs_an_input(self, capsys):
        assert main(["iso"]) == 2
        assert "nothing to check" in capsys.readouterr().err

    def test_iso_templates_need_a_store(self, tmp_path, capsys):
        path = _write(tmp_path, "t.json", "[]")
        assert main(["iso", "--templates", path]) == 2
        assert "--store" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", ["42", '"abc"', '{"templates": 7}'])
    @pytest.mark.parametrize("command", ["locklint", "iso"])
    def test_malformed_template_contents(
            self, store, tmp_path, capsys, payload, command):
        path = _write(tmp_path, "f.json", payload)
        argv = (["locklint", store, path] if command == "locklint"
                else ["iso", "--templates", path, "--store", store])
        assert main(argv) == 2
        assert f"repro-check: {path}: " in capsys.readouterr().err


class TestOutputFlags:
    @pytest.mark.parametrize("flag", ["--json", "--quiet", "-q"])
    def test_flag_before_or_after_the_command(self, store, capsys, flag):
        assert main([flag, "fsck", store]) == 0
        before = capsys.readouterr().out
        assert main(["fsck", store, flag]) == 0
        assert capsys.readouterr().out == before

    def test_json_is_the_report(self, store, capsys):
        assert main(["schema", store, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["plane"] == "schema"

    def test_strict_before_or_after_gates_on_warnings(self, tmp_path):
        trace = _unresolved_trace(tmp_path)
        argv = ["proto", "--workers", "1", "--txns", "1", "--replay", trace]
        assert main(argv) == 0
        assert main(["--strict"] + argv) == 1
        assert main(argv + ["--strict"]) == 1


class TestCommandTable:
    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        for name in SUBCOMMANDS:
            assert name in out

    def test_bare_self_test_flag_runs_the_seed_scenarios(self, capsys):
        assert main(["--self-test", "-q"]) == 0
        assert capsys.readouterr().out.strip() == (
            "self-test: all seed scenarios pass"
        )


class TestLadderRunner:
    def test_broken_detector_fails_the_ladder(self, monkeypatch, capsys):
        monkeypatch.setattr(
            LockOrderRecorder, "analyze",
            lambda self: Report(plane="lockdep"),
        )
        assert main(["lockdep", "--self-test"]) == 1
        captured = capsys.readouterr()
        assert "FAIL seeded inversion" in captured.out
        assert "ok   uniform order" in captured.out
        assert captured.out.splitlines()[-1] == (
            "lockdep self-test: 1 check(s) FAILED"
        )
        assert "NOT reported as an inversion" in captured.err

    def test_quiet_ladder_prints_only_the_verdict(self, capsys):
        assert main(["lockdep", "--self-test", "-q"]) == 0
        assert capsys.readouterr().out == "lockdep self-test: pass\n"
