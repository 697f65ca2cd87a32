"""End-to-end command-line tests, run in process through ``cli.run``."""

import json

import pytest

from conftest import CORPUS

from kbx import cli


def path(name):
    return str(CORPUS / f"{name}.kbx")


def run(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


REPORT_KEYS = {
    "answer",
    "certificate",
    "command",
    "counterexample",
    "engine",
    "inputs",
    "reason",
    "recheck",
    "seed",
    "timing_ms",
    "witness",
}


def test_consistency_yes(capsys):
    code, out = run(capsys, "consistency", "--kb", path("ex1_kb"))
    assert code == 0
    assert "answer: yes" in out


def test_consistency_oracle_engine(capsys):
    code, report = run_json(capsys, "consistency", "--kb", path("ex1_kb"), "--oracle")
    assert code == 0
    assert report["engine"] == "oracle"


def test_json_report_schema_and_determinism(capsys):
    code, report = run_json(capsys, "consistency", "--kb", path("ex1_kb"), "--seed", "7")
    assert code == 0
    assert set(report) == REPORT_KEYS
    assert report["seed"] == 7
    assert report["timing_ms"] is None
    assert report["inputs"]["ex1_kb.kbx"]["sha256"]
    cli.run(["consistency", "--kb", path("ex1_kb"), "--seed", "7", "--json"])
    first = capsys.readouterr().out
    cli.run(["consistency", "--kb", path("ex1_kb"), "--seed", "7", "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_usol_check_verdicts(capsys):
    code, _ = run(
        capsys, "usol-check", "--kb", path("ex1_kb"), "--mapping", path("ex1_map"),
        "--candidate", path("ex1_cand"),
    )
    assert code == 0
    code, out = run(
        capsys, "usol-check", "--kb", path("ex2_kb"), "--mapping", path("ex1_map"),
        "--candidate", path("ex1_cand"),
    )
    assert code == 1
    assert "answer: no" in out


def test_usol_exists_extended_finds_null_witness(capsys):
    code, report = run_json(
        capsys, "usol-exists-ext", "--kb", path("ex3_kb"), "--mapping", path("ex3_map")
    )
    assert code == 0
    assert "Gp(_n1)" in report["witness"]
    assert report["recheck"] == "passed"


def test_usol_exists_plain_says_no_where_nulls_are_needed(capsys):
    code, _ = run(
        capsys, "usol-exists", "--kb", path("ex3_kb"), "--mapping", path("ex3_map")
    )
    assert code == 1


def test_depth_cap_flag_and_env(capsys, monkeypatch):
    code, _ = run(
        capsys, "usol-exists-ext", "--kb", path("ex3_kb"), "--mapping", path("ex3_map"),
        "--depth-cap", "0",
    )
    assert code == 2
    monkeypatch.setenv("KBX_DEPTH_CAP", "0")
    code, _ = run(
        capsys, "usol-exists-ext", "--kb", path("ex3_kb"), "--mapping", path("ex3_map")
    )
    assert code == 2
    monkeypatch.setenv("KBX_DEPTH_CAP", "not-a-number")
    code, out = run(
        capsys, "usol-exists-ext", "--kb", path("ex3_kb"), "--mapping", path("ex3_map")
    )
    assert code == 3
    assert "KBX_DEPTH_CAP" in out


def test_rep_check_no_carries_counterexample(capsys):
    code, report = run_json(
        capsys, "rep-check", "--kb", path("ex5_kb"), "--mapping", path("ex7_map"),
        "--t2", path("ex5_t2"),
    )
    assert code == 1
    assert "F(a)" in report["counterexample"]
    assert "H(a)" in report["counterexample"]


def test_rep_exists_verdicts(capsys):
    code, _ = run(
        capsys, "rep-exists", "--kb", path("ex5_kb"), "--mapping", path("ex9_map")
    )
    assert code == 1
    code, report = run_json(
        capsys, "rep-exists", "--kb", path("ex5_kb"), "--mapping", path("ex10_map")
    )
    assert code == 0
    assert "Fp [= Gp" in report["witness"]


def test_rep_synth_rechecks_its_output(capsys):
    code, report = run_json(
        capsys, "rep-synth", "--kb", path("ex5_kb"), "--mapping", path("ex10_map")
    )
    assert code == 0
    assert "Fp [= Gp" in report["witness"]
    assert report["recheck"] == "passed"


def test_canonical_materializes_prefix(capsys):
    code, report = run_json(capsys, "canonical", "--kb", path("ex4_kb"), "--depth", "2")
    assert code == 0
    assert any("S(a" in line for line in report["witness"].splitlines())
    assert "depth 2" in report["certificate"]


def test_canonical_on_inconsistent_kb_is_a_no(capsys, tmp_path):
    bad = tmp_path / "bad.kbx"
    bad.write_text("kb { tbox { F [= not G; } abox { F(a); G(a); } }")
    code, out = run(capsys, "canonical", "--kb", str(bad))
    assert code == 1
    assert "inconsistent" in out


def test_missing_and_malformed_inputs_exit_3(capsys, tmp_path):
    code, out = run(capsys, "consistency", "--kb", str(tmp_path / "nope.kbx"))
    assert code == 3
    assert "answer: error" in out
    garbled = tmp_path / "garbled.kbx"
    garbled.write_text("kb { tbox { F [= ; } }")
    code, out = run(capsys, "consistency", "--kb", str(garbled))
    assert code == 3
    assert "line 1" in out


def test_usage_errors_exit_3(capsys):
    assert cli.run(["no-such-command"]) == 3
    capsys.readouterr()
    assert cli.run(["consistency"]) == 3
    capsys.readouterr()


def test_automata_dump_is_byte_stable(capsys):
    cli.run(["automata", "dump", "--kb", path("ex1_kb"), "--json"])
    first = capsys.readouterr().out
    cli.run(["automata", "dump", "--kb", path("ex1_kb"), "--json"])
    second = capsys.readouterr().out
    assert first and first == second
    report = json.loads(first)
    assert "canonical-acceptor" in report["witness"]


def test_internal_fault_is_an_error_not_a_verdict(capsys, monkeypatch):
    def broken(*_args, **_kwargs):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(cli, "is_universal_solution", broken)
    code, report = run_json(
        capsys, "usol-check", "--kb", path("ex1_kb"), "--mapping", path("ex1_map"),
        "--candidate", path("ex1_cand"),
    )
    assert code == 3
    assert set(report) == REPORT_KEYS
    assert report["answer"] == "error"
    assert "RuntimeError" in report["reason"]
    assert report["witness"] is None and report["recheck"] is None
