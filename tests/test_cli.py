"""End-to-end command-line tests, run in process through ``cli.run``."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CORPUS

import kbx
from kbx import cli, exchange
from kbx.model import EMPTY_ABOX


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


def test_inputs_sharing_a_basename_keep_each_digest(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, source in (
        ("coll/a/x", "ex1_kb"), ("coll/m", "ex1_map"), ("coll/b/x", "ex1_cand"),
        ("x", "ex1_kb"), ("coll/x", "ex1_map"),
    ):
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / f"{name}.kbx").write_bytes((CORPUS / f"{source}.kbx").read_bytes())

    def inputs(kb, mapping, candidate):
        _, report = run_json(
            capsys, "usol-check", "--kb", kb, "--mapping", mapping, "--candidate", candidate
        )
        return report["inputs"]

    def entry(given):
        return {"path": given, "sha256": hashlib.sha256(Path(given).read_bytes()).hexdigest()}

    # The mapping is read first, then the source KB, then the candidate.
    assert inputs("coll/a/x.kbx", "coll/m.kbx", "coll/b/x.kbx") == {
        "m.kbx": entry("coll/m.kbx"),
        "x.kbx": entry("coll/a/x.kbx"),
        "coll/b/x.kbx": entry("coll/b/x.kbx"),
    }
    # The same path given twice is one entry.
    assert inputs("x.kbx", "coll/m.kbx", "x.kbx") == {
        "m.kbx": entry("coll/m.kbx"), "x.kbx": entry("x.kbx"),
    }
    # A path that is itself the key of another path still gets a key of its own.
    assert inputs("x.kbx", "coll/x.kbx", "coll/b/x.kbx") == {
        "x.kbx": entry("coll/x.kbx"),
        os.path.join(os.curdir, "x.kbx"): entry("x.kbx"),
        "coll/b/x.kbx": entry("coll/b/x.kbx"),
    }


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


def test_depth_cap_flag(capsys):
    code, _ = run(
        capsys, "usol-exists-ext", "--kb", path("ex3_kb"), "--mapping", path("ex3_map"),
        "--depth-cap", "0",
    )
    assert code == 2


def test_failed_recheck_answers_error(capsys):
    for command in ("rep-synth", "rep-exists"):
        code, report = run_json(
            capsys, command, "--kb", path("clash_far_neg_kb"), "--mapping",
            path("clash_far_neg_map"),
        )
        assert code == 3, command
        assert report["answer"] == "error"
        assert report["recheck"] == "failed"
        assert report["reason"].startswith("recheck failed: data {")


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
    assert report["recheck"] == "passed"


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
    # A negative depth is refused, not read as a depth or a cap.
    for argv in (
        ["canonical", "--kb", path("ex4_kb"), "--depth", "-2"],
        ["usol-exists-ext", "--kb", path("ex3_kb"), "--mapping", path("ex3_map"),
         "--depth-cap", "-1"],
    ):
        assert run(capsys, *argv) == (3, ""), argv


@pytest.mark.parametrize("argv", [
    [],
    ["no-such-command"],
    ["--json"],
    ["consistency", "--kb", path("ex1_kb"), "--bogus"],
    ["consistency", "--kb", path("ex1_kb"), "stray"],
    ["consistency", "--kb", path("ex1_kb"), "--json=1"],
    ["consistency", "--kb"],
    ["usol-exists", "--kb", path("ex3_kb"), "--mapping"],
    ["usol-check", "--kb", path("ex1_kb"), "--mapping", path("ex1_map")],
    ["consistency", "--seed", "7"],
    ["consistency", "--kb", path("ex1_kb"), "--seed", "seven"],
    ["canonical", "--kb", path("ex4_kb"), "--depth=two"],
    ["usol-exists-ext", "--kb", path("ex3_kb"), "--mapping", path("ex3_map"), "--depth-cap", ""],
    ["automata", "--kb", path("ex1_kb")],
    ["automata", "load", "--kb", path("ex1_kb")],
    ["automata", "dump", "dump", "--kb", path("ex1_kb")],
])
def test_usage_error_matrix(capsys, argv):
    assert cli.run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if line.startswith("kbx: error:")]
    assert len(errors) == 1, captured.err
    assert captured.err.startswith("usage:")


def test_help_names_every_command_and_flag(capsys):
    for argv in (["--help"], ["-h"]):
        assert cli.run(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert all(f" kbx {command} " in captured.out for command in cli.COMMANDS)
    for command, (text, required, options) in cli.COMMANDS.items():
        for argv in ([command, "--help"], [command, "--kb", path("ex1_kb"), "-h"]):
            assert cli.run(argv) == 0, argv
            out = capsys.readouterr().out
            assert text in out
            for word in (*required, *options, "--seed", "--json"):
                assert word in out, (command, word)


def test_flag_forms_and_repeats(capsys):
    kb = path("ex4_kb")
    code, spaced = run(capsys, "canonical", "--kb", kb, "--depth", "2", "--json")
    assert code == 0
    for argv in (
        ["canonical", f"--kb={kb}", "--depth=2", "--json"],
        ["canonical", "--depth", "5", "--kb", "nope.kbx", "--json", f"--kb={kb}", "--depth=2"],
    ):
        assert run(capsys, *argv) == (0, spaced), argv
    code, report = run_json(capsys, "consistency", "--kb", path("ex1_kb"), "--seed", "-5")
    assert code == 0 and report["seed"] == -5


def test_flag_abbreviations_are_refused(capsys):
    argv = ["usol-exists", "--kb", path("ex3_kb"), "--map", path("ex3_map")]
    assert run(capsys, *argv) == (3, "")
    assert run(capsys, "canonical", "--kb", path("ex4_kb"), "--dep", "2") == (3, "")


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
    code = cli.run([
        "usol-check", "--kb", path("ex1_kb"), "--mapping", path("ex1_map"),
        "--candidate", path("ex1_cand"), "--json",
    ])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 3
    assert set(report) == REPORT_KEYS
    assert report["answer"] == "error"
    assert "RuntimeError" in report["reason"]
    assert report["witness"] is None and report["recheck"] is None
    assert "Traceback" in captured.err and "injected fault" in captured.err


def fresh_python(script):
    """The stdout of ``script`` run in a new interpreter that imports this ``kbx``."""
    src = str(Path(kbx.__file__).resolve().parents[1])
    path_entries = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path_entries))}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout


def test_cli_import_leaves_automata_dataclasses_and_traceback_unloaded():
    """A fresh ``import kbx`` loads no submodule, and ``import kbx.cli`` loads
    neither the automata nor the standard modules only a fault or ``automata
    dump`` needs."""
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import kbx\n"
        "bare = [m for m in sys.modules if m.startswith('kbx.')]\n"
        "import kbx.cli\n"
        "print(json.dumps([bare, sorted(set(sys.modules) - before)]))\n"
    )
    bare, loaded = json.loads(fresh_python(script))
    assert bare == []
    assert "kbx.cli" in loaded and "kbx.exchange" in loaded
    assert not {"kbx.automata", "dataclasses", "traceback"} & set(loaded)


def test_cli_run_leaves_argparse_gettext_and_locale_unloaded():
    """Reading a command line and writing its report need no argument-parsing
    or translation machinery."""
    script = (
        "import contextlib, io, json, sys\n"
        "before = set(sys.modules)\n"
        "import kbx.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = kbx.cli.run(['consistency', '--kb', {path('ex1_kb')!r}, '--json'])\n"
        "print(json.dumps([code, sorted(set(sys.modules) - before)]))\n"
    )
    code, loaded = json.loads(fresh_python(script))
    assert code == 0
    assert not {"argparse", "gettext", "locale"} & set(loaded)


def test_package_namespace_resolves_each_public_name():
    for name in kbx.__all__:
        value = getattr(kbx, name)
        assert value.__module__.startswith("kbx.")
        assert getattr(sys.modules[value.__module__], name) is value
        assert name in dir(kbx)
    assert "cli" in dir(kbx) and "__version__" in dir(kbx)
    with pytest.raises(AttributeError):
        kbx.no_such_name


def test_oracle_is_not_shipped_and_its_flag_is_gone(capsys):
    assert importlib.util.find_spec("kbx.oracle") is None
    assert cli.run(["consistency", "--kb", path("ex1_kb"), "--oracle"]) == 3
    capsys.readouterr()


def test_unknown_names_the_depth_cap(capsys):
    code, report = run_json(
        capsys, "usol-exists-ext", "--kb", path("ex3_kb"), "--mapping", path("ex3_map"),
        "--depth-cap", "0",
    )
    assert code == 2
    assert report["answer"] == "unknown"
    assert "depth cap 0" in report["reason"]


def test_usol_check_on_a_long_chain(capsys, tmp_path):
    mapping = tmp_path / "map.kbx"
    mapping.write_text(
        "mapping { source { role R } target { role Rp } tbox { R [= Rp; } }"
    )

    def candidate(facts):
        out = tmp_path / "cand.kbx"
        out.write_text(
            "kb { roles { Rp } tbox { } abox { "
            + " ".join(f"Rp({u}, {v});" for u, v in facts) + " } }"
        )
        return str(out)

    for n in (1200, 5000):
        pairs = [(f"c{i}", f"c{i + 1}") for i in range(n - 1)]
        kb = tmp_path / "kb.kbx"
        kb.write_text(
            "kb { roles { R } tbox { } abox { "
            + " ".join(f"R({u}, {v});" for u, v in pairs) + " } }"
        )
        argv = ["usol-check", "--kb", str(kb), "--mapping", str(mapping), "--candidate"]
        code, out = run(capsys, *argv, candidate(pairs))
        assert code == 0, (n, out)
        code, out = run(capsys, *argv, candidate(pairs[: n // 2] + pairs[n // 2 + 1:]))
        assert code == 1, (n, out)


def test_usol_exists_on_a_long_chain(capsys, tmp_path):
    # The recheck embeds a null per chain end and per inner individual (two
    # existential facts each) back into the canonical model.
    mapping = tmp_path / "map.kbx"
    mapping.write_text(
        "mapping { source { role R } target { role Rp } tbox { R [= Rp; } }"
    )
    for n in (1200, 5000):
        kb = tmp_path / "kb.kbx"
        kb.write_text(
            "kb { roles { R } tbox { } abox { "
            + " ".join(f"R(c{i}, c{i + 1});" for i in range(n - 1)) + " } }"
        )
        code, report = run_json(
            capsys, "usol-exists", "--kb", str(kb), "--mapping", str(mapping)
        )
        assert code == 0, (n, report)
        assert report["recheck"] == "passed", n


def test_a_witness_failing_its_final_check_is_an_error(capsys, monkeypatch):
    monkeypatch.setattr(exchange, "_minimize_witness", lambda *_args: EMPTY_ABOX)
    code, report = run_json(
        capsys, "usol-exists-ext", "--kb", path("ex3_kb"), "--mapping", path("ex3_map"),
    )
    assert code == 3
    assert report["answer"] == "error"
    assert "RuntimeError" in report["reason"]
    assert report["witness"] is None and report["certificate"] is None
