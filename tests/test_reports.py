"""Golden CLI reports: every key of the JSON report except ``inputs`` (which
holds machine-specific paths) must stay byte-identical to the checked-in
report under ``tests/corpus/golden/``."""

import contextlib
import io
import json

import pytest

from conftest import CORPUS

from kbx import cli

GOLDEN = CORPUS / "golden"

# name -> (command, flag -> corpus file)
CASES = {
    "usol-exists-ex1": ("usol-exists", {"--kb": "ex1_kb", "--mapping": "ex1_map"}),
    "usol-exists-ex4": ("usol-exists", {"--kb": "ex4_kb", "--mapping": "ex4_map"}),
    "usol-exists-ext-ex3": ("usol-exists-ext", {"--kb": "ex3_kb", "--mapping": "ex3_map"}),
    "usol-check-yes": (
        "usol-check", {"--kb": "ex1_kb", "--mapping": "ex1_map", "--candidate": "ex1_cand"},
    ),
    "usol-check-no": (
        "usol-check", {"--kb": "ex2_kb", "--mapping": "ex1_map", "--candidate": "ex1_cand"},
    ),
    "rep-check-yes": ("rep-check", {"--kb": "ex5_kb", "--mapping": "ex5_map", "--t2": "ex5_t2"}),
    "rep-check-no": ("rep-check", {"--kb": "ex5_kb", "--mapping": "ex7_map", "--t2": "ex5_t2"}),
    "rep-check-no-ex8": ("rep-check", {"--kb": "ex8_kb", "--mapping": "ex8_map", "--t2": "ex8_t2"}),
    "rep-exists-yes": ("rep-exists", {"--kb": "ex5_kb", "--mapping": "ex10_map"}),
    "rep-exists-no-ex8": ("rep-exists", {"--kb": "ex8_kb", "--mapping": "ex8_map"}),
    "rep-synth": ("rep-synth", {"--kb": "ex5_kb", "--mapping": "ex10_map"}),
}


def report_text(name: str) -> str:
    """The case's JSON report without ``inputs``, in the CLI's own layout."""
    command, files = CASES[name]
    argv = [command]
    for flag, stem in files.items():
        argv += [flag, str(CORPUS / f"{stem}.kbx")]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.run(argv + ["--json"])
    report = json.loads(buf.getvalue())
    report.pop("inputs")
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    assert report_text(name) == (GOLDEN / f"{name}.json").read_text()
