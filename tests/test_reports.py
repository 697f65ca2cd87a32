"""Golden CLI reports: every key of the JSON report except ``inputs`` (which
holds machine-specific paths) must stay byte-identical to the checked-in
report under ``tests/corpus/golden/``."""

import contextlib
import io
import json
import time

import pytest

from conftest import CORPUS

from kbx import cli

GOLDEN = CORPUS / "golden"

# name -> (command, flag -> corpus file, further arguments...)
CASES = {
    "usol-exists-ex1": ("usol-exists", {"--kb": "ex1_kb", "--mapping": "ex1_map"}),
    "usol-exists-ex4": ("usol-exists", {"--kb": "ex4_kb", "--mapping": "ex4_map"}),
    # A role mapping and a concept mapping with the same solutions both accept
    # the closure ABox ``exists Pp (a)``, and a source whose anonymous
    # successor is mapped needs nulls.  The inputs sit in ``plain/``, outside
    # the corpus root whose KBs the automata test walks.
    "usol-exists-plain-role": (
        "usol-exists", {"--kb": "plain/plain_kb", "--mapping": "plain/plain_role_map"},
    ),
    "usol-exists-plain-concept": (
        "usol-exists", {"--kb": "plain/plain_kb", "--mapping": "plain/plain_concept_map"},
    ),
    "usol-exists-ex3": ("usol-exists", {"--kb": "ex3_kb", "--mapping": "ex3_map"}),
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
    # Source contradictions covered in each way the clash-cover search knows:
    # disjointness or a stated negation, at the members, at the far end of an
    # existential member, through its role, or at the ends of a clashing role.
    "rep-synth-clash-far-disj": (
        "rep-synth", {"--kb": "clash_kb", "--mapping": "clash_far_disj_map"},
    ),
    "rep-synth-clash-far-neg": (
        "rep-synth", {"--kb": "clash_far_neg_kb", "--mapping": "clash_far_neg_map"},
    ),
    "rep-synth-clash-far-neg-same": (
        "rep-synth", {"--kb": "clash_kb", "--mapping": "clash_far_neg_same_map"},
    ),
    "rep-synth-clash-role-disj": (
        "rep-synth", {"--kb": "clash_kb", "--mapping": "clash_role_disj_map"},
    ),
    "rep-synth-clash-role-via-concept": (
        "rep-synth",
        {"--kb": "clash_role_via_concept_kb", "--mapping": "clash_role_via_concept_map"},
    ),
    "rep-synth-clash-role-neg": (
        "rep-synth", {"--kb": "clash_role_neg_kb", "--mapping": "clash_role_neg_map"},
    ),
    "rep-synth-clash-role-neg-same": (
        "rep-synth", {"--kb": "clash_kb", "--mapping": "clash_role_neg_same_map"},
    ),
    "rep-exists-clash-none-concept": (
        "rep-exists", {"--kb": "clash_none_concept_kb", "--mapping": "clash_none_concept_map"},
    ),
    "rep-exists-clash-none-role": (
        "rep-exists", {"--kb": "clash_none_role_kb", "--mapping": "clash_none_role_map"},
    ),
    # Each counterexample of the membership check and each capture failure of
    # the existence check, plus syntheses from a one-hop generating chain that
    # requires a connecting role and from a two-hop chain.  They sit in
    # ``rep/``, outside the corpus root whose KBs the automata test walks.
    "rep-check-role-clash": (
        "rep-check",
        {"--kb": "rep/role_clash_kb", "--mapping": "rep/role_clash_map", "--t2": "rep/empty_t2"},
    ),
    "rep-check-concept-clash-candidate": (
        "rep-check", {"--kb": "ex5_kb", "--mapping": "ex5_map", "--t2": "rep/concept_clash_t2"},
    ),
    "rep-check-role-transfer": (
        "rep-check",
        {"--kb": "rep/transfer_kb", "--mapping": "rep/transfer_map", "--t2": "rep/transfer_t2"},
    ),
    "rep-check-neighbor-source": (
        "rep-check",
        {
            "--kb": "rep/neighbor_src_kb", "--mapping": "rep/neighbor_src_map",
            "--t2": "rep/empty_t2",
        },
    ),
    "rep-check-neighbor-candidate": (
        "rep-check",
        {
            "--kb": "rep/neighbor_cand_kb", "--mapping": "rep/neighbor_cand_map",
            "--t2": "rep/neighbor_cand_t2",
        },
    ),
    "rep-exists-capture-concept": (
        "rep-exists", {"--kb": "rep/capture_concept_kb", "--mapping": "rep/capture_concept_map"},
    ),
    "rep-exists-capture-role": (
        "rep-exists", {"--kb": "rep/capture_role_kb", "--mapping": "rep/capture_role_map"},
    ),
    "rep-synth-one-hop-role": (
        "rep-synth", {"--kb": "rep/one_hop_kb", "--mapping": "rep/one_hop_map"},
    ),
    "rep-synth-two-hop": (
        "rep-synth", {"--kb": "rep/two_hop_kb", "--mapping": "rep/two_hop_map"},
    ),
    # The QBF reduction: three valid formulas whose minimised null witnesses
    # pin the deepening, the minimisation and both embedding searches, and
    # one invalid member of the three-variable family (forall-forall-forall
    # over (x1), (x2 or not x3)) that reaches the default depth cap.  They sit
    # in ``qbf/``, outside the corpus root whose KBs the automata test walks.
    "usol-exists-ext-qbf-valid0": (
        "usol-exists-ext", {"--kb": "qbf/valid0_kb", "--mapping": "qbf/valid0_map"},
    ),
    "usol-exists-ext-qbf-valid1": (
        "usol-exists-ext", {"--kb": "qbf/valid1_kb", "--mapping": "qbf/valid1_map"},
    ),
    "usol-exists-ext-qbf-valid2": (
        "usol-exists-ext", {"--kb": "qbf/valid2_kb", "--mapping": "qbf/valid2_map"},
    ),
    "usol-exists-ext-qbf-invalid": (
        "usol-exists-ext", {"--kb": "qbf/invalid_kb", "--mapping": "qbf/invalid_map"},
    ),
    # The paper's formula, exists-forall-exists over (x1), (x2 or not x3),
    # whose witness first appears at depth 7.
    "usol-exists-ext-qbf-phi": (
        "usol-exists-ext", {"--kb": "qbf/phi_kb", "--mapping": "qbf/phi_map"},
        "--depth-cap", "10",
    ),
    # Data with labeled nulls: six individuals in ``A``, joined by ``R``,
    # under ``A [= exists S``.  Every fact of the depth-1 truncation stays in
    # the witness, so each minimisation trial fails.  The inputs sit in
    # ``extdata/``, outside the corpus root whose KBs the automata test walks.
    "usol-exists-ext-chain6": (
        "usol-exists-ext", {"--kb": "extdata/chain6_kb", "--mapping": "extdata/chain6_map"},
    ),
    # The 3-colouring encoding on two 30-vertex graphs with 66 edges, the
    # one colourable and the other not: the nulls must fold onto the colour
    # triangle.  They sit in ``color/``, outside the corpus root whose KBs
    # the automata test walks.
    "usol-check-color-yes": (
        "usol-check",
        {"--kb": "color/color_kb", "--mapping": "color/color_map",
         "--candidate": "color/yes_cand"},
    ),
    "usol-check-color-no": (
        "usol-check",
        {"--kb": "color/color_kb", "--mapping": "color/color_map",
         "--candidate": "color/no_cand"},
    ),
    # Positivity refusals: disjoint roles on two pairs of visible individuals
    # (clause b), and towards two visible children of one anonymous element
    # (clause c); a mapping disjointness on a derived concept and on an
    # asserted role (clause d).  They sit in ``positivity/``, outside the
    # corpus root whose KBs the automata test walks.
    "usol-exists-positivity-b": (
        "usol-exists",
        {"--kb": "positivity/clause_b_kb", "--mapping": "positivity/clause_b_map"},
    ),
    "usol-exists-positivity-c": (
        "usol-exists",
        {"--kb": "positivity/clause_c_kb", "--mapping": "positivity/clause_c_map"},
    ),
    "usol-exists-positivity-d-concept": (
        "usol-exists",
        {"--kb": "positivity/clause_d_concept_kb",
         "--mapping": "positivity/clause_d_concept_map"},
    ),
    "usol-exists-positivity-d-role": (
        "usol-exists",
        {"--kb": "positivity/clause_d_role_kb", "--mapping": "positivity/clause_d_role_map"},
    ),
    # The three automata over a KB padded with loops of an existing role,
    # and over the empty KB, padded with a fresh role that is then looped.
    "automata-dump-ex3": ("automata", {"--kb": "ex3_kb"}, "dump"),
    "automata-dump-clash": ("automata", {"--kb": "clash_kb"}, "dump"),
}


def report_text(name: str) -> str:
    """The case's JSON report without ``inputs``, in the CLI's own layout."""
    return cli_report(*CASES[name])


def cli_report(command: str, files: dict, *args: str) -> str:
    """The JSON report of one CLI run on corpus files, without ``inputs``."""
    argv = [command, *args]
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


def test_large_depth_caps_answer_quickly():
    """An unknown costs a few probes rather than one check per depth, and a
    yes never looks far past its witness's depth."""
    invalid = {"--kb": "qbf/invalid_kb", "--mapping": "qbf/invalid_map"}
    valid0 = {"--kb": "qbf/valid0_kb", "--mapping": "qbf/valid0_map"}
    start = time.process_time()
    report = json.loads(cli_report("usol-exists-ext", invalid, "--depth-cap", "40"))
    assert time.process_time() - start < 0.5
    assert report["answer"] == "unknown"
    assert report["reason"] == "depth cap 40 reached; last depth tried: 40"
    start = time.process_time()
    deep = cli_report("usol-exists-ext", valid0, "--depth-cap", "1000")
    assert time.process_time() - start < 0.5
    assert deep == cli_report("usol-exists-ext", valid0, "--depth-cap", "10")
