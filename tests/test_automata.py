"""Tree-automata acceptance, corruption rejection, and dump stability."""

import pytest

from conftest import load_kb

from kbx.automata import (
    GOOD_MARK,
    ROOT_MARK,
    build_acan,
    build_afin,
    build_amod,
    dump_automaton,
    pad_kb,
)
from kbx.model import ABox, Atomic, ConceptAssertion, KnowledgeBase, Null
from runs import check_runs, encode_canonical_tree


def canonical_tree(kb, depth):
    padded, _ = pad_kb(kb)
    return encode_canonical_tree(padded, depth)


def bound(depth):
    return 8 * depth + 16


def test_pad_kb_balances_and_reports_padding():
    kb = load_kb("ex1_kb")
    padded, added = pad_kb(kb)
    assert len(padded.abox.assertions) >= len(kb.abox.assertions)
    assert added  # ex1 needs padding facts


def test_canonical_acceptor_accepts_its_own_tree():
    for name, depth in (("ex1_kb", 3), ("ex3_kb", 3), ("ex4_kb", 3)):
        kb = load_kb(name)
        verdict = check_runs(build_acan(kb), canonical_tree(kb, depth), bound(depth))
        assert verdict == "accepts", name


def test_root_mark_removal_rejects():
    kb = load_kb("ex1_kb")
    tree = canonical_tree(kb, 3)
    bad = tree.relabel((), tree.label(()) - {ROOT_MARK})
    assert check_runs(build_acan(kb), bad, bound(3)) == "rejects"


@pytest.mark.parametrize(
    "mutate",
    [
        lambda lab: lab - {"ind:a"},
        lambda lab: lab - {"con:F"},
        lambda lab: lab | {"con:G"},
    ],
    ids=["drop-individual", "drop-concept", "add-concept"],
)
def test_individual_node_corruptions_reject(mutate):
    kb = load_kb("ex1_kb")
    tree = canonical_tree(kb, 3)
    node = (1,)
    assert tree.label(node) == frozenset({"ind:a", "con:F"})
    bad = tree.relabel(node, mutate(tree.label(node)))
    assert check_runs(build_acan(kb), bad, bound(3)) == "rejects"


def test_role_label_corruption_rejects():
    kb = load_kb("ex4_kb")
    tree = canonical_tree(kb, 3)
    node = next(
        n for n in tree.nodes() if any(s.startswith("rol:") for s in tree.label(n))
    )
    sym = next(s for s in sorted(tree.label(node)) if s.startswith("rol:"))
    bad = tree.relabel(node, tree.label(node) - {sym})
    assert check_runs(build_acan(kb), bad, bound(3)) == "rejects"


def witness_kb():
    return KnowledgeBase((), ABox.make([ConceptAssertion(Atomic("Gp"), Null("n1"))]))


def test_decorated_witness_tree_accepted_by_model_acceptors():
    kb = witness_kb()
    padded, _ = pad_kb(kb)
    tree = encode_canonical_tree(padded, 2, good=True)
    for build in (build_amod, build_afin, build_acan):
        assert check_runs(build(kb), tree, bound(2)) == "accepts"


def test_unmarking_a_decorated_node_rejects():
    kb = witness_kb()
    padded, _ = pad_kb(kb)
    tree = encode_canonical_tree(padded, 2, good=True)
    marked = next(n for n in tree.nodes() if GOOD_MARK in tree.label(n))
    bad = tree.relabel(marked, tree.label(marked) - {GOOD_MARK})
    assert check_runs(build_amod(kb), bad, bound(2)) == "rejects"
    assert check_runs(build_afin(kb), bad, bound(2)) == "rejects"


def test_undecorated_tree_fails_the_model_acceptor():
    kb = witness_kb()
    padded, _ = pad_kb(kb)
    plain = encode_canonical_tree(padded, 2, good=False)
    assert check_runs(build_amod(kb), plain, bound(2)) == "rejects"


def test_tiny_step_budget_is_inconclusive():
    kb = load_kb("ex4_kb")
    assert check_runs(build_acan(kb), canonical_tree(kb, 3), 1) == "inconclusive"


def test_dump_is_deterministic_across_builds():
    first = dump_automaton(build_acan(load_kb("ex1_kb")))
    second = dump_automaton(build_acan(load_kb("ex1_kb")))
    assert first == second
    assert "canonical-acceptor" in first
    assert "states" in first


def test_dumps_distinguish_the_three_acceptors():
    kb = witness_kb()
    texts = {
        dump_automaton(build_acan(kb)),
        dump_automaton(build_amod(kb)),
        dump_automaton(build_afin(kb)),
    }
    assert len(texts) == 3


def test_pad_kb_loops_a_fresh_role_on_the_empty_kb():
    """With no role to loop, padding mints one on a fresh constant and loops
    it again on a second constant, to balance its two orientations."""
    padded, note = pad_kb(KnowledgeBase((), ABox.make([])))
    assert note == "padding: added pad1(u1, u1), pad1(u2, u2)"
    assert sorted(map(str, padded.abox.assertions)) == ["pad1(u1, u1)", "pad1(u2, u2)"]
