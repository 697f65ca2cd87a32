"""UCQ-representation membership, existence, and synthesis on the worked examples."""

import hashlib
import random
from collections import Counter

import pytest

from conftest import load_kb, load_mapping, synthesize_representation
from reductions import (
    random_digraph,
    random_representable_instance,
    random_tbox,
    reach_membership,
    reach_nonemptiness,
)

from kbx.model import (
    Atomic,
    BasicRole,
    ConceptInclusion,
    Constant,
    Exists,
    Signature,
    all_basic_concepts,
    all_basic_roles,
)
from kbx.reasoner import Reasoner
from kbx.representability import (
    PreconditionViolated,
    is_ucq_representation,
    representation_exists,
)
from kbx.syntax import parse_kb, parse_mapping


def t1_fg():
    return load_kb("ex5_kb").tbox


def t2_fpgp():
    return load_kb("ex5_t2").tbox


def test_candidate_tbox_represents_simple_hierarchy():
    verdict = is_ucq_representation(load_mapping("ex5_map"), t1_fg(), t2_fpgp())
    assert verdict.answer == "yes"


def test_membership_survives_disjointness_in_the_mapping():
    """A negated mapping axiom alone does not break representation."""
    verdict = is_ucq_representation(load_mapping("ex6_map"), t1_fg(), t2_fpgp())
    assert verdict.answer == "yes"


def test_membership_fails_when_disjointness_hits_mapped_data():
    verdict = is_ucq_representation(load_mapping("ex7_map"), t1_fg(), t2_fpgp())
    assert verdict.answer == "no"
    ce = verdict.counterexample
    assert sorted(str(a) for a in ce.abox.assertions) == ["F(a)", "H(a)"]
    # the source data is inconsistent with candidate-side consequences, so a
    # fresh-constant query separates the two sides
    assert str(ce.query) == "Fp(c0)"


def test_membership_fails_on_role_pieces():
    """Data arriving through an unconstrained role piece defeats the candidate."""
    verdict = is_ucq_representation(
        load_mapping("ex8_map"), load_kb("ex8_kb").tbox, load_kb("ex8_t2").tbox
    )
    assert verdict.answer == "no"
    ce = verdict.counterexample
    (piece,) = ce.abox.assertions
    assert piece.role == BasicRole("T2")
    assert piece.second == Constant("a")
    assert str(ce.query) == "Gp(a)"


def test_membership_fails_when_the_candidate_separates_a_role_pair():
    """Source roles S and Q may hold on one pair; a candidate that makes
    their images disjoint contradicts the translation of that pair."""
    mapping = parse_mapping(
        "mapping { source { role S, role Q } target { role Sp, role Qp } "
        "tbox { S [= Sp; Q [= Qp; } }"
    )
    t2 = parse_kb("kb { roles { Sp, Qp } tbox { Sp [= not Qp; } abox { } }").tbox
    verdict = is_ucq_representation(mapping, (), t2)
    assert verdict.answer == "no"
    assert str(verdict.counterexample) == (
        "data {Q(a, b), S(a, b)}, query Qp(c0, c1): "
        "{Q, S} on one pair is satisfiable with the source TBox "
        "but the candidate disagrees on its translation"
    )


def test_membership_rejects_candidates_over_the_source_signature():
    bad_t2 = (ConceptInclusion(Atomic("F"), Atomic("Gp")),)
    with pytest.raises(PreconditionViolated, match="source"):
        is_ucq_representation(load_mapping("ex5_map"), t1_fg(), bad_t2)


def test_double_image_blocks_any_representation():
    """Two source concepts sharing a target image disagree about what follows."""
    verdict = representation_exists(load_mapping("ex9_map"), t1_fg())
    assert verdict.answer == "no"
    assert verdict.reason


def test_synthesis_round_trip_on_the_repaired_mapping():
    mapping = load_mapping("ex10_map")
    verdict = representation_exists(mapping, t1_fg())
    assert verdict.answer == "yes"
    synthesized = synthesize_representation(mapping, t1_fg())
    assert synthesized == (ConceptInclusion(Atomic("Fp"), Atomic("Gp")),)
    assert is_ucq_representation(mapping, t1_fg(), synthesized).answer == "yes"


def test_synthesis_returns_none_when_nothing_represents():
    assert synthesize_representation(load_mapping("ex9_map"), t1_fg()) is None



def test_one_subsumption_graph_keeps_the_kinds_apart():
    """Concepts and roles share one closure: a role reaches only roles, a
    concept only basic concepts, and each super-role of r lifts to a
    super-concept of exists r."""
    sig = Signature.make("ABC", "RST")
    rng = random.Random(17)
    lifted = 0
    for _ in range(300):
        ctx = Reasoner(random_tbox(rng))
        for r in all_basic_roles(sig):
            sups = ctx.sup(r)
            assert all(isinstance(s, BasicRole) for s in sups), (ctx.tbox, r)
            assert {Exists(s) for s in sups} <= ctx.sup(Exists(r)), (ctx.tbox, r)
            lifted += len(sups) > 1
        for c in all_basic_concepts(sig):
            assert all(isinstance(x, (Atomic, Exists)) for x in ctx.sup(c)), (ctx.tbox, c)
    assert lifted >= 300, lifted


def test_representation_verdicts_on_seeded_draws():
    """1,500 random instances and the reachability encodings on four seeded
    six-node digraphs.  Each synthesized TBox is checked again, whole and
    less its last axiom, which pins ``no`` counterexamples too.  The counts
    and the digest of every verdict were recorded before the safety checks
    became set expressions over the closures."""
    rng = random.Random(7)
    inputs = [(*random_representable_instance(rng), None) for _ in range(1500)]
    graphs = random.Random(22)
    while len(inputs) < 1508:
        n, edges, src, dst = random_digraph(graphs, max_nodes=6)
        if n == 6:
            inputs.append(reach_membership(n, edges, src, dst))
            inputs.append((*reach_nonemptiness(n, edges, src, dst), None))
    lines, counts = [], Counter()
    for mapping, t1, t2 in inputs:
        verdict = representation_exists(mapping, t1)
        lines.append(repr(verdict))
        counts["exists", verdict.answer] += 1
        candidates = [verdict.tbox, verdict.tbox[:-1]] if verdict.answer == "yes" else []
        for candidate in candidates + ([t2] if t2 is not None else []):
            checked = is_ucq_representation(mapping, t1, candidate)
            lines.append(repr(checked))
            counts["member", checked.answer] += 1
    assert counts == {
        ("exists", "yes"): 842, ("exists", "no"): 666,
        ("member", "yes"): 1614, ("member", "no"): 74,
    }
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "13c0823edd84059d5bce9b9db450bd381e73f5384bf2fd8896638a35e2638fff"
