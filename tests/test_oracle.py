"""Brute-force oracle sanity checks on instances small enough to verify by hand."""

import pytest

from kbx.model import (
    ABox,
    Atomic,
    BasicRole,
    ConceptAssertion,
    ConceptInclusion,
    Constant,
    Exists,
    KnowledgeBase,
    RoleAssertion,
    RoleInclusion,
)
from oracle import (
    brute_homomorphism,
    certain_answer,
    chase_inconsistent,
    graph_reachable,
    naive_chase,
    naive_saturate,
    qbf_valid,
    three_colorable,
    three_colorable_fc,
)
from reductions import small_graphs

F, G, H = Atomic("F"), Atomic("G"), Atomic("H")
S, T = BasicRole("S"), BasicRole("T")


def test_naive_saturate_transitive_chain():
    sat = naive_saturate((ConceptInclusion(F, G), ConceptInclusion(G, H)))
    assert sat.entails_concept(F, H)
    assert sat.entails_concept(F, F)
    assert not sat.entails_concept(H, F)


def test_naive_saturate_role_and_existential_interplay():
    sat = naive_saturate((RoleInclusion(S, T), ConceptInclusion(Exists(T), G)))
    assert sat.entails_role(S, T)
    assert sat.entails_role(S.inverse(), T.inverse())
    assert sat.entails_concept(Exists(S), G)


@pytest.mark.parametrize(
    "prefix, clauses, valid",
    [
        ([("exists", 1)], [[(1, True)]], True),
        ([("forall", 1)], [[(1, True)]], False),
        ([("forall", 1)], [[(1, True), (1, False)]], True),
        (
            [("exists", 1), ("forall", 2), ("exists", 3)],
            [[(1, True)], [(2, True), (3, False)]],
            True,
        ),
        (
            [("forall", 1), ("forall", 2), ("exists", 3)],
            [[(1, True)], [(2, True), (3, False)]],
            False,
        ),
    ],
)
def test_qbf_valid(prefix, clauses, valid):
    assert qbf_valid(prefix, clauses) is valid


def test_graph_reachable():
    edges = [(0, 1), (1, 2)]
    assert graph_reachable(edges, 0, 2)
    assert not graph_reachable(edges, 2, 0)
    assert graph_reachable(edges, 1, 1)  # every node reaches itself


def test_three_colorable():
    triangle = [(0, 1), (1, 2), (2, 0)]
    assert three_colorable([0, 1, 2], triangle)
    k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    assert not three_colorable([0, 1, 2, 3], k4)
    assert three_colorable([0], [])


def test_forward_checking_colourer_matches_the_brute_force_one():
    graphs = small_graphs()
    answers = [three_colorable_fc(vs, es) for vs, es in graphs]
    assert answers == [three_colorable(vs, es) for vs, es in graphs]
    assert 20 <= sum(answers) <= 180, sum(answers)
    assert not three_colorable_fc([0, 1], [(0, 1), (1, 1)])


def test_brute_homomorphism_on_graphs():
    from kbx.canonical import build_vabox
    from kbx.model import Null

    def cycle(k, prefix):
        facts = []
        for i in range(k):
            u, v = Null(f"{prefix}{i}"), Null(f"{prefix}{(i + 1) % k}")
            facts.append(RoleAssertion(BasicRole("E"), u, v))
            facts.append(RoleAssertion(BasicRole("E"), v, u))
        return build_vabox(ABox.make(facts))

    assert brute_homomorphism(cycle(5, "c"), cycle(3, "t")) is not None
    # a 5-cycle needs 3 colors, so a single undirected edge is not enough
    assert brute_homomorphism(cycle(5, "c"), cycle(2, "e")) is None


def test_certain_answer_follows_tbox_consequences():
    kb = KnowledgeBase(
        (ConceptInclusion(F, G),),
        ABox.make([ConceptAssertion(F, Constant("a"))]),
    )
    assert certain_answer(kb, [(G, Constant("a"))], [])
    assert not certain_answer(kb, [(H, Constant("a"))], [])


def test_certain_answer_never_promotes_anonymous_witnesses():
    """F [= exists S generates a witness, but S(a, b) is not certain for any b."""
    kb = KnowledgeBase(
        (ConceptInclusion(F, Exists(S)),),
        ABox.make([ConceptAssertion(F, Constant("a"))]),
    )
    assert not certain_answer(kb, [], [(S, Constant("a"), Constant("b"))])
    assert certain_answer(kb, [(Exists(S), Constant("a"))], [])


def test_certain_answer_from_inconsistency():
    kb = KnowledgeBase(
        (ConceptInclusion(F, G, negated_rhs=True),),
        ABox.make([ConceptAssertion(F, Constant("a")), ConceptAssertion(G, Constant("a"))]),
    )
    assert chase_inconsistent(kb)
    assert certain_answer(kb, [(H, Constant("c"))], [])


def test_chase_inconsistent_on_role_disjointness():
    kb = KnowledgeBase(
        (RoleInclusion(S, T, negated_rhs=True), RoleInclusion(S, T)),
        ABox.make([RoleAssertion(S, Constant("a"), Constant("b"))]),
    )
    assert chase_inconsistent(kb)


def test_naive_chase_grows_monotonically():
    kb = KnowledgeBase(
        (ConceptInclusion(F, Exists(S)), ConceptInclusion(Exists(S.inverse()), F)),
        ABox.make([ConceptAssertion(F, Constant("a"))]),
    )
    sizes = [len(naive_chase(kb, d).elements) for d in range(4)]
    assert sizes == sorted(sizes)
    assert sizes[0] < sizes[-1]
