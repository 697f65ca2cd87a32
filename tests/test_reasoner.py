"""Derivation and consistency checks against small hand-built TBoxes."""

import itertools
import random

import pytest

from conftest import derives_concept, derives_role
from oracle import naive_saturate
from reductions import random_tbox

from kbx import reasoner

from kbx.model import (
    ABox,
    Atomic,
    BasicRole,
    ConceptAssertion,
    ConceptInclusion,
    Constant,
    Exists,
    KnowledgeBase,
    Null,
    RoleAssertion,
    RoleInclusion,
    Signature,
    all_basic_concepts,
    all_basic_roles,
)
from kbx.reasoner import Reasoner, kb_consistent, tbox_trivial

F, G, H = Atomic("F"), Atomic("G"), Atomic("H")
S, T = BasicRole("S"), BasicRole("T")


def test_derives_concept_is_reflexive_and_transitive():
    tbox = (ConceptInclusion(F, G), ConceptInclusion(G, H))
    assert derives_concept(tbox, F, F)
    assert derives_concept(tbox, F, H)
    assert not derives_concept(tbox, H, F)


def test_role_inclusions_project_onto_existentials():
    """S [= T lifts to exists S [= exists T and exists S- [= exists T-."""
    tbox = (RoleInclusion(S, T),)
    assert derives_role(tbox, S, T)
    assert derives_role(tbox, S.inverse(), T.inverse())
    assert derives_concept(tbox, Exists(S), Exists(T))
    assert derives_concept(tbox, Exists(S.inverse()), Exists(T.inverse()))
    assert not derives_concept(tbox, Exists(S), Exists(T.inverse()))


def test_derivation_through_mixed_chains():
    tbox = (
        ConceptInclusion(F, Exists(S)),
        RoleInclusion(S, T),
        ConceptInclusion(Exists(T), G),
    )
    assert derives_concept(tbox, F, G)


def test_inverse_role_inclusion_closes_both_directions():
    tbox = (RoleInclusion(S, T.inverse()),)
    assert derives_role(tbox, S, T.inverse())
    assert derives_role(tbox, S.inverse(), T)
    assert not derives_role(tbox, S, T)


def test_kb_consistent_detects_concept_clash():
    tbox = (ConceptInclusion(F, G, negated_rhs=True),)
    abox = ABox.make(
        [ConceptAssertion(F, Constant("a")), ConceptAssertion(G, Constant("a"))]
    )
    assert not kb_consistent(KnowledgeBase(tbox, abox))
    split = ABox.make(
        [ConceptAssertion(F, Constant("a")), ConceptAssertion(G, Constant("b"))]
    )
    assert kb_consistent(KnowledgeBase(tbox, split))


def test_kb_consistent_follows_derivation_to_a_clash():
    """F(a) plus F [= exists S, exists S [= not F is fine, but S disjoint S- on a
    symmetric edge is not."""
    tbox = (
        ConceptInclusion(F, Exists(S)),
        ConceptInclusion(Exists(S), G, negated_rhs=True),
    )
    abox = ABox.make([ConceptAssertion(F, Constant("a")), ConceptAssertion(G, Constant("a"))])
    assert not kb_consistent(KnowledgeBase(tbox, abox))

    role_tbox = (RoleInclusion(S, S.inverse(), negated_rhs=True),)
    loop = ABox.make([RoleAssertion(S, Constant("a"), Constant("a"))])
    assert not kb_consistent(KnowledgeBase(role_tbox, loop))


def test_nulls_participate_in_clashes():
    tbox = (ConceptInclusion(F, G, negated_rhs=True),)
    abox = ABox.make(
        [ConceptAssertion(F, Null("n")), ConceptAssertion(G, Null("n"))]
    )
    assert not kb_consistent(KnowledgeBase(tbox, abox))


def test_consistent_kb_with_existentials():
    kb = KnowledgeBase(
        (ConceptInclusion(F, Exists(S)), ConceptInclusion(Exists(S.inverse()), Exists(S))),
        ABox.make([ConceptAssertion(F, Constant("a"))]),
    )
    assert kb_consistent(kb)


def test_a_tbox_without_clash_pairs_answers_consistent_without_a_chase(monkeypatch):
    """No disjointness, no clash: neither check chases a closure."""
    def chase(*args):
        raise AssertionError("chased a TBox without clash pairs")

    monkeypatch.setattr(Reasoner, "_chase_consistent", chase)
    ctx = Reasoner(
        (ConceptInclusion(F, Exists(S)), RoleInclusion(S, T), ConceptInclusion(Exists(T), G))
    )
    assert ctx.pair_consistent(F, G) and ctx.pair_consistent(S, T.inverse())
    a, b = Constant("a"), Constant("b")
    abox = ABox.make(
        [ConceptAssertion(F, a), ConceptAssertion(H, a), RoleAssertion(S, a, b), RoleAssertion(T, a, b)]
    )
    assert ctx.consistent(abox)


def test_sub_is_the_reverse_of_sup_and_matches_saturation():
    """y derives x exactly when x is in y's closure, whichever closure a
    context is asked for first, and both agree with blind saturation."""
    sig = Signature.make("ABC", "RST")
    kinds = [
        (all_basic_concepts(sig), "entails_concept"),
        (all_basic_roles(sig), "entails_role"),
    ]
    rng = random.Random(22)
    for i in range(200):
        tbox = random_tbox(rng)
        sat = naive_saturate(tbox)
        sub_first, sup_first = Reasoner(tbox), Reasoner(tbox)
        for terms, _ in kinds:
            for x in terms:
                sub_first.sub(x)
                sup_first.sup(x)
        for terms, entails in kinds:
            for x, y in itertools.product(terms, repeat=2):
                below = y in sub_first.sub(x)
                assert below == (x in sub_first.sup(y)) == getattr(sat, entails)(y, x), (i, x, y)
                assert (x in sup_first.sup(y)) == (y in sup_first.sub(x)) == below, (i, x, y)


def test_a_tbox_without_clash_pairs_is_consistent_without_grouping_facts(monkeypatch):
    """Without a clash pair the ABox's facts are never grouped by term."""
    def group(abox):
        raise AssertionError("grouped the facts of a TBox without clash pairs")

    monkeypatch.setattr(reasoner, "_asserted_concepts", group)
    monkeypatch.setattr(reasoner, "_asserted_roles", group)
    ctx = Reasoner((ConceptInclusion(F, Exists(S)), RoleInclusion(S, T.inverse())))
    a, b = Constant("a"), Constant("b")
    abox = ABox.make(
        [ConceptAssertion(F, a), ConceptAssertion(G, b), RoleAssertion(S, a, b),
         RoleAssertion(T, b, a)]
    )
    assert ctx.consistent(abox)


@pytest.mark.parametrize(
    "tbox, trivial",
    [
        ((), True),
        ((ConceptInclusion(F, F),), True),
        ((ConceptInclusion(F, G),), False),
        ((RoleInclusion(S, S),), True),
    ],
)
def test_tbox_trivial(tbox, trivial):
    assert tbox_trivial(tbox) is trivial
