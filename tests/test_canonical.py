"""Canonical-structure construction, materialization, and ABox closure."""

import random
from collections import Counter

import pytest

from conftest import derives_assertion, load_kb, load_mapping
from oracle import _interpretation_to_abox
from reductions import qbf_family, qbf_instance

from kbx.canonical import (
    FiniteInterpretation,
    InconsistentKB,
    build_canonical,
    build_vabox,
    closure_abox,
    combined_tbox,
    element_label,
    materialize,
    positive_part,
    truncation,
)
from kbx.exchange import _membership, _prepare
from kbx.homomorphism import embeds_finite_into_regular, embeds_regular_into_finite
from kbx.model import (
    ABox,
    Atomic,
    BasicRole,
    ConceptAssertion,
    ConceptInclusion,
    Constant,
    KnowledgeBase,
    Null,
    RoleAssertion,
    Signature,
)
from kbx.syntax import parse_kb, parse_mapping


def test_single_witness_generation():
    kb = parse_kb("kb { roles { S } tbox { F [= exists S; exists S- [= G; } abox { F(a); } }")
    fi = materialize(build_canonical(kb), 1)
    assert sorted(element_label(e) for e in fi.elements) == ["a", "a.w[S]"]
    assert {element_label(e) for e in fi.concept_ext["G"]} == {"a.w[S]"}
    assert {element_label(e) for e in fi.concept_ext["F"]} == {"a"}


def test_infinite_chain_grows_with_depth():
    kb = parse_kb(
        "kb { roles { S } tbox { F [= exists S; exists S- [= exists S; } abox { F(a); } }"
    )
    c = build_canonical(kb)
    for depth in range(4):
        assert len(materialize(c, depth).elements) == depth + 1


def test_no_witness_when_existential_already_satisfied():
    """An asserted S-edge satisfies F [= exists S, so no anonymous element appears."""
    kb = parse_kb("kb { roles { S } tbox { F [= exists S; } abox { F(a); S(a, b); } }")
    fi = materialize(build_canonical(kb), 3)
    assert sorted(element_label(e) for e in fi.elements) == ["a", "b"]


def test_build_canonical_rejects_inconsistent_kb():
    kb = parse_kb("kb { tbox { F [= not G; } abox { F(a); G(a); } }")
    with pytest.raises(InconsistentKB):
        build_canonical(kb)
    # the check can be disabled for callers that handle inconsistency themselves
    build_canonical(kb, check_consistency=False)


def test_derives_assertion_uses_the_chase():
    kb = parse_kb("kb { roles { S } tbox { F [= exists S; exists S- [= G; } abox { F(a); } }")
    assert derives_assertion(kb, ConceptAssertion(Atomic("F"), Constant("a")))
    assert not derives_assertion(kb, ConceptAssertion(Atomic("G"), Constant("a")))


def test_closure_abox_translates_named_facts():
    kb = parse_kb("kb { roles { S } tbox { F [= G; } abox { F(a); S(a, b); } }")
    m = parse_mapping(
        "mapping { source { F, G, role S } target { Fp, Gp, role Sp }"
        " tbox { F [= Fp; G [= Gp; S [= Sp; } }"
    )
    closure = closure_abox(kb, m.t12, m.sigma2)
    names = sorted(str(a) for a in closure.assertions)
    assert names == [
        "Fp(a)",
        "Gp(a)",
        "Sp(a, b)",
        "exists Sp (a)",
        "exists Sp- (b)",
    ]


def test_closure_abox_skips_anonymous_only_consequences():
    """Facts holding only at anonymous witnesses contribute nothing over constants."""
    kb = parse_kb("kb { roles { S } tbox { F [= exists S; exists S- [= G; } abox { F(a); } }")
    m = parse_mapping("mapping { source { F, G, role S } target { Gp } tbox { G [= Gp; } }")
    assert closure_abox(kb, m.t12, m.sigma2).assertions == ()


def test_positive_part_drops_negated_axioms():
    keep = ConceptInclusion(Atomic("F"), Atomic("H"))
    drop = ConceptInclusion(Atomic("F"), Atomic("G"), negated_rhs=True)
    assert positive_part((drop, keep)) == (keep,)


def test_combined_tbox_merges_and_deduplicates():
    ax = ConceptInclusion(Atomic("F"), Atomic("H"))
    assert combined_tbox((ax,), (ax,)) == (ax,)


def test_build_vabox_maps_nulls_to_plain_elements():
    abox = ABox.make(
        [ConceptAssertion(Atomic("Gp"), Null("n1")), ConceptAssertion(Atomic("Fp"), Constant("a"))]
    )
    fi = build_vabox(abox)
    assert len(fi.elements) == 2
    assert Constant("a") in fi.constant_elems


def _profile(f):
    """The multiset of element types, each with the multiset of roles towards
    its neighbours: the same for isomorphic structures."""
    return Counter(
        (f.ttype(e), frozenset(Counter(f.rtype(e, e2) for e2 in f.neighbours(e)).items()))
        for e in f.elements
    )


def test_truncation_matches_the_round_trip_through_an_abox():
    """The truncation over the target signature has the elements, facts and
    constants of the Herbrand structure of the ABox read off ``materialize``,
    with each anonymous path an int, and gets the same membership verdict."""
    for member in qbf_family():
        kb, mapping = qbf_instance(*member)
        sigma = mapping.sigma2
        u = _prepare(kb, mapping)[1]
        for d in range(5):
            t = truncation(u, d, sigma)
            abox = _interpretation_to_abox(materialize(u, d), sigma)
            v = build_vabox(abox)
            assert len(t.elements) == len(v.elements), (member, d)
            assert t.fact_count() == v.fact_count(), (member, d)
            assert _profile(t) == _profile(v), (member, d)
            assert t.constant_elems == v.constant_elems, (member, d)
            named = [e for e in t.elements if e in u.individuals]
            assert named == [e for e in v.elements if not isinstance(e, Null)], (member, d)
            assert all(isinstance(e, int) for e in t.elements if e not in named), (member, d)
            want = _membership(u, abox, sigma).answer == "yes"
            got = (
                embeds_regular_into_finite(u, t, sigma) is not None
                and embeds_finite_into_regular(t, u, sigma) is not None
            )
            assert got == want, (member, d)


def _fact(a):
    """The Herbrand-structure fact of an atomic concept or role assertion."""
    if isinstance(a, ConceptAssertion):
        return (a.concept.name, a.term)
    return (a.role.name, a.first, a.second)


def _assert_same_structure(got, want):
    """``got`` keeps every element; one that is not in ``want`` (it lost its
    last fact) must be fact-free there."""
    assert got.concept_ext == want.concept_ext
    assert got.role_ext == want.role_ext
    assert got.fact_count() == want.fact_count()
    assert want.constant_elems.items() <= got.constant_elems.items()
    for e in got.elements:
        if e not in want.elements:
            assert not got.ttype(e) and not got.neighbours(e), e
            continue
        assert got.ttype(e) == want.ttype(e), e
        assert set(got.neighbours(e)) == set(want.neighbours(e)), e
        for e2 in got.neighbours(e):
            assert got.rtype(e, e2) == want.rtype(e, e2), (e, e2)


def _check_drop(abox):
    """Each fact dropped alone and restored, then every fact dropped one after
    another and all restored in reverse, in place, against the Herbrand
    structure of the smaller ABox."""
    full = build_vabox(abox)
    for a in abox.assertions:
        rest = ABox.make(x for x in abox.assertions if x != a)
        full.drop(_fact(a))
        _assert_same_structure(full, build_vabox(rest))
        full.restore(_fact(a))
        _assert_same_structure(full, build_vabox(abox))
    remaining, dropped = list(abox.assertions), []
    for a in sorted(abox.assertions, key=str, reverse=True):
        full.drop(_fact(a))
        remaining.remove(a)
        dropped.append(a)
        _assert_same_structure(full, build_vabox(ABox.make(remaining)))
    for a in reversed(dropped):
        full.restore(_fact(a))
        remaining.append(a)
        _assert_same_structure(full, build_vabox(ABox.make(remaining)))


def test_drop_and_restore_match_the_smaller_qbf_candidates():
    for i in range(3):
        kb, mapping = load_kb(f"qbf/valid{i}_kb"), load_mapping(f"qbf/valid{i}_map")
        sigma = mapping.sigma2
        u = _prepare(kb, mapping)[1]
        candidate = next(
            cand
            for cand in (_interpretation_to_abox(materialize(u, d), sigma) for d in range(7))
            if _membership(u, cand, sigma).answer == "yes"
        )
        _check_drop(candidate)


def test_drop_and_restore_match_the_smaller_random_aboxes():
    rng = random.Random(7)
    terms = [Constant("a"), Constant("b"), Null("x"), Null("y")]
    lone = Constant("d")  # in exactly one fact, so dropping it empties ``d``
    for _ in range(200):
        facts = [
            ConceptAssertion(Atomic(n), t) for n in "AB" for t in terms if rng.random() < 0.4
        ]
        facts += [
            RoleAssertion(BasicRole(n), t1, t2)  # self-loops included
            for n in "PS" for t1 in terms for t2 in terms if rng.random() < 0.2
        ]
        facts.append(rng.choice((
            ConceptAssertion(Atomic("A"), lone),
            RoleAssertion(BasicRole("P"), lone, rng.choice(terms)),
            RoleAssertion(BasicRole("S"), rng.choice(terms), lone),
            RoleAssertion(BasicRole("P"), lone, lone),
        )))
        _check_drop(ABox.make(facts))


def test_drop_and_restore_leave_a_shared_type_alone():
    """``a`` and ``b`` share one type object and one role set object, and so
    do ``x`` and ``y``; dropping ``a``'s facts leaves ``b`` and ``y`` as they
    were, filtered or not, and restoring them brings ``a`` and ``x`` back."""
    a, b, x, y = Constant("a"), Constant("b"), Null("x"), Null("y")
    f = FiniteInterpretation(
        [a, b, x, y], [("A", a), ("A", b)], [("R", a, x), ("R", b, y)], {a: a, b: b}
    )
    assert f.ttype(a) is f.ttype(b) and f.ttype(x) is f.ttype(y)
    assert f.rtype(a, x) is f.rtype(b, y) and f.rtype(x, a) is f.rtype(y, b)
    sigmas = (None, Signature.make(concepts=["A"]), Signature.make(roles=["R"]))

    def seen(e, e2):
        return [(f.ttype(e, s), f.ttype(e2, s), f.rtype(e, e2, s), f.rtype(e2, e, s))
                for s in sigmas]

    before_a, before_b = seen(a, x), seen(b, y)
    for fact in (("A", a), ("R", a, x)):
        f.drop(fact)
        assert seen(b, y) == before_b, fact
    assert not f.ttype(a) and not f.ttype(x) and not f.rtype(a, x)
    for fact in (("R", a, x), ("A", a)):
        f.restore(fact)
        assert seen(b, y) == before_b, fact
    assert seen(a, x) == before_a
    assert f.concept_ext == {"A": {a, b}} and f.role_ext == {"R": {(a, x), (b, y)}}
