"""No cache outlives a call, and the one-pass ABox closure matches the
per-fact definition and scales linearly."""

import inspect
import itertools
import time

import pytest

from conftest import derives_assertion

import kbx.reasoner
import kbx.representability
from kbx.canonical import closure_abox, combined_tbox, positive_part
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
)

R, S, RP, SP = BasicRole("R"), BasicRole("S"), BasicRole("Rp"), BasicRole("Sp")
F, FP = Atomic("F"), Atomic("Fp")


@pytest.mark.parametrize("module", [kbx.reasoner, kbx.representability])
def test_no_function_keeps_a_cache(module):
    cached = [
        name
        for name, fn in inspect.getmembers(module, callable)
        if hasattr(fn, "cache_info")
    ]
    assert cached == []


def _chain(n: int) -> KnowledgeBase:
    names = [Constant(f"a{i:04d}") for i in range(n)]
    return KnowledgeBase((), ABox.make(RoleAssertion(R, a, b) for a, b in zip(names, names[1:])))


def test_closure_abox_on_a_long_chain_is_fast():
    kb = _chain(2000)
    t12 = (RoleInclusion(R, RP),)
    sigma2 = Signature.make(roles=["Rp"])
    start = time.perf_counter()
    closed = closure_abox(kb, t12, sigma2)
    elapsed = time.perf_counter() - start
    roles = [a for a in closed.assertions if isinstance(a, RoleAssertion)]
    forward = [a for a in closed.assertions if isinstance(a, ConceptAssertion)
               and a.concept == Exists(RP)]
    backward = [a for a in closed.assertions if isinstance(a, ConceptAssertion)
                and a.concept == Exists(RP.inverse())]
    assert (len(closed.assertions), len(roles), len(forward), len(backward)) == (
        5997, 1999, 1999, 1999,
    )
    assert elapsed < 1.0, elapsed


def test_closure_abox_matches_the_per_fact_definition():
    t1 = (
        RoleInclusion(S, R.inverse()),
        ConceptInclusion(F, Exists(S)),
        ConceptInclusion(Exists(R), F),
        ConceptInclusion(F, Atomic("G"), negated_rhs=True),
    )
    t12 = (RoleInclusion(R, RP), RoleInclusion(S, SP), ConceptInclusion(F, FP))
    a, b, n = Constant("a"), Constant("b"), Null("n")
    abox = ABox.make([
        RoleAssertion(S, a, b), RoleAssertion(R, b, b), ConceptAssertion(F, n),
        ConceptAssertion(Exists(R.inverse()), a),
    ])
    kb1 = KnowledgeBase(t1, abox)
    sigma2 = Signature.make(concepts=["Fp"], roles=["Rp", "Sp"])
    closed = set(closure_abox(kb1, t12, sigma2).assertions)
    k = KnowledgeBase(positive_part(combined_tbox(t1, t12)), abox)
    terms = abox.all_terms()
    expected = {
        ConceptAssertion(c, t)
        for t in terms
        for c in all_basic_concepts(sigma2)
        if derives_assertion(k, ConceptAssertion(c, t))
    } | {
        RoleAssertion(BasicRole(p), t, u)
        for t, u in itertools.product(terms, terms)
        for p in sorted(sigma2.roles)
        if derives_assertion(k, RoleAssertion(BasicRole(p), t, u))
    }
    assert closed == expected
    assert RoleAssertion(RP, b, a) in closed and ConceptAssertion(FP, b) in closed
