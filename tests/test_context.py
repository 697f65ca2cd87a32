"""No cache outlives a call, the one-pass ABox closure matches the per-fact
definition and scales linearly, and the tables shared per distinct type on
the data path match their per-individual definitions."""

import inspect
import itertools
import random
import time

import pytest

from conftest import derives_assertion

import kbx.canonical
import kbx.exchange
import kbx.homomorphism
import kbx.reasoner
import kbx.representability
from kbx.canonical import (
    CanonicalStructure,
    build_vabox,
    closure_abox,
    combined_tbox,
    positive_part,
    truncation,
)
from kbx.homomorphism import live_images
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
    concept_over,
    role_over,
)
from kbx.reasoner import Reasoner

R, S, RP, SP = BasicRole("R"), BasicRole("S"), BasicRole("Rp"), BasicRole("Sp")
F, FP = Atomic("F"), Atomic("Fp")


@pytest.mark.parametrize(
    "module",
    [kbx.reasoner, kbx.representability, kbx.canonical, kbx.exchange, kbx.homomorphism],
)
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


P, Q, PP, QP = BasicRole("P"), BasicRole("Q"), BasicRole("Pp"), BasicRole("Qp")
A, B, AP, BP = Atomic("A"), Atomic("B"), Atomic("Ap"), Atomic("Bp")
_AXIOMS = (
    RoleInclusion(Q, P), RoleInclusion(Q, P.inverse()), RoleInclusion(P, Q, negated_rhs=True),
    ConceptInclusion(A, Exists(P)), ConceptInclusion(Exists(P.inverse()), B),
    ConceptInclusion(B, Exists(Q.inverse())), ConceptInclusion(Exists(Q), A),
    ConceptInclusion(A, B, negated_rhs=True),
)
_MAPPING = (
    RoleInclusion(P, PP), RoleInclusion(Q.inverse(), QP), ConceptInclusion(A, AP),
    ConceptInclusion(Exists(Q), BP),
)
_TARGET = Signature.make(concepts=["Ap", "Bp"], roles=["Pp", "Qp"])
_SMALLER = Signature.make(concepts=["Ap"], roles=["Qp"])


def _random_data(rng):
    """A TBox drawn from role inclusions, inverses and disjointness, and an
    ABox over constants and nulls with atomic, existential and role facts,
    many terms sharing an asserted shape."""
    tbox = combined_tbox(rng.sample(_AXIOMS, rng.randint(1, 6)), _MAPPING)
    terms = [Constant(f"c{i}") for i in range(rng.randint(2, 7))]
    terms += [Null(f"x{i}") for i in range(rng.randint(0, 3))]
    facts = []
    for t in terms:
        facts += [ConceptAssertion(rng.choice((A, B, Exists(P), Exists(Q.inverse()))), t)
                  for _ in range(rng.randint(0, 2))]
    for _ in range(rng.randint(1, 2 * len(terms))):
        facts.append(RoleAssertion(rng.choice((P, Q, P.inverse())), *rng.sample(terms, 2)))
    return tbox, ABox.make(facts)


def _asserted(abox, t):
    """The basic concepts asserted of ``t`` (its role facts included)."""
    out = set()
    for a in abox.assertions:
        if isinstance(a, ConceptAssertion) and a.term == t:
            out.add(a.concept)
        elif isinstance(a, RoleAssertion):
            out |= {Exists(a.role)} if a.first == t else set()
            out |= {Exists(a.role.inverse())} if a.second == t else set()
    return out


def _asserted_roles(abox, t1, t2):
    """The basic roles asserted from ``t1`` to ``t2``, in either direction."""
    return {a.role if (a.first, a.second) == (t1, t2) else a.role.inverse()
            for a in abox.assertions if isinstance(a, RoleAssertion)
            and (a.first, a.second) in ((t1, t2), (t2, t1))}


def _shared(table: dict, key) -> bool:
    """Entries of ``table`` whose keys have equal ``key`` hold one object."""
    first: dict = {}
    return all(first.setdefault(key(k), v) is v for k, v in table.items())


def test_shared_tables_match_their_per_individual_definitions():
    rng = random.Random(43)
    need_checked = 0
    for _ in range(300):
        tbox, abox = _random_data(rng)
        ctx = Reasoner(tbox)
        terms = abox.all_terms()
        types, roles = ctx.term_types(abox), ctx.pair_roles(abox)
        assert _shared(types, lambda t: frozenset(_asserted(abox, t)))
        assert _shared(roles, lambda pair: frozenset(_asserted_roles(abox, *pair)))
        assert types == {t: frozenset().union(*map(ctx.sup, _asserted(abox, t))) for t in terms}
        assert roles == {
            (t1, t2): frozenset().union(*map(ctx.sup, asserted))
            for t1 in terms for t2 in terms if (asserted := _asserted_roles(abox, t1, t2))
        }

        c = CanonicalStructure(KnowledgeBase(tbox, abox), ctx)
        for t in terms:
            satisfied = set().union(*(rs for (t1, _), rs in roles.items() if t1 == t))
            cands = {b.role for b in types[t] if isinstance(b, Exists)}
            reps = {ctx.rep_of(r) for r in ctx.minimal_roles(cands) if r not in satisfied}
            assert c.gen[t] == tuple(sorted(reps, key=str)), t
        state_types, edges = c.over(_TARGET)
        assert _shared(state_types, c.state_type)
        assert state_types == {
            s: frozenset(b for b in c.state_type(s) if concept_over(b, _TARGET)) for s in c.gen
        }
        assert edges == {rep: c.edge_roles(rep, _TARGET) for rep in c.classes}

        closed = closure_abox(KnowledgeBase(tbox, abox), (), _TARGET, ctx)
        f = build_vabox(ABox.make([*abox.assertions, *closed.assertions]))
        ttype = {e: {Atomic(n) for n, ext in f.concept_ext.items() if e in ext}
                 for e in f.elements}
        rtype: dict = {}
        for n, ext in f.role_ext.items():
            for e1, e2 in ext:
                rtype.setdefault((e1, e2), set()).add(BasicRole(n))
                rtype.setdefault((e2, e1), set()).add(BasicRole(n, inverted=True))
        for (e1, _), rs in rtype.items():
            ttype[e1] |= {Exists(r) for r in rs}
        for sigma, e in itertools.product((None, _TARGET, _SMALLER), f.elements):
            want = {b for b in ttype[e] if not sigma or concept_over(b, sigma)}
            assert f.ttype(e, sigma) == want, e
            for e2 in f.elements:
                want = {r for r in rtype.get((e, e2), ()) if not sigma or role_over(r, sigma)}
                assert f.rtype(e, e2, sigma) == want, (e, e2)

        for d in range(4):
            images = live_images(c, truncation(c, d, _TARGET), _TARGET)
            if images is not None:
                over = {pair: frozenset(r for r in rs if role_over(r, _TARGET))
                        for pair, rs in roles.items()}
                assert images.need == {
                    t: {t2: over[t1, t2] for (t1, t2) in roles if t1 == t and over[t1, t2]}
                    for t in c.individuals
                }
                need_checked += 1
                break
    assert need_checked >= 100, need_checked


def test_equal_asserted_shapes_share_one_entailed_type():
    """The 2,000 terms of an R chain have three asserted shapes: the first,
    the inner ones and the last."""
    kb = _chain(2000)
    ctx = Reasoner(combined_tbox((RoleInclusion(R, RP),)))
    types = ctx.term_types(kb.abox)
    assert len(types) == 2000
    assert len({id(t) for t in types.values()}) <= 3
