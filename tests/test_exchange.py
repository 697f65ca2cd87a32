"""Universal-solution checking and construction on the worked examples."""

import contextlib
import gc
import hashlib
import io
import json
import random
import time
from collections import Counter

from conftest import load_kb, load_mapping
from oracle import (
    _interpretation_to_abox,
    naive_minimize_witness,
    naive_simulation,
    three_colorable_fc,
)
from reductions import (
    coloring_instance,
    qbf_family,
    qbf_instance,
    random_positivity_instance,
    random_sparse_graph,
    small_graphs,
)

from kbx import cli, exchange
from kbx.canonical import (
    InconsistentKB,
    _unfold,
    build_canonical,
    build_vabox,
    closure_abox,
    combined_tbox,
    materialize,
    truncation,
)
from kbx.exchange import (
    SolutionVerdict,
    _membership,
    _minimize_witness,
    _positive,
    _prepare,
    is_sigma2_positive,
    is_universal_solution,
    universal_solution_extended,
    universal_solution_plain,
    verify_solution,
)
from kbx.homomorphism import (
    embeds_finite_into_regular,
    embeds_regular_into_finite,
    verify_embedding_into_regular,
    verify_simulation,
)
from kbx.model import (
    ABox,
    Atomic,
    BasicRole,
    ConceptAssertion,
    Constant,
    KnowledgeBase,
    Mapping,
    Null,
    RoleAssertion,
    RoleInclusion,
    Signature,
)
from kbx.syntax import parse_kb, parse_mapping, serialize


def test_plain_candidate_is_universal_solution():
    verdict = is_universal_solution(load_kb("ex1_kb"), load_mapping("ex1_map"), load_kb("ex1_cand"))
    assert verdict.answer == "yes"
    assert verdict.certificate is not None


def test_disjointness_in_source_blocks_solutions():
    """Adding F [= not G to the source TBox leaks negative information."""
    verdict = is_universal_solution(load_kb("ex2_kb"), load_mapping("ex1_map"), load_kb("ex1_cand"))
    assert verdict.answer == "no"
    positivity = is_sigma2_positive(load_kb("ex2_kb"), load_mapping("ex1_map"))
    assert not positivity
    assert positivity.clause == "a"


def _positivity(kb_text, source, target, t12):
    """The positivity verdict of a KB against a mapping given by its source
    and target signatures and its axioms."""
    mapping = parse_mapping(
        f"mapping {{ source {{ {source} }} target {{ {target} }} tbox {{ {t12} }} }}"
    )
    return is_sigma2_positive(parse_kb(kb_text), mapping)


def test_disjoint_roles_on_visible_pairs_fail_clause_b():
    """The two roles hold on different pairs of individuals."""
    positivity = _positivity(
        "kb { roles { P, S } tbox { P [= not S; } abox { P(a, b); S(b, c); } }",
        "role P, role S", "role Pp, role Sp", "P [= Pp; S [= Sp;",
    )
    assert (positivity.ok, positivity.clause) == (False, "b")
    assert positivity.detail == (
        "disjoint roles P and S both hold on pairs of target-visible elements"
    )


def test_disjoint_roles_towards_visible_children_fail_clause_c():
    """The class element of R has a P-child and an S-child, both visible."""
    positivity = _positivity(
        "kb { roles { R, P, S } tbox { A [= exists R; exists R- [= exists P; "
        "exists R- [= exists S; P [= not S; } abox { A(a); } }",
        "A, role R, role P, role S", "Cp, Dp", "exists P- [= Cp; exists S- [= Dp;",
    )
    assert (positivity.ok, positivity.clause) == (False, "c")
    assert positivity.detail == (
        "disjoint roles P and S leave a common element (w[R] under a) towards "
        "target-visible elements"
    )


def test_clause_c_reads_the_edge_up_to_a_visible_parent():
    """Three individuals generate the class of R; only the constants are
    visible.  Under `_x` the class element has only its P-child; under `a`
    it also has R- up to `a`, which P excludes, and `a` precedes `b`."""
    positivity = _positivity(
        "kb { roles { R, P } tbox { A [= exists R; exists R- [= exists P; P [= not R-; } "
        "abox { A(_x); A(a); A(b); } }",
        "A, role R, role P", "Cp", "exists P- [= Cp;",
    )
    assert (positivity.ok, positivity.clause) == (False, "c")
    assert positivity.detail == (
        "disjoint roles P and R- leave a common element (w[R] under a) towards "
        "target-visible elements"
    )


def test_realized_mapping_disjointness_fails_clause_d():
    """Once for a concept the source only derives, once for an asserted role."""
    concept = _positivity(
        "kb { tbox { A [= B; } abox { A(a); } }", "A, B", "Ap", "B [= not Ap;"
    )
    assert (concept.ok, concept.clause) == (False, "d")
    assert concept.detail == (
        "mapping disjointness on B fires: the concept is realized in the canonical model"
    )
    role = _positivity(
        "kb { roles { P } tbox { } abox { P(a, b); } }", "role P", "role Pp", "P [= not Pp;"
    )
    assert (role.ok, role.clause) == (False, "d")
    assert role.detail == (
        "mapping disjointness on role P fires: the role is realized in the canonical model"
    )


def test_positivity_verdicts_on_seeded_draws():
    """2,000 draws with source and mapping disjointness reach every clause;
    the histogram and the digest of every verdict were recorded before the
    check was rewritten around one table of edges."""
    rng = random.Random(20)
    verdicts = []
    for _ in range(2000):
        kb, mapping = random_positivity_instance(rng)
        try:
            verdicts.append(tuple(is_sigma2_positive(kb, mapping)))
        except InconsistentKB:
            verdicts.append("source inconsistent")
    histogram = Counter(v if isinstance(v, str) else v[1] or "pass" for v in verdicts)
    assert histogram == {
        "pass": 832, "source inconsistent": 607, "a": 56, "b": 197, "c": 74, "d": 234,
    }
    digest = hashlib.sha256("\n".join(map(repr, verdicts)).encode()).hexdigest()
    assert digest == "f40f6568fe35b7185329c7f7f0f91219b2902ede4aa56cd48e8ef8be4ae8cea3"


def test_positivity_is_linear_in_the_chain():
    """Every pair of a 5,000-individual chain is visible and carries R, and
    the source makes R and S disjoint."""
    r, s = BasicRole("R"), BasicRole("S")
    chain = ABox.make(
        [RoleAssertion(r, Constant(f"c{i}"), Constant(f"c{i + 1}")) for i in range(4999)]
    )
    kb = KnowledgeBase((RoleInclusion(r, s, True),), chain)
    mapping = Mapping(
        Signature.make((), ("R", "S")), Signature.make((), ("Rp", "Sp")),
        (RoleInclusion(r, BasicRole("Rp")), RoleInclusion(s, BasicRole("Sp"))),
    )
    prepared = _prepare(kb, mapping)
    gc.collect()  # a full collection owed by earlier tests is not the check's cost
    start = time.process_time()
    assert is_sigma2_positive(kb, mapping, prepared)
    assert time.process_time() - start < 0.1


def test_extended_solution_exists_where_plain_does_not():
    kb, mapping = load_kb("ex3_kb"), load_mapping("ex3_map")
    extended = universal_solution_extended(kb, mapping)
    assert extended.answer == "yes"
    assert extended.witness == ABox.make([ConceptAssertion(Atomic("Gp"), Null("n1"))])
    plain = universal_solution_plain(kb, mapping)
    assert plain.answer == "no"


def test_candidate_with_anonymous_witness_checks_out():
    verdict = is_universal_solution(
        load_kb("ex3_kb"), load_mapping("ex3_map"), load_kb("ex3_cand")
    )
    assert verdict.answer == "yes"


def test_loop_candidate_covers_infinite_source_chain():
    kb, mapping = load_kb("ex4_kb"), load_mapping("ex4_map")
    verdict = is_universal_solution(kb, mapping, load_kb("ex4_cand"))
    assert verdict.answer == "yes"
    plain = universal_solution_plain(kb, mapping)
    assert plain.answer == "yes"
    assert plain.witness is not None


def test_dropping_a_needed_fact_breaks_the_candidate():
    thin = KnowledgeBase(
        (), ABox.make([ConceptAssertion(Atomic("Fp"), Constant("a"))])
    )
    verdict = is_universal_solution(load_kb("ex1_kb"), load_mapping("ex1_map"), thin)
    assert verdict.answer == "no"
    assert verdict.counterexample


def test_colouring_encoding_matches_the_reference_on_small_graphs():
    for vertices, edges in small_graphs():
        verdict = is_universal_solution(*coloring_instance(vertices, edges))
        assert (verdict.answer == "yes") == three_colorable_fc(vertices, edges), edges


def test_colouring_encoding_decides_larger_graphs_quickly():
    """Four graphs each at 20, 30 and 40 vertices with 2.2 edges a vertex,
    near the colourability threshold, where backtracking without
    propagation took up to half a minute."""
    rng = random.Random(3)
    answers = []
    for n in (20, 30, 40):
        for _ in range(4):
            vertices, edges = random_sparse_graph(rng, n, 22 * n // 10)
            start = time.process_time()
            verdict = is_universal_solution(*coloring_instance(vertices, edges))
            assert time.process_time() - start < 0.5, (n, edges)
            answers.append(verdict.answer)
            assert (verdict.answer == "yes") == three_colorable_fc(vertices, edges), edges
    assert answers.count("yes") == 1, answers


def test_a_long_null_path_folds_onto_a_two_cycle():
    """A 3,000-null R-path over an R-cycle of two individuals is a universal
    solution; the search that places the path has no recursion limit."""
    a, b = Constant("a"), Constant("b")
    R, Rp = BasicRole("R"), BasicRole("Rp")
    kb1 = KnowledgeBase((), ABox.make([RoleAssertion(R, a, b), RoleAssertion(R, b, a)]))
    mapping = Mapping(
        Signature.make((), ["R"]), Signature.make((), ["Rp"]), (RoleInclusion(R, Rp),)
    )
    path = [Null(f"n{i}") for i in range(3000)]
    facts = [RoleAssertion(Rp, a, b), RoleAssertion(Rp, b, a)]
    facts += [RoleAssertion(Rp, x, y) for x, y in zip(path, path[1:])]
    verdict = is_universal_solution(kb1, mapping, KnowledgeBase((), ABox.make(facts)))
    assert verdict.answer == "yes"
    assert len(verdict.certificate[1]) == 3002


def test_yes_certificates_recheck_independently():
    """The (simulation, embedding) pair in a yes verdict passes the standalone verifiers."""
    kb, mapping = load_kb("ex3_kb"), load_mapping("ex3_map")
    verdict = universal_solution_extended(kb, mapping)
    table, h = verdict.certificate
    source = build_canonical(
        KnowledgeBase(combined_tbox(kb.tbox, mapping.t12), kb.abox),
        check_consistency=False,
    )
    witness = build_vabox(verdict.witness)
    assert verify_simulation(source, witness, table, mapping.sigma2)
    assert verify_embedding_into_regular(witness, source, h, mapping.sigma2)
    assert verify_solution(kb, mapping, verdict.witness, verdict.certificate).answer == "yes"


def _certified(kb, mapping, candidate):
    """The canonical structure, the candidate's Herbrand structure and the
    certificate of a yes of the membership check."""
    verdict = is_universal_solution(kb, mapping, candidate)
    assert verdict.answer == "yes"
    return _prepare(kb, mapping)[1], build_vabox(candidate.abox), verdict.certificate


def _dropped(kb, fact):
    """The Herbrand structure of ``kb``'s ABox less ``fact``, on the same
    elements: one that loses its last fact stays, fact-free."""
    v = build_vabox(kb.abox)
    v.drop(fact)
    return v


def test_verify_simulation_rejects_each_tampered_certificate():
    """A yes certificate, changed in one place, fails the verifier: each
    change breaks one clause and leaves the others holding."""
    a, b, n1 = Constant("a"), Constant("b"), Null("n1")
    cases = []  # (what, u, sigma, (v, table) of the yes, (v, table) tampered)

    # a and b each need a P-successor; the pair at a's goes, b's remains.
    two = parse_kb("kb { roles { P } tbox { A [= exists P; } abox { A(a); A(b); } }")
    mapping = load_mapping("plain/plain_role_map")
    closure = KnowledgeBase((), closure_abox(two, mapping.t12, mapping.sigma2))
    u, v, (table, _) = _certified(two, mapping, closure)
    (succ,) = v.neighbours(a)
    needed = (BasicRole("P"), succ)
    assert needed in table
    cases.append(("a class pair its parent needs is dropped",
                  u, mapping.sigma2, (v, table), (v, table - {needed})))

    twins = parse_kb("kb { tbox { } abox { F(a); F(b); } }")
    mapping = load_mapping("ex1_map")
    candidate = parse_kb("kb { tbox { } abox { Fp(a); Fp(b); } }")
    u, v, (table, _) = _certified(twins, mapping, candidate)
    assert table == {(a, a), (b, b)}
    cases.append(("an individual has two images",
                  u, mapping.sigma2, (v, table), (v, table | {(a, b)})))
    cases.append(("a constant leaves its own element",
                  u, mapping.sigma2, (v, table), (v, {(a, b), (b, b)})))
    cases.append(("a concept that an image needs is dropped",
                  u, mapping.sigma2, (v, table), (_dropped(candidate, ("Fp", a)), table)))

    mapping = load_mapping("ex3_map")
    u, v, (table, _) = _certified(load_kb("ex3_kb"), mapping, load_kb("ex3_cand"))
    assert table == {(a, None), (BasicRole("S"), n1)}
    cases.append(("a constant the witness lacks takes a real element",
                  u, mapping.sigma2, (v, table), (v, table - {(a, None)} | {(a, n1)})))

    # Every vertex of the triangle keeps its roles when one of its edges goes.
    kb, mapping, coloured = coloring_instance(2, [(0, 1)])
    u, v, (table, _) = _certified(kb, mapping, coloured)
    c0, c1 = sorted(u.individuals, key=str)[:2]
    cases.append(("a pair between individuals that a role needs is dropped",
                  u, mapping.sigma2, (v, table), (_dropped(coloured, ("Ep", c0, c1)), table)))

    for what, u, sigma, (v, table), (bad_v, bad_table) in cases:
        assert verify_simulation(u, v, table, sigma), what
        assert not verify_simulation(u, bad_v, bad_table, sigma), what


def test_verify_embedding_rejects_a_role_fact_sent_onto_a_non_edge():
    kb, mapping, coloured = coloring_instance(2, [(0, 1)])
    u, v, (_, h) = _certified(kb, mapping, coloured)
    assert verify_embedding_into_regular(v, u, h, mapping.sigma2)
    v0, v1 = Null("v0"), Null("v1")
    assert h[v0] != h[v1]
    assert not verify_embedding_into_regular(v, u, {**h, v1: h[v0]}, mapping.sigma2)


def test_verify_embedding_rejects_a_path_outside_the_model():
    """``a.w[S].w[S]`` ends in the class of ``n1``'s image, but ``w[S]``
    generates nothing, so no element of the model has that path."""
    u, v, (_, h) = _certified(load_kb("ex3_kb"), load_mapping("ex3_map"), load_kb("ex3_cand"))
    sigma = load_mapping("ex3_map").sigma2
    s = BasicRole("S")
    assert verify_embedding_into_regular(v, u, h, sigma)
    assert verify_embedding_into_regular(v, u, {Null("n1"): (Constant("a"), s)}, sigma)
    assert not verify_embedding_into_regular(v, u, {Null("n1"): (Constant("a"), s, s)}, sigma)


def test_verify_solution_names_the_verifier_that_rejects():
    kb, mapping = load_kb("ex3_kb"), load_mapping("ex3_map")
    verdict = universal_solution_extended(kb, mapping)
    table, h = verdict.certificate
    a, n1, s = Constant("a"), Null("n1"), BasicRole("S")
    assert verify_solution(kb, mapping, verdict.witness, (table, h)) == verdict
    bad_table = verify_solution(kb, mapping, verdict.witness, ({(a, n1), (s, n1)}, h))
    assert bad_table.answer == "no" and "verify_simulation" in bad_table.counterexample
    bad_h = verify_solution(kb, mapping, verdict.witness, (table, {n1: (a, s, s)}))
    assert bad_h.answer == "no"
    assert "verify_embedding_into_regular" in bad_h.counterexample


def test_extended_search_respects_depth_cap():
    kb, mapping = load_kb("ex3_kb"), load_mapping("ex3_map")
    capped = universal_solution_extended(kb, mapping, depth_cap=0)
    assert capped.answer in ("yes", "unknown")
    assert universal_solution_extended(kb, mapping, depth_cap=6).answer == "yes"


def test_witness_serializes_to_parseable_text():
    verdict = universal_solution_extended(load_kb("ex3_kb"), load_mapping("ex3_map"))
    text = serialize(KnowledgeBase((), verdict.witness))
    assert "Gp(_n1)" in text


def _minimize(u, abox, sigma) -> ABox:
    """``_minimize_witness`` on the Herbrand structure of the atomic
    ``abox``, each element written as itself, with the live images and the
    choice that the decider would hand it; ``abox`` when nothing maps in."""
    v = build_vabox(abox)
    images = exchange.live_images(u, v, sigma)
    choice = None if images is None else exchange.choose_images(u, v, images)
    if choice is None:
        return abox
    return _minimize_witness(u, v, images, choice, sigma, {e: e for e in v.elements})[0]


def test_one_pass_minimisation_matches_the_repeated_passes():
    for i in range(3):
        kb, mapping = load_kb(f"qbf/valid{i}_kb"), load_mapping(f"qbf/valid{i}_map")
        sigma = mapping.sigma2
        u = _prepare(kb, mapping)[1]
        candidate = next(
            cand
            for cand in (_interpretation_to_abox(materialize(u, d), sigma) for d in range(7))
            if _membership(u, cand, sigma).answer == "yes"
        )

        def both(abox):
            v = build_vabox(abox)
            return (
                naive_simulation(u, v, sigma) is not None
                and embeds_finite_into_regular(v, u, sigma) is not None
            )

        want = naive_minimize_witness(candidate, both)
        assert _minimize(u, candidate, sigma) == want
        assert universal_solution_extended(kb, mapping).witness == want


_SOURCE_AXIOMS = (
    "A [= exists P", "exists P- [= B", "B [= exists S", "exists S- [= A", "P [= S",
    "exists P- [= exists P", "exists S- [= exists P-", "B [= A", "exists P [= B",
)
_SOURCE_FACTS = ("A(a)", "B(b)", "P(a, b)", "S(b, a)", "A(_x)", "P(_x, a)", "S(b, _y)")
_MAPPING_AXIOMS = ("A [= Ap", "B [= Bp", "P [= Pp", "S [= Pp", "S [= Sp", "exists P- [= Ap")


def _random_instance(rng):
    kb = parse_kb(
        "kb { roles { P, S } tbox { "
        + " ".join(f"{ax};" for ax in rng.sample(_SOURCE_AXIOMS, rng.randint(1, 4)))
        + " } abox { "
        + " ".join(f"{a};" for a in rng.sample(_SOURCE_FACTS, rng.randint(1, 3)))
        + " } }"
    )
    mapping = parse_mapping(
        "mapping { source { A, B, role P, role S } target { Ap, Bp, role Pp, role Sp } "
        "tbox { "
        + " ".join(f"{ax};" for ax in rng.sample(_MAPPING_AXIOMS, rng.randint(2, 5)))
        + " } }"
    )
    return kb, mapping


def _doubled(abox: ABox) -> ABox:
    """The ABox together with a copy of it in which every null is renamed, so
    that each fact at a null has a twin that can stand in for it."""
    def twin(t):
        return Null(f"{t.name}c") if isinstance(t, Null) else t

    copies = [
        ConceptAssertion(a.concept, twin(a.term)) if isinstance(a, ConceptAssertion)
        else RoleAssertion(a.role, twin(a.first), twin(a.second))
        for a in abox.assertions
    ]
    return ABox.make([*abox.assertions, *copies])


def test_minimisation_matches_the_repeated_passes_on_random_candidates():
    rng = random.Random(12)
    candidates = shrunk = 0
    for _ in range(100):
        kb, mapping = _random_instance(rng)
        sigma = mapping.sigma2
        u = _prepare(kb, mapping)[1]

        def both(abox):
            v = build_vabox(abox)
            return (
                naive_simulation(u, v, sigma) is not None
                and embeds_finite_into_regular(v, u, sigma) is not None
            )

        for d in range(3):
            truncation = _interpretation_to_abox(materialize(u, d), sigma)
            if _membership(u, truncation, sigma).answer == "no":
                continue
            for candidate in (truncation, _doubled(truncation)):
                want = naive_minimize_witness(candidate, both)
                assert _minimize(u, candidate, sigma) == want, (kb, mapping, d)
                candidates += 1
                shrunk += want != candidate
    assert candidates >= 200 and shrunk >= 100, (candidates, shrunk)


def _null_data_instance(rng):
    """A source whose ABox joins 3 to 6 null individuals by role facts: a
    path in random directions, up to two more facts (self-loops included)
    and some concept facts, under up to three source axioms; its mapping
    carries both roles to the target, plus some of the other inclusions."""
    nulls = [f"_x{i}" for i in range(rng.randint(3, 6))]
    pairs = [(x, y) if rng.random() < 0.5 else (y, x) for x, y in zip(nulls, nulls[1:])]
    pairs += [(rng.choice(nulls), rng.choice(nulls)) for _ in range(rng.randint(0, 2))]
    facts = [f"{rng.choice('PS')}({x}, {y});" for x, y in pairs]
    facts += [f"{rng.choice('AB')}({x});" for x in nulls if rng.random() < 0.5]
    kb = parse_kb(
        "kb { roles { P, S } tbox { "
        + " ".join(f"{ax};" for ax in rng.sample(_SOURCE_AXIOMS, rng.randint(0, 3)))
        + " } abox { " + " ".join(facts) + " } }"
    )
    concepts = ("A [= Ap", "B [= Bp", "S [= Pp", "exists P- [= Ap")
    mapping = parse_mapping(
        "mapping { source { A, B, role P, role S } target { Ap, Bp, role Pp, role Sp } "
        "tbox { P [= Pp; S [= Sp; "
        + " ".join(f"{ax};" for ax in rng.sample(concepts, rng.randint(0, 3)))
        + " } }"
    )
    return kb, mapping


def test_minimisation_keeps_or_searches_again_for_the_choice_on_null_data(monkeypatch):
    """On data candidates whose null individuals are joined by role facts,
    alone and doubled, one-pass minimisation matches the repeated passes.
    Many trials keep the last choice of images without a search, and many
    find another choice after the last one broke."""
    refined, searched = [], []  # each trial's refinement; each search's outcome
    refine, choose = exchange._refine, exchange.choose_images

    def traced_refine(*args):
        refined.append(refine(*args))
        return refined[-1]

    def traced_choose(*args):
        choice = choose(*args)
        searched.append(choice is not None)
        return choice

    monkeypatch.setattr(exchange, "_refine", traced_refine)
    monkeypatch.setattr(exchange, "choose_images", traced_choose)
    rng = random.Random(24)
    candidates = 0
    for _ in range(40):
        kb, mapping = _null_data_instance(rng)
        sigma = mapping.sigma2
        u = _prepare(kb, mapping)[1]

        def both(abox):
            v = build_vabox(abox)
            return (
                naive_simulation(u, v, sigma) is not None
                and embeds_finite_into_regular(v, u, sigma) is not None
            )

        for d in range(2):
            truncation = _interpretation_to_abox(materialize(u, d), sigma)
            if _membership(u, truncation, sigma).answer == "no":
                continue
            for candidate in (truncation, _doubled(truncation)):
                want = naive_minimize_witness(candidate, both)
                assert _minimize(u, candidate, sigma) == want, (kb, mapping, d)
                candidates += 1
    # Each candidate's first choice is one search that no trial made.
    kept = sum(starved is None for starved in refined) - (len(searched) - candidates)
    found = searched.count(True) - candidates
    assert candidates >= 100 and kept >= 500 and found >= 25, (candidates, kept, found)


def test_plain_decision_is_the_membership_check_of_the_closure_abox():
    """A null-free solution exists exactly when the closure ABox is one; the
    draws carry no negation, so each source KB is consistent."""
    rng = random.Random(0)
    answers = {"yes": 0, "no": 0}
    for _ in range(300):
        kb, mapping = _random_instance(rng)
        sigma = mapping.sigma2
        closure = closure_abox(kb, mapping.t12, sigma)
        member = is_universal_solution(kb, mapping, KnowledgeBase((), closure))
        verdict = universal_solution_plain(kb, mapping)
        assert verdict.answer == member.answer, (kb, mapping)
        answers[verdict.answer] += 1
        if verdict.answer == "yes":
            assert verdict.witness == closure, (kb, mapping)
            table, h = verdict.certificate
            u = _prepare(kb, mapping)[1]
            v = build_vabox(closure)
            assert verify_simulation(u, v, table, sigma), (kb, mapping)
            assert verify_embedding_into_regular(v, u, h, sigma), (kb, mapping)
    assert answers["yes"] >= 200 and answers["no"] >= 50, answers


def _round_trip_extended(kb1, mapping, depth_cap):
    """The deepening loop that writes every truncation as an ABox and reads
    it back as a structure before checking it."""
    u, refusal = _positive(kb1, mapping)
    if refusal is not None:
        return refusal
    sigma = mapping.sigma2
    for d in range(depth_cap + 1):
        candidate = _interpretation_to_abox(materialize(u, d), sigma)
        if _membership(u, candidate, sigma).answer == "yes":
            return _membership(u, _minimize(u, candidate, sigma), sigma)
    return SolutionVerdict(
        "unknown", reason=f"depth cap {depth_cap} reached; last depth tried: {depth_cap}"
    )


def test_deepening_on_truncations_matches_the_round_trip():
    """Same answer, witness, certificate, counterexample and reason (verdicts
    compare field by field) on every QBF family member at cap 10 and on
    random draws at cap 4."""
    instances = [(qbf_instance(*member), 10) for member in qbf_family()]
    rng = random.Random(3)
    instances += [(_random_instance(rng), 4) for _ in range(300)]
    answers = Counter()
    for (kb, mapping), cap in instances:
        verdict = universal_solution_extended(kb, mapping, cap)
        assert verdict == _round_trip_extended(kb, mapping, cap), (kb, mapping)
        answers[verdict.answer] += 1
    assert answers["yes"] >= 200 and answers["unknown"] >= 30, answers


def test_the_handed_on_certificate_is_the_membership_check_of_the_witness(monkeypatch):
    """A yes's certificate, read off the minimiser's end table, is the one
    ``_membership`` gives its witness from scratch, and the witness is the
    round trip's: on every QBF family member at cap 10, on random draws at
    cap 4 and on null-data draws at cap 4.  Many of these yeses have an
    element or a constant that lost its last fact while the witness was
    minimised, so that the sink stands in for it."""
    sunk = []  # per minimisation: whether some element ended without a fact
    minimize = exchange._minimize_witness

    def traced_minimize(u, v, *rest):
        got = minimize(u, v, *rest)
        sunk.append(any(not v.ttype(e) for e in v.elements))
        return got

    monkeypatch.setattr(exchange, "_minimize_witness", traced_minimize)
    instances = [(qbf_instance(*member), 10) for member in qbf_family()]
    rng = random.Random(31)
    instances += [(_random_instance(rng), 4) for _ in range(300)]
    rng = random.Random(32)
    instances += [(_null_data_instance(rng), 4) for _ in range(60)]
    yes = 0
    for (kb, mapping), cap in instances:
        verdict = universal_solution_extended(kb, mapping, cap)
        if verdict.answer != "yes":
            continue
        yes += 1
        u = _prepare(kb, mapping)[1]
        fresh = _membership(u, verdict.witness, mapping.sigma2)
        assert verdict.certificate == fresh.certificate, (kb, mapping)
        assert verdict.witness == _round_trip_extended(kb, mapping, cap).witness, (kb, mapping)
    assert len(sunk) == yes >= 250 and sum(sunk) >= 50, (yes, len(sunk), sum(sunk))


def test_truncations_map_back_by_inclusion_and_the_probe_is_monotone():
    """The two facts the depth search rests on: every truncation T_d maps
    into the canonical model U by inclusion, and once U maps into T_d it
    maps into every deeper truncation.  The finite-to-regular search finds
    a way back as well up to depth 7; past it, on most family members, that
    search takes seconds per truncation, so the inclusion is checked alone."""
    instances = [(qbf_instance(*member), 10) for member in qbf_family()]
    rng = random.Random(4)
    instances += [(_random_instance(rng), 4) for _ in range(300)]
    flips = 0
    for (kb, mapping), cap in instances:
        sigma = mapping.sigma2
        u = _prepare(kb, mapping)[1]
        seen = []
        for d in range(cap + 1):
            t = truncation(u, d, sigma)
            paths = _unfold(u, d, sigma, lambda i, parent, state: (*(parent or ()), state))[0]
            inclusion = {e: paths[e] if isinstance(e, int) else (e,) for e in t.elements}
            assert verify_embedding_into_regular(t, u, inclusion, sigma), (kb, mapping, d)
            if d <= 7:
                h = embeds_finite_into_regular(t, u, sigma)
                assert h is not None and verify_embedding_into_regular(t, u, h, sigma), (kb, d)
            seen.append(embeds_regular_into_finite(u, t, sigma) is not None)
        assert seen == sorted(seen), (kb, mapping, seen)
        flips += seen[0] != seen[-1]
    assert flips >= 20, flips


def _chain_instance(k):
    """A source whose canonical model is one chain of k anonymous steps from
    ``a`` with its last element in ``Ak``, mapped onto ``Pp`` steps and
    ``Bp``: the least truncation the canonical model maps into has depth k."""
    steps = range(1, k + 1)
    kb = parse_kb(
        f"kb {{ roles {{ {', '.join(f'P{i}' for i in steps)} }} tbox {{ "
        + " ".join(f"A{i - 1} [= exists P{i}; exists P{i}- [= A{i};" for i in steps)
        + " } abox { A0(a); } }"
    )
    source = [f"A{i}" for i in range(k + 1)] + [f"role P{i}" for i in steps]
    mapping = parse_mapping(
        f"mapping {{ source {{ {', '.join(source)} }} target {{ Bp, role Pp }} tbox {{ "
        + " ".join(f"P{i} [= Pp;" for i in steps)
        + f" A{k} [= Bp; }} }}"
    )
    return kb, mapping


def test_depth_search_matches_the_round_trip_at_every_cap():
    """Every cap from 0 to 10 on every QBF family member, whose least passing
    depth is 7 or none, and on chains whose least passing depth is each of
    0 to 10, so that the search ends after each probe and bisection step."""
    instances = [qbf_instance(*member) for member in qbf_family()]
    instances += [_chain_instance(k) for k in range(11)]
    answers = Counter()
    for kb, mapping in instances:
        expected = None
        for cap in range(11):
            # The round trip returns at its first passing depth, so a yes
            # stays the same at every larger cap.
            if expected is None or expected.answer != "yes":
                expected = _round_trip_extended(kb, mapping, cap)
            verdict = universal_solution_extended(kb, mapping, cap)
            assert verdict == expected, (kb, mapping, cap)
            answers[verdict.answer] += 1
    assert answers == {"yes": 40 + 66, "unknown": 224 + 55}, answers


def test_the_depth_search_gallops_then_bisects(monkeypatch):
    """The depths probed, in order: doubling plus one up to the cap, then
    halving the gap between the last failing and first passing probe; and
    the truncation that the witness is read from is the least passing
    one."""
    probed, written = [], []
    made = []  # each truncation probed, with its depth
    minimize = exchange._minimize_witness

    def traced_truncation(u, d, sigma):
        probed.append(d)
        made.append((truncation(u, d, sigma), d))
        return made[-1][0]

    def traced_minimize(u, t, *rest):
        written.extend(d for probe, d in made if probe is t)
        return minimize(u, t, *rest)

    monkeypatch.setattr(exchange, "truncation", traced_truncation)
    monkeypatch.setattr(exchange, "_minimize_witness", traced_minimize)
    assert universal_solution_extended(*qbf_instance(*qbf_family()[2]), 40).answer == "unknown"
    assert (probed, written) == ([0, 1, 3, 7, 15, 31, 40], [])
    probed.clear()
    assert universal_solution_extended(*_chain_instance(5), 1000).answer == "yes"
    assert (probed, written) == ([0, 1, 3, 7, 5, 4], [5])
    for k in range(11):
        for cap in [*range(k, 11), 1000]:
            written.clear()
            made.clear()
            assert universal_solution_extended(*_chain_instance(k), cap).answer == "yes"
            assert written == [k], (k, cap)


def _ext_chain_cpu_per_individual(tmp_path, n):
    """CPU per individual of ``usol-exists-ext --depth-cap 4`` on a chain of
    ``n`` individuals in ``A`` joined by ``R``, under ``A [= exists S`` and
    a mapping onto ``Ap``, ``Rp`` and ``Sp``; the minimum of three runs, with
    the cyclic collector off while one is timed.  The witness keeps every
    fact of the depth-1 truncation, so each minimisation trial fails."""
    kb, mapping = tmp_path / f"chain{n}.kbx", tmp_path / "map.kbx"
    kb.write_text(
        "kb { roles { R, S } tbox { A [= exists S; } abox { "
        + " ".join(f"A(c{i});" for i in range(n))
        + " ".join(f" R(c{i}, c{i + 1});" for i in range(n - 1)) + " } }"
    )
    mapping.write_text(
        "mapping { source { A, role R, role S } target { Ap, role Rp, role Sp } "
        "tbox { R [= Rp; S [= Sp; A [= Ap; } }"
    )
    argv = ["usol-exists-ext", "--depth-cap", "4", "--kb", str(kb), "--mapping", str(mapping)]
    best = float("inf")
    for _ in range(3):
        out = io.StringIO()
        gc.collect()
        gc.disable()
        try:
            start = time.process_time()
            with contextlib.redirect_stdout(out):
                cli.run([*argv, "--json"])
            best = min(best, time.process_time() - start)
        finally:
            gc.enable()
        report = json.loads(out.getvalue())
        assert (report["answer"], report["recheck"]) == ("yes", "passed"), n
    return best / n


def test_usol_exists_ext_is_linear_in_the_individuals(tmp_path):
    """Per individual, the chain at 1,000 individuals takes within twice the
    CPU of the chain at 250 (a minimisation that copied its tables or
    searched every individual on each trial took four times as much)."""
    per_1000 = _ext_chain_cpu_per_individual(tmp_path, 1000)
    per_250 = _ext_chain_cpu_per_individual(tmp_path, 250)
    assert per_1000 <= 2 * per_250, (per_1000, per_250)
