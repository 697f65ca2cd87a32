"""Release gate: one test per shipping criterion.

Each suite of verdicts is computed once and shared, so the certificate
re-checks in criterion 7 exercise exactly the verdicts asserted in criteria
1-4 rather than fresh runs.
"""

import itertools
import random
import time
from functools import lru_cache
from pathlib import Path

from conftest import (
    derives_concept,
    derives_role,
    load_kb,
    load_mapping,
    synthesize_representation,
)

from kbx.automata import (
    GOOD_MARK,
    ROOT_MARK,
    build_acan,
    build_afin,
    build_amod,
    dump_automaton,
    pad_kb,
)
from kbx.canonical import build_canonical, build_vabox, closure_abox, combined_tbox, materialize
from kbx.exchange import is_universal_solution, universal_solution_extended, universal_solution_plain
from kbx.homomorphism import verify_embedding_into_regular, verify_simulation
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
)
from oracle import (
    brute_homomorphism,
    certain_answer,
    chase_inconsistent,
    graph_reachable,
    naive_saturate,
    qbf_valid,
    three_colorable,
)
from kbx.reasoner import kb_consistent
from kbx.representability import is_ucq_representation, representation_exists
from kbx.syntax import parse_kb
from reductions import (
    _CONCEPTS,
    _ROLES,
    coloring_instance,
    qbf_family,
    qbf_instance,
    random_digraph,
    random_graph,
    random_kb,
    random_representable_instance,
    random_tbox,
    reach_membership,
    reach_nonemptiness,
)
from runs import check_runs, encode_canonical_tree

SEED = 20260823
CORPUS = Path(__file__).parent / "corpus"
QUERY_DEPTH = 6


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Shared suite records.


@lru_cache(maxsize=None)
def suite1():
    """The eight worked-example cases, with everything needed for re-checks."""
    t1_fg = load_kb("ex5_kb").tbox
    t2_fpgp = load_kb("ex5_t2").tbox
    records = []

    def usol(case, kb_name, map_name, cand_name, expected):
        kb1, mapping, cand = load_kb(kb_name), load_mapping(map_name), load_kb(cand_name)
        verdict, dt = timed(is_universal_solution, kb1, mapping, cand)
        records.append(
            dict(case=case, kind="usol", expected=expected, verdict=verdict,
                 kb1=kb1, mapping=mapping, witness=cand.abox, elapsed=dt)
        )

    def member(case, map_name, t1, t2, expected):
        mapping = load_mapping(map_name)
        verdict, dt = timed(is_ucq_representation, mapping, t1, t2)
        records.append(
            dict(case=case, kind="member", expected=expected, verdict=verdict,
                 mapping=mapping, t1=t1, t2=t2, elapsed=dt)
        )

    usol("1 plain candidate", "ex1_kb", "ex1_map", "ex1_cand", "yes")
    usol("2 disjoint source variant", "ex2_kb", "ex1_map", "ex1_cand", "no")

    kb3, map3 = load_kb("ex3_kb"), load_mapping("ex3_map")
    verdict, dt = timed(universal_solution_extended, kb3, map3)
    records.append(
        dict(case="3 extended solution", kind="usol-ext", expected="yes",
             verdict=verdict, kb1=kb3, mapping=map3, witness=verdict.witness,
             elapsed=dt)
    )
    plain, dt = timed(universal_solution_plain, kb3, map3)
    records.append(
        dict(case="3 plain impossible", kind="usol-plain", expected="no",
             verdict=plain, elapsed=dt)
    )

    usol("4 loop candidate", "ex4_kb", "ex4_map", "ex4_cand", "yes")
    member("5 simple hierarchy", "ex5_map", t1_fg, t2_fpgp, "yes")
    member("5 disjointness aside", "ex6_map", t1_fg, t2_fpgp, "yes")
    member("6 disjointness on data", "ex7_map", t1_fg, t2_fpgp, "no")
    member("7 role piece", "ex8_map", load_kb("ex8_kb").tbox, load_kb("ex8_t2").tbox, "no")

    map9, map10 = load_mapping("ex9_map"), load_mapping("ex10_map")
    verdict, dt = timed(representation_exists, map9, t1_fg)
    records.append(
        dict(case="8 double image", kind="exists", expected="no", verdict=verdict,
             mapping=map9, t1=t1_fg, elapsed=dt)
    )
    verdict, dt = timed(representation_exists, map10, t1_fg)
    records.append(
        dict(case="8 repaired mapping", kind="exists", expected="yes", verdict=verdict,
             mapping=map10, t1=t1_fg, elapsed=dt)
    )
    return records


@lru_cache(maxsize=None)
def suite2():
    """QBF reduction family: verdict vs brute-force validity."""
    records = []
    for quants, clauses in qbf_family():
        kb1, mapping = qbf_instance(quants, clauses)
        prefix = [(q, i + 1) for i, q in enumerate(quants)]
        valid = qbf_valid(prefix, clauses)
        cap = 2 * len(quants) + 4
        verdict, dt = timed(universal_solution_extended, kb1, mapping, depth_cap=cap)
        records.append(
            dict(quants=tuple(quants), clauses=tuple(map(tuple, clauses)), valid=valid,
                 verdict=verdict, kb1=kb1, mapping=mapping, elapsed=dt)
        )
    return records


@lru_cache(maxsize=None)
def suite3():
    """100 random digraphs through both reachability encodings."""
    rng = random.Random(SEED)
    records = []
    for _ in range(100):
        n, edges, src, dst = random_digraph(rng)
        reach = graph_reachable(edges, src, dst)
        m_ne, t1_ne = reach_nonemptiness(n, edges, src, dst)
        v_exists = representation_exists(m_ne, t1_ne)
        m_mem, t1_mem, t2_mem = reach_membership(n, edges, src, dst)
        v_member = is_ucq_representation(m_mem, t1_mem, t2_mem)
        records.append(
            dict(n=n, edges=edges, src=src, dst=dst, reach=reach,
                 exists_mapping=m_ne, exists_t1=t1_ne, exists_verdict=v_exists,
                 member_mapping=m_mem, member_t1=t1_mem, member_t2=t2_mem,
                 member_verdict=v_member)
        )
    return records


@lru_cache(maxsize=None)
def suite4():
    """50 random graphs through the 3-colorability encoding."""
    rng = random.Random(SEED)
    records = []
    for _ in range(50):
        vertices, edges = random_graph(rng)
        colorable = three_colorable(vertices, edges)
        kb1, mapping, kb2 = coloring_instance(vertices, edges)
        verdict = is_universal_solution(kb1, mapping, kb2)
        records.append(
            dict(vertices=vertices, edges=edges, colorable=colorable,
                 kb1=kb1, mapping=mapping, kb2=kb2, verdict=verdict)
        )
    return records


# ---------------------------------------------------------------------------
# Criteria 1-6: verdicts against oracles.


def test_criterion_1_worked_examples():
    records = suite1()
    assert len(records) == 11
    for rec in records:
        assert rec["verdict"].answer == rec["expected"], rec["case"]
        assert rec["elapsed"] < 1.0, rec["case"]

    by_case = {r["case"]: r for r in records}
    ext = by_case["3 extended solution"]["verdict"]
    assert ext.witness == ABox.make([ConceptAssertion(Atomic("Gp"), Null("n1"))])

    ce6 = by_case["6 disjointness on data"]["verdict"].counterexample
    assert sorted(str(a) for a in ce6.abox.assertions) == ["F(a)", "H(a)"]

    ce7 = by_case["7 role piece"]["verdict"].counterexample
    (piece,) = ce7.abox.assertions
    assert piece.role == BasicRole("T2")

    repaired = by_case["8 repaired mapping"]
    synthesized = synthesize_representation(repaired["mapping"], repaired["t1"])
    target = (ConceptInclusion(Atomic("Fp"), Atomic("Gp")),)
    # entailment-equivalent to Fp [= Gp, in both directions
    for axiom in target:
        assert derives_concept(synthesized, axiom.lhs, axiom.rhs)
    for axiom in synthesized:
        assert derives_concept(target, axiom.lhs, axiom.rhs)


def test_criterion_2_qbf_reduction():
    records = suite2()
    assert len(records) >= 20
    paper_phi = (
        ("exists", "forall", "exists"),
        (((1, True),), ((2, True), (3, False))),
    )
    assert any((r["quants"], r["clauses"]) == paper_phi for r in records)
    for rec in records:
        got_yes = rec["verdict"].answer == "yes"
        assert got_yes == rec["valid"], (rec["quants"], rec["clauses"], rec["verdict"].answer)
        assert rec["elapsed"] < 60.0, (rec["quants"], rec["clauses"], rec["elapsed"])
    phi = next(r for r in records if (r["quants"], r["clauses"]) == paper_phi)
    assert phi["valid"] and phi["verdict"].answer == "yes"


def test_criterion_3_reachability_reductions():
    records = suite3()
    assert len(records) == 100
    for i, rec in enumerate(records):
        assert (rec["exists_verdict"].answer == "yes") == rec["reach"], i
        assert (rec["member_verdict"].answer == "yes") == rec["reach"], i
    # both outcomes are exercised
    assert any(r["reach"] for r in records)
    assert any(not r["reach"] for r in records)


def test_criterion_4_three_colorability():
    records = suite4()
    assert len(records) == 50
    for i, rec in enumerate(records):
        assert (rec["verdict"].answer == "yes") == rec["colorable"], i
    assert any(r["colorable"] for r in records)
    assert any(not r["colorable"] for r in records)


def test_criterion_5_closure_oracle_equivalence():
    concepts = [Atomic(n) for n in _CONCEPTS] + [
        Exists(BasicRole(r, inv)) for r in _ROLES for inv in (False, True)
    ]
    roles = [BasicRole(r, inv) for r in _ROLES for inv in (False, True)]
    rng = random.Random(SEED)
    for i in range(200):
        tbox = random_tbox(rng)
        sat = naive_saturate(tbox)
        for x, y in itertools.product(concepts, concepts):
            assert derives_concept(tbox, x, y) == sat.entails_concept(x, y), (i, x, y)
        for x, y in itertools.product(roles, roles):
            assert derives_role(tbox, x, y) == sat.entails_role(x, y), (i, x, y)
        kb = KnowledgeBase(tbox, random_kb(rng).abox)
        assert kb_consistent(kb) == (not chase_inconsistent(kb)), (i, kb)


def test_criterion_6_synthesis_round_trip():
    rng = random.Random(SEED)
    found = 0
    while found < 100:
        mapping, t1 = random_representable_instance(rng)
        if representation_exists(mapping, t1).answer != "yes":
            continue
        found += 1
        synthesized = synthesize_representation(mapping, t1)
        assert synthesized is not None, (mapping, t1)
        check = is_ucq_representation(mapping, t1, synthesized)
        assert check.answer == "yes", (mapping, t1, synthesized, check.reason)


# ---------------------------------------------------------------------------
# Criterion 7: independent certificate verification.


def recheck_solution_certificate(kb1, mapping, witness, certificate):
    table, h = certificate
    u = build_canonical(
        KnowledgeBase(combined_tbox(kb1.tbox, mapping.t12), kb1.abox),
        check_consistency=False,
    )
    v = build_vabox(witness)
    assert verify_simulation(u, v, table, mapping.sigma2)
    assert verify_embedding_into_regular(v, u, h, mapping.sigma2)


def membership_sides(mapping, t1, t2, ce):
    """Evaluate the counterexample query on both sides of the representation
    equation with the bounded certain-answer oracle."""
    lhs = certain_answer(
        KnowledgeBase(combined_tbox(t1, mapping.t12), ce.abox),
        ce.query.concept_atoms, ce.query.role_atoms, depth=QUERY_DEPTH,
    )
    translated = closure_abox(KnowledgeBase((), ce.abox), mapping.t12, mapping.sigma2)
    rhs = certain_answer(
        KnowledgeBase(t2, translated),
        ce.query.concept_atoms, ce.query.role_atoms, depth=QUERY_DEPTH,
    )
    return lhs, rhs


def membership_probes_agree(mapping, t1, t2):
    """Spot-check the representation equation on single-fact data sets."""
    a = Constant("probe")
    for name in sorted(mapping.sigma1.concepts):
        data = ABox.make([ConceptAssertion(Atomic(name), a)])
        if not kb_consistent(KnowledgeBase(combined_tbox(t1, mapping.t12), data)):
            continue
        translated = closure_abox(KnowledgeBase((), data), mapping.t12, mapping.sigma2)
        for target in sorted(mapping.sigma2.concepts):
            query = [(Atomic(target), a)]
            lhs = certain_answer(
                KnowledgeBase(combined_tbox(t1, mapping.t12), data),
                query, [], depth=QUERY_DEPTH,
            )
            rhs = certain_answer(
                KnowledgeBase(t2, translated), query, [], depth=QUERY_DEPTH
            )
            if lhs != rhs:
                return False, (name, target, lhs, rhs)
    return True, None


def test_criterion_7_certificates():
    # solution-style yes verdicts: re-verify the (simulation, embedding) pair
    for rec in suite1():
        if rec["kind"] in ("usol", "usol-ext") and rec["verdict"].answer == "yes":
            recheck_solution_certificate(
                rec["kb1"], rec["mapping"], rec["witness"], rec["verdict"].certificate
            )
    for rec in suite2():
        if rec["verdict"].answer == "yes":
            recheck_solution_certificate(
                rec["kb1"], rec["mapping"], rec["verdict"].witness,
                rec["verdict"].certificate,
            )
    for rec in suite4():
        if rec["verdict"].answer == "yes":
            recheck_solution_certificate(
                rec["kb1"], rec["mapping"], rec["kb2"].abox, rec["verdict"].certificate
            )
            # cross-check with the exhaustive searcher on the finite structures
            u = build_canonical(
                KnowledgeBase(
                    combined_tbox(rec["kb1"].tbox, rec["mapping"].t12),
                    rec["kb1"].abox,
                ),
                check_consistency=False,
            )
            folded = brute_homomorphism(
                build_vabox(rec["kb2"].abox), materialize(u, 0), rec["mapping"].sigma2
            )
            assert folded is not None, rec["vertices"]

    # representation yes verdicts: round-trip and probe-query agreement
    for rec in suite1():
        if rec["kind"] == "member" and rec["verdict"].answer == "yes":
            agreed, detail = membership_probes_agree(rec["mapping"], rec["t1"], rec["t2"])
            assert agreed, (rec["case"], detail)
        if rec["kind"] == "exists" and rec["verdict"].answer == "yes":
            back = is_ucq_representation(rec["mapping"], rec["t1"], rec["verdict"].tbox)
            assert back.answer == "yes", rec["case"]
    for rec in suite3():
        if rec["exists_verdict"].answer == "yes":
            back = is_ucq_representation(
                rec["exists_mapping"], rec["exists_t1"], rec["exists_verdict"].tbox
            )
            assert back.answer == "yes"
        if rec["member_verdict"].answer == "yes":
            agreed, detail = membership_probes_agree(
                rec["member_mapping"], rec["member_t1"], rec["member_t2"]
            )
            assert agreed, detail

    # membership no verdicts: the counterexample separates the two sides
    no_records = [
        (rec["mapping"], rec["t1"], rec["t2"], rec["verdict"].counterexample)
        for rec in suite1()
        if rec["kind"] == "member" and rec["verdict"].answer == "no"
    ] + [
        (rec["member_mapping"], rec["member_t1"], rec["member_t2"],
         rec["member_verdict"].counterexample)
        for rec in suite3()
        if rec["member_verdict"].answer == "no"
    ]
    assert no_records
    for mapping, t1, t2, ce in no_records:
        assert ce is not None
        lhs, rhs = membership_sides(mapping, t1, t2, ce)
        assert lhs != rhs, (ce.abox, str(ce.query))


# ---------------------------------------------------------------------------
# Criterion 8: automata fidelity on the corpus.


def corpus_kbs():
    for path in sorted(CORPUS.glob("*.kbx")):
        text = path.read_text()
        if not text.lstrip().startswith("mapping"):
            yield path.stem, parse_kb(text)


def test_criterion_8_automata_fidelity(capsys):
    depth = 3
    bound = 8 * depth + 16

    for name, kb in corpus_kbs():
        padded, _ = pad_kb(kb)
        tree = encode_canonical_tree(padded, depth)
        acan = build_acan(kb)
        assert check_runs(acan, tree, bound) == "accepts", name

        corruptions = []
        corruptions.append(tree.relabel((), tree.label(()) - {ROOT_MARK}))
        ind_node = next(
            n for n in tree.nodes() if any(s.startswith("ind:") for s in tree.label(n))
        )
        ind_sym = next(s for s in sorted(tree.label(ind_node)) if s.startswith("ind:"))
        corruptions.append(tree.relabel(ind_node, tree.label(ind_node) - {ind_sym}))
        present = sorted(s for s in tree.label(ind_node) if s.startswith("con:"))
        sym = present[0] if present else sorted(
            s for s in acan.alphabet if s.startswith("con:")
        )[0]
        label = tree.label(ind_node)
        corruptions.append(
            tree.relabel(ind_node, label - {sym} if sym in label else label | {sym})
        )
        role_nodes = [
            n for n in tree.nodes()
            if len(n) >= 2 and any(s.startswith("rol:") for s in tree.label(n))
        ]
        if role_nodes:
            node = role_nodes[0]
            rsym = next(s for s in sorted(tree.label(node)) if s.startswith("rol:"))
            corruptions.append(tree.relabel(node, tree.label(node) - {rsym}))
        for i, bad in enumerate(corruptions):
            assert check_runs(acan, bad, bound) == "rejects", (name, i)

        # dumps are stable across independent builds
        assert dump_automaton(acan) == dump_automaton(build_acan(kb)), name
        assert dump_automaton(build_amod(kb)) == dump_automaton(build_amod(kb)), name
        assert dump_automaton(build_afin(kb)) == dump_automaton(build_afin(kb)), name

    # decorated solution-witness trees: the candidate ABoxes of the yes cases
    for name in ("ex1_cand", "ex3_cand", "ex4_cand"):
        kb = parse_kb((CORPUS / f"{name}.kbx").read_text())
        padded, _ = pad_kb(kb)
        good = encode_canonical_tree(padded, depth, good=True)
        amod, afin = build_amod(kb), build_afin(kb)
        assert check_runs(amod, good, bound) == "accepts", name
        assert check_runs(afin, good, bound) == "accepts", name

        unroot = good.relabel((), good.label(()) - {GOOD_MARK})
        assert check_runs(amod, unroot, bound) == "rejects", name
        assert check_runs(afin, unroot, bound) == "rejects", name
        marked = next(
            n for n in good.nodes()
            if GOOD_MARK in good.label(n)
            and any(s.startswith("ind:") for s in good.label(n))
        )
        unmarked = good.relabel(marked, good.label(marked) - {GOOD_MARK})
        assert check_runs(amod, unmarked, bound) == "rejects", name
        deep = max(good.nodes(), key=len)
        overmarked = good.relabel(deep, good.label(deep) | {GOOD_MARK})
        assert check_runs(afin, overmarked, bound) == "rejects", name

    # the command-line dump is byte-stable
    from kbx import cli

    assert cli.run(["automata", "dump", "--kb", str(CORPUS / "ex1_kb.kbx"), "--json"]) == 0
    first = capsys.readouterr().out
    assert cli.run(["automata", "dump", "--kb", str(CORPUS / "ex1_kb.kbx"), "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
