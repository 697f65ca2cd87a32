"""Universal-solution decisions: positivity, non-emptiness, membership.

A target ABox is a universal solution when its Herbrand structure is
target-signature homomorphically equivalent to the canonical model of the
source KB joined with the mapping TBox.  Negative information cannot be
carried by an ABox, so every decision starts with the positivity check ruling
out disjointness pressure on the target side.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canonical import (
    CanonicalStructure,
    FiniteInterpretation,
    InconsistentKB,
    build_canonical,
    build_vabox,
    closure_abox,
    combined_tbox,
    element_label,
    materialize,
)
from .homomorphism import (
    embeds_finite_into_regular,
    embeds_regular_into_finite,
)
from .model import (
    ABox,
    Atomic,
    BasicConcept,
    BasicRole,
    ConceptAssertion,
    ConceptInclusion,
    Constant,
    Exists,
    KnowledgeBase,
    Mapping,
    Null,
    RoleAssertion,
)
from .reasoner import Reasoner, tbox_trivial


@dataclass(frozen=True)
class PositivityResult:
    ok: bool
    clause: str | None = None
    detail: str | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class SolutionVerdict:
    answer: str  # "yes" | "no" | "unknown"
    witness: ABox | None = None
    certificate: object = None
    counterexample: str | None = None


def _prepare(kb1: KnowledgeBase, mapping: Mapping) -> tuple[Reasoner, CanonicalStructure]:
    """The reasoning context of the source TBox, once the source KB is known
    to be consistent, and the canonical structure of source plus mapping."""
    source = Reasoner(kb1.tbox)
    if not source.consistent(kb1.abox):
        raise InconsistentKB("source knowledge base is inconsistent")
    joined = KnowledgeBase(combined_tbox(kb1.tbox, mapping.t12), kb1.abox)
    return source, build_canonical(joined, check_consistency=False)


def is_sigma2_positive(
    kb1: KnowledgeBase,
    mapping: Mapping,
    prepared: tuple[Reasoner, CanonicalStructure] | None = None,
) -> PositivityResult:
    """Check that no target-visible element pair activates source disjointness
    and no mapping disjointness is triggered at all (clauses a-d).

    ``prepared`` is what ``_prepare`` returns, for a decider that has already
    built it.
    """
    source, u = prepared if prepared is not None else _prepare(kb1, mapping)
    sigma2 = mapping.sigma2

    def in_target(state) -> bool:
        if isinstance(state, Constant):
            return True
        return bool(u.state_type(state, sigma2))

    # Concepts realized at some target-visible element.
    realized_target: set = set()
    realized_all: set = set()
    for t in u.individuals:
        realized_all |= u.individual_types[t]
        if in_target(t):
            realized_target |= u.individual_types[t]
    for rep in u.classes:
        realized_all |= u.class_types[rep]
        if in_target(rep):
            realized_target |= u.class_types[rep]

    for (b, c) in sorted(source.concept_clashes, key=str):
        if b in realized_target and c in realized_target:
            return PositivityResult(
                False, "a",
                f"disjoint concepts {b} and {c} are both realized at "
                "target-visible elements",
            )

    states = u.states()
    parent_edges = [
        (s, rep) for s in states for rep in u.gen[s]
    ]

    def pair_fully_visible(r: BasicRole) -> bool:
        for (t1_, t2_), roles in u.individual_roles.items():
            if r in roles and in_target(t1_) and in_target(t2_):
                return True
        for (s, rep) in parent_edges:
            if r in u.edge_roles(rep) and in_target(s) and in_target(rep):
                return True
        return False

    role_pairs = sorted(source.role_clashes, key=str)
    for (r, q) in role_pairs:
        if pair_fully_visible(r) and pair_fully_visible(q):
            return PositivityResult(
                False, "b",
                f"disjoint roles {r} and {q} both hold on pairs of "
                "target-visible elements",
            )

    # Outgoing roles with a target-visible other end, per possible center.
    centers: list = []
    for t in u.individuals:
        out: set = set()
        for (t1_, t2_), roles in u.individual_roles.items():
            if t1_ == t and in_target(t2_):
                out |= roles
        for rep in u.gen[t]:
            if in_target(rep):
                out |= u.edge_roles(rep)
        centers.append((str(t), out))
    for s in states:
        for rep in u.gen[s]:
            # Center is an anonymous element of class `rep` with parent
            # state `s`; successors are its children and the parent itself.
            out = set()
            for child in u.gen[rep]:
                if in_target(child):
                    out |= u.edge_roles(child)
            if in_target(s):
                out |= {r.inverse() for r in u.edge_roles(rep)}
            centers.append((f"w[{rep}] under {s}", out))
    for (r, q) in role_pairs:
        for (where, out) in centers:
            if r in out and q in out:
                return PositivityResult(
                    False, "c",
                    f"disjoint roles {r} and {q} leave a common element "
                    f"({where}) towards target-visible elements",
                )

    realized_roles: set = set()
    for roles in u.individual_roles.values():
        realized_roles |= roles
    for rep in u.classes:
        realized_roles |= u.edge_roles(rep)
    for ax in mapping.t12:
        if not ax.negated_rhs:
            continue
        if isinstance(ax, ConceptInclusion):
            if ax.lhs in realized_all:
                return PositivityResult(
                    False, "d",
                    f"mapping disjointness on {ax.lhs} fires: the concept "
                    "is realized in the canonical model",
                )
        else:
            if ax.lhs in realized_roles:
                return PositivityResult(
                    False, "d",
                    f"mapping disjointness on role {ax.lhs} fires: the role "
                    "is realized in the canonical model",
                )
    return PositivityResult(True)


def _model_search(source: Reasoner, kb1: KnowledgeBase, mapping: Mapping, a2: ABox):
    """Search a source model over the ABox individuals plus one extra element
    that satisfies the positive source TBox and keeps every mapped concept
    and role inside what the closure ABox can absorb."""
    t1 = kb1.tbox
    u_a2 = build_canonical(KnowledgeBase((), a2), check_consistency=False)
    extra = "*"
    dom = list(kb1.abox.all_terms()) + [extra]

    def abox_type(x) -> frozenset:
        if isinstance(x, str):
            return frozenset()
        return u_a2.individual_types.get(x, frozenset())

    def abox_roles(x, y) -> frozenset:
        if isinstance(x, str) or isinstance(y, str):
            return frozenset()
        return u_a2.individual_roles.get((x, y), frozenset())

    concept_bounds = []
    role_bounds = []
    for ax in mapping.t12:
        if ax.negated_rhs:
            continue
        if isinstance(ax, ConceptInclusion):
            allowed = frozenset(x for x in dom if ax.rhs in abox_type(x))
            concept_bounds.append((ax.lhs, allowed))
        else:
            allowed = frozenset(
                (x, y) for x in dom for y in dom if ax.rhs in abox_roles(x, y)
            )
            role_bounds.append((ax.lhs, allowed))

    pos_concept_axioms = [
        ax for ax in t1
        if isinstance(ax, ConceptInclusion) and not ax.negated_rhs
    ]

    def holds(facts, concept: BasicConcept, x) -> bool:
        if isinstance(concept, Atomic):
            return ("c", concept.name, x) in facts
        r = concept.role
        if r.inverted:
            return any(f[0] == "r" and f[1] == r.name and f[3] == x for f in facts)
        return any(f[0] == "r" and f[1] == r.name and f[2] == x for f in facts)

    def add_role(facts: set, role: BasicRole, x, y):
        for s in source.sup_roles(role):
            if s.inverted:
                facts.add(("r", s.name, y, x))
            else:
                facts.add(("r", s.name, x, y))

    def saturate(facts: set):
        changed = True
        while changed:
            changed = False
            for ax in pos_concept_axioms:
                if not isinstance(ax.rhs, Atomic):
                    continue
                for x in dom:
                    if holds(facts, ax.lhs, x) and not holds(facts, ax.rhs, x):
                        facts.add(("c", ax.rhs.name, x))
                        changed = True

    def within_bounds(facts) -> bool:
        for (b, allowed) in concept_bounds:
            for x in dom:
                if holds(facts, b, x) and x not in allowed:
                    return False
        for (r, allowed) in role_bounds:
            for f in facts:
                if f[0] != "r":
                    continue
                name, x, y = f[1], f[2], f[3]
                if r.name != name:
                    continue
                pair = (y, x) if r.inverted else (x, y)
                if pair not in allowed:
                    return False
        return True

    def obligations(facts):
        out = []
        for a in kb1.abox.assertions:
            if isinstance(a, ConceptAssertion) and isinstance(a.concept, Exists):
                if not holds(facts, a.concept, a.term):
                    out.append((a.term, a.concept.role))
        for ax in pos_concept_axioms:
            if isinstance(ax.rhs, Exists):
                for x in dom:
                    if holds(facts, ax.lhs, x) and not holds(facts, ax.rhs, x):
                        out.append((x, ax.rhs.role))
        return out

    base: set = set()
    for a in kb1.abox.assertions:
        if isinstance(a, ConceptAssertion):
            if isinstance(a.concept, Atomic):
                base.add(("c", a.concept.name, a.term))
        else:
            add_role(base, a.role, a.first, a.second)
    saturate(base)

    seen: set = set()

    def search(facts: set):
        frozen = frozenset(facts)
        if frozen in seen:
            return None
        seen.add(frozen)
        if not within_bounds(facts):
            return None
        obls = obligations(facts)
        if not obls:
            return frozen
        x, role = min(obls, key=lambda o: (element_label(o[0]), str(o[1])))
        for y in dom:
            nxt = set(facts)
            add_role(nxt, role, x, y)
            saturate(nxt)
            found = search(nxt)
            if found is not None:
                return found
        return None

    return search(base)


def universal_solution_plain(kb1: KnowledgeBase, mapping: Mapping) -> SolutionVerdict:
    """Non-emptiness and construction of universal solutions whose witness is
    an ordinary (null-free) target ABox.

    The closure ABox is the only candidate worth checking; it is a universal
    solution exactly when some small source model keeps all mapped extensions
    inside it.
    """
    prepared = _prepare(kb1, mapping)
    pos = is_sigma2_positive(kb1, mapping, prepared)
    if not pos:
        return SolutionVerdict(
            "no", counterexample=f"positivity clause ({pos.clause}): {pos.detail}"
        )
    source, u = prepared
    a2 = closure_abox(kb1, mapping.t12, mapping.sigma2, u.reasoner)
    model = _model_search(source, kb1, mapping, a2)
    if model is None:
        return SolutionVerdict(
            "no",
            counterexample=(
                "no source model over the ABox individuals plus one extra "
                "element keeps every mapped extension inside the closure ABox"
            ),
        )
    return SolutionVerdict("yes", witness=a2, certificate=("source-model", model))


def _interpretation_to_abox(f: FiniteInterpretation, sigma) -> ABox:
    """Read a finite interpretation back as an extended ABox; anonymous
    elements become deterministically named labeled nulls."""
    used = set()
    for e in f.elements:
        t = _term_of(e)
        if isinstance(t, Null):
            used.add(t.name)
    names: dict = {}
    counter = 0
    def term_for(e):
        nonlocal counter
        t = _term_of(e)
        if t is not None:
            return t
        if e not in names:
            while True:
                counter += 1
                cand = f"n{counter}"
                if cand not in used:
                    break
            names[e] = Null(cand)
        return names[e]

    facts = []
    for (n, e) in f.concept_facts():
        if n in sigma.concepts:
            facts.append(ConceptAssertion(Atomic(n), term_for(e)))
    for (n, e1, e2) in f.role_facts():
        if n in sigma.roles:
            facts.append(RoleAssertion(BasicRole(n), term_for(e1), term_for(e2)))
    return ABox.make(facts)


def _term_of(e):
    if isinstance(e, tuple) and len(e) == 1 and isinstance(e[0], (Constant, Null)):
        return e[0]
    if isinstance(e, (Constant, Null)):
        return e
    return None


def _both_embeddings(u: CanonicalStructure, abox: ABox, sigma):
    v = build_vabox(abox)
    table = embeds_regular_into_finite(u, v, sigma)
    if table is None:
        return None
    h = embeds_finite_into_regular(v, u, sigma)
    if h is None:
        return None
    return (table, h)


def _minimize_witness(u: CanonicalStructure, abox: ABox, sigma) -> ABox:
    """Greedily drop assertions while both embedding directions survive."""
    current = list(abox.assertions)
    changed = True
    while changed:
        changed = False
        for a in sorted(current, key=str, reverse=True):
            trial = [x for x in current if x != a]
            if _both_embeddings(u, ABox.make(trial), sigma) is not None:
                current = trial
                changed = True
    return ABox.make(current)


def universal_solution_extended(kb1: KnowledgeBase, mapping: Mapping,
                                depth_cap: int = 6) -> SolutionVerdict:
    """Non-emptiness for universal solutions with labeled nulls, by iterative
    deepening over truncations of the canonical model.

    Sound for yes; no only on positivity failure; unknown past the cap (a
    solution may in the worst case be exponentially deep).
    """
    prepared = _prepare(kb1, mapping)
    pos = is_sigma2_positive(kb1, mapping, prepared)
    if not pos:
        return SolutionVerdict(
            "no", counterexample=f"positivity clause ({pos.clause}): {pos.detail}"
        )
    u = prepared[1]
    sigma2 = mapping.sigma2
    for d in range(depth_cap + 1):
        trunc = materialize(u, d)
        candidate = _interpretation_to_abox(trunc, sigma2)
        cert = _both_embeddings(u, candidate, sigma2)
        if cert is not None:
            witness = _minimize_witness(u, candidate, sigma2)
            final = _both_embeddings(u, witness, sigma2)
            return SolutionVerdict("yes", witness=witness, certificate=final)
    return SolutionVerdict("unknown")


def is_universal_solution(kb1: KnowledgeBase, mapping: Mapping,
                          kb2: KnowledgeBase) -> SolutionVerdict:
    """Membership: is the candidate target KB a universal solution?

    The candidate must carry no real TBox content (solutions are ABoxes), the
    source and mapping must be positive, and the Herbrand structure of the
    candidate ABox must be target-signature homomorphically equivalent to the
    canonical model of source plus mapping.
    """
    prepared = _prepare(kb1, mapping)
    pos = is_sigma2_positive(kb1, mapping, prepared)
    if not pos:
        return SolutionVerdict(
            "no", counterexample=f"positivity clause ({pos.clause}): {pos.detail}"
        )
    if not tbox_trivial(kb2.tbox):
        return SolutionVerdict(
            "no",
            counterexample="candidate TBox is not equivalent to the empty TBox",
        )
    u = prepared[1]
    sigma2 = mapping.sigma2
    v = build_vabox(kb2.abox)
    table = embeds_regular_into_finite(u, v, sigma2)
    if table is None:
        return SolutionVerdict(
            "no",
            counterexample=(
                "the canonical model of source plus mapping does not map "
                "into the candidate's Herbrand structure over the target "
                "signature"
            ),
        )
    h = embeds_finite_into_regular(v, u, sigma2)
    if h is None:
        return SolutionVerdict(
            "no",
            counterexample=(
                "the candidate's Herbrand structure does not map back into "
                "the canonical model over the target signature"
            ),
        )
    return SolutionVerdict(
        "yes", witness=kb2.abox, certificate=(table, h)
    )
