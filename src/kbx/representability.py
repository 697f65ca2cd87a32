"""Deciding whether a target TBox faithfully stands in for a source TBox.

Given a mapping between two disjoint vocabularies, a target TBox *represents*
a source TBox when, over every source data set, querying the translated data
under the target TBox guarantees exactly the same target-vocabulary answers
as the source TBox and mapping guarantee directly.  This module checks a
candidate target TBox for that property, decides whether any representing
TBox exists, and builds one when possible.

A failed candidate check comes with a concrete counterexample: a source data
set and a target query on which the two sides disagree.
"""

from collections import deque
from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from typing import Callable, Optional

from .canonical import CanonicalStructure, build_canonical, combined_tbox, positive_part
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
    RoleAssertion,
    RoleInclusion,
    Signature,
    TBox,
    Variable,
    all_basic_concepts,
    all_basic_roles,
    signature_of,
    validate_mapping,
)
from .reasoner import Reasoner


class PreconditionViolated(Exception):
    """An operation was invoked outside its stated precondition."""


@dataclass(frozen=True)
class InstanceQuery:
    """A conjunctive query with constants and at most one existential variable.

    Concept atoms pair a basic concept with a term; an existential concept in
    an atom asks the term to have some outgoing edge of that role.  Role
    atoms pair a basic role with two terms.
    """

    concept_atoms: tuple
    role_atoms: tuple

    def variables(self) -> list:
        seen: dict = {}
        for _, t in self.concept_atoms:
            if isinstance(t, Variable):
                seen.setdefault(t, None)
        for _, t1, t2 in self.role_atoms:
            for t in (t1, t2):
                if isinstance(t, Variable):
                    seen.setdefault(t, None)
        return sorted(seen, key=str)

    def __str__(self) -> str:
        parts = [f"{c}({t})" for c, t in self.concept_atoms]
        parts.extend(f"{r}({t1}, {t2})" for r, t1, t2 in self.role_atoms)
        body = " & ".join(parts) if parts else "true"
        vs = self.variables()
        if vs:
            return "exists " + ", ".join(str(v) for v in vs) + " . " + body
        return body


@dataclass(frozen=True)
class Counterexample:
    """Source data and a target query on which the two sides disagree."""

    abox: ABox
    query: InstanceQuery
    reason: str

    def __str__(self) -> str:
        facts = ", ".join(str(a) for a in self.abox.assertions)
        return f"data {{{facts}}}, query {self.query}: {self.reason}"


@dataclass(frozen=True)
class RepresentationVerdict:
    answer: str  # "yes" or "no"
    counterexample: Optional[Counterexample] = None
    tbox: Optional[TBox] = None
    reason: Optional[str] = None


@dataclass(frozen=True)
class GeneratingPass:
    """A chain tracing one generated neighbor of canonical source data into
    facts the target TBox must supply.

    ``chain[0]`` is the starting concept; each later entry is an existential
    concept over an inverted source role, reached through that role.
    ``node_labels[i]`` lists target concepts required at step ``i`` and
    ``edge_labels[i]`` lists target roles required between steps ``i`` and
    ``i + 1``; roles can only be required on a chain of exactly one hop.
    """

    chain: tuple
    node_labels: tuple
    edge_labels: tuple

    def __str__(self) -> str:
        bits = []
        for i, node in enumerate(self.chain):
            lab = ", ".join(sorted((str(c) for c in self.node_labels[i])))
            bits.append(f"{node} [{lab}]")
            if i < len(self.edge_labels):
                elab = ", ".join(sorted(str(r) for r in self.edge_labels[i]))
                bits.append(f"--[{elab}]->")
        return " ".join(bits)


_PROBE = Constant("o")

# Deterministic constant pool for counterexample data and query probes; the
# query constants never occur in the data, which is what makes a certain
# answer on them impossible for a satisfiable theory.
_A = Constant("a")
_B = Constant("b")
_W0 = Constant("w0")
_W1 = Constant("w1")
_FRESH0 = Constant("c0")
_FRESH1 = Constant("c1")
_Y = Variable("y")


def _source_signature(mapping: Mapping, t1: TBox) -> Signature:
    return mapping.sigma1.union(signature_of(t1))


def _require_valid(mapping: Mapping, t1: TBox, t2: Optional[TBox]) -> None:
    problems = validate_mapping(mapping)
    s1 = mapping.sigma1
    s2 = mapping.sigma2
    sig1 = signature_of(t1)
    if (sig1.concepts & s2.concepts) or (sig1.roles & s2.roles):
        problems.append("source TBox mentions target names")
    if t2 is not None:
        sig2 = signature_of(t2)
        if (sig2.concepts & s1.concepts) or (sig2.roles & s1.roles):
            problems.append("candidate target TBox mentions source names")
    if problems:
        raise PreconditionViolated("; ".join(problems))


@dataclass(frozen=True)
class _Kind:
    """Basic target concepts or basic target roles, with what synthesis needs
    to reason about an axiom between two of them."""

    names: list  # every basic term of this kind over the target signature
    derives: Callable  # the mapping's derivation between two terms of this kind
    inclusion_safe: Callable
    disjointness_safe: Callable
    axiom: type  # ConceptInclusion or RoleInclusion


class _Decision:
    """Everything one representability decision reasons with: a context for
    each TBox involved, compiled once, the canonical probes built from them,
    and the safety verdicts found so far.  It lives for one decision only.
    """

    def __init__(self, mapping: Mapping, t1: TBox, t2: Optional[TBox] = None):
        t12 = mapping.t12
        self.mapping = mapping
        self.src_sig = _source_signature(mapping, t1)
        self.t1 = Reasoner(t1)
        self.t12 = Reasoner(t12)
        self.comb = Reasoner(combined_tbox(t1, t12))
        if t2 is not None:
            self.tgt_derive = Reasoner(combined_tbox(t2, t12))
            # Negated mapping axioms only constrain source-side facts, so they
            # can never fire on translated data; satisfiability on the target
            # side is therefore measured against t2 plus the positive mapping
            # axioms.
            self.tgt_consist = Reasoner(combined_tbox(t2, positive_part(t12)))
        self._probes: dict = {}
        self._safe: dict = {}
        self.concepts = _Kind(
            all_basic_concepts(mapping.sigma2), self.t12.derives_concept,
            _inclusion_safe_concepts, _disjointness_safe_concepts, ConceptInclusion,
        )
        self.roles = _Kind(
            all_basic_roles(mapping.sigma2), self.t12.derives_role,
            _inclusion_safe_roles, _disjointness_safe_roles, RoleInclusion,
        )

    def probe(self, ctx: Reasoner, concept: BasicConcept) -> CanonicalStructure:
        """Canonical structure of ``ctx``'s TBox over the single fact ``concept(o)``."""
        key = (ctx, concept)
        got = self._probes.get(key)
        if got is None:
            kb = KnowledgeBase(ctx.tbox, ABox.make([ConceptAssertion(concept, _PROBE)]))
            got = self._probes[key] = build_canonical(kb, check_consistency=False, reasoner=ctx)
        return got

    def safe(self, check, lhs, rhs) -> bool:
        """``check(self, lhs, rhs)``, one of the safety checks below, memoized."""
        key = (check, lhs, rhs)
        got = self._safe.get(key)
        if got is None:
            got = self._safe[key] = check(self, lhs, rhs)
        return got


# ---------------------------------------------------------------------------
# Safety of a single target axiom over all translated source data.
#
# An axiom between target terms is *safe* when adding it to a target TBox can
# never produce facts (or clashes) on translated source data that the source
# theory did not already guarantee.  These checks quantify over source
# concepts/roles and over the generated neighbors of their canonical data.
# ---------------------------------------------------------------------------


def _inclusion_safe_concepts(d: _Decision, lhs: BasicConcept, rhs: BasicConcept) -> bool:
    if lhs == rhs:
        return True
    comb = d.comb
    universe = all_basic_concepts(d.src_sig)
    for b in universe:
        if not d.t1.pair_consistent_concepts(b, b):
            continue
        if comb.derives_concept(b, lhs) and not comb.derives_concept(b, rhs):
            return False
    if isinstance(lhs, Exists):
        # The lhs can also fire at a fresh witness created for an incoming
        # edge of its role; that witness must then already carry the rhs.
        back = Exists(lhs.role.inverse())
        for b in universe:
            if not comb.pair_consistent_concepts(b, b):
                continue
            if not comb.derives_concept(b, back):
                continue
            probe = d.probe(comb, b)
            ok = False
            for rep in probe.gen[_PROBE]:
                if lhs.role.inverse() in probe.edge_roles(rep) and rhs in probe.state_type(rep):
                    ok = True
                    break
            if not ok:
                return False
    return True


def _inclusion_safe_roles(d: _Decision, lhs: BasicRole, rhs: BasicRole) -> bool:
    if lhs == rhs:
        return True
    for r in all_basic_roles(d.src_sig):
        if not d.t1.pair_consistent_roles(r, r):
            continue
        if d.comb.derives_role(r, lhs) and not d.comb.derives_role(r, rhs):
            return False
    return d.safe(_inclusion_safe_concepts, Exists(lhs), Exists(rhs)) and d.safe(
        _inclusion_safe_concepts, Exists(lhs.inverse()), Exists(rhs.inverse())
    )


def _disjointness_safe_concepts(d: _Decision, lhs: BasicConcept, rhs: BasicConcept) -> bool:
    comb = d.comb
    universe = all_basic_concepts(d.src_sig)
    for b, c in product(universe, repeat=2):
        if not (comb.derives_concept(b, lhs) and comb.derives_concept(c, rhs)):
            continue
        if comb.pair_consistent_concepts(b, c):
            return False
    for b in universe:
        if not comb.pair_consistent_concepts(b, b):
            continue
        probe = d.probe(comb, b)
        for rep in probe.gen[_PROBE]:
            tp = probe.state_type(rep)
            if lhs in tp and rhs in tp:
                return False
    return True


def _disjointness_safe_roles(d: _Decision, lhs: BasicRole, rhs: BasicRole) -> bool:
    comb = d.comb
    for r, q in product(all_basic_roles(d.src_sig), repeat=2):
        if not (comb.derives_role(r, lhs) and comb.derives_role(q, rhs)):
            continue
        if comb.pair_consistent_roles(r, q):
            return False
    for b in all_basic_concepts(d.src_sig):
        if not comb.pair_consistent_concepts(b, b):
            continue
        probe = d.probe(comb, b)
        for rep in probe.gen[_PROBE]:
            rt = probe.edge_roles(rep)
            if (lhs in rt and rhs in rt) or (lhs.inverse() in rt and rhs.inverse() in rt):
                return False
    return True


# ---------------------------------------------------------------------------
# Counterexample assembly.
# ---------------------------------------------------------------------------


def _realize(concept: BasicConcept, term: Constant, fresh: Constant) -> list:
    """Assert membership of ``term`` in a basic concept with plain facts."""
    if isinstance(concept, Atomic):
        return [ConceptAssertion(concept, term)]
    return [RoleAssertion(concept.role, term, fresh)]


def _fresh_probe(tgt_sig: Signature) -> InstanceQuery:
    """The least target fact over constants that appear nowhere in the data."""
    names = sorted(tgt_sig.concepts)
    if names:
        return InstanceQuery(((Atomic(names[0]), _FRESH0),), ())
    rnames = sorted(tgt_sig.roles)
    return InstanceQuery((), ((BasicRole(rnames[0]), _FRESH0, _FRESH1),))


def _concept_query(concept: BasicConcept, term: Constant) -> InstanceQuery:
    if isinstance(concept, Atomic):
        return InstanceQuery(((concept, term),), ())
    return InstanceQuery((), ((concept.role, term, _Y),))


def _neighbor_query(need_t: frozenset, need_r: frozenset) -> InstanceQuery:
    concept_atoms = tuple((c, _Y) for c in sorted(need_t, key=str))
    role_atoms = tuple((r, _A, _Y) for r in sorted(need_r, key=str))
    return InstanceQuery(concept_atoms, role_atoms)


# ---------------------------------------------------------------------------
# Membership: does a given target TBox represent the source TBox?
# ---------------------------------------------------------------------------


def is_ucq_representation(mapping: Mapping, t1: TBox, t2: TBox) -> RepresentationVerdict:
    """Decide whether ``t2`` represents ``t1`` under the mapping.

    A ``no`` verdict carries source data together with a target query that is
    guaranteed by one side but not the other.
    """
    _require_valid(mapping, t1, t2)
    d = _Decision(mapping, t1, t2)
    comb, tgt_derive, tgt_consist = d.comb, d.tgt_derive, d.tgt_consist
    tgt_sig = mapping.sigma2.union(signature_of(t2))
    src_concepts = all_basic_concepts(d.src_sig)
    src_roles = all_basic_roles(d.src_sig)
    tgt_concepts = all_basic_concepts(tgt_sig)
    tgt_roles = all_basic_roles(tgt_sig)

    # Contradictory source data must translate to contradictory target data,
    # and satisfiable source data to satisfiable target data.
    for bc, cc in combinations_with_replacement(src_concepts, 2):
        if not d.t1.pair_consistent_concepts(bc, cc):
            continue
        if not d.t12.pair_consistent_concepts(bc, cc):
            # The mapping itself rules this pair out: it admits no
            # translation at all, so there is nothing to compare.
            continue
        src_ok = comb.pair_consistent_concepts(bc, cc)
        tgt_ok = tgt_consist.pair_consistent_concepts(bc, cc)
        if src_ok == tgt_ok:
            continue
        abox = ABox.make(_realize(bc, _A, _W0) + _realize(cc, _A, _W1))
        if src_ok:
            reason = (
                f"{{{bc}, {cc}}} at one object is satisfiable with the source TBox "
                "but its translation is contradictory under the candidate"
            )
        else:
            reason = (
                f"{{{bc}, {cc}}} at one object is contradictory with the source TBox "
                "but its translation stays satisfiable under the candidate"
            )
        return RepresentationVerdict(
            "no", Counterexample(abox, _fresh_probe(tgt_sig), reason)
        )

    for rr, qq in combinations_with_replacement(src_roles, 2):
        if not d.t1.pair_consistent_roles(rr, qq):
            continue
        if not d.t12.pair_consistent_roles(rr, qq):
            continue
        src_ok = comb.pair_consistent_roles(rr, qq)
        tgt_ok = tgt_consist.pair_consistent_roles(rr, qq)
        if src_ok == tgt_ok:
            continue
        abox = ABox.make([RoleAssertion(rr, _A, _B), RoleAssertion(qq, _A, _B)])
        side = "satisfiable" if src_ok else "contradictory"
        reason = (
            f"{{{rr}, {qq}}} on one pair is {side} with the source TBox "
            "but the candidate disagrees on its translation"
        )
        return RepresentationVerdict(
            "no", Counterexample(abox, _fresh_probe(tgt_sig), reason)
        )

    # Both sides must entail the same target memberships...
    for bc in src_concepts:
        if not comb.pair_consistent_concepts(bc, bc):
            continue
        for bp in tgt_concepts:
            src_d = comb.derives_concept(bc, bp)
            tgt_d = tgt_derive.derives_concept(bc, bp)
            if src_d == tgt_d:
                continue
            abox = ABox.make(_realize(bc, _A, _W0))
            holder = "the source TBox" if src_d else "only the candidate"
            reason = f"{bc} transfers into {bp} under {holder}"
            return RepresentationVerdict(
                "no", Counterexample(abox, _concept_query(bp, _A), reason)
            )

    # ...and the same target role memberships.
    for rr in src_roles:
        if not comb.pair_consistent_roles(rr, rr):
            continue
        for rp in tgt_roles:
            src_d = comb.derives_role(rr, rp)
            tgt_d = tgt_derive.derives_role(rr, rp)
            if src_d == tgt_d:
                continue
            abox = ABox.make([RoleAssertion(rr, _A, _B)])
            holder = "the source TBox" if src_d else "only the candidate"
            reason = f"{rr} transfers into {rp} under {holder}"
            query = InstanceQuery((), ((rp, _A, _B),))
            return RepresentationVerdict("no", Counterexample(abox, query, reason))

    # Every generated neighbor on one side must be matched on the other.
    for bc in src_concepts:
        if not comb.pair_consistent_concepts(bc, bc):
            continue
        probe_src = d.probe(comb, bc)
        probe_tgt = d.probe(tgt_derive, bc)
        for rep in probe_src.gen[_PROBE]:
            need_t = probe_src.state_type(rep, tgt_sig)
            need_r = probe_src.edge_roles(rep, tgt_sig)
            if _has_matching_state(probe_tgt, need_t, need_r):
                continue
            abox = ABox.make(_realize(bc, _A, _W0))
            reason = (
                f"data satisfying {bc} is guaranteed a neighbor with "
                f"{sorted(map(str, need_t))} that the candidate cannot reproduce"
            )
            return RepresentationVerdict(
                "no", Counterexample(abox, _neighbor_query(need_t, need_r), reason)
            )
        for rep in probe_tgt.gen[_PROBE]:
            need_t = probe_tgt.state_type(rep, tgt_sig)
            need_r = probe_tgt.edge_roles(rep, tgt_sig)
            if _has_matching_state(probe_src, need_t, need_r):
                continue
            abox = ABox.make(_realize(bc, _A, _W0))
            reason = (
                f"the candidate forces a neighbor with {sorted(map(str, need_t))} "
                f"onto data satisfying {bc} beyond what the source TBox guarantees"
            )
            return RepresentationVerdict(
                "no", Counterexample(abox, _neighbor_query(need_t, need_r), reason)
            )

    return RepresentationVerdict("yes")


def _has_matching_state(
    probe: CanonicalStructure, need_t: frozenset, need_r: frozenset
) -> bool:
    if need_r:
        # Only a direct generated neighbor can carry required connecting roles.
        for rep in probe.gen[_PROBE]:
            if need_r <= probe.edge_roles(rep) and need_t <= probe.state_type(rep):
                return True
        return False
    for state in probe.states():
        if need_t <= probe.state_type(state):
            return True
    return False


# ---------------------------------------------------------------------------
# Existence and synthesis of a representing target TBox.
# ---------------------------------------------------------------------------


def representation_exists(mapping: Mapping, t1: TBox) -> RepresentationVerdict:
    """Decide whether any target TBox represents ``t1`` under the mapping.

    On ``yes`` the verdict carries a representing TBox; on ``no`` it carries
    the first obstruction found.
    """
    axioms, reason = _synthesis(mapping, t1)
    if axioms is None:
        return RepresentationVerdict("no", reason=reason)
    return RepresentationVerdict("yes", tbox=axioms)


def synthesize_representation(mapping: Mapping, t1: TBox) -> Optional[TBox]:
    """Build a target TBox representing ``t1``, or ``None`` if none exists."""
    axioms, _ = _synthesis(mapping, t1)
    return axioms


def find_generating_pass(
    mapping: Mapping, t1: TBox, concept: BasicConcept, role: BasicRole
) -> Optional[GeneratingPass]:
    """Search for a chain showing the target side can reproduce the neighbor
    that ``concept``-data generates through ``role``.

    Precondition: the canonical structure of the source TBox and mapping over
    ``concept(o)`` must actually generate a neighbor for ``role``.
    """
    _require_valid(mapping, t1, None)
    d = _Decision(mapping, t1)
    if not d.comb.pair_consistent_concepts(concept, concept):
        raise PreconditionViolated(
            f"{concept} is contradictory with the source TBox and mapping"
        )
    probe = d.probe(d.comb, concept)
    rep = d.comb.rep_of(role)
    if rep not in probe.gen[_PROBE]:
        raise PreconditionViolated(
            f"data satisfying {concept} generates no neighbor through {role}"
        )
    return _conform_pass(d, concept, rep)


def _conform_pass(d: _Decision, bc: BasicConcept, rep: BasicRole) -> Optional[GeneratingPass]:
    tgt_sig = d.mapping.sigma2
    probe = d.probe(d.comb, bc)
    need_t = frozenset(probe.state_type(rep, tgt_sig))
    need_r = frozenset(probe.edge_roles(rep, tgt_sig))

    def accepts(node: BasicConcept) -> bool:
        return all(
            _included_via(d, d.concepts, node, bp) is not None for bp in sorted(need_t, key=str)
        )

    # Zero hops: the starting object itself absorbs all required facts.
    if not need_r and accepts(bc):
        return GeneratingPass((bc,), (need_t,), ())

    # Later chain nodes live on the target side: each hop is a target role
    # whose witness the synthesized axioms will force into existence.
    links = d.roles.names

    def can_link(node: BasicConcept, q: BasicRole) -> bool:
        return node == Exists(q) or _included_via(d, d.concepts, node, Exists(q)) is not None

    def first_label(node: BasicConcept, q: BasicRole) -> frozenset:
        return frozenset() if node == Exists(q) else frozenset([Exists(q)])

    # One hop: the only shape on which connecting roles can be required.
    for q in links:
        nxt = Exists(q.inverse())
        if not can_link(bc, q):
            continue
        if all(
            _included_via(d, d.roles, q, rp) is not None for rp in sorted(need_r, key=str)
        ) and accepts(nxt):
            return GeneratingPass((bc, nxt), (first_label(bc, q), need_t), (need_r,))
    if need_r:
        return None

    # Longer chains, required facts all landing on the last node.  Whether a
    # hop or an acceptance works depends only on the node at hand, so a plain
    # breadth-first search over node values finds a shortest chain.
    seen: set = set()
    queue: deque = deque()
    for q in links:
        nxt = Exists(q.inverse())
        if can_link(bc, q) and nxt not in seen:
            seen.add(nxt)
            queue.append((nxt, (bc, nxt)))
    while queue:
        node, chain = queue.popleft()
        if len(chain) > 2 and accepts(node):
            labels = []
            for i in range(len(chain) - 1):
                nxt_link = chain[i + 1].role.inverse()
                labels.append(first_label(chain[i], nxt_link))
            labels.append(need_t)
            edge_labels = tuple(frozenset() for _ in range(len(chain) - 1))
            return GeneratingPass(tuple(chain), tuple(labels), edge_labels)
        for q in links:
            nxt = Exists(q.inverse())
            if can_link(node, q) and nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, chain + (nxt,)))
    return None


def _synthesis(mapping: Mapping, t1: TBox):
    """Collect target axioms covering everything the source theory forces.

    Returns ``(tbox, None)`` on success and ``(None, reason)`` when some
    forced behavior cannot be captured by any target axiom.
    """
    _require_valid(mapping, t1, None)
    d = _Decision(mapping, t1)
    comb = d.comb
    src_concepts = all_basic_concepts(d.src_sig)
    src_roles = all_basic_roles(d.src_sig)
    axioms: list = []

    # Entailed target memberships need a safe target-side rewriting.
    for bc in src_concepts:
        if not comb.pair_consistent_concepts(bc, bc):
            continue
        for bp in d.concepts.names:
            if not comb.derives_concept(bc, bp):
                continue
            cp = _included_via(d, d.concepts, bc, bp)
            if cp is None:
                return None, f"no target axiom can capture that {bc} entails {bp}"
            if cp != bp:
                axioms.append(ConceptInclusion(cp, bp))
    for rr in src_roles:
        if not comb.pair_consistent_roles(rr, rr):
            continue
        for rp in d.roles.names:
            if not comb.derives_role(rr, rp):
                continue
            qp = _included_via(d, d.roles, rr, rp)
            if qp is None:
                return None, f"no target axiom can capture that {rr} entails {rp}"
            if qp != rp:
                axioms.append(RoleInclusion(qp, rp))

    # Generated neighbors need a chain of target axioms reproducing them.
    for bc in src_concepts:
        if not comb.pair_consistent_concepts(bc, bc):
            continue
        probe = d.probe(comb, bc)
        for rep in probe.gen[_PROBE]:
            gp = _conform_pass(d, bc, rep)
            if gp is None:
                return None, (
                    f"the neighbor that {bc} generates through {rep} "
                    "cannot be reproduced on the target side"
                )
            for i, node in enumerate(gp.chain):
                for bp in sorted(gp.node_labels[i], key=str):
                    cp = _included_via(d, d.concepts, node, bp)
                    if cp is not None and cp != bp:
                        axioms.append(ConceptInclusion(cp, bp))
                if i < len(gp.edge_labels):
                    link = gp.chain[i + 1].role.inverse()
                    for rp in sorted(gp.edge_labels[i], key=str):
                        qp = _included_via(d, d.roles, link, rp)
                        if qp is not None and qp != rp:
                            axioms.append(RoleInclusion(qp, rp))

    # Source-side contradictions need a target-side contradiction.
    for b1, b2 in combinations_with_replacement(src_concepts, 2):
        if not d.t1.pair_consistent_concepts(b1, b2):
            continue
        if comb.pair_consistent_concepts(b1, b2):
            continue
        got = _cover_clash(d, d.concepts, b1, b2)
        if got is None:
            return None, (
                f"the contradiction between {b1} and {b2} "
                "cannot be mirrored on the target side"
            )
        axioms.extend(got)
    for r1, r2 in combinations_with_replacement(src_roles, 2):
        if not d.t1.pair_consistent_roles(r1, r2):
            continue
        if comb.pair_consistent_roles(r1, r2):
            continue
        got = _cover_clash(d, d.roles, r1, r2)
        if got is None:
            return None, (
                f"the contradiction between {r1} and {r2} "
                "cannot be mirrored on the target side"
            )
        axioms.extend(got)

    out = []
    for ax in combined_tbox(tuple(axioms)):
        if ax.lhs == ax.rhs and not ax.negated_rhs:
            continue
        out.append(ax)
    return tuple(out), None


def _included_via(d: _Decision, kind: _Kind, sub, target):
    """The first target term that the mapping derives from ``sub`` and that
    is safely included in ``target``, or ``None``."""
    for name in kind.names:
        if kind.derives(sub, name) and d.safe(kind.inclusion_safe, name, target):
            return name
    return None


def _distinct(x, y) -> list:
    return [x] if x == y else [x, y]


def _cover_clash(d: _Decision, kind: _Kind, m1, m2):
    """Target axioms making the translation of the clashing pair {m1, m2}
    contradictory, or ``None``.

    The two members are tried first.  A concept clash is then tried at the far
    end of each existential member and through its role, a role clash at the
    concepts on either end of the two roles.
    """
    attempts = [(kind, _distinct(m1, m2))]
    if kind is d.concepts:
        for x in _distinct(m1, m2):
            if isinstance(x, Exists):
                attempts.append((d.concepts, [Exists(x.role.inverse())]))
                attempts.append((d.roles, [x.role]))
    else:
        for r1, r2 in ((m1, m2), (m1.inverse(), m2.inverse())):
            attempts.append((d.concepts, _distinct(Exists(r1), Exists(r2))))
    for k, members in attempts:
        got = _cover_members(d, k, members)
        if got is not None:
            return got
    return None


def _cover_members(d: _Decision, kind: _Kind, members: list):
    """Target axioms making any two of ``members`` contradictory together."""
    # A target disjointness between translations of two members.
    for x, y in product(members, repeat=2):
        for bp in kind.names:
            if not kind.derives(x, bp):
                continue
            for cp in kind.names:
                if kind.derives(y, cp) and d.safe(kind.disjointness_safe, bp, cp):
                    return [kind.axiom(bp, cp, negated_rhs=True)]
    # A target inclusion feeding a disjointness the mapping already states.
    for x, y in product(members, repeat=2):
        for bp in kind.names:
            if not kind.derives(x, bp):
                continue
            for ax in d.t12.tbox:
                if not (isinstance(ax, kind.axiom) and ax.negated_rhs and ax.lhs == y):
                    continue
                if d.safe(kind.inclusion_safe, bp, ax.rhs):
                    return [] if bp == ax.rhs else [kind.axiom(bp, ax.rhs)]
    return None
