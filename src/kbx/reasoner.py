"""Structural reasoning over DL-Lite_R TBoxes: closures, entailment, consistency.

The positive fragment of a TBox induces a reflexive-transitive subsumption
closure on roles (closed under inversion) and one on basic concepts (absorbing
role subsumption into existentials).  Disjointness axioms are normalized into
symmetric clash pair sets.  Consistency of small KBs reduces to checking each
co-asserted pair of concepts/roles against the TBox, which in turn reduces to a
clash scan over the (finitely many) witness classes reachable from the pair.

A `Reasoner` is that compiled form of one TBox: its axioms indexed once,
both clash pair sets, and memos of each concept's and role's closure, of
witness classes, generated classes and pair consistency, filled in the first
time a decision asks for one.  Each decision builds the contexts it needs and
drops them when it returns, so no cache outlives a call: `CanonicalStructure`
builds (or is handed) the context of its KB's TBox, `exchange` reuses the
structure's, and `representability` builds one per TBox it reasons over.  A
certificate recheck is a decision of its own and builds its own contexts.
The module-level `derives_concept`, `derives_role` and `kb_consistent` are
uncached one-shot wrappers kept for library users; no decider calls them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    ABox,
    BasicConcept,
    BasicRole,
    ConceptAssertion,
    Exists,
    KnowledgeBase,
    RoleAssertion,
    RoleInclusion,
    TBox,
    Term,
)


@dataclass(frozen=True)
class WitnessClass:
    """An equivalence class of mutually subsuming roles, named by its least member."""

    representative: BasicRole
    members: frozenset[BasicRole]

    def __str__(self) -> str:
        return f"w[{self.representative}]"


def _reachable(start, successors) -> frozenset:
    """``start`` and every node reachable from it along ``successors``."""
    seen = {start}
    todo = [start]
    while todo:
        for nxt in successors(todo.pop()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return frozenset(seen)


class Reasoner:
    """The compiled positive closure and clash pairs of one TBox.

    Immutable in what it answers.  The closure of a concept or role is
    computed the first time it is asked for; that and the other memos only
    save recomputation and live exactly as long as the context.
    """

    def __init__(self, tbox: TBox):
        self.tbox = tbox
        self._role_edges: dict = {}
        self._concept_edges: dict = {}
        concept_clashes: set = set()
        role_clashes: set = set()
        for ax in tbox:
            if isinstance(ax, RoleInclusion):
                pairs = ((ax.lhs, ax.rhs), (ax.lhs.inverse(), ax.rhs.inverse()))
                for sub, sup in pairs:
                    if ax.negated_rhs:
                        role_clashes.update(((sub, sup), (sup, sub)))
                    else:
                        self._role_edges.setdefault(sub, set()).add(sup)
            elif ax.negated_rhs:
                concept_clashes.update(((ax.lhs, ax.rhs), (ax.rhs, ax.lhs)))
            else:
                self._concept_edges.setdefault(ax.lhs, set()).add(ax.rhs)
        self.concept_clashes: frozenset = frozenset(concept_clashes)
        self.role_clashes: frozenset = frozenset(role_clashes)
        self._sup_roles: dict = {}
        self._sup_concepts: dict = {}
        self._classes: dict = {}
        self._generated: dict = {}
        self._pair_concepts: dict = {}
        self._pair_roles: dict = {}

    # -- closures --------------------------------------------------------------

    def sup_roles(self, r: BasicRole) -> frozenset[BasicRole]:
        """Every basic role the positive axioms derive from ``r``, itself included."""
        got = self._sup_roles.get(r)
        if got is None:
            got = self._sup_roles[r] = _reachable(r, lambda x: self._role_edges.get(x, ()))
        return got

    def sup_concepts(self, c: BasicConcept) -> frozenset[BasicConcept]:
        """Every basic concept the positive axioms derive from ``c``, itself
        included; ``exists R`` also reaches ``exists S`` for each super-role S."""
        got = self._sup_concepts.get(c)
        if got is None:
            got = self._sup_concepts[c] = _reachable(c, self._concept_successors)
        return got

    def _concept_successors(self, c: BasicConcept):
        out = self._concept_edges.get(c, ())
        if isinstance(c, Exists):
            out = {*out, *(Exists(s) for s in self.sup_roles(c.role))}
        return out

    def derives_concept(self, sub: BasicConcept, sup: BasicConcept) -> bool:
        """Positive concept subsumption: sub is below sup in the closure."""
        return sup in self.sup_concepts(sub)

    def derives_role(self, sub: BasicRole, sup: BasicRole) -> bool:
        """Positive role subsumption, closed under inversion."""
        return sup in self.sup_roles(sub)

    # -- witness classes -------------------------------------------------------

    def witness_class(self, role: BasicRole) -> WitnessClass:
        got = self._classes.get(role)
        if got is None:
            members = frozenset(s for s in self.sup_roles(role) if self.derives_role(s, role))
            got = self._classes[role] = WitnessClass(min(members, key=str), members)
        return got

    def rep_of(self, role: BasicRole) -> BasicRole:
        return self.witness_class(role).representative

    def minimal_roles(self, cands) -> list[BasicRole]:
        """The roles of ``cands`` with no strictly smaller role among ``cands``."""
        return [
            r for r in cands
            if all(self.rep_of(s) == self.rep_of(r) for s in cands if self.derives_role(s, r))
        ]

    def generated(self, rep: BasicRole) -> tuple[BasicRole, ...]:
        """Witness classes generated by the class element of ``rep``, for any
        basic role, whether or not its class is reachable from some ABox."""
        got = self._generated.get(rep)
        if got is None:
            tail = self.sup_concepts(Exists(rep.inverse()))
            back_rep = self.rep_of(rep.inverse())
            cands = {c.role for c in tail if isinstance(c, Exists)}
            reps = {self.rep_of(r) for r in self.minimal_roles(cands)} - {back_rep}
            got = self._generated[rep] = tuple(sorted(reps, key=str))
        return got

    # -- consistency -----------------------------------------------------------

    def _type_clash(self, concepts: frozenset) -> bool:
        return any(a in concepts and b in concepts for a, b in self.concept_clashes)

    def _edge_clash(self, roles: frozenset) -> bool:
        return any(a in roles and b in roles for a, b in self.role_clashes)

    def _reachable_tail_reps(self, root_type: frozenset) -> set[BasicRole]:
        """Witness-class representatives reachable by chasing existentials.

        Deliberately ignores the satisfaction/minimality side conditions of the
        generating relation: extra classes never fabricate clashes because their
        types are subsumed by the types of the elements that actually absorb them.
        """
        todo = [self.rep_of(c.role) for c in root_type if isinstance(c, Exists)]
        seen: set[BasicRole] = set()
        while todo:
            rep = todo.pop()
            if rep in seen:
                continue
            seen.add(rep)
            for c in self.sup_concepts(Exists(rep.inverse())):
                if isinstance(c, Exists):
                    nxt = self.rep_of(c.role)
                    if nxt not in seen:
                        todo.append(nxt)
        return seen

    def _chase_consistent(self, root_types: list, root_edges: list) -> bool:
        if any(self._type_clash(t) for t in root_types):
            return False
        if any(self._edge_clash(e) for e in root_edges):
            return False
        reachable: set[BasicRole] = set()
        for t in root_types:
            reachable |= self._reachable_tail_reps(t)
        for rep in reachable:
            if self._type_clash(self.sup_concepts(Exists(rep.inverse()))):
                return False
            if self._edge_clash(self.sup_roles(rep)):
                return False
        return True

    def pair_consistent_concepts(self, b: BasicConcept, c: BasicConcept) -> bool:
        """Whether asserting both concepts of one fresh individual is consistent."""
        got = self._pair_concepts.get((b, c))
        if got is None:
            root = self.sup_concepts(b) | self.sup_concepts(c)
            got = self._pair_concepts[(b, c)] = self._chase_consistent([root], [])
        return got

    def pair_consistent_roles(self, r: BasicRole, q: BasicRole) -> bool:
        """Whether asserting both roles of one fresh individual pair is consistent."""
        got = self._pair_roles.get((r, q))
        if got is None:
            edge = self.sup_roles(r) | self.sup_roles(q)
            t1 = self.sup_concepts(Exists(r)) | self.sup_concepts(Exists(q))
            t2 = self.sup_concepts(Exists(r.inverse())) | self.sup_concepts(Exists(q.inverse()))
            got = self._pair_roles[(r, q)] = self._chase_consistent([t1, t2], [edge])
        return got

    def consistent(self, abox: ABox) -> bool:
        """Consistency of the ABox under this TBox, via pairwise checks of
        co-asserted concepts and roles."""
        for concepts in _asserted_concepts(abox).values():
            cs = sorted(concepts, key=str)
            for i, b in enumerate(cs):
                if not all(self.pair_consistent_concepts(b, c) for c in cs[i:]):
                    return False
        for roles in _asserted_roles(abox).values():
            rs = sorted(roles, key=str)
            for i, r in enumerate(rs):
                if not all(self.pair_consistent_roles(r, q) for q in rs[i:]):
                    return False
        return True

    # -- entailed facts of an ABox ---------------------------------------------

    def term_types(self, abox: ABox) -> dict:
        """Every basic concept entailed of each term of the ABox."""
        return {
            t: frozenset().union(*(self.sup_concepts(b) for b in concepts))
            for t, concepts in _asserted_concepts(abox).items()
        }

    def pair_roles(self, abox: ABox) -> dict:
        """Every basic role entailed of each asserted term pair, both orientations."""
        return {
            pair: frozenset().union(*(self.sup_roles(r) for r in roles))
            for pair, roles in _asserted_roles(abox).items()
        }

    def entails(self, abox: ABox, assertion) -> bool:
        """Whether the ABox under this TBox entails one membership assertion."""
        if isinstance(assertion, ConceptAssertion):
            return assertion.concept in self.term_types(abox).get(assertion.term, ())
        pair = (assertion.first, assertion.second)
        return assertion.role in self.pair_roles(abox).get(pair, ())


def _asserted_concepts(abox: ABox) -> dict:
    """Basic concepts directly asserted of each term (role facts included)."""
    out: dict[Term, set[BasicConcept]] = {}
    for a in abox.assertions:
        if isinstance(a, ConceptAssertion):
            out.setdefault(a.term, set()).add(a.concept)
        else:
            out.setdefault(a.first, set()).add(Exists(a.role))
            out.setdefault(a.second, set()).add(Exists(a.role.inverse()))
    return out


def _asserted_roles(abox: ABox) -> dict:
    """Basic roles directly asserted of each ordered term pair, both orientations."""
    out: dict[tuple[Term, Term], set[BasicRole]] = {}
    for a in abox.assertions:
        if isinstance(a, RoleAssertion):
            out.setdefault((a.first, a.second), set()).add(a.role)
            out.setdefault((a.second, a.first), set()).add(a.role.inverse())
    return out


def derives_concept(tbox: TBox, sub: BasicConcept, sup: BasicConcept) -> bool:
    """Positive concept subsumption under ``tbox`` (one-shot, uncached)."""
    return Reasoner(tbox).derives_concept(sub, sup)


def derives_role(tbox: TBox, sub: BasicRole, sup: BasicRole) -> bool:
    """Positive role subsumption under ``tbox`` (one-shot, uncached)."""
    return Reasoner(tbox).derives_role(sub, sup)


def kb_consistent(kb: KnowledgeBase) -> bool:
    """Consistency of a knowledge base (one-shot, uncached)."""
    return Reasoner(kb.tbox).consistent(kb.abox)


def tbox_trivial(tbox: TBox) -> bool:
    """True iff every axiom is a tautology of the form X [= X."""
    return all(not ax.negated_rhs and ax.lhs == ax.rhs for ax in tbox)
