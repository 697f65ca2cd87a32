"""Structural reasoning over DL-Lite_R TBoxes: closures, entailment, consistency.

The positive fragment of a TBox induces one reflexive-transitive subsumption
closure over basic concepts and basic roles: a digraph with an edge for each
positive inclusion, where a role inclusion, read in both orientations, also
joins ``exists sub`` to ``exists sup``.  A role reaches only roles and a
concept only basic concepts.  Disjointness axioms are normalized into
symmetric clash pair sets.  Without a clash pair every ABox is consistent;
otherwise each co-asserted pair of concepts/roles is checked against the TBox
by a clash scan over the (finitely many) witness classes reachable from it.

A `Reasoner` is that compiled form of one TBox: its edges indexed once, both
clash pair sets, and memos of each node's closure and reverse closure (the
nodes deriving it, read off reverse edges indexed on the first such question),
of witness-class representatives, minimal roles, generated classes, pair
consistency and the entailed set of each distinct asserted set, filled in the
first time a decision asks for one.  Each decision builds the contexts it
needs and drops them when it returns, so no cache outlives a call:
`CanonicalStructure` builds (or is handed) the context of its KB's TBox,
`exchange` reuses the structure's, and `representability` builds one per TBox
it reasons over.  A certificate recheck builds its own contexts
too: a solution's, to verify its certificate (`exchange.verify_solution`), and
a synthesized TBox's, to decide its representation again.
The module-level `kb_consistent` is an uncached one-shot wrapper for the
CLI's `consistency` command.
"""

from __future__ import annotations

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


def _reachable(starts, successors) -> frozenset:
    """``starts`` and every node reachable from them along ``successors``."""
    seen = set(starts)
    todo = list(seen)
    while todo:
        for nxt in successors(todo.pop()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return frozenset(seen)


class Reasoner:
    """The compiled subsumption graph and clash pairs of one TBox.

    Immutable in what it answers.  The closure of a concept or role is
    computed the first time it is asked for; that and the other memos only
    save recomputation and live exactly as long as the context.
    """

    def __init__(self, tbox: TBox):
        self.tbox = tbox
        self._edges: dict = {}
        concept_clashes: set = set()
        role_clashes: set = set()
        for ax in tbox:
            if isinstance(ax, RoleInclusion):
                pairs = ((ax.lhs, ax.rhs), (ax.lhs.inverse(), ax.rhs.inverse()))
                for sub, sup in pairs:
                    if ax.negated_rhs:
                        role_clashes.update(((sub, sup), (sup, sub)))
                    else:
                        self._edges.setdefault(sub, set()).add(sup)
                        self._edges.setdefault(Exists(sub), set()).add(Exists(sup))
            elif ax.negated_rhs:
                concept_clashes.update(((ax.lhs, ax.rhs), (ax.rhs, ax.lhs)))
            else:
                self._edges.setdefault(ax.lhs, set()).add(ax.rhs)
        self.concept_clashes: frozenset = frozenset(concept_clashes)
        self.role_clashes: frozenset = frozenset(role_clashes)
        self._sup: dict = {}
        self._sub: dict = {}
        self._rev: dict | None = None
        self._reps: dict = {}
        self._generated: dict = {}
        self._minimal: dict = {}
        self._pairs: dict = {}
        self._unions: dict = {}

    # -- closures --------------------------------------------------------------

    def sup(self, x: BasicConcept | BasicRole) -> frozenset:
        """Every basic concept or basic role the positive axioms derive from
        ``x``, itself included: only roles from a role, only basic concepts
        from a concept."""
        got = self._sup.get(x)
        if got is None:
            got = self._sup[x] = _reachable((x,), lambda y: self._edges.get(y, ()))
        return got

    def sub(self, x: BasicConcept | BasicRole) -> frozenset:
        """Every basic concept or basic role that derives ``x``, itself included."""
        got = self._sub.get(x)
        if got is None:
            if self._rev is None:
                self._rev = {}
                for y, ups in self._edges.items():
                    for up in ups:
                        self._rev.setdefault(up, set()).add(y)
            got = self._sub[x] = _reachable((x,), lambda y: self._rev.get(y, ()))
        return got

    def derives(self, sub: BasicConcept | BasicRole, sup: BasicConcept | BasicRole) -> bool:
        """Positive subsumption: sub is below sup in the closure."""
        return sup in self.sup(sub)

    # -- witness classes -------------------------------------------------------

    def rep_of(self, role: BasicRole) -> BasicRole:
        """The least member of ``role``'s witness class, the roles that
        ``role`` derives and that derive it."""
        got = self._reps.get(role)
        if got is None:
            got = self._reps[role] = min(
                (s for s in self.sup(role) if self.derives(s, role)), key=str
            )
        return got

    def minimal_roles(self, cands) -> frozenset[BasicRole]:
        """The roles of ``cands`` with no strictly smaller role among ``cands``."""
        key = frozenset(cands)
        got = self._minimal.get(key)
        if got is None:
            got = self._minimal[key] = frozenset(
                r for r in key
                if all(self.rep_of(s) == self.rep_of(r) for s in key if self.derives(s, r))
            )
        return got

    def generated(self, rep: BasicRole) -> tuple[BasicRole, ...]:
        """Witness classes generated by the class element of ``rep``, for any
        basic role, whether or not its class is reachable from some ABox."""
        got = self._generated.get(rep)
        if got is None:
            tail = self.sup(Exists(rep.inverse()))
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

    def _reachable_tail_reps(self, root_type: frozenset) -> frozenset[BasicRole]:
        """Witness-class representatives reachable by chasing existentials.

        Deliberately ignores the satisfaction/minimality side conditions of the
        generating relation: extra classes never fabricate clashes because their
        types are subsumed by the types of the elements that actually absorb them.
        """
        return _reachable(
            {self.rep_of(c.role) for c in root_type if isinstance(c, Exists)},
            lambda rep: [
                self.rep_of(c.role)
                for c in self.sup(Exists(rep.inverse())) if isinstance(c, Exists)
            ],
        )

    def _chase_consistent(self, root_types: list, root_edges: list) -> bool:
        if any(self._type_clash(t) for t in root_types):
            return False
        if any(self._edge_clash(e) for e in root_edges):
            return False
        for rep in self._reachable_tail_reps(frozenset().union(*root_types)):
            if self._type_clash(self.sup(Exists(rep.inverse()))):
                return False
            if self._edge_clash(self.sup(rep)):
                return False
        return True

    def pair_consistent(self, x: BasicConcept | BasicRole, y: BasicConcept | BasicRole) -> bool:
        """Whether asserting both concepts of one fresh individual, or both
        roles of one fresh individual pair, is consistent."""
        if not (self.concept_clashes or self.role_clashes):
            return True
        got = self._pairs.get((x, y))
        if got is None:
            if isinstance(x, BasicRole):
                t1 = self.sup(Exists(x)) | self.sup(Exists(y))
                t2 = self.sup(Exists(x.inverse())) | self.sup(Exists(y.inverse()))
                types, edges = [t1, t2], [self.sup(x) | self.sup(y)]
            else:
                types, edges = [self.sup(x) | self.sup(y)], []
            got = self._pairs[(x, y)] = self._chase_consistent(types, edges)
        return got

    def consistent(self, abox: ABox) -> bool:
        """Consistency of the ABox under this TBox, via pairwise checks of
        co-asserted concepts and roles."""
        if not (self.concept_clashes or self.role_clashes):
            return True
        for group in (*_asserted_concepts(abox).values(), *_asserted_roles(abox).values()):
            xs = sorted(group, key=str)
            for i, x in enumerate(xs):
                if not all(self.pair_consistent(x, y) for y in xs[i:]):
                    return False
        return True

    # -- entailed facts of an ABox ---------------------------------------------

    def term_types(self, abox: ABox) -> dict:
        """Every basic concept entailed of each term of the ABox."""
        return self._closed(_asserted_concepts(abox))

    def pair_roles(self, abox: ABox) -> dict:
        """Every basic role entailed of each asserted term pair, both orientations."""
        return self._closed(_asserted_roles(abox))

    def _closed(self, asserted: dict) -> dict:
        """Each key's union of the closures of its asserted set: one union
        per distinct set, shared by every key that has it."""
        out = {}
        for key, xs in asserted.items():
            xs = frozenset(xs)
            got = self._unions.get(xs)
            if got is None:
                got = self._unions[xs] = frozenset().union(*map(self.sup, xs))
            out[key] = got
        return out


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


def kb_consistent(kb: KnowledgeBase) -> bool:
    """Consistency of a knowledge base (one-shot, uncached)."""
    return Reasoner(kb.tbox).consistent(kb.abox)


def tbox_trivial(tbox: TBox) -> bool:
    """True iff every axiom is a tautology of the form X [= X."""
    return all(not ax.negated_rhs and ax.lhs == ax.rhs for ax in tbox)
