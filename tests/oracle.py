"""Brute-force reference implementations used by the test suite.

Everything here trades efficiency for obviousness: saturation by blind rule
application, homomorphism search by full enumeration, an oblivious chase that
ignores witness minimality.  None of it shares algorithmic code with the main
modules — that independence is the point, so keep it that way.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import count, product

from kbx.canonical import materialize
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
    TBox,
    Variable,
    concept_over,
    role_over,
)


@dataclass(frozen=True)
class SaturationResult:
    concept_pairs: frozenset
    role_pairs: frozenset

    def entails_concept(self, lhs, rhs) -> bool:
        return lhs == rhs or (lhs, rhs) in self.concept_pairs

    def entails_role(self, lhs, rhs) -> bool:
        return lhs == rhs or (lhs, rhs) in self.role_pairs


def naive_saturate(tbox: TBox) -> SaturationResult:
    """All entailed positive inclusions over the occurring names, by repeated
    rule application (reflexivity, transitivity, role inversion, existential
    monotonicity) until nothing new appears."""
    roles: set = set()
    concepts: set = set()
    for ax in tbox:
        if isinstance(ax, RoleInclusion):
            roles.update((ax.lhs, ax.rhs))
        else:
            concepts.update((ax.lhs, ax.rhs))
    for c in list(concepts):
        if isinstance(c, Exists):
            roles.add(c.role)
    roles |= {r.inverse() for r in roles}
    concepts |= {Exists(r) for r in roles}

    rpairs = {(r, r) for r in roles}
    cpairs = {(c, c) for c in concepts}
    for ax in tbox:
        if ax.negated_rhs:
            continue
        if isinstance(ax, RoleInclusion):
            rpairs.add((ax.lhs, ax.rhs))
        else:
            cpairs.add((ax.lhs, ax.rhs))

    changed = True
    while changed:
        changed = False
        for (a, b) in list(rpairs):
            cand = {(a.inverse(), b.inverse())}
            cand |= {(a, d) for (c, d) in rpairs if c == b}
            cand.add((Exists(a), Exists(b)))
            for p in cand:
                if isinstance(p[0], BasicRole):
                    if p not in rpairs:
                        rpairs.add(p)
                        changed = True
                elif p not in cpairs:
                    cpairs.add(p)
                    changed = True
        for (a, b) in list(cpairs):
            for (c, d) in list(cpairs):
                if c == b and (a, d) not in cpairs:
                    cpairs.add((a, d))
                    changed = True
    return SaturationResult(frozenset(cpairs), frozenset(rpairs))


class ChaseStructure:
    """Mutable finite structure grown by the oblivious chase."""

    def __init__(self):
        self.elements: list = []
        self.atomic: set = set()  # (concept name, element)
        self.edges: set = set()  # (role name, e1, e2)

    def holds(self, concept, e) -> bool:
        if isinstance(concept, Atomic):
            return (concept.name, e) in self.atomic
        r = concept.role
        if r.inverted:
            return any(x == e for (n, _y, x) in self.edges if n == r.name)
        return any(x == e for (n, x, _y) in self.edges if n == r.name)

    def has_edge(self, role: BasicRole, e1, e2) -> bool:
        if role.inverted:
            return (role.name, e2, e1) in self.edges
        return (role.name, e1, e2) in self.edges

    def add_edge(self, role: BasicRole, e1, e2):
        if role.inverted:
            self.edges.add((role.name, e2, e1))
        else:
            self.edges.add((role.name, e1, e2))

    def ttype(self, e, sigma: Signature | None = None) -> frozenset:
        out = {Atomic(n) for (n, x) in self.atomic if x == e}
        for (n, x, y) in self.edges:
            if x == e:
                out.add(Exists(BasicRole(n)))
            if y == e:
                out.add(Exists(BasicRole(n, inverted=True)))
        if sigma is not None:
            out = {c for c in out if concept_over(c, sigma)}
        return frozenset(out)

    def rtype(self, e1, e2, sigma: Signature | None = None) -> frozenset:
        out = set()
        for (n, x, y) in self.edges:
            if x == e1 and y == e2:
                out.add(BasicRole(n))
            if x == e2 and y == e1:
                out.add(BasicRole(n, inverted=True))
        if sigma is not None:
            out = {r for r in out if role_over(r, sigma)}
        return frozenset(out)


def naive_chase(kb: KnowledgeBase, depth: int) -> ChaseStructure:
    """Oblivious chase: saturate non-generating consequences to fixpoint, then
    give every unsatisfied existential a fresh successor, `depth` times over.
    No minimization — redundant witnesses are created freely."""
    s = ChaseStructure()
    positive = [ax for ax in kb.tbox if not ax.negated_rhs]
    for t in kb.abox.all_terms():
        s.elements.append(t)
    for a in kb.abox.assertions:
        if isinstance(a, RoleAssertion):
            s.add_edge(a.role, a.first, a.second)
        elif isinstance(a.concept, Atomic):
            s.atomic.add((a.concept.name, a.term))

    fresh = [0]

    def new_element():
        fresh[0] += 1
        e = f"!{fresh[0]}"
        s.elements.append(e)
        return e

    def saturate():
        changed = True
        while changed:
            changed = False
            for ax in positive:
                if isinstance(ax, RoleInclusion):
                    for (n, x, y) in list(s.edges):
                        for inv in (False, True):
                            r = BasicRole(n, inverted=inv)
                            e1, e2 = (y, x) if inv else (x, y)
                            if r == ax.lhs and not s.has_edge(ax.rhs, e1, e2):
                                s.add_edge(ax.rhs, e1, e2)
                                changed = True
                elif isinstance(ax.rhs, Atomic):
                    for e in s.elements:
                        if s.holds(ax.lhs, e) and not s.holds(ax.rhs, e):
                            s.atomic.add((ax.rhs.name, e))
                            changed = True

    saturate()
    # Existential assertions in the ABox are obligations like any others.
    pending = [
        (a.term, a.concept.role)
        for a in kb.abox.assertions
        if isinstance(a, ConceptAssertion) and isinstance(a.concept, Exists)
    ]
    for _round in range(depth):
        for (e, r) in pending:
            if not s.holds(Exists(r), e):
                s.add_edge(r, e, new_element())
        saturate()
        pending = []
        for ax in positive:
            if isinstance(ax, ConceptInclusion) and isinstance(ax.rhs, Exists):
                for e in list(s.elements):
                    if s.holds(ax.lhs, e) and not s.holds(ax.rhs, e):
                        pending.append((e, ax.rhs.role))
        if not pending:
            break
    return s


def _default_chase_depth(tbox: TBox) -> int:
    names = set()
    for ax in tbox:
        for side in (ax.lhs, ax.rhs):
            if isinstance(side, BasicRole):
                names.add(side.name)
            elif isinstance(side, Exists):
                names.add(side.role.name)
    return 2 * len(names) + 2


def chase_inconsistent(kb: KnowledgeBase, depth: int | None = None) -> bool:
    """Clash detection on the oblivious chase.  Complete as long as `depth`
    exceeds the longest generating chain; the default is generous for the
    small TBoxes the oracle suite feeds in."""
    if depth is None:
        depth = _default_chase_depth(kb.tbox)
    s = naive_chase(kb, depth)
    for ax in kb.tbox:
        if not ax.negated_rhs:
            continue
        if isinstance(ax, RoleInclusion):
            for (n, x, y) in s.edges:
                for inv in (False, True):
                    r = BasicRole(n, inverted=inv)
                    e1, e2 = (y, x) if inv else (x, y)
                    if r == ax.lhs and s.has_edge(ax.rhs, e1, e2):
                        return True
        else:
            for e in s.elements:
                if s.holds(ax.lhs, e) and s.holds(ax.rhs, e):
                    return True
    return False


def brute_homomorphism(src, tgt, sigma: Signature | None = None):
    """Exhaustive homomorphism search between finite interpretations.

    Tries every assignment of source elements to target elements (constants
    pinned), so keep the domains tiny.  Returns a dict or None.
    """
    src_elems = list(src.elements)
    tgt_elems = list(tgt.elements)
    pinned = {}
    for c, e in src.constant_elems.items():
        if c not in tgt.constant_elems:
            return None
        pinned[e] = tgt.constant_elems[c]
    free = [e for e in src_elems if e not in pinned]
    cfacts = [
        (n, e)
        for n, ext in src.concept_ext.items()
        if sigma is None or n in sigma.concepts
        for e in ext
    ]
    rfacts = [
        (n, e1, e2)
        for n, ext in src.role_ext.items()
        if sigma is None or n in sigma.roles
        for (e1, e2) in ext
    ]
    for combo in product(tgt_elems, repeat=len(free)):
        h = dict(pinned)
        h.update(zip(free, combo))
        if all(
            h[e] in tgt.concept_ext.get(n, frozenset()) for (n, e) in cfacts
        ) and all(
            (h[e1], h[e2]) in tgt.role_ext.get(n, frozenset()) for (n, e1, e2) in rfacts
        ):
            return h
    return None


def qbf_valid(prefix, clauses) -> bool:
    """Truth of a prenex CNF QBF.

    `prefix` is a sequence of ("forall" | "exists", var) pairs, `clauses` a
    collection of clauses, each a collection of (var, positive) literals.
    """

    def ev(i, assignment):
        if i == len(prefix):
            return all(
                any(assignment[v] == pos for (v, pos) in clause) for clause in clauses
            )
        q, v = prefix[i]
        results = (ev(i + 1, {**assignment, v: val}) for val in (False, True))
        return all(results) if q == "forall" else any(results)

    return ev(0, {})


def graph_reachable(edges, source, target) -> bool:
    adj: dict = {}
    for (u, v) in edges:
        adj.setdefault(u, []).append(v)
    seen = {source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        if u == target:
            return True
        for v in adj.get(u, ()):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return source == target


def three_colorable(vertices, edges) -> bool:
    vs = list(vertices)
    for colors in product(range(3), repeat=len(vs)):
        col = dict(zip(vs, colors))
        if all(col[u] != col[v] for (u, v) in edges):
            return True
    return False


def three_colorable_fc(vertices, edges) -> bool:
    """3-colourability by forward checking: colour a vertex with the fewest
    colours left, strike its colour from its uncoloured neighbours, and
    backtrack as soon as one of them has none left."""
    if any(u == v for u, v in edges):
        return False
    adj: dict = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    left = {v: {0, 1, 2} for v in vertices}

    def colour(free: frozenset) -> bool:
        if not free:
            return True
        v = min(free, key=lambda x: len(left[x]))
        rest = free - {v}
        for c in sorted(left[v]):
            struck = [w for w in adj[v] if w in rest and c in left[w]]
            for w in struck:
                left[w].discard(c)
            if all(left[w] for w in struck) and colour(rest):
                return True
            for w in struck:
                left[w].add(c)
        return False

    return colour(frozenset(vertices))


def certain_answer(kb: KnowledgeBase, concept_atoms, role_atoms, depth: int | None = None) -> bool:
    """Brute certain-answer test for a conjunctive query.

    `concept_atoms` are (BasicConcept, term) pairs and `role_atoms` are
    (BasicRole, term, term) triples; terms may be constants, nulls or
    `Variable`s.  Evaluation runs over the oblivious chase: an inconsistent
    KB entails everything, variables range over all chase elements, and a
    query constant the chase never saw satisfies nothing."""
    concept_atoms = tuple(concept_atoms)
    role_atoms = tuple(role_atoms)
    if depth is None:
        depth = _default_chase_depth(kb.tbox)
    if chase_inconsistent(kb, depth):
        return True
    s = naive_chase(kb, depth)
    variables: list = []
    for atom in concept_atoms:
        if isinstance(atom[1], Variable) and atom[1] not in variables:
            variables.append(atom[1])
    for atom in role_atoms:
        for t in atom[1:]:
            if isinstance(t, Variable) and t not in variables:
                variables.append(t)
    for choice in product(s.elements, repeat=len(variables)):
        assignment = dict(zip(variables, choice))

        def image(t):
            return assignment[t] if isinstance(t, Variable) else t

        if all(s.holds(c, image(t)) for (c, t) in concept_atoms) and all(
            s.has_edge(r, image(t1), image(t2)) for (r, t1, t2) in role_atoms
        ):
            return True
    return False


def naive_simulation(c, f, sigma: Signature | None = None):
    """Regular-to-finite embedding of a canonical structure ``c`` into a finite
    interpretation ``f`` by the textbook greatest fixpoint.

    Starts from every type-compatible (state, element) pair (``None`` is the
    fact-free sink; a constant is pinned to its element, or to the sink when
    ``f`` lacks it and the constant shows nothing over ``sigma``), rescans the
    whole pool for each child's support until a pass changes nothing, and then
    tries every choice of one live image per individual against the role
    facts between individuals.  Returns the surviving (witness class,
    element) pairs, or None when no choice works.
    """

    def ttype(e):
        return f.ttype(e, sigma) if e is not None else frozenset()

    def rtype(e1, e2):
        if e1 is None or e2 is None:
            return frozenset()
        return f.rtype(e1, e2, sigma)

    pool = list(f.elements) + [None]
    alive = set()
    for t in c.individuals:
        if t in f.constant_elems:
            cand = [f.constant_elems[t]]
        elif isinstance(t, Constant):
            if c.state_type(t, sigma):
                return None
            cand = [None]
        else:
            cand = pool
        alive |= {(t, e) for e in cand if c.state_type(t, sigma) <= ttype(e)}
    for rep in c.classes:
        alive |= {(rep, e) for e in pool if c.state_type(rep, sigma) <= ttype(e)}

    changed = True
    while changed:
        changed = False
        for (s, e) in list(alive):
            for child in c.gen[s]:
                need = c.edge_roles(child, sigma)
                if not any((child, e2) in alive and need <= rtype(e, e2) for e2 in pool):
                    alive.discard((s, e))
                    changed = True
                    break

    inds = list(c.individuals)
    options = [[e for (s, e) in alive if s == t] for t in inds]
    for combo in product(*options):
        choice = dict(zip(inds, combo))
        if all(
            r in rtype(choice[t1], choice[t2])
            for (t1, t2), roles in c.individual_roles.items()
            for r in roles
            if sigma is None or r.name in sigma.roles
        ):
            return {(s, e) for (s, e) in alive if s in c.classes}
    return None


def naive_embedding(f, c, sigma: Signature | None = None):
    """Finite-to-regular embedding of a finite interpretation ``f`` into the
    canonical model of the structure ``c``, by plain backtracking over its
    truncation at depth |states| + |f|.

    That depth holds an image of every homomorphism: a connected image spans
    fewer than |f| levels below its shallowest node, the model below a node
    depends only on the node's state, and every state occurs above depth
    |states|.  Constants are pinned; every other element is tried at each
    element of the truncation, or, once an element it shares a role fact
    with is placed, at that image's neighbours.  A fact of ``f`` over
    ``sigma`` is checked against the truncation's extensions as soon as its
    ends are placed.  Returns the map from elements to paths, or None.  Of
    the main code it uses ``materialize`` only, not the regular presentation's
    type and edge lookups that the anchored search reads.
    """
    m = materialize(c, len(c.states()) + len(f.elements))
    h = {}
    for const, e in f.constant_elems.items():
        if const not in m.constant_elems:
            return None
        h[e] = m.constant_elems[const]
    cfacts = [
        (n, e)
        for n, ext in f.concept_ext.items()
        if sigma is None or n in sigma.concepts
        for e in ext
    ]
    rfacts = [
        (n, e1, e2)
        for n, ext in f.role_ext.items()
        if sigma is None or n in sigma.roles
        for (e1, e2) in ext
    ]

    def holds() -> bool:
        return all(
            h[e] in m.concept_ext.get(n, ()) for (n, e) in cfacts if e in h
        ) and all(
            (h[e1], h[e2]) in m.role_ext.get(n, ()) for (n, e1, e2) in rfacts
            if e1 in h and e2 in h
        )

    def place(free: list) -> bool:
        if not free:
            return True
        # Prefer an element that shares a role fact with a placed one.
        near = [(e, x) for e in free for (_n, e1, e2) in rfacts for x in (e1, e2)
                if e in (e1, e2) and x != e and x in h]
        e, x = near[0] if near else (free[0], None)
        rest = [y for y in free if y != e]
        for p in (m.elements if x is None else m.neighbours(h[x])):
            h[e] = p
            if holds() and place(rest):
                return True
        h.pop(e, None)
        return False

    if not holds() or not place([e for e in f.elements if e not in h]):
        return None
    return h


def naive_minimize_witness(abox: ABox, embeds) -> ABox:
    """Drop assertions greedily, in reverse ``str`` order, while ``embeds``
    (an ABox -> bool check of both embedding directions) holds, repeating
    whole passes until one drops nothing."""
    current = list(abox.assertions)
    changed = True
    while changed:
        changed = False
        for a in sorted(current, key=str, reverse=True):
            trial = [x for x in current if x != a]
            if embeds(ABox.make(trial)):
                current = trial
                changed = True
    return ABox.make(current)


def _interpretation_to_abox(f, sigma) -> ABox:
    """Read a truncation written by ``materialize`` back as an extended ABox
    over ``sigma``: each individual stands for itself, and the anonymous
    paths become labeled nulls ``n1``, ``n2``, ... in the order their facts
    are read, skipping the names of null individuals.  The reference for
    the names that ``usol-exists-ext`` gives a witness's nulls."""
    used = {e[0].name for e in f.elements if len(e) == 1 and isinstance(e[0], Null)}
    fresh = (Null(name) for name in (f"n{k}" for k in count(1)) if name not in used)
    names: dict = {}

    def term_for(e):
        if len(e) == 1:
            return e[0]
        if e not in names:
            names[e] = next(fresh)
        return names[e]

    facts = [
        ConceptAssertion(Atomic(n), term_for(e))
        for n, e in f.concept_facts() if n in sigma.concepts
    ]
    facts += [
        RoleAssertion(BasicRole(n), term_for(e1), term_for(e2))
        for n, e1, e2 in f.role_facts() if n in sigma.roles
    ]
    return ABox.make(facts)
