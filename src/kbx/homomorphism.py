"""Homomorphism and simulation checks between finite and regular structures.

Three shapes of problem show up in exchange and representability decisions:
finite-to-finite (a CSP), regular-to-finite (a greatest-fixpoint simulation
over canonical states, exact because path types depend only on the final
witness class), and finite-to-regular (complete via an anchored search: a
connected image in a forest-shaped model sits below a unique shallowest node,
so it suffices to try every element as the anchor and every state as its
image).  Regular-to-regular is only semi-decided and reports a third value.
"""

from __future__ import annotations

from .canonical import (
    CanonicalStructure,
    FiniteInterpretation,
    element_label,
    materialize,
    rtype_edge,
    ttype_at,
)
from .model import Atomic, BasicRole, Constant, Signature

SimulationTable = frozenset


def _concept_requirements(f: FiniteInterpretation, sigma: Signature | None) -> dict:
    req: dict = {e: set() for e in f.elements}
    for n, ext in f.concept_ext.items():
        if sigma is None or n in sigma.concepts:
            for e in ext:
                req[e].add(n)
    return req


def _role_requirements(f: FiniteInterpretation, sigma: Signature | None) -> list:
    return [
        (n, e1, e2)
        for n, ext in sorted(f.role_ext.items())
        if sigma is None or n in sigma.roles
        for (e1, e2) in sorted(ext, key=lambda p: (element_label(p[0]), element_label(p[1])))
    ]


def find_homomorphism(src: FiniteInterpretation, tgt: FiniteInterpretation,
                      sigma: Signature | None = None) -> dict | None:
    """Backtracking search with forward checking; constants are pinned.

    Returns an element map preserving all (signature-filtered) facts, or None.
    A source constant missing from the target leaves nothing to pin it to, so
    the answer is immediately None.
    """
    creq = _concept_requirements(src, sigma)
    rfacts = _role_requirements(src, sigma)
    pinned = {}
    for c, e in src.constant_elems.items():
        if c not in tgt.constant_elems:
            return None
        pinned[e] = tgt.constant_elems[c]

    def has_all(x, names) -> bool:
        return all(x in tgt.concept_ext.get(n, frozenset()) for n in names)

    domains: dict = {}
    for e in src.elements:
        if e in pinned:
            cand = {pinned[e]} if has_all(pinned[e], creq[e]) else set()
        else:
            cand = {x for x in tgt.elements if has_all(x, creq[e])}
        if not cand:
            return None
        domains[e] = cand

    neighbors: dict = {e: [] for e in src.elements}
    for (n, e1, e2) in rfacts:
        neighbors[e1].append((n, e2, True))
        if e1 != e2:
            neighbors[e2].append((n, e1, False))

    pairs = tgt.role_ext

    def edge_ok(n, x, y) -> bool:
        return (x, y) in pairs.get(n, frozenset())

    assignment: dict = {}

    def prune_for(e, x):
        """Forward-check unassigned neighbors of e; returns removals or None."""
        trail = []
        for (n, other, fwd) in neighbors[e]:
            if other == e:
                if not edge_ok(n, x, x):
                    _restore(trail)
                    return None
                continue
            if other in assignment:
                y = assignment[other]
                ok = edge_ok(n, x, y) if fwd else edge_ok(n, y, x)
                if not ok:
                    _restore(trail)
                    return None
            else:
                dom = domains[other]
                bad = {
                    y for y in dom
                    if not (edge_ok(n, x, y) if fwd else edge_ok(n, y, x))
                }
                if bad:
                    if bad == dom:
                        _restore(trail)
                        return None
                    domains[other] = dom - bad
                    trail.append((other, dom))
        return trail

    def _restore(trail):
        for other, dom in reversed(trail):
            domains[other] = dom

    def solve() -> bool:
        todo = [e for e in src.elements if e not in assignment]
        if not todo:
            return True
        e = min(todo, key=lambda q: (len(domains[q]), element_label(q)))
        for x in sorted(domains[e], key=element_label):
            assignment[e] = x
            trail = prune_for(e, x)
            if trail is not None:
                if solve():
                    return True
                _restore(trail)
            del assignment[e]
        return False

    return dict(assignment) if solve() else None


def verify_homomorphism(src: FiniteInterpretation, tgt: FiniteInterpretation,
                        h: dict, sigma: Signature | None = None) -> bool:
    """Independent re-check of a claimed homomorphism certificate."""
    if any(e not in h for e in src.elements):
        return False
    for c, e in src.constant_elems.items():
        if c not in tgt.constant_elems or h[e] != tgt.constant_elems[c]:
            return False
    for n, ext in src.concept_ext.items():
        if sigma is not None and n not in sigma.concepts:
            continue
        if any(h[e] not in tgt.concept_ext.get(n, frozenset()) for e in ext):
            return False
    for n, ext in src.role_ext.items():
        if sigma is not None and n not in sigma.roles:
            continue
        if any((h[e1], h[e2]) not in tgt.role_ext.get(n, frozenset()) for (e1, e2) in ext):
            return False
    return True


def embeds_regular_into_finite(c: CanonicalStructure, f: FiniteInterpretation,
                               sigma: Signature | None = None) -> SimulationTable | None:
    """Simulation witnessing a homomorphism from the full (possibly infinite)
    canonical model into a finite interpretation.

    Greatest fixpoint over (state, element) pairs; exact because the type of a
    path depends only on its last witness class and generating edges connect
    adjacent paths only.  Returns the surviving table, or None.

    Elements that carry no fact over the signature contribute no answers, so
    they may map to a fact-free sink (recorded as ``None``) instead of a real
    element; their signature-visible descendants still need real images.
    """
    pin = {}
    for t in c.individuals:
        if isinstance(t, Constant):
            if t in f.constant_elems:
                pin[t] = f.constant_elems[t]
            elif c.state_type(t, sigma):
                # A signature-visible constant must map to itself.
                return None

    pool = list(f.elements) + [None]

    def ttype(e) -> frozenset:
        return f.ttype(e, sigma) if e is not None else frozenset()

    def rtype(e1, e2) -> frozenset:
        if e1 is None or e2 is None:
            return frozenset()
        return f.rtype(e1, e2, sigma)

    alive: set = set()
    for t in c.individuals:
        if t in pin:
            cand = [pin[t]]
        elif isinstance(t, Constant):
            # A constant the witness does not interpret must stay invisible;
            # it takes the sink rather than borrowing a real element.
            cand = [None]
        else:
            cand = pool
        tp = c.state_type(t, sigma)
        for e in cand:
            if tp <= ttype(e):
                alive.add((t, e))
    for rep in c.classes:
        tp = c.state_type(rep, sigma)
        for e in pool:
            if tp <= ttype(e):
                alive.add((rep, e))

    need = {rep: c.edge_roles(rep, sigma) for rep in c.classes}
    changed = True
    while changed:
        changed = False
        for (s, e) in list(alive):
            for child in c.gen[s]:
                ok = any(
                    (child, e2) in alive and need[child] <= rtype(e, e2)
                    for e2 in pool
                )
                if not ok:
                    alive.discard((s, e))
                    changed = True
                    break

    # Null-named individuals are unpinned; choose one image per individual
    # so that the finite core (with its role facts) maps consistently.
    role_reqs = []
    for (t1, t2), roles in c.individual_roles.items():
        need = frozenset(
            r for r in roles if sigma is None or _role_in(r, sigma)
        )
        if need:
            role_reqs.append((t1, t2, need))
    inds = list(c.individuals)
    choice: dict = {}

    def assign(i: int) -> bool:
        if i == len(inds):
            return True
        t = inds[i]
        images = sorted(
            (e for (s, e) in alive if s == t),
            key=lambda e: (e is None, element_label(e) if e is not None else ""),
        )
        for e in images:
            choice[t] = e
            if all(
                t1 not in choice or t2 not in choice
                or need <= rtype(choice[t1], choice[t2])
                for (t1, t2, need) in role_reqs
            ):
                if assign(i + 1):
                    return True
            del choice[t]
        return False

    if not assign(0):
        return None
    table = {(t, choice[t]) for t in inds}
    table |= {(s, e) for (s, e) in alive if isinstance(s, BasicRole)}
    return SimulationTable(table)


def _role_in(r: BasicRole, sigma: Signature) -> bool:
    return r.name in sigma.roles


def verify_simulation(c: CanonicalStructure, f: FiniteInterpretation,
                      table: SimulationTable, sigma: Signature | None = None) -> bool:
    """Re-check a simulation certificate clause by clause.

    Each individual must appear exactly once (its chosen image, pinned for
    constants); witness-class pairs may be plentiful.  A ``None`` image is the
    fact-free sink and is only admissible for signature-invisible states.
    """

    def ttype(e) -> frozenset:
        return f.ttype(e, sigma) if e is not None else frozenset()

    def rtype(e1, e2) -> frozenset:
        if e1 is None or e2 is None:
            return frozenset()
        return f.rtype(e1, e2, sigma)

    pool = list(f.elements) + [None]
    pairs = set(table)
    images: dict = {}
    for (s, e) in pairs:
        if not isinstance(s, BasicRole):
            if s in images:
                return False
            images[s] = e
    for t in c.individuals:
        if t not in images:
            return False
        if isinstance(t, Constant):
            if images[t] is None:
                if t in f.constant_elems:
                    return False
            elif images[t] != f.constant_elems.get(t):
                return False
    need = {rep: c.edge_roles(rep, sigma) for rep in c.classes}
    for (s, e) in pairs:
        if not c.state_type(s, sigma) <= ttype(e):
            return False
        for child in c.gen[s]:
            if not any(
                (child, e2) in pairs and need[child] <= rtype(e, e2)
                for e2 in pool
            ):
                return False
    for (t1, t2), roles in c.individual_roles.items():
        have = rtype(images[t1], images[t2])
        for r in roles:
            if sigma is None or _role_in(r, sigma):
                if r not in have:
                    return False
    return True


def _components(f: FiniteInterpretation, sigma: Signature | None) -> list:
    adj: dict = {e: set() for e in f.elements}
    for (n, e1, e2) in _role_requirements(f, sigma):
        adj[e1].add(e2)
        adj[e2].add(e1)
    seen: set = set()
    out = []
    for e in f.elements:
        if e in seen:
            continue
        comp = []
        stack = [e]
        seen.add(e)
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        out.append((comp, adj))
    return out


def embeds_finite_into_regular(f: FiniteInterpretation, c: CanonicalStructure,
                               sigma: Signature | None = None) -> dict | None:
    """Homomorphism from a finite interpretation into a canonical model.

    Complete: a connected image lies below a unique shallowest node (the model
    is forest-shaped above any node), whose subtree is determined by its
    state; so anchoring some component element at some state and growing
    neighbor images stepwise explores every homomorphism shape.  Components
    containing constants are anchored by the constants themselves.
    """
    creq = _concept_requirements(f, sigma)
    rfacts = _role_requirements(f, sigma)
    pin = {}
    for const, e in f.constant_elems.items():
        if const not in c.individuals:
            return None
        pin[e] = (const,)

    facts_at: dict = {e: [] for e in f.elements}
    for (n, e1, e2) in rfacts:
        facts_at[e1].append((n, e1, e2))
        if e2 != e1:
            facts_at[e2].append((n, e1, e2))

    const_roots = [(t,) for t in c.individuals]

    def node_ok(e, path) -> bool:
        tp = ttype_at(c, path)
        return all(Atomic(n) in tp for n in creq[e])

    def edges_ok(e, path, assignment) -> bool:
        for (n, e1, e2) in facts_at[e]:
            p1 = path if e1 == e else assignment.get(e1)
            p2 = path if e2 == e else assignment.get(e2)
            if p1 is None or p2 is None:
                continue
            if BasicRole(n) not in rtype_edge(c, p1, p2):
                return False
        return True

    def candidates(path):
        state = path[-1] if len(path) > 1 else path[0]
        out = [path + (rep,) for rep in c.gen[state]]
        if len(path) > 1:
            out.append(path[:-1])
        elif not isinstance(path[0], BasicRole):
            out.extend(const_roots)
        out.append(path)
        return out

    def grow(order, assignment, idx) -> bool:
        if idx == len(order):
            return True
        e = order[idx]
        cands: list = []
        seen: set = set()
        for base in list(assignment.values()):
            for p in candidates(base):
                if p not in seen:
                    seen.add(p)
                    cands.append(p)
        for p in cands:
            if node_ok(e, p) and edges_ok(e, p, assignment):
                assignment[e] = p
                if grow(order, assignment, idx + 1):
                    return True
                del assignment[e]
        return False

    total: dict = {}
    for comp, adj in _components(f, sigma):
        pinned_elems = [e for e in comp if e in pin]
        order = _bfs_order(comp, adj, pinned_elems or None)
        if pinned_elems:
            assignment = {e: pin[e] for e in pinned_elems}
            for e in pinned_elems:
                if not (node_ok(e, pin[e]) and edges_ok(e, pin[e], assignment)):
                    return None
            rest = [e for e in order if e not in pin]
            if not grow(rest, assignment, 0):
                return None
            total.update(assignment)
        else:
            done = False
            roots = const_roots + [(rep,) for rep in sorted(c.classes, key=str)]
            for anchor in order:
                rest = [e for e in _bfs_order(comp, adj, [anchor]) if e != anchor]
                for root in roots:
                    assignment = {anchor: root}
                    if not (node_ok(anchor, root) and edges_ok(anchor, root, assignment)):
                        continue
                    if grow(rest, assignment, 0):
                        total.update(assignment)
                        done = True
                        break
                if done:
                    break
            if not done:
                return None
    return total


def _bfs_order(comp, adj, starts=None):
    comp_set = set(comp)
    order = []
    seen: set = set()
    queue = list(starts) if starts else []
    for s in queue:
        seen.add(s)
    i = 0
    while True:
        while i < len(queue):
            x = queue[i]
            i += 1
            order.append(x)
            for y in sorted(adj[x], key=element_label):
                if y in comp_set and y not in seen:
                    seen.add(y)
                    queue.append(y)
        remaining = [e for e in comp if e not in seen]
        if not remaining:
            return order
        nxt = min(remaining, key=element_label)
        seen.add(nxt)
        queue.append(nxt)


def verify_embedding_into_regular(f: FiniteInterpretation, c: CanonicalStructure,
                                  h: dict, sigma: Signature | None = None) -> bool:
    """Independent re-check of a finite-into-canonical homomorphism."""
    if any(e not in h for e in f.elements):
        return False
    for const, e in f.constant_elems.items():
        if h[e] != (const,):
            return False
    for n, ext in f.concept_ext.items():
        if sigma is not None and n not in sigma.concepts:
            continue
        for e in ext:
            if Atomic(n) not in ttype_at(c, h[e]):
                return False
    for n, ext in f.role_ext.items():
        if sigma is not None and n not in sigma.roles:
            continue
        for (e1, e2) in ext:
            if BasicRole(n) not in rtype_edge(c, h[e1], h[e2]):
                return False
    return True


def embeds_regular_into_regular_bounded(c1: CanonicalStructure, c2: CanonicalStructure,
                                        sigma: Signature | None = None,
                                        depth_cap: int = 6):
    """Semi-decision for a homomorphism between two canonical models.

    Returns ("yes", table) when a forward state simulation exists (sound: it
    maps children to children, which some homomorphisms do not); ("no", d)
    when the depth-d truncation of the first model already fails to embed
    (definitive, as truncations only restrict); ("unknown", None) otherwise.
    """
    table = _state_simulation(c1, c2, sigma)
    if table is not None:
        return ("yes", table)
    for d in range(depth_cap + 1):
        trunc = materialize(c1, d)
        if embeds_finite_into_regular(_reduct(trunc, sigma), c2, sigma) is None:
            return ("no", d)
    return ("unknown", None)


def _reduct(f: FiniteInterpretation, sigma: Signature | None) -> FiniteInterpretation:
    if sigma is None:
        return f
    cf = [(n, e) for (n, e) in f.concept_facts() if n in sigma.concepts]
    rf = [(n, a, b) for (n, a, b) in f.role_facts() if n in sigma.roles]
    return FiniteInterpretation(f.elements, cf, rf, f.constant_elems)


def _state_simulation(c1: CanonicalStructure, c2: CanonicalStructure,
                      sigma: Signature | None):
    pairs: set = set()
    pin = {}
    for t in c1.individuals:
        if t not in c2.individuals:
            return None
        pin[t] = t
        if c1.state_type(t, sigma) <= c2.state_type(t, sigma):
            pairs.add((t, t))
    for (t1, t2), roles in c1.individual_roles.items():
        have = c2.individual_roles.get((t1, t2), frozenset())
        for r in roles:
            if sigma is None or _role_in(r, sigma):
                if r not in have:
                    return None
    states2 = list(c2.individuals) + sorted(c2.classes, key=str)
    for rep in c1.classes:
        tp = c1.state_type(rep, sigma)
        for s2 in states2:
            if tp <= c2.state_type(s2, sigma):
                pairs.add((rep, s2))

    def child_edge(c, child, sigma_):
        return c.edge_roles(child, sigma_)

    changed = True
    while changed:
        changed = False
        for (s1, s2) in list(pairs):
            for child1 in c1.gen[s1]:
                need = child_edge(c1, child1, sigma)
                ok = any(
                    (child1, child2) in pairs and need <= child_edge(c2, child2, sigma)
                    for child2 in c2.gen[s2]
                )
                if not ok:
                    pairs.discard((s1, s2))
                    changed = True
                    break
    for t in c1.individuals:
        if (t, t) not in pairs:
            return None
    return SimulationTable(pairs)
