"""Homomorphism checks between a canonical model and a finite interpretation.

Universal-solution decisions need both directions.  Regular-to-finite
(``embeds_regular_into_finite``, re-checked by ``verify_simulation``) is a
greatest-fixpoint simulation over canonical states, exact because path types
depend only on the final witness class; ``_refine`` reaches it by a worklist
over one table, in place, with an element index and an undo trail
(Henzinger, Henzinger and Kopke, "Computing simulations on finite and
infinite graphs", 1995).  Finite-to-regular (``embeds_finite_into_regular``,
re-checked by ``verify_embedding_into_regular``) is complete via an anchored
search: a connected image in a forest-shaped model sits below a unique
shallowest node, so it suffices to try every element as the anchor and every
root as its image.  That search and ``choose_images``' choice of one image
per individual run one forward-checking loop, ``_search`` (Haralick and
Elliott, "Increasing tree search efficiency for constraint satisfaction
problems", 1980).  The two verifiers run neither search nor ``_refine``:
``exchange.verify_solution`` calls them on the certificate of a yes, for the
CLI's recheck.
"""

from __future__ import annotations

from functools import partial
from heapq import heapify, heappop, heappush

from .canonical import CanonicalStructure, FiniteInterpretation, element_label, rtype_edge
from .model import Atomic, BasicRole, Constant, Signature, role_over


def embeds_regular_into_finite(c: CanonicalStructure, f: FiniteInterpretation,
                               sigma: Signature | None = None,
                               images: LiveImages | None = None) -> frozenset | None:
    """Simulation witnessing a homomorphism from the full (possibly infinite)
    canonical model into a finite interpretation: the live images of every
    state (``live_images``, unless ``images`` already holds them) with one
    image chosen per individual (``choose_images``).  Returns the table of
    the chosen individual pairs and every live witness-class pair, or None."""
    if images is None:
        images = live_images(c, f, sigma)
    choice = None if images is None else choose_images(c, f, images)
    if choice is None:
        return None
    return frozenset({*choice.items(), *((rep, e) for rep in c.classes for e in images[rep])})


class LiveImages(dict):
    """Each state's live images, with ``index``: element -> the states that
    hold it, ``trail``: the pairs ``_refine`` killed, in order, and
    ``need``: individual -> individual -> the roles over the signature
    that must hold between their images."""

    def undo(self, mark: int) -> None:
        """Bring back the pairs killed since the trail had ``mark`` of them."""
        while len(self.trail) > mark:
            s, e = self.trail.pop()
            self[s].add(e)
            self.index[e].add(s)


def live_images(c: CanonicalStructure, f: FiniteInterpretation,
                sigma: Signature | None = None) -> LiveImages | None:
    """The greatest simulation of the canonical states in ``f`` (exact, as
    path types depend only on the last witness class and generating edges
    join adjacent paths): a ``LiveImages`` map from each state to its live
    images, with its index, the trail of the pairs killed to reach it, and
    ``need``.  None when a signature-visible constant is missing from
    ``f`` or an individual has no live image (``_refine`` stops there).

    Elements that carry no fact over the signature contribute no answers, so
    they may map to a fact-free sink (recorded as ``None``) instead of a real
    element; their signature-visible descendants still need real images.
    """
    types, _ = c.over(sigma)
    # State types are over the signature, so an element's full type covers
    # one exactly when its filtered type does.
    pool = [(e, f.ttype(e)) for e in f.elements] + [(None, frozenset())]
    images = LiveImages((s, set()) for s in c.gen)
    for t in c.individuals:
        tp = types[t]
        if not isinstance(t, Constant):
            images[t].update(e for e, have in pool if tp <= have)
        elif (e := f.constant_elems.get(t)) is not None:
            if tp <= f.ttype(e):
                images[t].add(e)
        elif tp:
            return None  # a signature-visible constant must map to itself
        else:
            # A constant the witness does not interpret must stay invisible;
            # it takes the sink rather than borrowing a real element.
            images[t].add(None)
    for rep in c.classes:
        tp = types[rep]
        images[rep].update(e for e, have in pool if tp <= have)
    images.index, images.trail = {e: set() for e, _ in pool}, []
    for s, es in images.items():
        for e in es:
            images.index[e].add(s)
    # The scans have checked every type, so only a pair that needs children
    # can die.
    queue = [(s, e) for s, es in images.items() if c.gen[s] for e in es]
    if not all(map(images.get, c.individuals)) or _refine(c, f, sigma, images, queue) is not None:
        return None
    images.need = {t: {} for t in c.individuals}
    over = {roles: frozenset(r for r in roles if sigma is None or role_over(r, sigma))
            for roles in set(c.individual_roles.values())}  # each distinct set once
    for (t1, t2), roles in c.individual_roles.items():
        if over[roles]:
            images.need[t1][t2] = over[roles]
    return images


def choose_images(c: CanonicalStructure, f: FiniteInterpretation, images: LiveImages,
                  first=()) -> dict | None:
    """One live image per individual such that the role facts between
    individuals map onto role facts of ``f``, or None.

    Null-named individuals are unpinned, so the finite core (with its role
    facts) must map consistently.  A ``_search`` over the individuals,
    ``first`` first; each one's values are its live images by label,
    narrowed by ``images.need`` towards the individuals already chosen.
    """
    def by_label(t, _beside) -> list:
        return sorted(images[t], key=lambda e: (e is None, "" if e is None else element_label(e)))

    choice: dict = {}
    keys = list(dict.fromkeys([*first, *c.individuals]))
    return choice if _search(keys, choice, images.need, by_label, f.rtype) else None


def _search(keys: list, assignment: dict, need: dict, values, roles) -> bool:
    """Extend ``assignment`` to every key of ``keys`` by forward checking.

    ``need[x][y]`` holds the roles that must hold from ``x``'s value to
    ``y``'s (``y`` may be ``x`` itself), checked against ``roles(v, w)``;
    ``need[y][x]`` holds their inverses.  ``values(x, w)`` lists, in order,
    the values ``x`` may take next to a placed neighbour whose value is
    ``w`` (None when ``x`` has no placed neighbour); they still have to
    meet ``need``.

    Each unplaced key next to a placed one keeps the values that still fit
    every placed neighbour.  Placing a value narrows its unplaced
    neighbours' values, and an empty set backtracks at once.  The next key
    is the one with the fewest values left, ties broken by the order of
    ``keys``; when no unplaced key is next to a placed one, it is the first
    unplaced key.  A key's requirement towards itself is checked when the
    key is placed.  The keys already in ``assignment`` are checked against
    each other and narrow their neighbours first.  The search is iterative:
    an undo trail restores the narrowed values on backtracking.  Returns
    whether every key got a value; on failure ``assignment`` is as it was.
    """
    rank = dict(zip(keys, range(len(keys))))
    left: dict = {}  # unplaced key next to a placed one -> the values that fit
    trail: list = []  # (key, its values before a change, None when it had none)
    # (number of values, rank, key) for every value list ``left`` was given;
    # an entry whose key has since been placed or narrowed is stale.
    heap: list = []

    def narrow(x) -> bool:
        """Cut the values of ``x``'s unplaced neighbours to those that fit
        ``x``'s value; False when one runs out."""
        v = assignment[x]
        for y, need_xy in need[x].items():
            if y not in assignment:
                old = left.get(y)
                trail.append((y, old))
                fit = [w for w in (values(y, v) if old is None else old) if need_xy <= roles(v, w)]
                left[y] = fit
                heappush(heap, (len(fit), rank[y], y))
                if not fit:
                    return False
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            y, old = trail.pop()
            if old is None:
                left.pop(y, None)
            else:
                left[y] = old
                heappush(heap, (len(old), rank[y], y))

    def fewest():
        """The key of ``left`` with the fewest values, the first by rank
        among equals."""
        if len(heap) > 4 * len(left) + 64:  # mostly stale: rebuild
            heap[:] = [(len(vals), rank[y], y) for y, vals in left.items()]
            heapify(heap)
        while True:
            n, _, y = heappop(heap)
            if y in left and len(left[y]) == n:
                return y

    if not all(need_xy <= roles(v, assignment[y])
               for x, v in assignment.items() for y, need_xy in need[x].items()
               if y in assignment):
        return False
    if not all(narrow(x) for x in assignment):
        return False
    stack: list = []  # per placed key: (key, untried values, trail mark, cursor)
    cursor = 0  # every key before it is placed
    while True:
        if left:
            x = fewest()
        else:
            while cursor < len(keys) and keys[cursor] in assignment:
                cursor += 1
            if cursor == len(keys):
                return True
            x = keys[cursor]
        todo = left.pop(x, None)
        trail.append((x, todo))
        stack.append((x, iter(values(x, None) if todo is None else todo), len(trail), cursor))
        while stack:
            x, untried, mark, cursor = stack[-1]
            for v in untried:
                undo(mark)
                assignment[x] = v
                if (x not in need[x] or need[x][x] <= roles(v, v)) and narrow(x):
                    break
            else:
                undo(mark - 1)  # also puts ``x`` back among the unplaced
                assignment.pop(x, None)
                stack.pop()
                continue
            break
        else:
            return False


def _refine(c: CanonicalStructure, f: FiniteInterpretation, sigma: Signature | None,
            images: LiveImages, queue: list):
    """Shrink ``images`` in place towards the greatest simulation below it;
    None at that fixpoint, or at once the first individual left without a
    live image.

    A pair (state, element) lives while the element's type covers the
    state's and every child class of the state has a live image that the
    element reaches over the child's edge roles: among the element's
    neighbours, or anywhere (the sink included) when the edge shows no role
    over the signature.  ``queue`` holds the pairs to check first.  A dead
    pair leaves the index for the trail, and re-checks only the pairs it
    may have supported: its parents' pairs at the element's neighbours, by
    the index, or all of them once a class whose edge shows no role has no
    image.  A pair dies only if no simulation below ``images`` holds it, so
    the fixpoint, and whether an individual runs out, do not depend on the
    order.  ``CanonicalStructure.over`` gives types and edge roles; each
    visited element's neighbour roles are read once.
    """
    types, need = c.over(sigma)
    gen, parents, index, trail = c.gen, c.parents, images.index, images.trail
    links: dict = {None: ()}  # element -> (neighbour, sigma-filtered roles)

    def linked(e) -> list:
        got = links.get(e)
        if got is None:
            got = links[e] = [
                (e2, roles) for e2 in f.neighbours(e) if (roles := f.rtype(e, e2, sigma))
            ]
        return got

    def lives(s, e) -> bool:
        if not (types[s] <= f.ttype(e) if e is not None else not types[s]):
            return False
        for child in gen[s]:
            if need[child]:
                live = images[child]
                if not any(need[child] <= roles and e2 in live for e2, roles in linked(e)):
                    return False
            elif not images[child]:
                return False
        return True

    while queue:
        pair = s, e = queue.pop()
        if e not in images[s] or lives(s, e):
            continue
        images[s].discard(e)
        index[e].discard(s)
        trail.append(pair)
        if s not in parents:  # an individual: no pair relies on it
            if not images[s]:
                return s
        elif need[s]:
            queue += [(p, e1) for e1, _ in linked(e) for p in index[e1] if p in parents[s]]
        elif not images[s]:
            queue += [(p, e1) for p in parents[s] for e1 in images[p]]
    return None


def verify_simulation(c: CanonicalStructure, f: FiniteInterpretation,
                      table: frozenset, sigma: Signature | None = None) -> bool:
    """Re-check a simulation certificate clause by clause.

    Every pair joins a state of ``c`` to an element of ``f`` or to ``None``,
    the fact-free sink, whose type covers no signature-visible state.  Each
    individual appears exactly once (its chosen image, pinned for
    constants); witness-class pairs may be plentiful.  Each pair's element
    covers the state's type and supports every child class: among its
    neighbours when the child's edge shows a role over the signature, by
    any pair of the child otherwise.  The role facts between individuals
    hold between their images.
    """
    types, need = c.over(sigma)
    elements = set(f.elements)
    images: dict = {s: set() for s in c.gen}
    for s, e in table:
        if s not in images or e is not None and e not in elements:
            return False
        images[s].add(e)
    chosen = {}
    for t in c.individuals:
        if len(images[t]) != 1:
            return False
        (chosen[t],) = images[t]
        if isinstance(t, Constant) and chosen[t] != f.constant_elems.get(t):
            return False
    for s, es in images.items():
        for e in es:
            if not types[s] <= (f.ttype(e) if e is not None else frozenset()):
                return False
            for child in c.gen[s]:
                live = images[child]
                if need[child]:
                    if not any(e2 in live and need[child] <= f.rtype(e, e2)
                               for e2 in f.neighbours(e)):
                        return False
                elif not live:
                    return False
    for (t1, t2), roles in c.individual_roles.items():
        have = f.rtype(chosen[t1], chosen[t2])
        if any(sigma is None or role_over(r, sigma) for r in roles - have):
            return False
    return True


def embeds_finite_into_regular(f: FiniteInterpretation, c: CanonicalStructure,
                               sigma: Signature | None = None) -> dict | None:
    """Homomorphism from a finite interpretation into a canonical model.

    Complete: a connected image lies below a unique shallowest node (the model
    is forest-shaped above any node), whose subtree is determined by its
    state; so anchoring some component element at some root and growing
    neighbour images stepwise explores every homomorphism shape.  Components
    containing constants are anchored by the constants themselves.

    Once the search anchored at an element x on a root ρ fails, the later
    seeds of the same component drop ρ from x's values.  This loses no
    homomorphism.  Call ρ's frame the model itself when ρ is an individual,
    and the class's subtree when ρ is a class.  A search rooted at ρ' moves
    only along edges from its root, so it can put x on ρ only when ρ' has
    ρ's frame: when both are individuals, or ρ' = ρ.  The failed search was
    complete for the homomorphisms into ρ's frame with h(x) = ρ, since the
    roots dropped before it removed none (by the same argument); so there
    are none, and a later search that put x on ρ would find none either.
    """
    if not f.constant_elems.keys() <= set(c.individuals):
        return None
    pin = {e: (const,) for const, e in f.constant_elems.items()}
    # Per element: its atomic concepts, and its neighbours, by label, with
    # the roles to each, both over the signature.
    types = {e: f.ttype(e, sigma) for e in f.elements}
    kept = {tp: frozenset(a for a in tp if isinstance(a, Atomic)) for tp in set(types.values())}
    atoms = {e: kept[tp] for e, tp in types.items()}
    links = {
        e: {e2: roles for e2 in sorted(f.neighbours(e), key=element_label)
            if (roles := f.rtype(e, e2, sigma))}
        for e in f.elements
    }
    roots = [(t,) for t in c.individuals] + [(rep,) for rep in sorted(c.classes, key=str)]
    # Individuals that share a role with each individual, in individual order.
    rank = {t: i for i, t in enumerate(c.individuals)}
    linked: dict = {}
    for t1, t2 in sorted(c.individual_roles, key=lambda pair: rank[pair[1]]):
        linked.setdefault(t1, []).append(t2)
    failed: dict = {}  # element -> the roots a search anchored at it failed on

    def walk(starts) -> list:
        """Breadth-first over the links from ``starts``: each element reached,
        in order."""
        order = list(starts)
        seen = set(order)
        for e in order:
            for e2 in links[e]:
                if e2 not in seen:
                    seen.add(e2)
                    order.append(e2)
        return order

    def around(path) -> list:
        """Every path that can share a role with ``path``: its children, its
        parent, and for an individual the individuals it has a role with."""
        out = [path + (rep,) for rep in c.gen[path[-1]]]
        if len(path) > 1:
            out.append(path[:-1])
        else:
            out.extend((t,) for t in linked.get(path[0], ()))
        return out

    def values(e, beside) -> list:
        """The paths next to ``beside`` that carry ``e``'s atoms, less the
        roots ``e`` failed on.  A component is connected and starts from a
        placed seed, so every element is reached next to a placed one."""
        banned = failed.get(e, ())
        return [p for p in around(beside) if atoms[e] <= c.state_type(p[-1]) and p not in banned]

    def seeds(comp):
        """The partial assignments a component's search starts from, with the
        order of its elements: its pins, or else every element at every
        root.  The generator resumes after an anchored seed only when that
        seed's search failed, and records the failure."""
        pins = [e for e in comp if e in pin]
        if pins:
            yield {e: pin[e] for e in pins}, walk(pins)
            return
        for anchor in comp:
            grown = walk([anchor])
            for root in roots:
                yield {anchor: root}, grown
                failed.setdefault(anchor, set()).add(root)

    edge = partial(rtype_edge, c)
    total: dict = {}
    for e in f.elements:
        if e in total:
            continue
        for assignment, order in seeds(walk([e])):
            if all(atoms[x] <= c.state_type(p[-1]) for x, p in assignment.items()) and _search(
                [x for x in order if x not in assignment], assignment, links, values, edge
            ):
                total.update(assignment)
                break
        else:
            return None
    return total


def verify_embedding_into_regular(f: FiniteInterpretation, c: CanonicalStructure,
                                  h: dict, sigma: Signature | None = None) -> bool:
    """Re-check a finite-into-canonical homomorphism clause by clause: every
    element goes to a path of ``c`` (an individual or a class, then one
    generated class per step), each constant to itself, and every fact over
    the signature onto a fact of ``c``."""

    def in_model(path) -> bool:
        return (type(path) is tuple and len(path) > 0 and path[0] in c.gen
                and all(b in c.gen[a] for a, b in zip(path, path[1:])))

    if any(e not in h or not in_model(h[e]) for e in f.elements):
        return False
    for const, e in f.constant_elems.items():
        if h[e] != (const,):
            return False
    return all(
        Atomic(n) in c.state_type(h[e][-1])
        for n, ext in f.concept_ext.items() if sigma is None or n in sigma.concepts
        for e in ext
    ) and all(
        BasicRole(n) in rtype_edge(c, h[e1], h[e2])
        for n, ext in f.role_ext.items() if sigma is None or n in sigma.roles
        for e1, e2 in ext
    )
