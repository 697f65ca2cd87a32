"""Benchmark inputs: the paper's reductions written directly as ``.kbx`` text,
plus brute-force reference answers for each of them.

These are standalone copies of the encodings the acceptance suite uses, so the
benchmark imports nothing from the test tree or from ``kbx``.  ``check.py``
verifies that the text parses to the same model objects as the test builders.
"""

from __future__ import annotations

from collections import deque


def _kb(roles, tbox, abox) -> str:
    lines = ["kb {"]
    if roles:
        lines.append(f"  roles {{ {', '.join(roles)} }}")
    lines.append("  tbox {")
    lines += [f"    {ax};" for ax in tbox]
    lines.append("  }")
    lines.append("  abox {")
    lines += [f"    {a};" for a in abox]
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _mapping(src_concepts, src_roles, tgt_concepts, tgt_roles, tbox) -> str:
    def names(concepts, roles):
        return ", ".join(list(concepts) + [f"role {r}" for r in roles])

    lines = ["mapping {"]
    lines.append(f"  source {{ {names(src_concepts, src_roles)} }}")
    lines.append(f"  target {{ {names(tgt_concepts, tgt_roles)} }}")
    lines.append("  tbox {")
    lines += [f"    {ax};" for ax in tbox]
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- QBF -> extended universal solutions ------------------------------------

# The three clause matrices of the enumerated family; the paper's formula is
# exists-forall-exists over the first one.
QBF_MATRICES = (
    ((1, True),), ((2, True), (3, False)),
), (
    ((1, True), (2, True)), ((1, False), (3, True)),
), (
    ((2, False),), ((1, True), (3, True)),
)
PAPER_PHI = (("exists", "forall", "exists"), QBF_MATRICES[0])


def qbf_family():
    """Every quantifier pattern over three variables crossed with each matrix:
    24 (quantifiers, clauses) pairs in a fixed order."""
    family = []
    for bits in range(8):
        quants = tuple("exists" if (bits >> pos) & 1 else "forall" for pos in range(3))
        for matrix in QBF_MATRICES:
            family.append((quants, matrix))
    return family


def qbf_valid(quants, clauses) -> bool:
    """Truth of the prenex CNF formula, by expanding every quantifier."""

    def ev(i, assignment):
        if i == len(quants):
            return all(any(assignment[v] == pos for (v, pos) in c) for c in clauses)
        results = (ev(i + 1, {**assignment, i + 1: val}) for val in (False, True))
        return all(results) if quants[i] == "forall" else any(results)

    return ev(0, {})


def qbf_texts(quants, clauses):
    """(kb, mapping) text of the reduction: the source canonical model grows an
    infinite chain per clause that folds into a finite target witness exactly
    when the formula is valid."""
    n, m = len(quants), len(clauses)
    t1 = ["A [= exists S0-"]
    for i, q in enumerate(quants, 1):
        if q == "forall":
            t1 += [f"exists S{i - 1}- [= exists Q{i}v{k}" for k in (0, 1)]
        else:
            t1.append(f"exists S{i - 1}- [= exists S{i}")
        for k in (0, 1):
            t1.append(f"exists Q{i}v{k}- [= Y{i}v{k}")
            t1.append(f"Q{i}v{k} [= S{i}")
    for j in range(1, m + 1):
        t1.append(f"exists S{n}- [= exists R{j}")
        t1.append(f"exists R{j}- [= exists R{j}")
    t1.append("A [= exists T0-")
    for i in range(1, n + 1):
        for k in (0, 1):
            t1.append(f"exists T{i - 1}- [= exists P{i}v{k}")
            t1.append(f"P{i}v{k} [= T{i}")
            t1.append(f"exists P{i}v{k}- [= X{i}v{k}")
    for j, clause in enumerate(clauses, 1):
        for (v, positive) in clause:
            t1.append(f"X{v}v{1 if positive else 0} [= exists R{j}l{v}")
        for i in range(1, n + 1):
            t1.append(f"exists R{j}l{i}- [= exists R{j}l{i - 1}")

    t12 = ["A [= Ap"]
    for l in range(n + 1):
        t12.append(f"S{l} [= Sp")
        t12.append(f"T{l} [= Sp")
        t12 += [f"T{l} [= Rp{j}-" for j in range(1, m + 1)]
    for i in range(1, n + 1):
        for k in (0, 1):
            t12.append(f"Y{i}v{k} [= Z{i}v{k}")
            t12.append(f"X{i}v{k} [= Z{i}v{k}")
    for j in range(1, m + 1):
        t12.append(f"R{j} [= Rp{j}")
        t12.append(f"R{j}l0 [= Rp{j}-")
        t12 += [f"R{j}l{i} [= Rp{j}" for i in range(n + 1)]

    src_concepts = ["A"]
    src_roles = []
    for i in range(1, n + 1):
        for k in (0, 1):
            src_concepts += [f"Y{i}v{k}", f"X{i}v{k}"]
            src_roles += [f"Q{i}v{k}", f"P{i}v{k}"]
    for l in range(n + 1):
        src_roles += [f"S{l}", f"T{l}"]
    for j in range(1, m + 1):
        src_roles.append(f"R{j}")
        src_roles += [f"R{j}l{l}" for l in range(n + 1)]
    tgt_concepts = ["Ap"] + [f"Z{i}v{k}" for i in range(1, n + 1) for k in (0, 1)]
    tgt_roles = ["Sp"] + [f"Rp{j}" for j in range(1, m + 1)]
    kb = _kb(src_roles, t1, ["A(a)"])
    mapping = _mapping(src_concepts, src_roles, tgt_concepts, tgt_roles, t12)
    return kb, mapping


# --- reachability -> UCQ-representations -------------------------------------


def random_digraph(rng, n, m):
    """m distinct edges without loops over n vertices."""
    edges = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((u, v))
    return sorted(edges)


def reachable(edges, src, dst) -> bool:
    """Breadth-first search from src."""
    adj: dict = {}
    for (u, v) in edges:
        adj.setdefault(u, []).append(v)
    seen, queue = {src}, deque([src])
    while queue:
        u = queue.popleft()
        if u == dst:
            return True
        for v in adj.get(u, ()):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return False


def _vertex_mapping(n, extra_src=(), extra_tgt=(), extra_axioms=()):
    return _mapping(
        [f"V{i}" for i in range(n)] + list(extra_src), [],
        [f"V{i}p" for i in range(n)] + list(extra_tgt), [],
        [f"V{i} [= V{i}p" for i in range(n)] + list(extra_axioms),
    )


def reach_membership_texts(n, edges, src, dst):
    """(kb, mapping, t2) text: the primed edge relation represents the source
    TBox (edges plus a src-to-dst shortcut) exactly when dst is reachable."""
    t1 = list(dict.fromkeys([f"V{src} [= V{dst}"] + [f"V{u} [= V{v}" for (u, v) in edges]))
    t2 = [f"V{u}p [= V{v}p" for (u, v) in edges]
    return _kb([], t1, []), _vertex_mapping(n), _kb([], t2, [])


def reach_nonemptiness_texts(n, edges, src, dst):
    """(kb, mapping) text: a representing target TBox exists exactly when dst
    is reachable from src."""
    t1 = [f"V{u} [= V{v}" for (u, v) in edges]
    t1 += [f"St [= V{src}", f"V{dst} [= Gl", "Xc [= Yc"]
    mapping = _vertex_mapping(
        n,
        ["St", "Gl", "Xc", "Yc"],
        ["Stp", "Xcp", "Ycp"],
        ["St [= Stp", "St [= Xcp", "Gl [= Ycp", "Xc [= Xcp", "Yc [= Ycp"],
    )
    return _kb([], list(dict.fromkeys(t1)), []), mapping


# --- 3-colourability -> universal-solution membership ------------------------

COLORS = ("r", "g", "b")


def random_graph(rng, n, m):
    """m distinct undirected edges (u < v) over n vertices."""
    edges = set()
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return sorted(edges)


def three_colorable(n, edges) -> bool:
    """Backtracking over vertices in order, trying colours 0..2."""
    adj = [[] for _ in range(n)]
    for (u, v) in edges:
        adj[u].append(v)
        adj[v].append(u)
    color = [-1] * n

    def place(v) -> bool:
        if v == n:
            return True
        for c in range(3):
            if all(color[w] != c for w in adj[v]):
                color[v] = c
                if place(v + 1):
                    return True
        color[v] = -1
        return False

    return place(0)


def coloring_texts(n, edges):
    """(kb, mapping, candidate) text: the source is a triangle on three colour
    constants and the candidate adds the graph on labeled nulls; it is a
    universal solution exactly when the graph is 3-colourable."""
    triangle = [(c1, c2) for c1 in COLORS for c2 in COLORS if c1 != c2]
    kb = _kb(["E"], [], [f"E({a}, {b})" for (a, b) in triangle])
    mapping = _mapping([], ["E"], [], ["Ep"], ["E [= Ep"])
    facts = [f"Ep({a}, {b})" for (a, b) in triangle]
    for (u, v) in edges:
        facts.append(f"Ep(_v{u}, _v{v})")
        facts.append(f"Ep(_v{v}, _v{u})")
    return kb, mapping, _kb(["Ep"], [], facts)


# --- role chains: data-heavy solution commands ------------------------------


def chain_texts(n, drop=None):
    """(kb, mapping, candidate) text for an R-chain c0000 -> c0001 -> ... over
    n individuals.  The candidate is the chain's exact translation, which is a
    universal solution; with `drop` set it misses the drop-th fact and is not."""
    pairs = [(f"c{i:04d}", f"c{i + 1:04d}") for i in range(n - 1)]
    kb = _kb(["R"], [], [f"R({u}, {v})" for (u, v) in pairs])
    mapping = _mapping([], ["R"], [], ["Rp"], ["R [= Rp"])
    kept = [p for i, p in enumerate(pairs) if i != drop]
    candidate = _kb(["Rp"], [], [f"Rp({u}, {v})" for (u, v) in kept])
    return kb, mapping, candidate
