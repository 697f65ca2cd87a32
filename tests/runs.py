"""Run checking for the tree automata of ``kbx.automata``.

`encode_canonical_tree` labels a finite prefix of the automata's tree shape
with a KB's canonical model.  `check_runs` searches for an accepting run over a
finite labeled prefix with a per-branch step budget: obligations closing
inside the prefix decide the answer, obligations escaping below the prefix
close only in Buechi states, and anything else is inconclusive.
"""

from kbx.automata import (
    GOOD_MARK,
    ROOT_MARK,
    And,
    Atom,
    FalseFormula,
    TreeAutomaton,
    TrueFormula,
    _con_sym,
    _ind_sym,
    _pair_sym,
    _rol_sym,
)
from kbx.canonical import build_canonical
from kbx.model import BasicRole, KnowledgeBase, all_basic_concepts, all_basic_roles, signature_of


class LabeledTreePrefix:
    """Finite prefix of an infinite uniformly-branching labeled tree.

    Nodes are tuples of 1-based child indices, the root is ``()``.  Nodes
    absent from `labels` lie beyond the prefix and carry no information.
    """

    def __init__(self, branching: int, labels: dict):
        self.branching = branching
        self.labels = {tuple(node): frozenset(lab) for node, lab in labels.items()}
        if () not in self.labels:
            raise ValueError("prefix must contain the root ()")
        for node in self.labels:
            if node and node[:-1] not in self.labels:
                raise ValueError(f"prefix not closed: parent of {node} missing")
            if any(not 1 <= i <= branching for i in node):
                raise ValueError(f"child index out of range in {node}")

    def in_prefix(self, node: tuple) -> bool:
        return node in self.labels

    def label(self, node: tuple) -> frozenset:
        return self.labels[node]

    def nodes(self) -> list:
        return sorted(self.labels)

    def relabel(self, node: tuple, label) -> "LabeledTreePrefix":
        """Copy with one node's label replaced (for corruption tests)."""
        new = dict(self.labels)
        new[tuple(node)] = frozenset(label)
        return LabeledTreePrefix(self.branching, new)


def encode_canonical_tree(kb: KnowledgeBase, depth: int, good: bool = False) -> LabeledTreePrefix:
    """Label the shared tree shape with `kb`'s canonical model.

    `kb` must already be balanced (pass `TreeAutomaton.kb` or pad first).
    The prefix holds every node of length <= `depth` (plus one blank layer
    when `good` is set, so the marked region ends inside the prefix);
    semantic nodes carry their full entailed labels, the rest stay blank.
    """
    sig = signature_of(kb)
    inds = tuple(kb.abox.all_terms())
    concepts = tuple(all_basic_concepts(sig))
    roles = tuple(all_basic_roles(sig))
    if len(roles) != len(inds):
        raise ValueError("encode_canonical_tree needs a balanced KB; use pad_kb first")
    n = len(inds)
    slot = {r: i + 1 for i, r in enumerate(roles)}
    can = build_canonical(kb, check_consistency=False)

    labels: dict = {}
    root = {ROOT_MARK}
    if good:
        root.add(GOOD_MARK)
    for name in sorted(sig.roles):
        for t in inds:
            for u in inds:
                if BasicRole(name) in can.individual_roles.get((t, u), ()):
                    root.add(_pair_sym(name, t, u))
    labels[()] = root

    def place(path: tuple, state, level: int) -> None:
        if level >= depth:
            return
        for rep in can.gen[state]:
            child = path + (slot[rep],)
            lab = {_con_sym(b) for b in can.state_type(rep)}
            lab |= {_rol_sym(r) for r in can.edge_roles(rep)}
            if good:
                lab.add(GOOD_MARK)
            labels[child] = lab
            place(child, rep, level + 1)

    for i, t in enumerate(inds, start=1):
        lab = {_ind_sym(t)}
        lab |= {_con_sym(b) for b in concepts if b in can.individual_types[t]}
        if good:
            lab.add(GOOD_MARK)
        labels[(i,)] = lab
        place((i,), t, 1)

    horizon = depth + 1 if good else depth
    frontier: list = [()]
    for _ in range(horizon):
        nxt = []
        for node in frontier:
            for i in range(1, n + 1):
                child = node + (i,)
                nxt.append(child)
                if child not in labels:
                    labels[child] = set()
        frontier = nxt
    return LabeledTreePrefix(n, labels)


_UNSET = object()


def check_runs(automaton: TreeAutomaton, tree: LabeledTreePrefix, step_bound: int) -> str:
    """Bounded accepting-run search: 'accepts', 'rejects' or 'inconclusive'.

    Three-valued AND/OR evaluation with a per-branch step budget.  An
    obligation escaping below the prefix closes successfully only in a Buechi
    state; an upward move at the root fails; revisiting an obligation already
    on the current branch closes it when its state is Buechi (the run may
    loop); an exhausted budget is indeterminate.  `accepts` and `rejects` are
    definitive, `inconclusive` means the budget or prefix was too small.
    """
    if tree.branching != automaton.branching:
        raise ValueError(
            f"tree branching {tree.branching} != automaton branching {automaton.branching}"
        )
    memo: dict = {}
    no_assumptions: frozenset = frozenset()

    def obligation(node, state, budget, path):
        if node is None:
            return False, no_assumptions
        if not tree.in_prefix(node):
            if state in automaton.buchi:
                return True, no_assumptions
            return None, no_assumptions
        key = (node, state)
        hit = memo.get(key, _UNSET)
        if hit is not _UNSET:
            return hit, no_assumptions
        if key in path:
            # A repeat on the current branch: the run may cycle through here
            # forever, which is accepting exactly when the state is Buechi.
            if state in automaton.buchi:
                return True, frozenset({key})
            return None, no_assumptions
        if budget <= 0:
            return None, no_assumptions
        value, assume = evaluate(
            automaton.transition(state, tree.label(node)), node, budget - 1, path | {key}
        )
        if value is False:
            # Optimistic cycle assumptions only ever add successes, so a
            # failure under them is a failure outright.
            memo[key] = False
            return False, no_assumptions
        assume = assume - {key}
        if value is True and not assume:
            memo[key] = True
        return value, assume

    def evaluate(formula, node, budget, path):
        if isinstance(formula, TrueFormula):
            return True, no_assumptions
        if isinstance(formula, FalseFormula):
            return False, no_assumptions
        if isinstance(formula, Atom):
            if formula.direction == 0:
                target = node
            elif formula.direction == -1:
                target = node[:-1] if node else None
            else:
                target = node + (formula.direction,)
            return obligation(target, formula.state, budget, path)
        results = [evaluate(p, node, budget, path) for p in formula.parts]
        assume = no_assumptions
        for _, a in results:
            assume |= a
        vals = [v for v, _ in results]
        if isinstance(formula, And):
            if any(v is False for v in vals):
                return False, assume
            if any(v is None for v in vals):
                return None, assume
            return True, assume
        if any(v is True for v in vals):
            return True, assume
        if any(v is None for v in vals):
            return None, assume
        return False, assume

    answer, _ = obligation((), automaton.initial, step_bound, frozenset())
    if answer is True:
        return "accepts"
    if answer is False:
        return "rejects"
    return "inconclusive"
