"""Tree automata for validating exchange witnesses.

Three constructions over a common n-ary infinite-tree shape (individuals on
the first row of children, one child slot per basic role further down):

* `build_acan`  -- accepts exactly the tree encoding of a KB's canonical model;
* `build_amod`  -- accepts trees whose G-marked part encodes a model of the KB;
* `build_afin`  -- accepts trees whose G marks form a finite prefix.

All three read the same kind of letters: finite sets of symbols naming
individuals (``ind:a``), basic concepts (``con:F``), basic roles (``rol:S-``),
root-level role pairs (``pair:S(a,b)``) and the markers ``mark:r`` (root) and
``mark:G``.  The constructions need the number of basic roles to equal the
number of individuals so individual slots and role slots share one branching
degree; `pad_kb` establishes that with fresh isolated role loops on fresh
constants and every `build_*` function applies it, recording the padding in
the dump header.

`check_runs` searches for an accepting run over a finite labeled prefix with a
per-branch step budget: obligations closing inside the prefix decide the
answer, obligations escaping below the prefix close only in Buechi states, and
anything else is inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .canonical import build_canonical
from .model import (
    ABox,
    BasicRole,
    Exists,
    KnowledgeBase,
    RoleAssertion,
    all_basic_concepts,
    all_basic_roles,
    signature_of,
)
from .reasoner import Reasoner

ROOT_MARK = "mark:r"
GOOD_MARK = "mark:G"


# ---------------------------------------------------------------------------
# Positive boolean formulas over move directions.


@dataclass(frozen=True)
class TrueFormula:
    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class FalseFormula:
    def __str__(self) -> str:
        return "false"


@dataclass(frozen=True)
class Atom:
    """An obligation at a neighbour: -1 moves up, 0 stays, i >= 1 descends."""

    direction: int
    state: str

    def __str__(self) -> str:
        return f"({self.direction},{self.state})"


@dataclass(frozen=True)
class And:
    parts: tuple

    def __str__(self) -> str:
        return "AND(" + ", ".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class Or:
    parts: tuple

    def __str__(self) -> str:
        return "OR(" + ", ".join(str(p) for p in self.parts) + ")"


Formula = Union[TrueFormula, FalseFormula, Atom, And, Or]
TRUE = TrueFormula()
FALSE = FalseFormula()


def conj(parts) -> Formula:
    """Conjunction with unit/absorption simplification and flattening."""
    out: list[Formula] = []
    for p in parts:
        if isinstance(p, FalseFormula):
            return FALSE
        if isinstance(p, TrueFormula):
            continue
        if isinstance(p, And):
            out.extend(p.parts)
        else:
            out.append(p)
    if not out:
        return TRUE
    if len(out) == 1:
        return out[0]
    return And(tuple(out))


def disj(parts) -> Formula:
    out: list[Formula] = []
    for p in parts:
        if isinstance(p, TrueFormula):
            return TRUE
        if isinstance(p, FalseFormula):
            continue
        if isinstance(p, Or):
            out.extend(p.parts)
        else:
            out.append(p)
    if not out:
        return FALSE
    if len(out) == 1:
        return out[0]
    return Or(tuple(out))


# ---------------------------------------------------------------------------
# Automata as guarded case tables.


@dataclass(frozen=True)
class Guard:
    """Letter predicate attached to a transition case."""

    kind: str  # always | has | lacks | not_all | inds_empty | inds_eq
    symbols: tuple = ()

    def test(self, letter: frozenset, individual_symbols: frozenset) -> bool:
        if self.kind == "always":
            return True
        if self.kind == "has":
            return all(s in letter for s in self.symbols)
        if self.kind == "lacks":
            return all(s not in letter for s in self.symbols)
        if self.kind == "not_all":
            return not all(s in letter for s in self.symbols)
        if self.kind == "inds_empty":
            return not (letter & individual_symbols)
        if self.kind == "inds_eq":
            return letter & individual_symbols == frozenset(self.symbols)
        raise ValueError(f"unknown guard kind {self.kind!r}")

    def text(self) -> str:
        if self.kind == "always":
            return "always"
        if self.kind == "has":
            return " and ".join(f"{s} in letter" for s in self.symbols)
        if self.kind == "lacks":
            return " and ".join(f"{s} not in letter" for s in self.symbols)
        if self.kind == "not_all":
            return "not (" + " and ".join(f"{s} in letter" for s in self.symbols) + ")"
        if self.kind == "inds_empty":
            return "letter has no individual symbol"
        if self.kind == "inds_eq":
            return "individual symbols of letter == {" + self.symbols[0] + "}"
        raise ValueError(f"unknown guard kind {self.kind!r}")


ALWAYS = Guard("always")


@dataclass(frozen=True, eq=False)
class TreeAutomaton:
    """An alternating tree automaton presented as a guarded case table.

    `transition(state, letter)` conjoins the formulas of every case whose
    guard matches the letter; a (state, letter) pair matching no case maps to
    false.  `kb` is the padded knowledge base the automaton was built from.
    """

    name: str
    kind: str  # "twoWayAlternating" | "oneWayNondeterministic"
    branching: int
    states: tuple
    initial: str
    buchi: frozenset
    cases: tuple  # of (state, Guard, Formula)
    alphabet: tuple
    individual_symbols: frozenset
    kb: KnowledgeBase
    padding_note: str

    def transition(self, state: str, letter: frozenset) -> Formula:
        matched = [
            formula
            for (s, guard, formula) in self.cases
            if s == state and guard.test(letter, self.individual_symbols)
        ]
        if not matched:
            return FALSE
        return conj(matched)


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


# ---------------------------------------------------------------------------
# Alphabet plumbing.


def _ind_sym(t) -> str:
    return f"ind:{t}"


def _con_sym(c) -> str:
    return f"con:{c}"


def _rol_sym(r) -> str:
    return f"rol:{r}"


def _pair_sym(name: str, t1, t2) -> str:
    return f"pair:{name}({t1},{t2})"


def pad_kb(kb: KnowledgeBase) -> tuple:
    """Balance the KB so that #basic roles == #individuals.

    Padding only ever adds fresh isolated role loops on fresh constants: a
    fresh role name per missing role pair, or a loop over the first existing
    role name per missing individual.  Returns (padded KB, dump-header note).
    """
    sig = signature_of(kb)
    role_names = sorted(sig.roles)
    taken = {str(t) for t in kb.abox.all_terms()}
    added_roles: list[str] = []
    extra: list[RoleAssertion] = []

    def fresh_const():
        i = 1
        while f"u{i}" in taken:
            i += 1
        taken.add(f"u{i}")
        from .model import Constant

        return Constant(f"u{i}")

    def fresh_role() -> str:
        names = set(role_names) | set(added_roles)
        i = 1
        while f"pad{i}" in names:
            i += 1
        added_roles.append(f"pad{i}")
        return f"pad{i}"

    n_i = len(kb.abox.all_terms())
    n_r = 2 * len(role_names)
    if n_i == 0 and n_r == 0:
        c = fresh_const()
        extra.append(RoleAssertion(BasicRole(fresh_role()), c, c))
        n_i, n_r = 1, 2
    while n_i > n_r:
        c = fresh_const()
        extra.append(RoleAssertion(BasicRole(fresh_role()), c, c))
        n_i += 1
        n_r += 2
    loop_name = role_names[0] if role_names else (added_roles[0] if added_roles else None)
    while n_r > n_i:
        c = fresh_const()
        extra.append(RoleAssertion(BasicRole(loop_name), c, c))
        n_i += 1
    if not extra:
        return kb, "padding: none"
    abox = ABox.make(tuple(kb.abox.assertions) + tuple(extra))
    note = "padding: added " + ", ".join(str(a) for a in extra)
    return KnowledgeBase(kb.tbox, abox), note


class _Setup:
    """Shared padded-KB context for the three constructions."""

    def __init__(self, kb: KnowledgeBase):
        self.kb, self.note = pad_kb(kb)
        sig = signature_of(self.kb)
        self.inds = tuple(self.kb.abox.all_terms())
        self.concepts = tuple(all_basic_concepts(sig))
        self.roles = tuple(all_basic_roles(sig))
        self.role_names = tuple(sorted(sig.roles))
        if len(self.roles) != len(self.inds):  # pragma: no cover - pad_kb guarantee
            raise ValueError("unbalanced alphabet after padding")
        self.n = len(self.inds)
        self.slot = {r: i + 1 for i, r in enumerate(self.roles)}

    def symbols(self) -> tuple:
        syms = [_ind_sym(t) for t in self.inds]
        syms += [_con_sym(c) for c in self.concepts]
        syms += [_rol_sym(r) for r in self.roles]
        for name in self.role_names:
            for t1 in self.inds:
                for t2 in self.inds:
                    syms.append(_pair_sym(name, t1, t2))
        return tuple(syms)


# ---------------------------------------------------------------------------
# Construction 1: canonical-model acceptor.


def build_acan(kb: KnowledgeBase) -> TreeAutomaton:
    """Automaton accepting exactly the encoded canonical model of `kb`.

    The KB is padded first (see `pad_kb`); every state is Buechi-accepting.
    State families: one positive and one negative label test per alphabet
    symbol, plus per-role generation (`qE`), class-check (`q`) and
    non-generation (`qng`) states, plus the sweep (`qs`) and dead (`qd`)
    states.
    """
    s = _Setup(kb)
    can = build_canonical(s.kb, check_consistency=False)
    ctx = can.reasoner
    syms = s.symbols()

    def star(x: str) -> str:
        return f"q*[{x}]"

    def nstar(x: str) -> str:
        return f"q*[not {x}]"

    def qex(r: BasicRole) -> str:
        return f"qE[{r}]"

    def qng(r: BasicRole) -> str:
        return f"qng[{r}]"

    def qrole(r: BasicRole) -> str:
        return f"q[{r}]"

    states = ["q0", "qs", nstar(ROOT_MARK), "qd"]
    states += [star(x) for x in syms]
    states += [nstar(x) for x in syms]
    for r in s.roles:
        states += [qex(r), qrole(r), qng(r)]

    cases: list = []

    # Initial state: confirm the root marker, pin each individual to its child
    # slot, verify every entailed membership and launch witness generation.
    parts: list = []
    for i, t in enumerate(s.inds, start=1):
        parts += [Atom(i, "qs"), Atom(i, nstar(ROOT_MARK)), Atom(i, star(_ind_sym(t)))]
        parts += [Atom(i, nstar(_ind_sym(u))) for u in s.inds if u != t]
        for name in s.role_names:
            for u in s.inds:
                sym = _pair_sym(name, t, u)
                holds = BasicRole(name) in can.individual_roles.get((t, u), ())
                parts.append(Atom(0, star(sym) if holds else nstar(sym)))
        for b in s.concepts:
            sym = _con_sym(b)
            holds = b in can.individual_types[t]
            parts.append(Atom(i, star(sym) if holds else nstar(sym)))
        generated = set(can.gen[t])
        parts += [Atom(i, qex(r)) for r in can.gen[t]]
        parts += [Atom(i, qng(r)) for r in s.roles if r not in generated]
    cases.append(("q0", Guard("has", (ROOT_MARK,)), conj(parts)))

    # Sweep state: everything below the individual row is anonymous, and is
    # either dead or carries an incoming-role label.
    parts = []
    for i in range(1, s.n + 1):
        parts += [Atom(i, "qs"), Atom(i, nstar(ROOT_MARK))]
        parts += [Atom(i, nstar(_ind_sym(u))) for u in s.inds]
        parts.append(disj([Atom(i, "qd")] + [Atom(i, star(_rol_sym(r))) for r in s.roles]))
    cases.append(("qs", ALWAYS, conj(parts)))

    # Dead state: no role labels here or anywhere below.
    parts = [Atom(0, nstar(_rol_sym(r))) for r in s.roles]
    parts += [Atom(i, "qd") for i in range(1, s.n + 1)]
    cases.append(("qd", ALWAYS, conj(parts)))

    # Non-generation: the child slot of a class that is not generated here
    # stays edge-free.
    for r in s.roles:
        parts = [Atom(s.slot[r], nstar(_rol_sym(r2))) for r2 in s.roles]
        cases.append((qng(r), ALWAYS, conj(parts)))

    # Generation: descend into the class child and check it.
    for r in s.roles:
        cases.append((qex(r), ALWAYS, Atom(s.slot[r], qrole(r))))

    # Class check: the incoming edge carries exactly the implied super-roles,
    # the node type is exactly the implied tail type, and generation continues
    # with the class's own children.
    for r in s.roles:
        parts = []
        for r2 in s.roles:
            sym = _rol_sym(r2)
            parts.append(Atom(0, star(sym) if ctx.derives_role(r, r2) else nstar(sym)))
        tail = Exists(r.inverse())
        for b in s.concepts:
            sym = _con_sym(b)
            parts.append(Atom(0, star(sym) if ctx.derives_concept(tail, b) else nstar(sym)))
        generated = set(ctx.generated(r))
        for r2 in s.roles:
            parts.append(Atom(0, qex(r2) if r2 in generated else qng(r2)))
        cases.append((qrole(r), Guard("inds_empty"), conj(parts)))

    # Root-marker absence test.
    cases.append((nstar(ROOT_MARK), Guard("lacks", (ROOT_MARK,)), TRUE))

    # Symbol presence/absence tests.
    for x in syms:
        cases.append((star(x), Guard("has", (x,)), TRUE))
        cases.append((nstar(x), Guard("lacks", (x,)), TRUE))

    return TreeAutomaton(
        name="canonical-acceptor",
        kind="twoWayAlternating",
        branching=s.n,
        states=tuple(states),
        initial="q0",
        buchi=frozenset(states),
        cases=tuple(cases),
        alphabet=(ROOT_MARK, GOOD_MARK) + syms,
        individual_symbols=frozenset(_ind_sym(t) for t in s.inds),
        kb=s.kb,
        padding_note=s.note,
    )


# ---------------------------------------------------------------------------
# Construction 2: marked-model acceptor.


def build_amod(kb: KnowledgeBase) -> TreeAutomaton:
    """Automaton accepting trees whose G-marked part encodes a model of `kb`.

    Every obligation that visits a node must find its own symbol recorded
    there under the G marker, which forces the marked region to be an honestly
    labeled model containing the required memberships, role edges and
    existential witnesses.
    """
    s = _Setup(kb)
    ctx = Reasoner(s.kb.tbox)
    types = ctx.term_types(s.kb.abox)
    pairs = ctx.pair_roles(s.kb.abox)
    syms = s.symbols()

    def q(x: str) -> str:
        return f"q[{x}]"

    states = ["q0"] + [q(x) for x in syms]
    existentials = [c for c in s.concepts if isinstance(c, Exists)]
    cases: list = []

    # Initial state: each individual claims its slot, every entailed
    # membership is launched there, and every entailed role pair is recorded
    # at the root.
    parts: list = []
    for i, t in enumerate(s.inds, start=1):
        parts.append(Atom(i, q(_ind_sym(t))))
        for b in s.concepts:
            if b in types[t]:
                parts.append(Atom(i, q(_con_sym(b))))
        for u in s.inds:
            for name in s.role_names:
                if BasicRole(name) in pairs.get((t, u), ()):
                    parts.append(Atom(0, q(_pair_sym(name, t, u))))
    cases.append(("q0", Guard("has", (ROOT_MARK, GOOD_MARK)), conj(parts)))

    # A recorded pair obliges both endpoints' existential memberships.
    for name in s.role_names:
        for i, t in enumerate(s.inds, start=1):
            for j, u in enumerate(s.inds, start=1):
                formula = conj(
                    [
                        Atom(i, q(_con_sym(Exists(BasicRole(name))))),
                        Atom(j, q(_con_sym(Exists(BasicRole(name, inverted=True))))),
                    ]
                )
                cases.append(
                    (q(_pair_sym(name, t, u)), Guard("has", (ROOT_MARK, GOOD_MARK)), formula)
                )

    # Existential membership at an individual: a role edge to a child, or a
    # root-level pair reached through the parent.
    for e in existentials:
        r = e.role
        for i, t in enumerate(s.inds, start=1):
            opts = [Atom(j, q(_rol_sym(r))) for j in range(1, s.n + 1)]
            if not r.inverted:
                opts += [Atom(-1, q(_pair_sym(r.name, t, u))) for u in s.inds]
            else:
                opts += [Atom(-1, q(_pair_sym(r.name, u, t))) for u in s.inds]
            cases.append((q(_con_sym(e)), Guard("inds_eq", (_ind_sym(t),)), disj(opts)))

    # Existential membership at an anonymous node: the incoming edge serves,
    # or a child edge does.
    for e in existentials:
        r = e.role
        opts = [Atom(0, q(_rol_sym(r.inverse())))]
        opts += [Atom(i, q(_rol_sym(r))) for i in range(1, s.n + 1)]
        cases.append((q(_con_sym(e)), Guard("inds_empty"), disj(opts)))

    # Role label at an anonymous node: implied super-roles hold on the same
    # edge and both endpoints get their existential memberships.
    for r in s.roles:
        parts = [Atom(0, q(_rol_sym(r2))) for r2 in sorted(ctx.sup_roles(r), key=str)]
        parts.append(Atom(0, q(_con_sym(Exists(r.inverse())))))
        parts.append(Atom(-1, q(_con_sym(Exists(r)))))
        cases.append((q(_rol_sym(r)), Guard("inds_empty"), conj(parts)))

    # Concept membership propagates to all implied concepts.
    for b in s.concepts:
        parts = [Atom(0, q(_con_sym(b2))) for b2 in sorted(ctx.sup_concepts(b), key=str)]
        cases.append((q(_con_sym(b)), ALWAYS, conj(parts)))

    # Honest recording: every visited obligation must find its symbol present
    # under the G marker.
    for x in syms:
        cases.append((q(x), Guard("has", (GOOD_MARK, x)), TRUE))
        cases.append((q(x), Guard("not_all", (GOOD_MARK, x)), FALSE))

    return TreeAutomaton(
        name="marked-model-acceptor",
        kind="twoWayAlternating",
        branching=s.n,
        states=tuple(states),
        initial="q0",
        buchi=frozenset(states),
        cases=tuple(cases),
        alphabet=(ROOT_MARK, GOOD_MARK) + syms,
        individual_symbols=frozenset(_ind_sym(t) for t in s.inds),
        kb=s.kb,
        padding_note=s.note,
    )


# ---------------------------------------------------------------------------
# Construction 3: finite-marker acceptor.


def build_afin(kb: KnowledgeBase) -> TreeAutomaton:
    """Two-state automaton accepting trees where G marks exactly a finite prefix.

    The first state scans the marked region top-down; leaving it switches to
    the second (accepting) state, which fails on any reappearing mark.
    """
    s = _Setup(kb)
    every_q0 = conj([Atom(i, "q0") for i in range(1, s.n + 1)])
    every_q1 = conj([Atom(i, "q1") for i in range(1, s.n + 1)])
    cases = (
        ("q0", Guard("has", (GOOD_MARK,)), every_q0),
        ("q0", Guard("lacks", (GOOD_MARK,)), every_q1),
        ("q1", Guard("lacks", (GOOD_MARK,)), every_q1),
        ("q1", Guard("has", (GOOD_MARK,)), FALSE),
    )
    return TreeAutomaton(
        name="finite-marker-acceptor",
        kind="oneWayNondeterministic",
        branching=s.n,
        states=("q0", "q1"),
        initial="q0",
        buchi=frozenset({"q1"}),
        cases=cases,
        alphabet=(ROOT_MARK, GOOD_MARK) + s.symbols(),
        individual_symbols=frozenset(_ind_sym(t) for t in s.inds),
        kb=s.kb,
        padding_note=s.note,
    )


# ---------------------------------------------------------------------------
# Tree encoding.


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


# ---------------------------------------------------------------------------
# Bounded run search.

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


# ---------------------------------------------------------------------------
# Stable dump.


def dump_automaton(a: TreeAutomaton) -> str:
    """Stable text listing of states and transitions, suitable for diffing."""
    lines = [
        f"automaton: {a.name}",
        f"kind: {a.kind}",
        f"branching: {a.branching}",
        a.padding_note,
        f"initial: {a.initial}",
        "buchi: all states"
        if frozenset(a.states) == a.buchi
        else "buchi: " + ", ".join(sorted(a.buchi)),
        f"states ({len(a.states)}):",
    ]
    lines += [f"  {s}" for s in a.states]
    lines.append(f"alphabet symbols ({len(a.alphabet)}):")
    lines += [f"  {x}" for x in a.alphabet]
    lines.append("transitions (a (state, letter) pair matching no case is false;")
    lines.append("multiple matching cases conjoin):")
    for state, guard, formula in a.cases:
        lines.append(f"  delta({state} | {guard.text()}) = {formula}")
    return "\n".join(lines) + "\n"
