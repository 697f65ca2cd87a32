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
"""

from __future__ import annotations

from typing import Union

from .canonical import _fresh_names, build_canonical
from .model import (
    ABox,
    BasicRole,
    Constant,
    Exists,
    KnowledgeBase,
    Record,
    RoleAssertion,
    all_basic_concepts,
    all_basic_roles,
    signature_of,
)

ROOT_MARK = "mark:r"
GOOD_MARK = "mark:G"


# ---------------------------------------------------------------------------
# Positive boolean formulas over move directions.


class TrueFormula(Record):
    __slots__ = ()

    def __str__(self) -> str:
        return "true"


class FalseFormula(Record):
    __slots__ = ()

    def __str__(self) -> str:
        return "false"


class Atom(Record, fields=("direction", "state")):
    """An obligation at a neighbour: -1 moves up, 0 stays, i >= 1 descends."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"({self.direction},{self.state})"


class And(Record, fields=("parts",)):
    __slots__ = ()

    def __str__(self) -> str:
        return "AND(" + ", ".join(str(p) for p in self.parts) + ")"


class Or(Record, fields=("parts",)):
    __slots__ = ()

    def __str__(self) -> str:
        return "OR(" + ", ".join(str(p) for p in self.parts) + ")"


Formula = Union[TrueFormula, FalseFormula, Atom, And, Or]
TRUE = TrueFormula()
FALSE = FalseFormula()


def _join(node: type, unit: Formula, zero: Formula, parts) -> Formula:
    """The ``node`` of ``parts``, flattened: ``unit`` parts are dropped and a
    ``zero`` part absorbs the rest."""
    out: list[Formula] = []
    for p in parts:
        if isinstance(p, type(zero)):
            return zero
        if isinstance(p, type(unit)):
            continue
        if isinstance(p, node):
            out.extend(p.parts)
        else:
            out.append(p)
    if not out:
        return unit
    if len(out) == 1:
        return out[0]
    return node(tuple(out))


def conj(parts) -> Formula:
    """Conjunction with unit/absorption simplification and flattening."""
    return _join(And, TRUE, FALSE, parts)


def disj(parts) -> Formula:
    return _join(Or, FALSE, TRUE, parts)


# ---------------------------------------------------------------------------
# Automata as guarded case tables.


class Guard(Record, fields=("kind", "symbols")):
    """Letter predicate attached to a transition case.

    `kind` is always, has, lacks, not_all, inds_empty or inds_eq.
    """

    __slots__ = ()

    def __new__(cls, kind: str, symbols: tuple = ()):
        return tuple.__new__(cls, (kind, symbols))

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


class TreeAutomaton(
    Record,
    fields=(
        "name", "kind", "branching", "states", "initial", "buchi", "cases", "alphabet",
        "individual_symbols", "kb", "padding_note",
    ),
):
    """An alternating tree automaton presented as a guarded case table.

    `transition(state, letter)` conjoins the formulas of every case whose
    guard matches the letter; a (state, letter) pair matching no case maps to
    false.  `kb` is the padded knowledge base the automaton was built from.
    `kind` is "twoWayAlternating" or "oneWayNondeterministic"; `cases` holds
    (state, Guard, Formula) triples.
    """

    __slots__ = ()

    def transition(self, state: str, letter: frozenset) -> Formula:
        matched = [
            formula
            for (s, guard, formula) in self.cases
            if s == state and guard.test(letter, self.individual_symbols)
        ]
        if not matched:
            return FALSE
        return conj(matched)


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
    role name (the first fresh one if there is none) per missing individual.
    Returns (padded KB, dump-header note).
    """
    sig = signature_of(kb)
    role_names = sorted(sig.roles)
    consts = map(Constant, _fresh_names("u", {str(t) for t in kb.abox.all_terms()}))
    fresh_roles = _fresh_names("pad", sig.roles)
    added_roles: list[str] = []
    extra: list[RoleAssertion] = []
    n_i = len(kb.abox.all_terms())
    n_r = 2 * len(role_names)
    # A KB with no role gets one even when it has no individual either.
    while n_i > n_r or n_r == 0:
        added_roles.append(next(fresh_roles))
        c = next(consts)
        extra.append(RoleAssertion(BasicRole(added_roles[-1]), c, c))
        n_i += 1
        n_r += 2
    loop_name = (role_names or added_roles)[0]
    while n_r > n_i:
        c = next(consts)
        extra.append(RoleAssertion(BasicRole(loop_name), c, c))
        n_i += 1
    if not extra:
        return kb, "padding: none"
    abox = ABox.make(tuple(kb.abox.assertions) + tuple(extra))
    note = "padding: added " + ", ".join(str(a) for a in extra)
    return KnowledgeBase(kb.tbox, abox), note


class _Setup:
    """The padded KB and alphabet that the three constructions share, and
    the one constructor of their automata."""

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
        syms = [_ind_sym(t) for t in self.inds]
        syms += [_con_sym(c) for c in self.concepts]
        syms += [_rol_sym(r) for r in self.roles]
        for name in self.role_names:
            for t1 in self.inds:
                for t2 in self.inds:
                    syms.append(_pair_sym(name, t1, t2))
        self.syms = tuple(syms)

    def automaton(self, name: str, kind: str, states, buchi, cases) -> TreeAutomaton:
        """The automaton with initial state ``q0`` over this KB's alphabet."""
        return TreeAutomaton(
            name=name,
            kind=kind,
            branching=self.n,
            states=tuple(states),
            initial="q0",
            buchi=frozenset(buchi),
            cases=tuple(cases),
            alphabet=(ROOT_MARK, GOOD_MARK) + self.syms,
            individual_symbols=frozenset(_ind_sym(t) for t in self.inds),
            kb=self.kb,
            padding_note=self.note,
        )


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
    syms = s.syms

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
            parts.append(Atom(0, star(sym) if ctx.derives(r, r2) else nstar(sym)))
        tail = Exists(r.inverse())
        for b in s.concepts:
            sym = _con_sym(b)
            parts.append(Atom(0, star(sym) if ctx.derives(tail, b) else nstar(sym)))
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

    return s.automaton("canonical-acceptor", "twoWayAlternating", states, states, cases)


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
    can = build_canonical(s.kb, check_consistency=False)
    ctx = can.reasoner
    syms = s.syms

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
            if b in can.individual_types[t]:
                parts.append(Atom(i, q(_con_sym(b))))
        for u in s.inds:
            for name in s.role_names:
                if BasicRole(name) in can.individual_roles.get((t, u), ()):
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
        parts = [Atom(0, q(_rol_sym(r2))) for r2 in sorted(ctx.sup(r), key=str)]
        parts.append(Atom(0, q(_con_sym(Exists(r.inverse())))))
        parts.append(Atom(-1, q(_con_sym(Exists(r)))))
        cases.append((q(_rol_sym(r)), Guard("inds_empty"), conj(parts)))

    # Concept membership propagates to all implied concepts.
    for b in s.concepts:
        parts = [Atom(0, q(_con_sym(b2))) for b2 in sorted(ctx.sup(b), key=str)]
        cases.append((q(_con_sym(b)), ALWAYS, conj(parts)))

    # Honest recording: every visited obligation must find its symbol present
    # under the G marker.
    for x in syms:
        cases.append((q(x), Guard("has", (GOOD_MARK, x)), TRUE))
        cases.append((q(x), Guard("not_all", (GOOD_MARK, x)), FALSE))

    return s.automaton("marked-model-acceptor", "twoWayAlternating", states, states, cases)


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
    return s.automaton(
        "finite-marker-acceptor", "oneWayNondeterministic", ("q0", "q1"), {"q1"}, cases
    )


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
