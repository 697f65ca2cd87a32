"""The benchmark's workloads: seeded lists of CLI cases with reference answers.

A case is one ``kbx`` command on files written from ``encoders``.  The seed
chooses the random parts (which invalid QBF instances, vertex labels and
pairs, the 3-colouring graphs); the sizes and the number of cases of each kind
are fixed, so every seed asks for about the same work.  Short cases are spread
between long ones, so that a stretch of host contention does not fall on one
kind of case only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import encoders as enc


@dataclass(frozen=True)
class Case:
    id: str
    command: str
    size: int  # the case's scale: vertices, individuals or QBF variables
    expected: str  # the reference answer, "yes" or "no"
    files: dict  # CLI flag -> file text, e.g. {"--kb": "...", "--mapping": "..."}
    args: tuple = ()
    # True when the decider may answer "unknown" without being wrong (it is
    # sound for yes only and the reference answer is no).
    unknown_ok: bool = False
    spec: tuple = field(default=(), compare=False)  # how check.py rebuilds it


def _spread(*groups):
    """Merge lists so that each one's items are evenly spaced in the result."""
    keyed = [((i + 0.5) / len(g), k, c) for k, g in enumerate(groups) for i, c in enumerate(g)]
    return [c for _, _, c in sorted(keyed, key=lambda t: t[:2])]


QBF_DEPTH_CAP = 10
# Valid formulas of the same reduction, small enough that a run repeats each
# several times: the paper's prefix with its first clause only (the slowest
# case, about 2.2 s), and two of two variables.  The paper's full formula
# takes about 35 s, so one run could time it only once; it is the
# ``qbf-phi`` probe instead.
QBF_VALID = (
    (("exists", "forall", "exists"), (((1, True),),)),
    (("exists", "exists"), (((1, True),), ((2, False),))),
    (("exists", "forall"), (((1, True),),)),
)
QBF_SLOW_DRAWS = 1  # invalid members with an all-forall prefix, the slowest kind
QBF_FAST_DRAWS = 1  # the other invalid members


def qbf_case(family, i):
    quants, clauses = family[i]
    kb, mapping = enc.qbf_texts(quants, clauses)
    valid = enc.qbf_valid(quants, clauses)
    if family[i] == enc.PAPER_PHI:
        case_id = "qbf-phi"
    elif family[i] in QBF_VALID:
        case_id = f"qbf-valid{QBF_VALID.index(family[i])}-v{len(quants)}c{len(clauses)}"
    else:
        case_id = f"qbf-{i:02d}"
    return Case(
        id=case_id,
        command="usol-exists-ext",
        size=len(quants),
        expected="yes" if valid else "no",
        files={"--kb": kb, "--mapping": mapping},
        args=("--depth-cap", str(QBF_DEPTH_CAP)),
        unknown_ok=not valid,
        spec=("qbf", quants, clauses),
    )


def qbf_ext(rng):
    """Small valid formulas plus a seeded draw of invalid members of the
    three-variable QBF family, answered by ``usol-exists-ext``.  A valid
    formula answers yes after deepening and witness minimisation; the decider
    is sound for yes only, so the invalid ones answer "unknown" once the depth
    cap is reached."""
    family = enc.qbf_family()
    invalid = [i for i, f in enumerate(family) if not enc.qbf_valid(*f)]
    slow = [i for i in invalid if set(family[i][0]) == {"forall"}]
    fast = [i for i in invalid if i not in slow]
    drawn = sorted(rng.sample(slow, QBF_SLOW_DRAWS) + rng.sample(fast, QBF_FAST_DRAWS))
    valid = [qbf_case(list(QBF_VALID), i) for i in range(len(QBF_VALID))]
    return _spread(valid, [qbf_case(family, i) for i in drawn])


def qbf_phi(rng):
    """The paper's formula (exists-forall-exists over the clauses (x1) and
    (x2 or not x3)): valid, answered yes in about 35 s."""
    family = enc.qbf_family()
    return [qbf_case(family, family.index(enc.PAPER_PHI))]


REACH_SIZES = (20,)
# The deciders' cost follows the size of the reachability relation: the graph
# of each size has about half of all ordered vertex pairs reachable.
REACH_SHARE, REACH_TOLERANCE = 0.5, 0.02


def _digraph(rng, n):
    """The size-n digraph with 2n edges under seeded vertex labels, with one
    reachable and one unreachable (src, dst) pair, src != dst.  The graph's
    shape is drawn once per size, because the deciders' cost varies by a
    third between random graphs of the same size."""
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    shape = random.Random(f"reach/{n}")
    while True:
        edges = enc.random_digraph(shape, n, 2 * n)
        reach = [p for p in pairs if enc.reachable(edges, *p)]
        if abs(len(reach) / len(pairs) - REACH_SHARE) <= REACH_TOLERANCE:
            break
    label = rng.sample(range(n), n)
    edges = sorted((label[u], label[v]) for (u, v) in edges)
    reach = sorted((label[u], label[v]) for (u, v) in reach)
    unreach = sorted({(label[u], label[v]) for (u, v) in pairs} - set(reach))
    return edges, rng.choice(reach), rng.choice(unreach)


def reach_cases(rng):
    """Reachability through both representability encodings: ``rep-exists``,
    ``rep-synth`` and ``rep-check``, for a reachable and an unreachable pair."""
    cases = []
    for n in REACH_SIZES:
        edges, *pairs = _digraph(rng, n)
        for (src, dst), answer in zip(pairs, ("yes", "no")):
            tag = f"n{n}-{answer}"
            kb, mapping = enc.reach_nonemptiness_texts(n, edges, src, dst)
            for command in ("rep-exists", "rep-synth"):
                cases.append(Case(
                    id=f"{command}-{tag}", command=command, size=n, expected=answer,
                    files={"--kb": kb, "--mapping": mapping},
                    spec=("reach_nonemptiness", n, edges, src, dst),
                ))
            kb, mapping, t2 = enc.reach_membership_texts(n, edges, src, dst)
            cases.append(Case(
                id=f"rep-check-{tag}", command="rep-check", size=n, expected=answer,
                files={"--kb": kb, "--mapping": mapping, "--t2": t2},
                spec=("reach_membership", n, edges, src, dst),
            ))
    return cases


CHAIN_EXISTS_SIZES = (75,)
CHAIN_CHECK_SIZE = 400
CHAIN_DROP_SIZE = 500
# (vertices, edges, answer): graphs are redrawn until they have the answer, so
# every seed checks the same mix of colourable and non-colourable graphs.
COLORING_GRAPHS = ((20, 40, "yes"), (16, 37, "no"))


def _chain_case(command, n, expected, drop=None):
    kb, mapping, candidate = enc.chain_texts(n, drop)
    files = {"--kb": kb, "--mapping": mapping}
    if command == "usol-check":
        files["--candidate"] = candidate
    tag = "" if command == "usol-exists" else ("-drop" if drop is not None else "-exact")
    return Case(
        id=f"{command}-chain{n}{tag}", command=command, size=n, expected=expected,
        files=files, spec=("chain", n, drop),
    )


def data_cases(rng):
    """Solution commands over trivial TBoxes and large ABoxes: ``usol-exists``
    on R-chains, ``usol-check`` on long chains against their exact translation
    and against it with the middle fact dropped, and ``usol-check`` on
    3-colouring encodings.  The chains are fixed; the seed draws the graphs."""
    cases = [_chain_case("usol-exists", n, "yes") for n in CHAIN_EXISTS_SIZES]
    cases.append(_chain_case("usol-check", CHAIN_CHECK_SIZE, "yes"))
    cases.append(_chain_case("usol-check", CHAIN_DROP_SIZE, "no", drop=CHAIN_DROP_SIZE // 2))
    for k, (n, m, answer) in enumerate(COLORING_GRAPHS):
        while True:
            edges = enc.random_graph(rng, n, m)
            if ("yes" if enc.three_colorable(n, edges) else "no") == answer:
                break
        kb, mapping, candidate = enc.coloring_texts(n, edges)
        cases.append(Case(
            id=f"usol-check-color{k}-n{n}m{m}", command="usol-check", size=n,
            expected=answer,
            files={"--kb": kb, "--mapping": mapping, "--candidate": candidate},
            spec=("coloring", n, edges),
        ))
    return cases


def rep_and_data(rng):
    """The reachability cases and the data-heavy solution cases together: the
    first spend their time in the reasoner and representability, the second
    in the closure ABox, parsing and a few large homomorphism searches."""
    return _spread(reach_cases(rng), data_cases(rng))


DEFECT_CHAIN_SIZE = 1200


def chain_defect(rng):
    """``usol-check`` of a long chain against its exact translation.  The
    answer is yes, but the decider recurses once per individual and raises
    RecursionError.  Kept out of the timed workloads, which must not fail."""
    return [_chain_case("usol-check", DEFECT_CHAIN_SIZE, "yes")]


WORKLOADS = {"qbf-ext": qbf_ext, "rep-and-data": rep_and_data}
PROBES = {"chain-defect": chain_defect, "qbf-phi": qbf_phi}


def build(workload: str, seed: int):
    """The workload's cases for this seed; the same seed gives the same cases."""
    make = WORKLOADS.get(workload) or PROBES[workload]
    return make(random.Random(f"{workload}/{seed}"))
