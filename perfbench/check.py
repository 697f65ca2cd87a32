"""Check that the benchmark's own encodings match the test suite's builders.

Usage, from the repository root:

    python3 perfbench/check.py [--seed N]

For every case of every workload at the seed (default 0), and for every member
of the QBF family, the ``.kbx`` text the benchmark writes is parsed with
``kbx.syntax`` and compared, as sets of axioms and assertions plus the
signatures, with the model objects that ``tests/reductions.py`` builds from
the same parameters.  R-chains have no builder there and are compared with
objects built here.  Exits 1 on the first mismatch.
"""

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import reductions  # noqa: E402
import workloads  # noqa: E402
from kbx.model import (  # noqa: E402
    ABox, BasicRole, KnowledgeBase, Mapping, RoleAssertion, RoleInclusion, Signature, Constant,
)
from kbx.syntax import parse_kb, parse_mapping  # noqa: E402


def _kb_key(kb: KnowledgeBase):
    return set(kb.tbox), set(kb.abox.assertions)


def _mapping_key(m: Mapping):
    return m.sigma1, m.sigma2, set(m.t12)


def _chain(n, drop):
    names = [Constant(f"c{i:04d}") for i in range(n)]
    pairs = list(zip(names, names[1:]))
    r, rp = BasicRole("R"), BasicRole("Rp")
    kb1 = KnowledgeBase((), ABox.make(RoleAssertion(r, u, v) for (u, v) in pairs))
    mapping = Mapping(Signature.make((), ["R"]), Signature.make((), ["Rp"]), (RoleInclusion(r, rp),))
    kb2 = KnowledgeBase(
        (), ABox.make(RoleAssertion(rp, u, v) for i, (u, v) in enumerate(pairs) if i != drop)
    )
    return kb1, mapping, kb2


def expected_objects(spec):
    """(kb, mapping, third file's KB or TBox or None) from the reference builders."""
    kind, *params = spec
    if kind == "qbf":
        quants, clauses = params
        kb1, mapping = reductions.qbf_instance(quants, [list(c) for c in clauses])
        return kb1, mapping, None
    if kind == "reach_nonemptiness":
        mapping, t1 = reductions.reach_nonemptiness(*params)
        return KnowledgeBase(t1, ABox(())), mapping, None
    if kind == "reach_membership":
        mapping, t1, t2 = reductions.reach_membership(*params)
        return KnowledgeBase(t1, ABox(())), mapping, KnowledgeBase(t2, ABox(()))
    if kind == "coloring":
        n, edges = params
        return reductions.coloring_instance(tuple(range(n)), edges)
    if kind == "chain":
        return _chain(*params)
    raise ValueError(f"unknown encoding {kind!r}")


def check_case(case) -> list:
    kb, mapping, third = expected_objects(case.spec)
    problems = []
    if _kb_key(parse_kb(case.files["--kb"])) != _kb_key(kb):
        problems.append("kb")
    if _mapping_key(parse_mapping(case.files["--mapping"])) != _mapping_key(mapping):
        problems.append("mapping")
    for flag in ("--candidate", "--t2"):
        if flag in case.files and _kb_key(parse_kb(case.files[flag])) != _kb_key(third):
            problems.append(flag.lstrip("-"))
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    family = workloads.enc.qbf_family()
    cases = [("qbf-family", workloads.qbf_case(family, i)) for i in range(len(family))]
    for name in sorted(workloads.WORKLOADS) + sorted(workloads.PROBES):
        cases += [(name, case) for case in workloads.build(name, args.seed)]
    for name, case in cases:
        problems = check_case(case)
        if problems:
            print(f"{name}/{case.id}: {', '.join(problems)} differ", file=sys.stderr)
            return 1
    print(f"ok: {len(cases)} cases match the reference builders at seed {args.seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
