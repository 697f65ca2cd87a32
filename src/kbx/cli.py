"""Command-line interface: parse inputs, run a decision, report a verdict.

Exit codes: 0 = yes, 1 = no, 2 = unknown, 3 = error (an input error, a broken
precondition, or an internal fault, which is never reported as a verdict).
Reports carry the answer, input digests, any witness or counterexample, and a
certificate summary; ``--json`` switches to a byte-deterministic JSON report
(timing is reported as text only, so JSON output depends only on the inputs
and seed).
The environment variable ``KBX_DEPTH_CAP`` overrides the default search depth
cap for the extended-solution command.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import traceback

from .automata import build_acan, build_afin, build_amod, dump_automaton
from .canonical import InconsistentKB, build_canonical, element_label, materialize
from .exchange import (
    is_universal_solution,
    universal_solution_extended,
    universal_solution_plain,
)
from .model import EMPTY_ABOX, KnowledgeBase
from .oracle import chase_inconsistent
from .reasoner import kb_consistent
from .representability import (
    PreconditionViolated,
    is_ucq_representation,
    representation_exists,
    synthesize_representation,
)
from .syntax import ParseError, parse_kb, parse_mapping, serialize

DEFAULT_DEPTH_CAP = 6
_EXIT = {"yes": 0, "no": 1, "unknown": 2, "error": 3}


class InputError(Exception):
    """A file could not be read or parsed; maps to exit code 3."""


def _load(path: str, parser, inputs: dict):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    inputs[os.path.basename(path)] = {
        "path": path,
        "sha256": hashlib.sha256(data).hexdigest(),
    }
    try:
        return parser(data.decode("utf-8"))
    except ParseError as exc:
        raise InputError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not valid UTF-8 ({exc.reason})") from exc


def _cert_summary(cert) -> str | None:
    if cert is None:
        return None
    if isinstance(cert, tuple) and len(cert) == 2 and cert[0] == "source-model":
        try:
            return f"source model with {len(cert[1])} facts"
        except TypeError:
            return "source model"
    if isinstance(cert, tuple) and len(cert) == 2:
        table, h = cert
        return (
            f"simulation table with {len(table)} entries; "
            f"embedding of {len(h)} elements"
        )
    return str(cert)


def _serialize_tbox(tbox) -> str:
    return serialize(KnowledgeBase(tuple(tbox), EMPTY_ABOX))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kbx",
        description="Knowledge-base exchange: universal solutions, "
        "representing target TBoxes, validating automata.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, mapping: bool = False):
        sp.add_argument("--kb", required=True, metavar="FILE", help="knowledge-base file")
        if mapping:
            sp.add_argument("--mapping", required=True, metavar="FILE", help="mapping file")
        sp.add_argument("--json", action="store_true", help="emit a JSON report")
        sp.add_argument("--seed", type=int, default=None, help="echoed into the report")
        sp.add_argument("--oracle", action="store_true", help=argparse.SUPPRESS)

    sp = sub.add_parser("consistency", help="decide knowledge-base consistency")
    common(sp)
    sp = sub.add_parser("canonical", help="materialize a canonical-model truncation")
    common(sp)
    sp.add_argument("--depth", type=int, default=3, help="truncation depth (default 3)")
    sp = sub.add_parser(
        "usol-exists", help="does a null-free universal solution exist?"
    )
    common(sp, mapping=True)
    sp = sub.add_parser(
        "usol-exists-ext", help="does a universal solution with labeled nulls exist?"
    )
    common(sp, mapping=True)
    sp.add_argument(
        "--depth-cap",
        type=int,
        default=None,
        help="search depth cap (default: KBX_DEPTH_CAP or 6)",
    )
    sp = sub.add_parser("usol-check", help="is the candidate a universal solution?")
    common(sp, mapping=True)
    sp.add_argument("--candidate", required=True, metavar="FILE", help="candidate target KB")
    sp = sub.add_parser("rep-check", help="does the target TBox represent the source TBox?")
    common(sp, mapping=True)
    sp.add_argument("--t2", required=True, metavar="FILE", help="target TBox (KB file)")
    sp = sub.add_parser("rep-exists", help="does any representing target TBox exist?")
    common(sp, mapping=True)
    sp = sub.add_parser("rep-synth", help="synthesize a representing target TBox")
    common(sp, mapping=True)
    sp = sub.add_parser("automata", help="automata over the KB's canonical model")
    sp.add_argument("action", choices=["dump"], help="dump: stable text listing")
    common(sp)
    return p


def _depth_cap(args) -> int:
    if getattr(args, "depth_cap", None) is not None:
        return args.depth_cap
    env = os.environ.get("KBX_DEPTH_CAP")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InputError(f"KBX_DEPTH_CAP is not an integer: {env!r}") from exc
    return DEFAULT_DEPTH_CAP


def _error_fields(reason: str | None, engine: str = "main") -> dict:
    """Report fields answering ``error``; a command overwrites them as it goes."""
    return {
        "answer": "error",
        "witness": None,
        "certificate": None,
        "counterexample": None,
        "reason": reason,
        "recheck": None,
        "engine": engine,
    }


def _dispatch(args, inputs: dict) -> dict:
    """Run the selected command; returns the report fields."""
    out = _error_fields(
        None, "oracle" if args.oracle and args.command == "consistency" else "main"
    )

    if args.command == "consistency":
        kb = _load(args.kb, parse_kb, inputs)
        if args.oracle:
            out["answer"] = "no" if chase_inconsistent(kb) else "yes"
        else:
            out["answer"] = "yes" if kb_consistent(kb) else "no"
        return out

    if args.command == "canonical":
        kb = _load(args.kb, parse_kb, inputs)
        try:
            structure = build_canonical(kb)
        except InconsistentKB as exc:
            out["answer"] = "no"
            out["reason"] = str(exc)
            return out
        trunc = materialize(structure, args.depth)
        facts = [f"{name}({element_label(e)})" for name, e in trunc.concept_facts()]
        facts += [
            f"{name}({element_label(e1)}, {element_label(e2)})"
            for name, e1, e2 in trunc.role_facts()
        ]
        out["answer"] = "yes"
        out["witness"] = "\n".join(facts) + ("\n" if facts else "")
        out["certificate"] = (
            f"{len(trunc.elements)} elements, {trunc.fact_count()} facts at depth {args.depth}"
        )
        return out

    if args.command == "automata":
        kb = _load(args.kb, parse_kb, inputs)
        dumps = [dump_automaton(a) for a in (build_acan(kb), build_amod(kb), build_afin(kb))]
        out["answer"] = "yes"
        out["witness"] = "\n".join(dumps)
        return out

    mapping = _load(args.mapping, parse_mapping, inputs)
    kb1 = _load(args.kb, parse_kb, inputs)

    if args.command == "usol-exists":
        verdict = universal_solution_plain(kb1, mapping)
        out["answer"] = verdict.answer
        out["counterexample"] = verdict.counterexample
        out["certificate"] = _cert_summary(verdict.certificate)
        if verdict.answer == "yes":
            out["witness"] = serialize(verdict.witness)
            check = is_universal_solution(kb1, mapping, KnowledgeBase((), verdict.witness))
            out["recheck"] = "passed" if check.answer == "yes" else "failed"
        return out

    if args.command == "usol-exists-ext":
        verdict = universal_solution_extended(kb1, mapping, depth_cap=_depth_cap(args))
        out["answer"] = verdict.answer
        out["counterexample"] = verdict.counterexample
        out["certificate"] = _cert_summary(verdict.certificate)
        if verdict.answer == "yes":
            out["witness"] = serialize(verdict.witness)
            check = is_universal_solution(kb1, mapping, KnowledgeBase((), verdict.witness))
            out["recheck"] = "passed" if check.answer == "yes" else "failed"
        return out

    if args.command == "usol-check":
        kb2 = _load(args.candidate, parse_kb, inputs)
        verdict = is_universal_solution(kb1, mapping, kb2)
        out["answer"] = verdict.answer
        out["counterexample"] = verdict.counterexample
        out["certificate"] = _cert_summary(verdict.certificate)
        if verdict.answer == "yes":
            out["witness"] = serialize(verdict.witness)
        return out

    if args.command == "rep-check":
        t2 = _load(args.t2, parse_kb, inputs).tbox
        verdict = is_ucq_representation(mapping, kb1.tbox, t2)
        out["answer"] = verdict.answer
        if verdict.counterexample is not None:
            out["counterexample"] = str(verdict.counterexample)
        return out

    if args.command == "rep-exists":
        verdict = representation_exists(mapping, kb1.tbox)
        out["answer"] = verdict.answer
        out["reason"] = verdict.reason
        if verdict.tbox is not None:
            out["witness"] = _serialize_tbox(verdict.tbox)
        return out

    if args.command == "rep-synth":
        tbox = synthesize_representation(mapping, kb1.tbox)
        if tbox is None:
            out["answer"] = "no"
            out["reason"] = "no representing target TBox exists"
            return out
        out["answer"] = "yes"
        out["witness"] = _serialize_tbox(tbox)
        check = is_ucq_representation(mapping, kb1.tbox, tbox)
        out["recheck"] = "passed" if check.answer == "yes" else "failed"
        return out

    raise InputError(f"unknown command {args.command!r}")  # pragma: no cover


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold into the input-error code.
        return 3 if exc.code not in (0, None) else 0
    inputs: dict = {}
    started = time.perf_counter()
    try:
        fields = _dispatch(args, inputs)
    except (InputError, InconsistentKB, PreconditionViolated) as exc:
        fields = _error_fields(str(exc))
    except Exception as exc:  # an internal fault must never read as a verdict
        traceback.print_exc(file=sys.stderr)
        fields = _error_fields(f"internal error: {type(exc).__name__}: {exc}")
    elapsed_ms = int((time.perf_counter() - started) * 1000)

    command = args.command if args.command != "automata" else f"automata {args.action}"
    report = {
        "command": command,
        "inputs": inputs,
        "seed": args.seed,
        "timing_ms": None,  # kept out of JSON so reports are byte-deterministic
        **fields,
    }
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"command: {command}")
        print(f"answer: {fields['answer']}")
        for key in ("reason", "counterexample", "certificate", "recheck"):
            if fields[key] is not None:
                print(f"{key}: {fields[key]}")
        if fields["witness"] is not None:
            print("witness:")
            for line in fields["witness"].rstrip("\n").split("\n"):
                print(f"  {line}")
        print(f"timing: {elapsed_ms} ms")
    return _EXIT[fields["answer"]]


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
