"""Seeded end-to-end benchmark of the ``kbx`` deciders through the CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload qbf-ext --seed 1 --seconds 60 --trace 0

Each case writes its ``.kbx`` inputs and runs ``kbx.cli.run([..., "--json"])``
in a fresh worker process, one case at a time (a closed loop with one client).
Passes over the workload's cases repeat while another whole pass fits in
``--seconds``; per-case times are means over the passes.  Times are the
worker's CPU seconds, scaled to a reference host speed measured by a fixed
piece of Python work run after every case.  The verdict is read from the
JSON report, never from the exit code, and is checked against the
benchmark's own reference answer.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` every case runs once untraced and once traced, and it reports
the per-layer metrics and the tracing overhead.  Per-case rows, the inputs' digest
and the environment go to ``perfbench/out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

CASE_LIMIT_S = 100.0  # a case running longer is killed and counted as failed
RUN_LIMIT_S = 165.0  # no case starts, or keeps running, past this point
SETUP_REPEATS = 3  # input generation is timed this many times; the median counts
# Times are scaled to a reference host speed: CALIBRATION_REF_S over the
# run's median time of ``calibrate()``.  The reference is about that median
# on the 2-CPU Intel Xeon VM the benchmark was built on.
CALIBRATION_STEPS = 24000
CALIBRATION_REF_S = 0.028


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "KBX_DEPTH_CAP"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def write_inputs(cases, work: Path) -> dict:
    """Write every case's files; returns case id -> CLI argv (without --json)."""
    argvs = {}
    for case in cases:
        argv = [case.command]
        for flag, text in case.files.items():
            path = work / f"{case.id}.{flag.lstrip('-')}.kbx"
            path.write_text(text)
            argv += [flag, str(path)]
        argvs[case.id] = argv + list(case.args)
    return argvs


def inputs_digest(cases) -> str:
    h = hashlib.sha256()
    for case in cases:
        for flag, text in case.files.items():
            h.update(f"{case.id} {flag} {' '.join(case.args)}\n".encode())
            h.update(text.encode())
    return h.hexdigest()


def run_worker(argv, trace: bool, result: Path, env: dict, deadline: float) -> dict:
    """Run one case in a fresh process; returns the worker's result plus the
    spawn time, or an "error" entry when it did not finish."""
    result.unlink(missing_ok=True)
    limit = min(CASE_LIMIT_S, deadline - time.monotonic())
    if limit <= 0:
        return {"error": "RunDeadline"}
    cmd = [sys.executable, str(HERE / "worker.py"), str(result), "1" if trace else "0", "--"]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd + argv + ["--json"], env=env, cwd=ROOT,
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    try:
        _, err = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": "CaseTimeout"}
    finally:
        if proc.poll() is None:  # interrupted: never leave a worker behind
            proc.kill()
            proc.wait()
    if not result.exists():
        tail = err.decode(errors="replace").strip().splitlines()[-1:]
        return {"error": f"WorkerDied({proc.returncode}): {' '.join(tail)}"}
    out = json.loads(result.read_text())
    out["spawned"] = spawned
    return out


def judge(case, out: dict) -> dict:
    """One row: the case, its answer as read from the report, and the outcome."""
    row = {
        "case": case.id, "command": case.command, "size": case.size,
        "reference": case.expected, "answer": None, "recheck": None,
        "seconds": None, "start_s": None, "wall_s": None, "start_wall_s": None,
        "witness_facts": None,
        "report_sha256": None, "error": out.get("error"), "maxrss_mb": None,
    }
    if "ready" in out:  # the worker finished, with or without a report
        row["seconds"] = out["done_cpu"] - out["ready_cpu"]
        row["start_s"] = out["ready_cpu"]
        row["wall_s"] = out["done"] - out["ready"]
        row["start_wall_s"] = out["ready"] - out["spawned"]
        row["maxrss_mb"] = out["maxrss_kb"] / 1024
        row["layers"] = out["layers"]
    report = None
    if row["error"] is None:
        try:
            report = json.loads(out["report"])
        except ValueError:
            row["error"] = "NoJsonReport"
    if report is None:
        row["outcome"] = "failed"
        return row
    report.pop("inputs", None)
    row["report_sha256"] = hashlib.sha256(
        json.dumps(report, indent=2, sort_keys=True).encode()
    ).hexdigest()
    row["answer"], row["recheck"] = report["answer"], report["recheck"]
    witness = report.get("witness") or ""
    row["witness_facts"] = sum(1 for line in witness.splitlines() if line.endswith(";"))
    if row["answer"] == "error":  # the CLI gave up on the input: no verdict
        row["error"] = f"AnswerError: {report.get('reason')}"
        row["outcome"] = "failed"
        return row
    needs_recheck = case.command in ("usol-exists", "usol-exists-ext", "rep-synth")
    if row["answer"] == case.expected and (
        case.expected == "no" or not needs_recheck or row["recheck"] == "passed"
    ):
        row["outcome"] = "correct"
    elif row["answer"] == "unknown" and case.unknown_ok:
        row["outcome"] = "correct-unknown"
    else:
        row["outcome"] = "wrong"
    return row


def calibrate() -> float:
    """CPU time of a fixed piece of pure-Python work, independent of kbx, made
    of the same kind of steps (tuples, frozensets, set and dict lookups)."""
    t0 = time.process_time()
    seen, index = set(), {}
    for i in range(CALIBRATION_STEPS):
        key = (i % 97, i % 89, i & 255)
        f = frozenset(key)
        if f not in seen:
            seen.add(f)
        index.setdefault(key[0], []).append(f)
    return time.process_time() - t0


def run_case(case, argvs, trace, work, env, deadline, calibration) -> dict:
    """One case's row; a calibration follows every case, on the same CPU."""
    row = judge(case, run_worker(argvs[case.id], trace, work / "result.json", env, deadline))
    calibration.append(calibrate())
    return row


def run_pass(cases, argvs, trace, work, env, deadline, calibration):
    return [run_case(c, argvs, trace, work, env, deadline, calibration) for c in cases]


def end_to_end(cases, passes, setup_gen_s) -> dict:
    """Times are means over passes; ratios count every case run.  The host's
    speed switches between two levels about a fifth apart from one case run to
    the next, and a median of a few such runs jumps between the levels, where
    a mean does not."""
    rows = [r for p in passes for r in p]
    n = len(rows)
    per_case = [
        statistics.fmean(
            [r["seconds"] for p in passes for r in p if r["case"] == c.id and r["seconds"] is not None]
            or [0.0]
        )
        for c in cases
    ]
    decide = [sum(r["seconds"] or 0.0 for r in p) for p in passes]
    setup = [setup_gen_s + sum(r["start_s"] or 0.0 for r in p) for p in passes]
    return {
        "decide_s": (statistics.fmean(decide), "s"),
        "case_max_s": (max(per_case), "s"),
        "setup_s": (statistics.fmean(setup), "s"),
        "peak_rss_mb": (max(r["maxrss_mb"] or 0.0 for r in rows), "MB"),
        "correct_ratio": (sum(r["outcome"] in ("correct", "correct-unknown") for r in rows) / n, "ratio"),
        "decided_ratio": (sum(r["answer"] in ("yes", "no") for r in rows) / n, "ratio"),
    }


def per_layer(untraced, traced) -> dict:
    """Sums over the traced pass's cases; ratios are taken of the sums."""
    self_s, incl, calls, found, sizes = {}, {}, {}, {}, {}
    hits = misses = 0
    for row in traced:
        layers = row.get("layers") or {}
        for total, part in ((self_s, "self_s"), (incl, "incl_s"), (calls, "calls"),
                            (found, "found"), (sizes, "sizes")):
            for k, v in layers.get(part, {}).items():
                total[k] = total.get(k, 0) + v
        h, m = layers.get("reasoner_cache", (0, 0))
        hits, misses = hits + h, misses + m

    def ratio(a, b):
        return a / b if b else 0.0

    r2f, f2r = "embeds_regular_into_finite", "embeds_finite_into_regular"
    return {
        "cli.self_s": (self_s.get("cli", 0.0), "s"),
        "syntax.parse_s": (incl.get("parse_kb", 0.0) + incl.get("parse_mapping", 0.0), "s"),
        "reasoner.self_s": (self_s.get("reasoner", 0.0), "s"),
        "reasoner.closure_calls": (calls.get("role_closure", 0) + calls.get("concept_closure", 0), "count"),
        "reasoner.lookup_calls": (sum(calls.get(k, 0) for k in (
            "derives_concept", "derives_role", "pair_consistent_concepts",
            "pair_consistent_roles")), "count"),
        "reasoner.cache_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "canonical.build_s": (incl.get("build_canonical", 0.0), "s"),
        "canonical.states": (sizes.get("states", 0), "count"),
        "canonical.materialize_s": (incl.get("materialize", 0.0), "s"),
        "canonical.materialized_elements": (sizes.get("materialized_elements", 0), "count"),
        "canonical.closure_abox_s": (incl.get("closure_abox", 0.0), "s"),
        "homomorphism.r2f_s": (incl.get(r2f, 0.0), "s"),
        "homomorphism.r2f_calls": (calls.get(r2f, 0), "count"),
        "homomorphism.r2f_found_ratio": (ratio(found.get(r2f, 0), calls.get(r2f, 0)), "ratio"),
        "homomorphism.f2r_s": (incl.get(f2r, 0.0), "s"),
        "homomorphism.f2r_calls": (calls.get(f2r, 0), "count"),
        "homomorphism.f2r_found_ratio": (ratio(found.get(f2r, 0), calls.get(f2r, 0)), "ratio"),
        "exchange.positivity_s": (incl.get("is_sigma2_positive", 0.0), "s"),
        "exchange.self_s": (self_s.get("exchange", 0.0), "s"),
        "exchange.witness_facts": (sizes.get("witness_facts", 0), "count"),
        "representability.member_s": (incl.get("is_ucq_representation", 0.0), "s"),
        "representability.synth_s": (incl.get("synthesize_representation", 0.0), "s"),
        "representability.self_s": (self_s.get("representability", 0.0), "s"),
        "trace.overhead_s": (
            sum(r["seconds"] or 0.0 for r in traced) - sum(r["seconds"] or 0.0 for r in untraced),
            "s",
        ),
    }


def git_commit() -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + sorted(workloads.PROBES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    loadavg = list(os.getloadavg())

    if not (ROOT / "src" / "kbx" / "cli.py").is_file():
        print(f"kbx sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One CPU for the benchmark and every worker it starts: the host's CPUs
    # run at different speeds, and a case must not depend on where it lands.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env = worker_env()
    # Compile the package once, so no timed import pays for writing bytecode.
    warm = subprocess.run([sys.executable, "-c", "import kbx.cli"], env=env, cwd=ROOT)
    if warm.returncode != 0:
        print("cannot import kbx.cli", file=sys.stderr)
        return 2

    out_dir = HERE / "out"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    calibration = []
    try:
        gen_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.process_time()
            cases = workloads.build(args.workload, args.seed)
            argvs = write_inputs(cases, work)
            gen_times.append(time.process_time() - t0)
        setup_gen_s = statistics.median(gen_times)

        if args.trace:
            # Each case runs untraced, then traced, so that both runs of a case
            # see the same host speed and their difference is the overhead.
            untraced, traced = [], []
            for case in cases:
                for trace, rows in ((False, untraced), (True, traced)):
                    rows.append(run_case(case, argvs, trace, work, env, deadline, calibration))
            passes, measured = [untraced, traced], per_layer(untraced, traced)
        else:
            passes = []
            while True:
                t0 = time.monotonic()
                passes.append(run_pass(cases, argvs, False, work, env, deadline, calibration))
                took = time.monotonic() - t0
                if time.monotonic() + took - started > args.seconds:
                    break
            measured = end_to_end(cases, passes, setup_gen_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    speed = CALIBRATION_REF_S / statistics.median(calibration)
    metrics = {k: (v * speed if u == "s" else v, u) for k, (v, u) in measured.items()}
    rows = [dict(r, workload=args.workload, pass_index=i) for i, p in enumerate(passes) for r in p]
    attempted = len(rows)
    failed = sum(r["outcome"] == "failed" for r in rows)
    correct = not any(r["outcome"] == "wrong" for r in rows)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "cases": len(cases), "passes": len(passes),
        "inputs_sha256": inputs_digest(cases),
        "python": sys.version.split()[0], "nproc": os.cpu_count(), "cpu": cpu,
        "git_commit": git_commit(), "loadavg_at_start": loadavg,
        "run_wall_s": time.monotonic() - started,
        "calibration_s": calibration, "speed_factor": speed,
        "unscaled_metrics": {k: {"value": v, "unit": u} for k, (v, u) in measured.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "rows": rows,
    }
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    for r in rows:
        print(f"{r['case']:<28} {r['answer'] or '-':<8} {r['outcome']:<15} "
              f"{r['seconds'] if r['seconds'] is not None else float('nan'):8.3f}s "
              f"{r['error'] or ''}", file=sys.stderr)
    print(f"{args.workload}: {len(cases)} cases x {len(passes)} passes", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
