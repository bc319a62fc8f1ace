"""One benchmark interpreter: runs a workload's batches through
``knotcert.cli.run`` back to back, one client, and reports on stdout.

    python3 perfbench/worker.py --root DIR --workdir DIR --workload NAME
        --seed N --seconds S [--trace] [--setup-only]

Every line it prints is one JSON record:

    {"ev": "ready", "at": <monotonic s>, "batch": B}   first operation is next
    {"ev": "start", "pass": i, "ops": B}               a batch begins
    {"ev": "op", "pass": i, "idx": j, "ms": ..., "ok": ..., "why": ..., "digest": ...}
    {"ev": "pass", "pass": i, "wall_s": ...}           the batch's operations, timed
    {"ev": "end", "rss_mb": ..., "layers": {...}}

A batch's outputs are checked by the oracles after its last operation,
so the batch's wall time holds knotcert's work only.  Batches repeat,
each with fresh seeded inputs, until ``--seconds`` have passed; the
first one always runs to the end.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import sys
import time

import oracles
import workloads


def emit(record: dict) -> None:
    print(json.dumps(record), flush=True)


def prepare(ops: list[dict], workdir: str, pass_no: int) -> list[list[str]]:
    """Write the batch's presentation files; return each operation's argv."""
    argvs = []
    for j, op in enumerate(ops):
        argv = op["argv"]
        if "file" in op:
            path = os.path.join(workdir, f"pass{pass_no}-op{j}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(op["file"])
            argv = [path if a == "{file}" else a for a in argv]
        argvs.append(argv)
    return argvs


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import knotcert
    from knotcert import cli
    from knotcert.laurent import NotDivisible

    if not os.path.abspath(knotcert.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"knotcert was imported from {knotcert.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install(NotDivisible)

    ops = workloads.batch(args.workload, args.seed, 0)
    argvs = prepare(ops, args.workdir, 0)
    emit({"ev": "ready", "at": time.monotonic(), "batch": len(ops)})
    if args.setup_only:
        return 0

    began = time.monotonic()
    op_pass: list[int] = []
    passes: list[int] = []
    pass_no = 0
    while True:
        emit({"ev": "start", "pass": pass_no, "ops": len(ops)})
        results = []
        wall = time.perf_counter()
        for argv in argvs:
            if tracer is not None:
                tracer.current_op = len(op_pass)
            op_pass.append(pass_no)
            out = io.StringIO()
            t0 = time.perf_counter()
            try:
                rc = cli.run(argv, out)
            except Exception as exc:  # counted as a failed operation
                rc = f"raised {type(exc).__name__}: {exc}"
            results.append((time.perf_counter() - t0, rc, out.getvalue()))
        wall = time.perf_counter() - wall
        for j, (seconds, rc, text) in enumerate(results):
            try:
                why = oracles.check(ops[j]["expect"], rc, text) if isinstance(rc, int) else rc
            except Exception as exc:  # a malformed output the oracle cannot read
                why = f"oracle raised {type(exc).__name__}: {exc}"
            digest = hashlib.sha256(f"{rc}\n{text}".encode()).hexdigest()[:16]
            emit({"ev": "op", "pass": pass_no, "idx": j, "ms": seconds * 1e3,
                  "ok": why is None, "why": why, "digest": digest})
        emit({"ev": "pass", "pass": pass_no, "wall_s": wall})
        passes.append(pass_no)
        if time.monotonic() - began >= args.seconds:
            break
        pass_no += 1
        ops = workloads.batch(args.workload, args.seed, pass_no)
        argvs = prepare(ops, args.workdir, pass_no)

    end = {"ev": "end",
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        end["layers"] = tracer.metrics(op_pass, passes)
        spans_dir = os.path.join(args.root, ".perfbench", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        tracer.write(os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.tsv.gz"))
    emit(end)
    return 0


if __name__ == "__main__":
    sys.exit(main())
