"""knotcert benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a knotcert checkout; it imports knotcert from
``src/`` there.  Each run is a closed loop with one client: a fresh
interpreter (perfbench/worker.py) issues the seeded batches through
``knotcert.cli.run`` back to back for S seconds and checks every output
with oracles that do not call knotcert.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end ones; ``--trace 1`` runs the workload once more with
every layer wrapped (perfbench/tracing.py) and reports the per-layer
metrics, after checking that the traced outputs equal the untraced ones.
The lines above the last one are a human-readable report with the run
context.  perfbench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 4  # extra interpreters that only set up; setup_s is the median
TAIL_BEYOND = 10  # op_tail_ms: the highest percentile with this many operations beyond it


def run_context(root: str) -> dict:
    """Where a result came from: git sha, Python, cores and CPU model."""
    sha = "unknown"
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(root, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    sha = fh.read().strip()
            else:
                with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
                    sha = next((line.split()[0] for line in fh
                                if line.rstrip().endswith(" " + ref[5:])), "unknown")
        else:
            sha = ref
    except OSError:
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "unknown")
    except OSError:
        pass
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


class Worker:
    """The records of one worker interpreter, read after it exits."""

    def __init__(self, root: str, workdir: str, args, budget: float, trace=False,
                 setup_only=False):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
               "--workdir", workdir, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
        if trace:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        self.killed = False
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            stdout, _ = proc.communicate(timeout=budget)
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, _ = proc.communicate()
            self.killed = True
        self.returncode = proc.returncode
        records = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
        ready = [r for r in records if r["ev"] == "ready"]
        self.setup_s = ready[0]["at"] - spawned if ready else None
        self.end = next((r for r in records if r["ev"] == "end"), None)
        self.passes = {r["pass"]: r["wall_s"] for r in records if r["ev"] == "pass"}
        self.ops = [r for r in records if r["ev"] == "op"]
        # Every operation of a batch that began counts as attempted; one
        # without a passing check (never run, killed, wrong) has failed.
        self.attempted = sum(r["ops"] for r in records if r["ev"] == "start")
        self.failed = self.attempted - sum(1 for r in self.ops if r["ok"])
        self.reasons = [f"pass {r['pass']} op {r['idx']}: {r['why']}"
                        for r in self.ops if not r["ok"]]
        if self.killed:
            self.reasons.append(f"killed after {budget:.0f} s")
        elif self.returncode != 0 or self.end is None:
            self.reasons.append(f"worker exited with code {self.returncode}")

    def latencies(self, pass_no: int) -> list[float]:
        return sorted(r["ms"] for r in self.ops if r["pass"] == pass_no)


def tail_rank(batch: int) -> int:
    """1-based rank of the highest percentile with TAIL_BEYOND operations
    beyond it, in a batch of this size (the maximum for tiny batches)."""
    return max(batch - TAIL_BEYOND, 1)


def end_to_end(main: Worker, setups: list[float]) -> tuple[dict, dict]:
    """Medians over the completed batches of the run."""
    passes = sorted(main.passes)
    lat = [main.latencies(p) for p in passes]
    rank = tail_rank(len(lat[0]))
    values = {
        "solve_s": statistics.median(main.passes[p] for p in passes),
        "op_p50_ms": statistics.median(statistics.median(x) for x in lat),
        "op_tail_ms": statistics.median(x[rank - 1] for x in lat),
        "peak_rss_mb": main.end["rss_mb"],
        "setup_s": statistics.median(setups),
    }
    units = {"solve_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "peak_rss_mb": "MB", "setup_s": "s"}
    detail = {"batches": len(passes), "ops_per_batch": len(lat[0]),
              "tail_percentile": round(100 * rank / len(lat[0]), 1)}
    return ({k: {"value": v, "unit": units[k]} for k, v in values.items()}, detail)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "knotcert", "cli.py")):
        print(f"no knotcert checkout at {root}: src/knotcert/cli.py is missing",
              file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    # Two workers run in a traced run; each must end well inside 180 s.
    budget = min(2 * args.seconds + 30, 80 if args.trace else 160)
    try:
        return _run(args, root, workdir, budget)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, root: str, workdir: str, budget: float) -> int:
    context = run_context(root)
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = Worker(root, workdir, args, setup_only=True, budget=budget)
            if probe.setup_s is None:
                print(f"setup failed: worker exited with code {probe.returncode}",
                      file=sys.stderr)
                return 1
            setups.append(probe.setup_s)
    main = Worker(root, workdir, args, budget=budget)
    if main.setup_s is None:
        print(f"setup failed: worker exited with code {main.returncode}", file=sys.stderr)
        return 1
    setups.append(main.setup_s)
    workers = [main]
    reasons = list(main.reasons)
    if args.trace:
        traced = Worker(root, workdir, args, trace=True, budget=budget)
        workers.append(traced)
        reasons += [f"traced {r}" for r in traced.reasons]
        plain = {(r["pass"], r["idx"]): r["digest"] for r in main.ops}
        differ = [(r["pass"], r["idx"]) for r in traced.ops
                  if plain.get((r["pass"], r["idx"]), r["digest"]) != r["digest"]]
        if differ:
            reasons.append(f"traced output differs from untraced at {differ[:3]}")
    attempted = sum(w.attempted for w in workers)
    failed = sum(w.failed for w in workers)
    ok = not reasons and failed == 0 and all(w.passes for w in workers)

    print(f"context: {json.dumps(context, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}: {attempted} operations, {failed} failed, "
          f"fail_ratio {failed / max(attempted, 1):.6f}")
    for reason in reasons[:20]:
        print(f"  failure: {reason}")
    if not main.passes or main.end is None:
        metrics = {}
    elif args.trace:
        metrics = _per_layer(main, traced)
    else:
        metrics, detail = end_to_end(main, setups)
        print(f"  {detail['batches']} batches of {detail['ops_per_batch']} operations; "
              f"op_tail_ms is p{detail['tail_percentile']} "
              f"({TAIL_BEYOND} operations beyond it in each batch)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _per_layer(main: Worker, traced: Worker) -> dict:
    if traced.end is None or not traced.passes:
        return {}
    units = {m["name"]: m["unit"] for m in tracing.per_layer_spec()}
    values = dict(traced.end["layers"])
    values["trace.overhead_ratio"] = (
        statistics.median(traced.passes.values()) / statistics.median(main.passes.values()) - 1)
    return {name: {"value": values[name], "unit": units[name]} for name in units}


if __name__ == "__main__":
    sys.exit(main())
