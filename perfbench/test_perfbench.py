"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench``
from the root of the checkout.  They call knotcert only to confirm that
the oracles and the input decorations agree with it."""

from __future__ import annotations

import io
import json
import os
import random
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from knotcert import cli  # noqa: E402


def knotcert(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    return cli.run(argv, out), out.getvalue()


def alexander(tmp_path, text: str) -> str:
    path = tmp_path / "p.txt"
    path.write_text(text)
    rc, out = knotcert(["alexander", "--file", str(path)])
    assert rc == 0
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_batches_are_deterministic_per_seed(workload):
    assert workloads.batch(workload, 7, 0) == workloads.batch(workload, 7, 0)
    assert workloads.batch(workload, 7, 1) == workloads.batch(workload, 7, 1)
    assert workloads.batch(workload, 7, 0) != workloads.batch(workload, 8, 0)
    assert workloads.batch(workload, 7, 0) != workloads.batch(workload, 7, 1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_batches_keep_their_class_counts(workload):
    def classes(ops):
        return sorted(op["expect"][0] for op in ops)

    sizes = {len(workloads.batch(workload, seed, p)) for seed in range(3) for p in range(2)}
    assert len(sizes) == 1 and sizes.pop() > run.TAIL_BEYOND
    assert classes(workloads.batch(workload, 1, 0)) == classes(workloads.batch(workload, 2, 3))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_batches_stay_within_recorded_limits(workload):
    for seed in range(10):
        for pass_no in range(2):
            seen = workloads.input_limits(workloads.batch(workload, seed, pass_no))
            assert set(seen) == set(workloads.LIMITS[workload])
            for key, value in seen.items():
                assert value <= workloads.LIMITS[workload][key], key


@pytest.mark.parametrize("seed", range(4))
def test_decorations_keep_the_closed_form_delta(tmp_path, seed):
    rng = random.Random(seed)
    for p in (2, 3, 4):
        want = oracles.coeff_line(oracles.torus_delta(p, p + 1)) + "\n"
        assert alexander(tmp_path, workloads.decorate(rng, *oracles.wirtinger(p))) == want
        assert alexander(tmp_path, workloads.decorate(rng, *oracles.seam_quotient(p))) == "1\n"
    for e in (5, 8):
        text = workloads.decorate(rng, ["x", "y"], [[("x", e), ("y", -(e + 1))]])
        assert alexander(tmp_path, text) == oracles.coeff_line(oracles.torus_delta(e, e + 1)) + "\n"


def _cheapest(workload: str, ops: list[dict], count: int) -> list[dict]:
    def size(op):
        return len(op.get("file", "")) + sum(len(a) for a in op["argv"]) + (
            op["expect"][1] ** 3 if op["expect"][0] == "sweep" else 0)

    return ops if workload == "family-verbs" else sorted(ops, key=size)[:count]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_oracles_agree_with_knotcert(tmp_path, workload):
    for j, op in enumerate(_cheapest(workload, workloads.batch(workload, 0, 0), 6)):
        argv = op["argv"]
        if "file" in op:
            path = tmp_path / f"op{j}.txt"
            path.write_text(op["file"])
            argv = [str(path) if a == "{file}" else a for a in argv]
        rc, out = knotcert(argv)
        assert oracles.check(op["expect"], rc, out) is None, argv


def test_oracles_reject_wrong_answers():
    assert oracles.check(("delta", 3, 4), 0, "1 -1 0 1 0 -1 1\n") is None
    assert oracles.check(("delta", 3, 4), 0, "1 -1 0 1 0 -1 2\n") is not None
    assert oracles.check(("delta", 3, 4), 1, "1 -1 0 1 0 -1 1\n") is not None
    assert oracles.check(("one",), 0, "1 -1 1\n") is not None
    assert oracles.check(("wp", 2, 3, [("x", 2)]), 0, "trivial\n") is not None
    assert oracles.check(("wp", 2, 3, [("x", 2)]), 0, "c\n") is None
    assert oracles.check(("sweep", 3), 0, "summary: 3/3 certificates valid\n") is not None
    rc, out = knotcert(["distinct", "--p", "2", "--k", "5", "--json"])
    assert oracles.check(("certificate", 2, 5), rc, out) is None
    bad = json.loads(out)
    bad["polynomials"]["phi"]["coeffs"][0] = "2"
    assert oracles.check(("certificate", 2, 5), rc, json.dumps(bad)) is not None


def test_cyclotomic_oracle_matches_known_polynomials():
    assert oracles.cyclotomic(1) == [-1, 1]
    assert oracles.cyclotomic(6) == [1, -1, 1]
    assert oracles.cyclotomic(12) == [1, 0, -1, 0, 1]
    assert oracles.torus_delta(2, 3) == [1, -1, 1]


def test_benchmark_json_lists_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["per_layer"] == tracing.per_layer_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_a_run_over_its_budget_fails_every_unfinished_operation(tmp_path):
    args = types.SimpleNamespace(workload="alexander-tall", seed=0, seconds=1)
    worker = run.Worker(ROOT, str(tmp_path), args, budget=2.0)
    assert worker.killed
    assert worker.attempted == len(workloads.batch("alexander-tall", 0, 0))
    assert worker.failed == worker.attempted
