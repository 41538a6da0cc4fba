"""Self-tests of the benchmark's own code.

Run from the root of the checkout: ``python3 -m pytest evdbench -q``.
Every workload runs here at a tiny size, so the whole file takes seconds.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import run

run.load_program()

import ledger  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def tiny(name):
    return {
        "evd-vec": lambda: workloads.EvdVec(n=64, b=8, nb=32),
        "sbr-n2048": lambda: workloads.SbrN2048(n=128, b=8, nb=32),
        "svd-banded": lambda: workloads.SvdBanded(n=48, bw=4),
        "serve-mix": lambda: workloads.ServeMix(sizes=(16, 24, 32)),
    }[name]()


def _arrays(inputs):
    if isinstance(inputs, dict):
        return [x for k in sorted(inputs) for x in _arrays(inputs[k])]
    return [x for pair in inputs for x in pair if x is not None]


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name):
    wl = tiny(name)
    first = _arrays(wl.inputs(np.random.default_rng(3)))
    again = _arrays(wl.inputs(np.random.default_rng(3)))
    other = _arrays(wl.inputs(np.random.default_rng(4)))
    assert all(x.tobytes() == y.tobytes() for x, y in zip(first, again))
    assert all(x.tobytes() != y.tobytes() for x, y in zip(first, other))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_has_no_failures(name):
    sess = run.Session(name, 0, tiny(name))
    try:
        sess.setup(0)
        loop = sess.loop(time.perf_counter() + 0.3)
    finally:
        sess.close()
    assert loop.attempted >= 1
    assert loop.failed == 0
    assert len(loop.solve) == loop.attempted


class _Corrupt:
    """A workload whose outputs are damaged after the call returns."""

    def __init__(self, wl, damage):
        self.wl, self.damage = wl, damage

    def call(self, inp):
        return self.damage(self.wl.call(inp))

    def check(self, inp, out):
        return self.wl.check(inp, out)


def _perturb_eigenvalues(res):
    res.eigenvalues = res.eigenvalues * (1 + 1e-3)
    return res


def _fill_band(res):
    res.band[-1, 0] = 1.0
    return res


def _drop_singular_value(res):
    u, s, vt = res
    s = s.copy()
    s[0] *= 0.5
    return u, s, vt


@pytest.mark.parametrize("name, damage", [
    ("evd-vec", _perturb_eigenvalues),
    ("sbr-n2048", _fill_band),
    ("svd-banded", _drop_singular_value),
])
def test_corrupted_output_counts_as_failure(name, damage):
    wl = tiny(name)
    pool = wl.inputs(np.random.default_rng(0))
    loop = run.direct_loop(_Corrupt(wl, damage), pool, 0.0, 0)
    assert (loop.attempted, loop.failed, loop.solve) == (1, 1, [])


def test_failed_serve_job_counts_as_failure():
    from repro.serve import JobResult

    wl = tiny("serve-mix")
    pool = wl.inputs(np.random.default_rng(0))
    prio, inp, _ = next(wl.cycle(pool, np.random.default_rng(0), 0))[0]
    with pytest.raises(workloads.CheckFailed):
        wl.check(prio, inp, JobResult(job_id="j", outcome="degraded"))
    good = JobResult(job_id="j", outcome="done",
                     eigenvalues=np.linalg.eigvalsh(inp[0]) + 1e-3)
    with pytest.raises(workloads.CheckFailed):
        wl.check(prio, inp, good)


@pytest.mark.parametrize("name", ["evd-vec", "svd-banded"])
def test_tracer_restores_what_it_wrapped(name):
    owners = {(id(o), a): vars(o)[a] for o, a, _, _ in ledger._targets()}
    sess = run.Session(name, 0, tiny(name))
    sess.setup(0)
    tracer = ledger.Tracer(run_id="test")
    with tracer:
        loop = sess.loop(0.0, tracer=tracer)
    sess.close()
    assert loop.failed == 0
    assert tracer.restored()
    assert all(vars(o)[a] is owners[(id(o), a)] for o, a, _, _ in ledger._targets())
    led = ledger.Ledger.of(tracer.spans)
    assert led.problems == []
    assert led.calls["op"] == 1
    assert all(v >= -1e-9 for v in led.self_s.values())


def test_ledger_flags_a_child_outside_its_parent():
    spans = [
        ledger.Span(1, "op", 0.0, 1.0, None, "r", "t"),
        ledger.Span(2, "gemm", 0.5, 1.5, 1, "r", "t"),
    ]
    assert ledger.Ledger.of(spans).problems


def test_gemm_work_counts_flops_and_bytes():
    a = np.ones((4, 3))
    b = np.ones((3, 5))
    out = a @ b
    assert ledger._gemm_work((None, a, b), {}, out, "gemm") == (2 * 4 * 5 * 3, 8 * (12 + 15 + 20))
    assert ledger._gemm_work((None, a.T, b), {"ta": True}, out, "gemm")[0] == 2 * 4 * 5 * 3
    stack = np.ones((2, 4, 3))
    assert ledger._gemm_work((None, stack, np.ones((2, 3, 5))), {}, np.ones((2, 4, 5)),
                             "gemm_batched")[0] == 2 * 2 * 4 * 5 * 3


def test_metric_names_match_the_spec():
    spec = _spec()
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    assert all(NAME.fullmatch(n) for n in e2e + layers)
    assert len(set(e2e + layers)) == len(e2e + layers)

    sess = run.Session("evd-vec", 12345, tiny("evd-vec"))
    try:
        table, _ = run.end_to_end(sess, 0.1, 0.0)
        assert list(table) == e2e
        values, loop, sane = run.per_layer(sess, 0.2)
    finally:
        sess.close()
    assert sane and loop.failed == 0
    assert list(values) == layers
    assert values["eig.bulge.calls"] == 1.0


def test_exits_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.dirname(os.path.abspath(run.__file__)), tmp_path / "evdbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "evdbench/run.py", "--workload", "evd-vec", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
