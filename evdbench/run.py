"""Time to a verified eigensolution, end to end and layer by layer.

Usage (from the root of a checkout)::

    python3 evdbench/run.py --workload evd-vec --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with every wrapper and the
program's own telemetry off.  ``--trace 1`` is a separate run of the same
workload: half of ``--seconds`` untraced, half with the per-layer wrappers
of ``ledger.Tracer`` installed, then the LAPACK reference lane.  Every
call's output is checked; a call that raises, is refused or misses its
bound counts as failed and is never retried.  Human-readable lines start
with ``#``; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Setup is repeated this many times per end-to-end run; setup_s is the median.
SETUP_REPS = 3
#: LAPACK reference calls are repeated this many times; the median is reported.
REF_REPS = 5
#: A serve job that has not finished after this long counts as failed.
JOB_TIMEOUT_S = 60.0
#: An end-to-end serve-mix run holds at least this many jobs, so that ten
#: or more lie beyond the 75th percentile.
P75_MIN_JOBS = 40


def load_program():
    """Import ``repro`` from this checkout's ``src/``; exit non-zero without it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"evdbench: {SRC}/repro not found; run from the root of a full checkout")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"evdbench: imported repro from {repro.__file__}, not from {SRC}")
    return repro


@dataclass
class Loop:
    """What one closed loop measured."""

    solve: list = field(default_factory=list)
    latency: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    rejections: int = 0
    acc: dict = field(default_factory=dict)
    #: Per verified operation: its input (direct loops) or JobResult (serve).
    done: list = field(default_factory=list)
    wall: float = 0.0

    def ok(self, solve_s, latency_s, acc):
        self.solve.append(solve_s)
        self.latency.append(latency_s)
        for k, v in acc.items():
            self.acc[k] = max(self.acc.get(k, 0.0), v)

    def merge(self, other: "Loop") -> "Loop":
        out = Loop(
            self.solve + other.solve, self.latency + other.latency,
            self.attempted + other.attempted, self.failed + other.failed,
            self.rejections + other.rejections, dict(self.acc),
            self.done + other.done, max(self.wall, other.wall),
        )
        for k, v in other.acc.items():
            out.acc[k] = max(out.acc.get(k, 0.0), v)
        return out


def _report_failure(what: str) -> None:
    print(f"evdbench: operation failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _keep_going(loop: Loop, est: float, until: float) -> bool:
    """Start another operation unless it would end well past ``until``."""
    return loop.attempted == 0 or time.perf_counter() + est / 2 < until


def direct_loop(wl, pool, until, first, tracer=None) -> Loop:
    """One client calling the workload's entry point back to back."""
    loop, est, k = Loop(), 0.0, first
    t_start = time.perf_counter()
    while _keep_going(loop, est, until):
        inp = pool[k % len(pool)]
        k += 1
        loop.attempted += 1
        t0 = time.perf_counter()
        try:
            with tracer.span("op") if tracer is not None else nullcontext():
                out = wl.call(inp)
            dt = time.perf_counter() - t0
            acc = wl.check(inp, out)
        except Exception:  # every failure is counted, then the loop goes on
            loop.failed += 1
            _report_failure(type(wl).__name__)
        else:
            loop.ok(dt, dt, acc)
            loop.done.append(inp)
        est = max(est, time.perf_counter() - t0)
        # Free the result before the next call.  Results sit in reference
        # cycles, so only the cycle collector frees them; left to run when
        # it happens to, it lets a varying number of old results pile up
        # (up to 600 MiB on sbr-n2048) and peak_rss_mb would count them.
        out = None
        gc.collect()
    loop.wall = time.perf_counter() - t_start
    return loop


def serve_loop(wl, svc, pool, until, seed, min_jobs=0) -> Loop:
    """``wl.clients`` closed-loop clients in lockstep, whole cycles at a time.

    Each round submits one job per client and waits for all of them
    before the next round.  Latency is the service's own submit-to-finish
    time of each job, so the order in which results are collected here
    does not add to it.
    """
    import numpy as np
    from repro.errors import AdmissionError

    rng = np.random.default_rng(seed)
    loop, k = Loop(), 0
    t_start = time.perf_counter()
    # A cycle starts while time is left, so a run holds whole cycles and
    # never fewer jobs than the time allows.
    while loop.attempted < min_jobs or _keep_going(loop, 0.0, until):
        for jobs in wl.cycle(pool, rng, k):
            submitted = []
            for prio, inp, spec in jobs:
                loop.attempted += 1
                try:
                    submitted.append((prio, inp, svc.submit(spec=spec)))
                except AdmissionError:
                    loop.failed += 1
                    loop.rejections += 1
                    _report_failure(f"{prio} job refused")
            for prio, inp, job_id in submitted:
                try:
                    r = svc.result(job_id, timeout=JOB_TIMEOUT_S)
                    acc = wl.check(prio, inp, r)
                except Exception:  # every failure is counted, then the loop goes on
                    loop.failed += 1
                    _report_failure(f"{prio} job")
                else:
                    loop.ok(r.wall - r.queue_wait, r.wall, acc)
                    loop.done.append(r)
        k += 1
    loop.wall = time.perf_counter() - t_start
    return loop


class Session:
    """One workload's inputs and, for serve-mix, its running service."""

    def __init__(self, name: str, seed: int, wl):
        self.name, self.seed, self.wl = name, seed, wl
        self.svc = None
        self.scratch = os.path.join(ROOT, ".bench_runs", f"{name}-{os.getpid()}")
        self.spool_bytes = 0
        self.jobs_submitted = 0

    def setup(self, rep: int) -> float:
        """Generate the inputs, start the service, make the warm-up call."""
        import numpy as np

        if self.svc is not None:
            # Services must not overlap: each installs its metrics registry
            # process-wide and puts the previous one back at shutdown.
            self.svc.shutdown()
        self.pool = None
        t0 = time.perf_counter()
        self.pool = self.wl.inputs(np.random.default_rng(self.seed))
        from repro.serve import EvdService
        from workloads import ServeMix

        if not isinstance(self.wl, ServeMix):
            self.wl.warmup()
            return time.perf_counter() - t0

        self.spool = os.path.join(self.scratch, f"spool{rep}")
        self.svc = EvdService(workers=self.wl.workers, spool_dir=self.spool).start()
        # One small job of each class: the three classes take different paths.
        warm = ServeMix(sizes=(16, 16, 16), b=self.wl.b, clients=1)
        warm_loop = serve_loop(warm, self.svc, warm.inputs(np.random.default_rng(0)), 0.0, 0)
        if warm_loop.failed:
            raise RuntimeError("serve-mix warm-up job failed")
        return time.perf_counter() - t0

    def loop(self, until, first=0, tracer=None, min_jobs=0) -> Loop:
        if self.svc is not None:
            return serve_loop(self.wl, self.svc, self.pool, until, self.seed, min_jobs)
        return direct_loop(self.wl, self.pool, until, first, tracer)

    def close(self) -> None:
        """Stop the service, count what it left in its spool, clean up."""
        if self.svc is not None:
            self.svc.shutdown()
            self.jobs_submitted = self.svc.stats()["jobs_total"]
            for dirpath, _, files in os.walk(self.spool):
                self.spool_bytes += sum(
                    os.path.getsize(os.path.join(dirpath, f)) for f in files
                )
            self.svc = None
        shutil.rmtree(self.scratch, ignore_errors=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pct(values, q) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def end_to_end(sess: Session, seconds: float, import_s: float) -> tuple[dict, Loop]:
    setups = [sess.setup(rep) for rep in range(SETUP_REPS)]
    t0 = time.perf_counter()
    loop = sess.loop(t0 + seconds, min_jobs=P75_MIN_JOBS)
    n = len(loop.solve)
    unit = "jobs" if sess.svc is not None else "calls"
    busy = loop.wall if sess.svc is not None else sum(loop.solve)
    metrics = {
        "solve_s": (statistics.median(loop.solve) if n else 0.0, "s",
                    f"median of {n} verified {unit}"
                    + (f": {', '.join(f'{t:.3f}' for t in loop.solve)}" if n <= 10 else "")),
        "latency_p50_s": (_pct(loop.latency, 50), "s", f"median of {n} {unit}"),
        "latency_p75_s": (_pct(loop.latency, 75), "s",
                          f"75th percentile of {n} {unit}"),
        "jobs_per_s": (n / busy if busy else 0.0, "1/s",
                       f"{n} verified {unit} in {busy:.3f} s"),
        "setup_s": (import_s + statistics.median(setups), "s",
                    f"import {import_s:.3f} s + median of {SETUP_REPS} setups"),
        "peak_rss_mb": (peak_rss_mb(), "MiB", "ru_maxrss of the process"),
    }
    return metrics, loop


def _median_time(fn, reps=REF_REPS) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def lapack_lane(name: str, tracer, last_input) -> dict:
    """Native LAPACK on the same inputs, timed in this process."""
    import numpy as np
    import scipy.linalg as sla

    ref = {}
    if name == "evd-vec" and "de" in tracer.captured:
        a = np.asarray(tracer.captured["a"], dtype=np.float64)
        band = np.asarray(tracer.captured["band"], dtype=np.float64)
        b = tracer.captured["b"]
        d, e = tracer.captured["de"]
        ab = np.zeros((b + 1, band.shape[0]))
        for i in range(b + 1):
            ab[i, : band.shape[0] - i] = np.diagonal(band, -i)
        ref["ref.eigh_s"] = _median_time(lambda: np.linalg.eigh(a))
        ref["ref.eig_banded_s"] = _median_time(lambda: sla.eig_banded(ab, lower=True))
        ref["ref.eigh_tridiagonal_s"] = _median_time(lambda: sla.eigh_tridiagonal(d, e))
    elif name == "svd-banded" and last_input is not None:
        band = last_input[0]
        ref["ref.svd_s"] = _median_time(lambda: np.linalg.svd(band))
    return ref


def per_layer(sess: Session, seconds: float) -> tuple[dict, Loop, bool]:
    from ledger import Ledger, Tracer

    sess.setup(0)
    t0 = time.perf_counter()
    plain = sess.loop(t0 + seconds / 2)
    tracer = Tracer(run_id=f"{sess.name}/seed{sess.seed}/pid{os.getpid()}")
    with tracer:
        traced = sess.loop(t0 + seconds, first=plain.attempted, tracer=tracer)
    restored = tracer.restored()
    led = Ledger.of(tracer.spans)
    ref = lapack_lane(sess.name, tracer, traced.done[-1] if traced.done else None)
    serving = sess.svc is not None
    sess.close()
    whole = plain.merge(traced)

    os.makedirs(os.path.join(ROOT, ".bench_trace"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_trace", f"{sess.name}-seed{sess.seed}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(tracer.to_json(), fh)

    ops = max(traced.attempted, 1)
    # Time the traced operations spent in the program: whole calls, or
    # the in-worker part of each job.
    op_time = sum(traced.solve) or 1.0
    untraced = statistics.median(plain.solve) if plain.solve else 0.0
    traced_s = statistics.median(traced.solve) if traced.solve else 0.0
    reports = tracer.reports["evd"] or tracer.reports["sbr"]
    ws_takes = sum(r["ws_takes"] for r in reports)

    def per_op(table, layer):
        return table.get(layer, 0) / ops

    def x_ref(seconds, key):
        return seconds / ref[key] if key in ref else 0.0

    stage23 = per_op(led.total_s, "eig.bulge") + per_op(led.total_s, "eig.tridiag")
    m = {
        "fail_ratio": whole.failed / max(whole.attempted, 1),
        "sbr.self_s": per_op(led.self_s, "sbr"),
        "sbr.calls": per_op(led.calls, "sbr"),
        "sbr.share": led.total_s.get("sbr", 0.0) / op_time,
        "la.tsqr.self_s": per_op(led.self_s, "la.tsqr"),
        "la.tsqr.calls": per_op(led.calls, "la.tsqr"),
        "la.reconstruct.self_s": per_op(led.self_s, "la.reconstruct"),
        "gemm.launches": per_op(led.calls, "gemm"),
        "gemm.flops": led.flops / ops,
        "gemm.bytes_computed": led.bytes / ops,
        "gemm.self_s": per_op(led.self_s, "gemm"),
        "gemm.gflop_per_s": led.flops / led.self_s["gemm"] / 1e9 if led.self_s.get("gemm") else 0.0,
        "gemm.share": led.self_s.get("gemm", 0.0) / op_time,
        "eig.bulge.self_s": per_op(led.self_s, "eig.bulge"),
        "eig.bulge.calls": per_op(led.calls, "eig.bulge"),
        "eig.bulge.share": led.self_s.get("eig.bulge", 0.0) / op_time,
        "eig.tridiag.self_s": per_op(led.self_s, "eig.tridiag"),
        "eig.glue_s": per_op(led.self_s, "op") + per_op(led.self_s, "eig.driver"),
        "resilience.guard_s": per_op(led.self_s, "resilience.guard"),
        "resilience.retries": sum(r["retries"] for r in reports) / ops,
        "resilience.escalations": sum(r["escalations"] for r in reports) / ops,
        "perf.ws_takes": ws_takes / ops,
        "perf.ws_hit_ratio": sum(r["ws_hits"] for r in reports) / ws_takes if ws_takes else 0.0,
        "svd.bidiag.self_s": per_op(led.self_s, "svd.bidiag"),
        "svd.gk.self_s": per_op(led.self_s, "svd.gk"),
        "serve.queue_wait_p50_s": 0.0,
        "serve.attempts_per_job": 0.0,
        "serve.coalesced_share": 0.0,
        "serve.rejections": float(whole.rejections),
        "ckpt.spool_bytes": 0.0,
        "obs.untraced_solve_s": untraced,
        "obs.traced_solve_s": traced_s,
        "obs.trace_overhead_s": traced_s - untraced,
        "ref.eigh_s": ref.get("ref.eigh_s", 0.0),
        "ref.eig_banded_s": ref.get("ref.eig_banded_s", 0.0),
        "ref.eigh_tridiagonal_s": ref.get("ref.eigh_tridiagonal_s", 0.0),
        "ref.svd_s": ref.get("ref.svd_s", 0.0),
        "ratio.evd_x_eigh": x_ref(untraced, "ref.eigh_s"),
        "ratio.stage23_x_eig_banded": x_ref(stage23, "ref.eig_banded_s"),
        "ratio.tridiag_x_eigh_tridiagonal":
            x_ref(per_op(led.total_s, "eig.tridiag"), "ref.eigh_tridiagonal_s"),
        "ratio.svd_x_lapack": x_ref(untraced, "ref.svd_s"),
    }
    if serving:
        jobs = whole.done
        m["serve.queue_wait_p50_s"] = _pct([r.queue_wait for r in jobs], 50)
        m["serve.attempts_per_job"] = sum(r.attempts for r in jobs) / max(len(jobs), 1)
        m["serve.coalesced_share"] = sum(r.batched for r in jobs) / max(len(jobs), 1)
        m["ckpt.spool_bytes"] = sess.spool_bytes / max(sess.jobs_submitted, 1)
    for key in ("acc.eig_rel_err", "acc.residual", "acc.orth",
                "acc.sbr_backward_err", "acc.svd_rel_err"):
        m[key] = whole.acc.get(key, 0.0)

    sane = restored and not led.problems
    for problem in led.problems[:10]:
        print(f"evdbench: ledger: {problem}", file=sys.stderr)
    if not restored:
        print("evdbench: a wrapped attribute was not restored", file=sys.stderr)
    print(f"# traced {traced.attempted} of {whole.attempted} operations; "
          f"{len(tracer.spans)} spans; ledger {'ok' if sane else 'BROKEN'}")
    return m, whole, sane


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load_program()
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _PROCESS_T0
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    sess = Session(args.workload, args.seed, WORKLOADS[args.workload]())
    try:
        if args.trace:
            values, loop, sane = per_layer(sess, args.seconds)
            units = _layer_units()
            metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        else:
            table, loop = end_to_end(sess, args.seconds, import_s)
            sane = True
            for name, (value, unit, samples) in table.items():
                print(f"# {name} = {value:.6g} {unit} ({samples})")
            metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in table.items()}
    finally:
        sess.close()
    print(f"# fail_ratio = {loop.failed}/{loop.attempted}")
    print(json.dumps({
        "correct": loop.failed == 0 and sane,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


def _layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
