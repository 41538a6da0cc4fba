"""Per-layer spans recorded from outside the program.

:class:`Tracer` replaces the module and class attributes the drivers look
up at call time with thin wrappers.  Each wrapped call records one span
(layer name, start, end, parent span, run id, thread) in memory; nothing
inside ``src/`` changes and the program's own ``repro.obs`` telemetry
stays off.  Leaving the ``with`` block restores every original object,
and :meth:`Tracer.restored` checks that by identity.

A span's *self time* is its duration minus the time of its wrapped
children.  Spans nest per thread, so children of one span never overlap
and their durations add up.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np


@dataclass
class Span:
    id: int
    layer: str
    start: float
    end: float
    parent: "int | None"
    run: str
    thread: str
    flops: int = 0
    bytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _gemm_work(args, kwargs, out, op: str) -> tuple[int, int]:
    """(flops, bytes) of one engine launch, computed from operand shapes."""
    a = np.asarray(getattr(args[1], "array", args[1]))
    if op == "syr2k":
        m, k = a.shape
        # One m x m x k product plus its transpose (the engine's execution).
        return 2 * m * m * k, a.itemsize * (2 * m * k + m * m)
    shape = np.shape(out)
    batch = shape[0] if op == "gemm_batched" else 1
    m, n = shape[-2], shape[-1]
    k = a.shape[-2] if kwargs.get("ta", False) else a.shape[-1]
    words = (m * k + k * n + m * n) * batch
    return 2 * m * n * k * batch, a.itemsize * words


def _targets():
    """(owner, attribute, layer, hook name) of every wrapped entry point."""
    repro = importlib.import_module("repro")
    driver = importlib.import_module("repro.eig.driver")
    panel = importlib.import_module("repro.sbr.panel")
    banded = importlib.import_module("repro.svd.banded")
    engine = importlib.import_module("repro.gemm.engine").GemmEngine
    bank = importlib.import_module("repro.resilience.detectors").DetectorBank
    ctx = importlib.import_module("repro.resilience.context").ResilienceContext
    out = [
        # The drivers' own lookups, plus the top-level names the
        # benchmark's direct calls go through.
        (driver, "syevd_2stage", "eig.driver", "evd"),
        (repro, "syevd_2stage", "eig.driver", "evd"),
        (driver, "sbr_wy", "sbr", "sbr"),
        (repro, "sbr_wy", "sbr", "sbr"),
        (panel, "tsqr", "la.tsqr", None),
        (panel, "reconstruct_wy", "la.reconstruct", None),
        (engine, "gemm", "gemm", "gemm"),
        (engine, "gemm_batched", "gemm", "gemm_batched"),
        (engine, "syr2k", "gemm", "syr2k"),
        (driver, "bulge_chase", "eig.bulge", "bulge"),
        (driver, "tridiag_eig_dc", "eig.tridiag", None),
        (banded, "band_to_bidiagonal", "svd.bidiag", None),
        (banded, "gk_bidiagonal_svd", "svd.gk", None),
    ]
    for cls in (bank, ctx):
        out += [
            (cls, name, "resilience.guard", None)
            for name in sorted(vars(cls)) if name.startswith("check_")
        ]
    return out


@dataclass
class Tracer:
    """Install wrappers for the duration of a ``with`` block."""

    run_id: str
    spans: list = field(default_factory=list)
    #: Inputs of the LAPACK lane, from the last wrapped call: ``a``,
    #: ``band`` and ``b`` from ``sbr_wy``, ``de`` from ``bulge_chase``.
    captured: dict = field(default_factory=dict)
    #: Per returned ``EvdResult`` ("evd") or ``SbrResult`` ("sbr"): its
    #: resilience counters and workspace stats.
    reports: dict = field(default_factory=lambda: {"evd": [], "sbr": []})

    def __post_init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals: list = []

    @contextmanager
    def span(self, layer: str):
        """Record one span around the ``with`` body; yields its ``Span``."""
        stack = self._local.__dict__.setdefault("stack", [])
        rec = Span(next(self._ids), layer, 0.0, 0.0, stack[-1] if stack else None,
                   self.run_id, threading.current_thread().name)
        stack.append(rec.id)
        rec.start = perf_counter()
        try:
            yield rec
        finally:
            rec.end = perf_counter()
            stack.pop()
            self.spans.append(rec)

    def _hook(self, hook, args, kwargs, out, span) -> None:
        if hook in ("gemm", "gemm_batched", "syr2k"):
            span.flops, span.bytes = _gemm_work(args, kwargs, out, hook)
        elif hook == "bulge":
            self.captured["de"] = (out[0], out[1])
        else:
            if hook == "sbr":
                self.captured.update(a=args[0], band=out.band, b=out.bandwidth)
            rep = getattr(out, "resilience_report", None)
            ws = out.workspace.stats() if out.workspace is not None else None
            self.reports[hook].append({
                "retries": rep.retries if rep is not None else 0,
                "escalations": len(rep.escalations) if rep is not None else 0,
                "ws_takes": ws["takes"] if ws else 0,
                "ws_hits": ws["hits"] if ws else 0,
            })

    def _wrap(self, fn, layer: str, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(layer) as rec:
                out = fn(*args, **kwargs)
            if hook is not None:
                tracer._hook(hook, args, kwargs, out, rec)
            return out

        return wrapper

    def __enter__(self) -> "Tracer":
        for owner, attr, layer, hook in _targets():
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, hook))
        return self

    def __exit__(self, *exc) -> bool:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        return False

    def restored(self) -> bool:
        """True when every wrapped attribute is the original object again."""
        return all(vars(owner)[attr] is orig for owner, attr, orig in self._originals)

    def to_json(self) -> dict:
        return {
            "run": self.run_id,
            "spans": [
                {"id": s.id, "name": s.layer, "start": s.start, "end": s.end,
                 "parent": s.parent, "run": s.run, "thread": s.thread,
                 **({"flops": s.flops, "bytes": s.bytes} if s.flops else {})}
                for s in self.spans
            ],
        }


@dataclass
class Ledger:
    """Self time, inclusive time and counts per layer over a set of spans."""

    self_s: dict
    total_s: dict
    calls: dict
    flops: int
    bytes: int
    problems: list

    @classmethod
    def of(cls, spans: list) -> "Ledger":
        by_id = {s.id: s for s in spans}
        child = defaultdict(float)
        problems = []
        for s in spans:
            if s.parent is None:
                continue
            p = by_id.get(s.parent)
            if p is None or not (p.start <= s.start and s.end <= p.end):
                problems.append(f"span {s.id} ({s.layer}) lies outside its parent")
            else:
                child[s.parent] += s.duration
        self_s, total_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for s in spans:
            own = s.duration - child[s.id]
            # Children are summed, so rounding may leave a few ulp below 0.
            if own < -1e-9:
                problems.append(f"span {s.id} ({s.layer}) has self time {own:.3e}")
            self_s[s.layer] += own
            total_s[s.layer] += s.duration
            calls[s.layer] += 1
        return cls(
            self_s=self_s, total_s=total_s, calls=calls,
            flops=sum(s.flops for s in spans), bytes=sum(s.bytes for s in spans),
            problems=problems,
        )
