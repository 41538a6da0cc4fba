"""The per-run resilience orchestrator: wraps engines, records, retries.

One :class:`ResilienceContext` lives for one driver invocation.  It owns

- the wrapped :class:`ResilientEngine` (fault injection + post-GEMM
  detectors on every matrix multiply),
- the :class:`~repro.resilience.policy.EscalationLadder` and the retry
  decision (:meth:`ResilienceContext.handle_breakdown`),
- the :class:`~repro.resilience.policy.ResilienceReport` the driver
  attaches to its result,
- the phase/panel stack that gives every raised
  :class:`~repro.errors.NumericalBreakdownError` its context, and
- the obs emission: every detection and escalation is also recorded as a
  zero-duration ``resilience.detect`` / ``resilience.escalate`` span so
  it lands in run manifests next to the phase timeline.

Drivers use it via the *unit protocol*: wrap each retryable unit (a
panel plus its trailing update, a stage) in :meth:`unit`, checkpoint the
mutable state first, and on :class:`NumericalBreakdownError` ask
:meth:`handle_breakdown` whether to restore + retry (possibly at an
escalated precision) or to propagate.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from ..errors import ConfigurationError, NumericalBreakdownError, SdcError
from ..gemm.engine import GemmEngine, make_engine
from ..gemm.trace import GemmRecord
from ..obs import spans as obs
from ..obs.live import registry as _live
from ..precision.modes import Precision
from .abft import AbftChecker, AbftPolicy, Syr2kPre
from .detectors import DetectorBank, DetectorConfig
from .faults import FaultInjector
from .policy import DetectionRecord, EscalationLadder, EscalationRecord, ResilienceReport

__all__ = ["BREAKDOWN_MODES", "ResilientEngine", "ResilienceContext"]

BREAKDOWN_MODES = ("raise", "escalate", "best_effort")


class ResilientEngine:
    """GEMM engine wrapper: inject faults, run detectors, allow escalation.

    Duck-types the :class:`~repro.gemm.engine.GemmEngine` interface the
    drivers consume (``gemm``/``syr2k``/``precision``/``working_dtype``/
    ``trace``).  The *base* engine implements the run's requested
    precision policy; :meth:`escalate_to` swaps in a safer engine, and
    GEMMs executed while escalated are still appended to the base
    engine's trace (tagged with the escalated engine's name) so the
    recorded stream stays complete.
    """

    def __init__(self, base: GemmEngine, ctx: "ResilienceContext") -> None:
        self.base = base
        self._inner = base
        self._ctx = ctx
        self._lock = threading.Lock()

    # -- GemmEngine surface -------------------------------------------------
    @property
    def name(self) -> str:
        return self._inner.name

    @property
    def precision(self) -> Precision:
        return self._inner.precision

    @property
    def working_dtype(self) -> np.dtype:
        # The *storage* dtype must stay the base policy's: escalation
        # re-runs a unit in wider arithmetic but writes back into the
        # same matrices.
        return self.base.working_dtype

    @property
    def trace(self):
        return self.base.trace

    def reset_trace(self) -> None:
        self.base.reset_trace()

    @property
    def workspace(self):
        return self.base.workspace

    def prepare_operand(self, a, *, tag: "str | None" = "prep", split: bool = True):
        """The array itself: escalation re-runs units at other precisions,
        so no precision-specific operand transformation is cached."""
        return np.asarray(a)

    def update_operand(self, handle, key=...) -> None:
        """No-op (:meth:`prepare_operand` caches nothing)."""

    def gemm(self, a, b, *, tag: str = "", out=None, ta: bool = False,
             tb: bool = False) -> np.ndarray:
        """Policy GEMM with injection + detection.

        Note: even with ``out=`` the *returned* array is authoritative —
        fault injection may substitute a different array than the buffer
        the inner engine wrote.  All callers must use the return value.
        """
        inner = self._inner
        res = inner.gemm(a, b, tag=tag, out=out, ta=ta, tb=tb)
        if inner is not self.base and self.base.trace is not None:
            rec = GemmRecord(
                m=res.shape[0], n=res.shape[1], k=np.asarray(a).shape[0 if ta else 1],
                tag=tag, engine=inner.name,
            )
            with self.base._trace_lock:
                self.base.trace.add(rec)
        # Zero-overhead-off contract: with ABFT off this is one attribute
        # read and a None check on the hot path.
        if self._ctx.abft is None:
            return self._ctx.after_gemm(res, site=tag, precision=inner.precision)
        return self._ctx.after_gemm_abft(
            res, a, b, inner=inner, site=tag, ta=ta, tb=tb, out_buf=out,
        )

    def gemm_batched(self, a, b, *, tag: str = "", out=None, ta: bool = False,
                     tb: bool = False) -> np.ndarray:
        """Batched policy GEMM with injection + detection (one stack check)."""
        inner = self._inner
        res = inner.gemm_batched(a, b, tag=tag, out=out, ta=ta, tb=tb)
        if inner is not self.base and self.base.trace is not None:
            rec = GemmRecord(
                m=res.shape[1], n=res.shape[2],
                k=np.asarray(a).shape[1 if ta else 2],
                tag=tag, engine=inner.name, op="gemm_batched", batch=res.shape[0],
            )
            with self.base._trace_lock:
                self.base.trace.add(rec)
        if self._ctx.abft is None:
            return self._ctx.after_gemm(res, site=tag, precision=inner.precision)
        return self._ctx.after_batched_abft(
            res, a, b, inner=inner, site=tag, ta=ta, tb=tb, out_buf=out,
        )

    def syr2k(self, y, z, *, tag: str = "", out=None, alpha: float = 1.0,
              beta: float = 0.0) -> np.ndarray:
        inner = self._inner
        ab = self._ctx.abft
        pre = snapshot = None
        if ab is not None and out is not None and beta != 0.0:
            # The accumulator's checksums (and, in correct mode, its full
            # contents for the replay) must be captured before the launch
            # scales them away.
            pre = Syr2kPre.capture(out)
            if ab.policy.mode == "correct":
                snapshot = np.array(out, copy=True)
        res = inner.syr2k(y, z, tag=tag, out=out, alpha=alpha, beta=beta)
        if inner is not self.base and self.base.trace is not None:
            yy = np.asarray(y)
            rec = GemmRecord(
                m=yy.shape[0], n=yy.shape[0], k=yy.shape[1],
                tag=tag, engine=inner.name, op="syr2k",
            )
            with self.base._trace_lock:
                self.base.trace.add(rec)
        if ab is None:
            return self._ctx.after_gemm(res, site=tag, precision=inner.precision)
        return self._ctx.after_syr2k_abft(
            res, y, z, inner=inner, site=tag, alpha=alpha, beta=beta,
            pre=pre, snapshot=snapshot,
        )

    # -- escalation ---------------------------------------------------------
    def escalate_to(self, precision: Precision) -> None:
        """Swap in an engine implementing a safer precision policy."""
        with self._lock:
            if precision is self.base.precision:
                self._inner = self.base
            else:
                self._inner = make_engine(precision)

    def restore_base(self) -> None:
        """Return to the run's requested base precision."""
        with self._lock:
            self._inner = self.base

    @property
    def escalated(self) -> bool:
        return self._inner is not self.base

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"escalated->{self._inner.name}" if self.escalated else "base"
        return f"<ResilientEngine {self.base.name} ({state})>"


class _Unit:
    """Context manager for one retryable unit (see ResilienceContext.unit)."""

    __slots__ = ("_ctx", "phase", "panel")

    def __init__(self, ctx: "ResilienceContext", phase: str, panel: "int | None") -> None:
        self._ctx = ctx
        self.phase = phase
        self.panel = panel

    def __enter__(self) -> "_Unit":
        self._ctx._stack.append((self.phase, self.panel))
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        ctx = self._ctx
        ctx._stack.pop()
        if exc_type is None:
            ctx._on_unit_success(self.phase)
        return False


class ResilienceContext:
    """Per-run resilience state: detectors, ladder, injector, report.

    Parameters
    ----------
    on_breakdown : {"escalate", "raise", "best_effort"}
        What to do when a detector fires: retry at escalated precision
        (default), propagate the :class:`NumericalBreakdownError`, or
        escalate and — if even the top of the ladder fails — finish the
        unit with detectors suppressed and record it in the report.
    ladder : EscalationLadder, optional
        Retry budget / widening / stickiness policy.
    detectors : DetectorConfig or DetectorBank, optional
        Which invariant monitors run and how strict they are.
    injector : FaultInjector, optional
        Test-only deterministic fault injection.
    abft : {"off", "detect", "correct"} or AbftPolicy, optional
        Online ABFT over every guarded engine launch
        (:mod:`repro.resilience.abft`).  ``None``/``"off"`` keeps the
        layer out of the hot path entirely.
    """

    def __init__(
        self,
        *,
        on_breakdown: str = "escalate",
        ladder: EscalationLadder | None = None,
        detectors: "DetectorConfig | DetectorBank | None" = None,
        injector: FaultInjector | None = None,
        abft=None,
    ) -> None:
        if on_breakdown not in BREAKDOWN_MODES:
            raise ConfigurationError(
                f"on_breakdown must be one of {BREAKDOWN_MODES}, got {on_breakdown!r}"
            )
        self.mode = on_breakdown
        self.ladder = ladder if ladder is not None else EscalationLadder()
        if isinstance(detectors, DetectorBank):
            self.detectors = detectors
        else:
            self.detectors = DetectorBank(detectors)
        self.injector = injector
        policy = AbftPolicy.from_knob(abft)
        #: AbftChecker or None — the single attribute the engine wrapper
        #: reads per launch (the zero-overhead-off contract).
        self.abft = AbftChecker(policy) if policy is not None else None
        self.report = ResilienceReport()
        self._stack: list[tuple[str, "int | None"]] = []
        self._engines: list[ResilientEngine] = []
        self._suppress = False

    # -- wiring -------------------------------------------------------------
    @property
    def can_retry(self) -> bool:
        return self.mode in ("escalate", "best_effort")

    def wrap_engine(self, engine: GemmEngine) -> ResilientEngine:
        """Wrap a numeric engine for injection + detection + escalation."""
        if isinstance(engine, ResilientEngine):
            return engine
        wrapped = ResilientEngine(engine, self)
        self._engines.append(wrapped)
        return wrapped

    def unit(self, phase: str, *, panel: "int | None" = None) -> _Unit:
        """Enter one retryable unit; gives detector errors their context."""
        return _Unit(self, phase, panel)

    def current_unit(self) -> tuple["str | None", "int | None"]:
        if self._stack:
            return self._stack[-1]
        return None, None

    # -- hooks (called by ResilientEngine and by drivers) --------------------
    def inject(self, site: str, arr: np.ndarray) -> np.ndarray:
        """Pass an array through a driver-level fault-injection site."""
        if self.injector is None:
            return arr
        before = len(self.injector.fired)
        out = self.injector.apply(site, arr)
        for rec in self.injector.fired[before:]:
            self.report.faults_injected.append(rec.to_dict())
            _live.inc("repro_resilience_faults_total")
            with obs.span("resilience.fault", **rec.to_dict()):
                pass
        return out

    def after_gemm(self, out: np.ndarray, *, site: str, precision: Precision) -> np.ndarray:
        """Engine hook: inject due faults, then run the output detectors."""
        out = self.inject(site, out)
        self._run_detectors(out, site=site, precision=precision)
        return out

    def _run_detectors(self, out: np.ndarray, *, site: str,
                       precision: Precision) -> None:
        if self._suppress:
            return
        phase, panel = self.current_unit()
        try:
            self.detectors.check_output(
                out, site=site, phase=phase, panel=panel, precision=precision
            )
        except NumericalBreakdownError as exc:
            self._record_detection(exc)
            raise

    # -- online ABFT hooks ---------------------------------------------------
    @staticmethod
    def _operand_view(x, transpose: bool) -> np.ndarray:
        """Effective operand view: prepared operands unwrapped, ``ta``/``tb``
        applied — the matrix the engine actually multiplied."""
        arr = np.asarray(getattr(x, "array", x))
        if transpose:
            arr = arr.swapaxes(-2, -1)
        return arr

    def _guard(self, check, out, *, site: str, precision: Precision) -> np.ndarray:
        """Run one checker call, recording any SdcError like a detection."""
        try:
            out = check()
        except SdcError as exc:
            self._record_detection(exc)
            raise
        self._run_detectors(out, site=site, precision=precision)
        return out

    def after_gemm_abft(self, out, a, b, *, inner, site: str,
                        ta: bool = False, tb: bool = False,
                        out_buf=None) -> np.ndarray:
        """Engine hook with online ABFT: inject, verify, correct, detect."""
        out = self.inject(site, out)
        av = self._operand_view(a, ta)
        bv = self._operand_view(b, tb)
        if out_buf is not None and (np.may_share_memory(out_buf, av)
                                    or np.may_share_memory(out_buf, bv)):
            # The launch clobbered its own operand (aliased out=); the
            # checksum references are gone — fall back to the detectors.
            self._run_detectors(out, site=site, precision=inner.precision)
            return out
        phase, panel = self.current_unit()
        recompute = None
        if self.abft.policy.mode == "correct":
            def recompute():
                # Deterministic replay through the raw engine; routed back
                # through the injector so persistent faults stay visible.
                return self.inject(site, inner.gemm(a, b, tag=site, ta=ta, tb=tb))
        return self._guard(
            lambda: self.abft.guard_gemm(
                out, av, bv, precision=inner.precision, site=site,
                phase=phase, panel=panel, recompute=recompute,
            ),
            out, site=site, precision=inner.precision,
        )

    def after_batched_abft(self, out, a, b, *, inner, site: str,
                           ta: bool = False, tb: bool = False,
                           out_buf=None) -> np.ndarray:
        """Batched-GEMM hook with online ABFT (Freivalds for big stacks)."""
        out = self.inject(site, out)
        av = self._operand_view(a, ta)
        bv = self._operand_view(b, tb)
        if out_buf is not None and (np.may_share_memory(out_buf, av)
                                    or np.may_share_memory(out_buf, bv)):
            self._run_detectors(out, site=site, precision=inner.precision)
            return out
        phase, panel = self.current_unit()
        recompute = None
        if self.abft.policy.mode == "correct":
            def recompute():
                return self.inject(
                    site, inner.gemm_batched(a, b, tag=site, ta=ta, tb=tb)
                )
        return self._guard(
            lambda: self.abft.guard_batched(
                out, av, bv, precision=inner.precision, site=site,
                phase=phase, panel=panel, recompute=recompute,
            ),
            out, site=site, precision=inner.precision,
        )

    def after_syr2k_abft(self, out, y, z, *, inner, site: str, alpha: float,
                         beta: float, pre, snapshot) -> np.ndarray:
        """syr2k hook with online ABFT (pre-launch accumulator checksums)."""
        out = self.inject(site, out)
        yv = np.asarray(y)
        zv = np.asarray(z)
        phase, panel = self.current_unit()
        recompute = None
        if self.abft.policy.mode == "correct":
            def recompute():
                if beta != 0.0:
                    buf = np.array(snapshot, copy=True)
                    r = inner.syr2k(y, z, tag=site, out=buf, alpha=alpha,
                                    beta=beta)
                else:
                    r = inner.syr2k(y, z, tag=site, alpha=alpha)
                return self.inject(site, r)
        return self._guard(
            lambda: self.abft.guard_syr2k(
                out, yv, zv, precision=inner.precision, site=site,
                alpha=alpha, beta=beta, pre=pre, phase=phase, panel=panel,
                recompute=recompute,
            ),
            out, site=site, precision=inner.precision,
        )

    def guard_copy(self, site: str, arr: np.ndarray,
                   ref: np.ndarray) -> np.ndarray:
        """Driver hook: ABFT copy guard for data crossing a phase boundary."""
        if self.abft is None:
            return arr
        phase, panel = self.current_unit()
        try:
            return self.abft.guard_copy(arr, ref, site=site, phase=phase,
                                        panel=panel)
        except SdcError as exc:
            self._record_detection(exc)
            raise

    def check_array(self, arr: np.ndarray, *, site: str,
                    precision: Precision = Precision.FP64) -> None:
        """Driver hook: NaN/Inf + magnitude scan of a stage output."""
        if self._suppress:
            return
        phase, panel = self.current_unit()
        try:
            self.detectors.check_output(
                arr, site=site, phase=phase, panel=panel, precision=precision
            )
        except NumericalBreakdownError as exc:
            self._record_detection(exc)
            raise

    def check_panel(self, w: np.ndarray, y: np.ndarray, *, precision: Precision) -> None:
        """Driver hook: panel-Q orthogonality drift."""
        if self._suppress:
            return
        phase, panel = self.current_unit()
        try:
            self.detectors.check_panel_q(
                w, y, phase=phase, panel=panel, precision=precision
            )
        except NumericalBreakdownError as exc:
            self._record_detection(exc)
            raise

    def check_norm_growth(self, arr: np.ndarray, baseline: float, *,
                          precision: Precision, site: str = "") -> None:
        """Driver hook: trailing-matrix norm growth vs. phase baseline."""
        if self._suppress:
            return
        phase, panel = self.current_unit()
        try:
            self.detectors.check_norm_growth(
                arr, baseline, phase=phase, panel=panel,
                precision=precision, site=site,
            )
        except NumericalBreakdownError as exc:
            self._record_detection(exc)
            raise

    def check_symmetry(self, a: np.ndarray, *, precision: Precision,
                       norm: "float | None" = None) -> None:
        """Driver hook: symmetry drift of a trailing block (sampled)."""
        if self._suppress:
            return
        phase, panel = self.current_unit()
        try:
            self.detectors.check_symmetry(
                a, phase=phase, panel=panel, precision=precision, norm=norm
            )
        except NumericalBreakdownError as exc:
            self._record_detection(exc)
            raise

    def check_residual(self, a: np.ndarray, q: np.ndarray, band: np.ndarray, *,
                       precision: Precision) -> None:
        """Driver hook: sampled factorization-residual probe."""
        if self._suppress:
            return
        phase, _ = self.current_unit()
        try:
            self.detectors.check_residual(
                a, q, band, phase=phase, precision=precision
            )
        except NumericalBreakdownError as exc:
            self._record_detection(exc)
            raise

    # -- retry decision -----------------------------------------------------
    def handle_breakdown(
        self,
        exc: Exception,
        *,
        engine: "ResilientEngine | None",
        attempt: int,
        phase: str,
        panel: "int | None" = None,
    ) -> bool:
        """Decide whether the failed unit retries (escalating the engine).

        Parameters
        ----------
        exc : Exception
            The breakdown (``NumericalBreakdownError`` or an escalatable
            factorization error like ``SingularMatrixError``).
        engine : ResilientEngine or None
            The unit's engine (None for engine-less stages such as bulge
            chasing, which retry without a precision change).
        attempt : int
            Retries already taken for this unit (0 on first failure).

        Returns
        -------
        bool
            True: restore the checkpoint and re-run the unit.  False:
            propagate ``exc`` to the caller.
        """
        if not self.can_retry:
            return False
        if attempt >= self.ladder.max_retries:
            if self.mode == "best_effort" and not self._suppress:
                # Final pass: top of the ladder, detectors off — return
                # *something* and say so in the report.  Granted at most
                # once per unit: if the suppressed pass *still* fails (a
                # structural guard like a degenerate pivot trips even with
                # detectors off), the error propagates rather than
                # retrying forever.
                if engine is not None:
                    engine.escalate_to(Precision.FP64)
                self._suppress = True
                if phase not in self.report.best_effort:
                    self.report.best_effort.append(phase)
                self.report.retries += 1
                return True
            return False
        self.report.retries += 1
        if engine is not None:
            current = engine.precision
            target = self.ladder.escalate(current, attempt + 1)
            if target is not None:
                engine.escalate_to(target)
                rec = EscalationRecord(
                    phase=phase,
                    from_precision=current.value,
                    to_precision=target.value,
                    attempt=attempt + 1,
                    panel=panel,
                    reason=getattr(exc, "detector", None) or type(exc).__name__,
                )
                self.report.escalations.append(rec)
                _live.inc("repro_resilience_escalations_total")
                with obs.span("resilience.escalate", **rec.to_dict()):
                    pass
        wait = self.ladder.delay(attempt + 1)
        if wait > 0.0:
            # Only pauses when the ladder opts into a non-zero backoff base
            # (the serving layer does; in-process retries keep base=0).
            time.sleep(wait)
        return True

    def note_precision(self, phase: str, precision: "Precision | str") -> None:
        """Record the precision a phase finished at (engine-less phases)."""
        name = precision.value if isinstance(precision, Precision) else str(precision)
        self.report.final_precision[phase] = name

    # -- internals ----------------------------------------------------------
    def _record_detection(self, exc: NumericalBreakdownError) -> None:
        rec = DetectionRecord(
            phase=exc.phase or "", detector=exc.detector or "",
            site=exc.site or "", panel=exc.panel,
            value=exc.value, threshold=exc.threshold,
            precision=exc.precision or "",
        )
        self.report.detections.append(rec)
        _live.inc("repro_resilience_detections_total",
                  detector=rec.detector or "unknown")
        with obs.span("resilience.detect", **rec.to_dict()):
            pass

    def _on_unit_success(self, phase: str) -> None:
        self._suppress = False
        if not self.ladder.sticky:
            for eng in self._engines:
                eng.restore_base()
