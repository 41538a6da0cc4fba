"""Error-corrected Tensor-Core GEMM (Ootomo & Yokota 2022; paper §5.3).

Given FP32 operands, write ``A = Ã + ΔA`` and ``B = B̃ + ΔB`` where the
tilde terms are the FP16 roundings.  Then

    A @ B = Ã B̃  +  Ã ΔB  +  ΔA B̃  +  ΔA ΔB

The last term is O(u_fp16^2) ≈ 2^-22 relative and is dropped (the paper
does the same).  The three retained products each run on (emulated) Tensor
Cores.  Two refinements from the original method are modelled:

1. **Residual scaling.** ΔA has magnitude ~2^-11·|A|; rounding it directly
   to FP16 would push many entries into the subnormal range and lose their
   low bits.  The residual is therefore scaled by 2^11 before FP16
   rounding and the correction GEMMs are descaled on accumulation.
2. **FP32 combination outside the Tensor Core.** The correction terms are
   added to the main product in FP32, avoiding the Tensor-Core internal
   accumulator rounding that limits the naive Markidis scheme.

The result matches a plain FP32 SGEMM to within a few FP32 ulps — property
tests assert a relative error floor near ``2^-24`` rather than ``2^-11``.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .rounding import OOTOMO_SCALE, fp16_scratch, split_fp16, split_fp16_into

__all__ = ["EcOperand", "ec_prepare", "ec_tcgemm"]


def _split(x, ws, name: str):
    """Hi/lo FP16 split of one operand, through workspace buffers if given."""
    if ws is None:
        return split_fp16(x)
    hi = ws.take(f"ec_{name}_hi", x.shape, np.float32)
    lo = ws.take(f"ec_{name}_lo", x.shape, np.float32)
    return split_fp16_into(x, hi, lo, fp16_scratch(ws, hi.size))


def _as_split(p: "EcOperand", ws, name: str, vector: bool):
    """``p``'s stored hi/lo, laid out as a fresh split of ``p.array`` would be.

    A fresh split through a workspace is row-major and compact, and one
    without keeps the operand's memory order (C or F, compact).  BLAS
    results depend on that orientation (a transposed operand accumulates
    in another order), and in a matrix-vector product (``vector``) on the
    strides too, but not on a matrix product's leading dimensions.  So a
    view of the stored split is used as is when it is laid out like the
    fresh split up to what the product ignores, and is copied otherwise —
    a copy, never a re-rounding.
    """
    hi, lo = p.hi, p.lo
    if ws is None:
        if hi.flags.c_contiguous or hi.flags.f_contiguous:
            return hi, lo
        return np.array(hi, order="K"), np.array(lo, order="K")
    if hi.flags.c_contiguous or (not vector and hi.strides[-1] == hi.itemsize):
        return hi, lo
    h = ws.take(f"ec_{name}_hi", hi.shape, np.float32)
    l = ws.take(f"ec_{name}_lo", hi.shape, np.float32)
    np.copyto(h, hi)
    np.copyto(l, lo)
    return h, l


class EcOperand:
    """A pre-split EC operand: the hi/lo FP16 decomposition, computed once.

    The SBR big-block loop multiplies the *same* trailing matrix OA
    against a fresh panel's W columns many times per block; splitting OA
    on every call is pure overhead (several full passes over an M×M
    array, comparable to the GEMM itself at small n).  ``ec_prepare``
    performs the split once and :func:`ec_tcgemm` accepts the handle in
    place of the array.  The handle is valid while the source array's
    contents are unchanged — re-prepare after mutating it, or
    :meth:`resplit` the changed region.

    ``.T`` and 2-D basic slicing (unit step) return handles viewing the
    same arrays, so a matrix that grows column by column (the SBR
    ``W``/``Y``/``OAW``) is split once per column however many products
    read it.
    """

    __slots__ = ("array", "hi", "lo")

    def __init__(self, array: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> None:
        self.array = array
        self.hi = hi
        self.lo = lo

    @property
    def shape(self) -> tuple:
        return self.array.shape

    @property
    def ndim(self) -> int:
        return self.array.ndim

    @property
    def T(self) -> "EcOperand":
        return EcOperand(self.array.T, self.hi.T, self.lo.T)

    def __getitem__(self, key) -> "EcOperand":
        rows, cols = _slices(key, self.array.ndim)
        return EcOperand(self.array[rows, cols], self.hi[rows, cols], self.lo[rows, cols])

    def resplit(self, key=..., *, ws=None) -> "EcOperand":
        """Re-split the 2-D region ``key`` of the source array after it changed."""
        rows, cols = _slices(key, self.array.ndim)
        src, hi, lo = self.array[rows, cols], self.hi[rows, cols], self.lo[rows, cols]
        if src.size == 0:
            return self
        if hi.strides == lo.strides and (hi.flags.c_contiguous or hi.flags.f_contiguous):
            split_fp16_into(src, hi, lo, fp16_scratch(ws, hi.size))
        else:
            # Strided target (new columns of a wider buffer): split into
            # row-major staging, then copy into place.
            h, l = _split(src, ws, "stage")
            np.copyto(hi, h)
            np.copyto(lo, l)
        return self


def _slices(key, ndim: int) -> "tuple[slice, slice]":
    """``key`` as a (rows, cols) pair of unit-step slices of a 2-D operand."""
    keys = (slice(None), slice(None)) if key is Ellipsis else (
        key if isinstance(key, tuple) else (key,)
    )
    if (
        ndim != 2 or len(keys) > 2
        or not all(isinstance(k, slice) and k.step in (None, 1) for k in keys)
    ):
        raise ShapeError(f"EcOperand supports 2-D unit-step slicing only, got {key!r}")
    return (tuple(keys) + (slice(None),))[:2]


def ec_prepare(
    a, *, ws=None, name: "str | None" = "prep", split: bool = True,
) -> EcOperand:
    """Split ``a`` once for repeated use in :func:`ec_tcgemm`.

    With a workspace the split lives in arena buffers under
    ``ec_<name>_*`` tags — distinct from the per-call split tags, so
    later unprepared calls through the same arena do not clobber the
    handle.  A later ``ec_prepare`` with the same ``name`` reuses (and
    overwrites) the buffers, invalidating the previous handle.
    ``name=None`` gives the handle private buffers (freed with it; only
    the rounding scratch comes from the arena).  With ``split=False`` the
    hi/lo buffers are only allocated; the caller fills them region by
    region with :meth:`EcOperand.resplit`.
    """
    a = np.asarray(a, dtype=np.float32)
    if ws is None:
        # Laid out as split_fp16 lays out its result: in a's axis order.
        hi, lo = np.empty_like(a), np.empty_like(a)
    elif name is None:
        hi = np.empty(a.shape, dtype=np.float32)
        lo = np.empty(a.shape, dtype=np.float32)
    else:
        hi = ws.take(f"ec_{name}_hi", a.shape, np.float32)
        lo = ws.take(f"ec_{name}_lo", a.shape, np.float32)
    handle = EcOperand(a, hi, lo)
    return handle.resplit(ws=ws) if split else handle


def ec_tcgemm(
    a, b, *, chunk_k: int | None = None, out: "np.ndarray | None" = None, ws=None
) -> np.ndarray:
    """FP32-accurate matrix product computed with emulated FP16 Tensor-Core GEMMs.

    Parameters
    ----------
    a, b : array_like
        FP32 (or convertible) matrices with compatible inner dimensions;
        both 2-D, or both 3-D stacks with an equal batch dimension.
    chunk_k : int, optional
        Chunked-accumulation granularity forwarded to the underlying
        emulated TC GEMMs (see :func:`repro.precision.tcgemm`).
    out : numpy.ndarray, optional
        FP32 result buffer to write into (must not alias the operands;
        the engine layer guards aliasing for callers).
    ws : repro.perf.Workspace, optional
        Scratch arena: the hi/lo operand splits and the two correction
        products reuse arena buffers instead of allocating six full-size
        temporaries per call — the dominant allocation cost of the SBR
        hot loop under the EC policy.

    Returns
    -------
    numpy.ndarray
        FP32 product with single-precision accuracy.
    """
    from .tcgemm import tcgemm  # local import to avoid cycle at package init

    if not isinstance(a, EcOperand):
        a = np.asarray(a, dtype=np.float32)
    if not isinstance(b, EcOperand):
        b = np.asarray(b, dtype=np.float32)
    if a.ndim != b.ndim or a.ndim not in (2, 3):
        raise ShapeError(
            f"ec_tcgemm requires both operands 2-D (or both 3-D batched), "
            f"got {a.ndim}-D and {b.ndim}-D"
        )
    if a.ndim == 3 and a.shape[0] != b.shape[0]:
        raise ShapeError(f"batch dimensions differ: {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"inner dimensions differ: {a.shape} @ {b.shape}")

    vector = min(a.shape[-2], a.shape[-1], b.shape[-1]) == 1
    a_hi, a_lo = _as_split(a, ws, "a", vector) if isinstance(a, EcOperand) else _split(a, ws, "a")
    b_hi, b_lo = _as_split(b, ws, "b", vector) if isinstance(b, EcOperand) else _split(b, ws, "b")

    out_shape = a.shape[:-1] + (b.shape[-1],)
    main = tcgemm(a_hi, b_hi, operand_format="fp32", chunk_k=chunk_k, out=out, ws=ws)
    if ws is None:
        corr_a = tcgemm(a_lo, b_hi, operand_format="fp32", chunk_k=chunk_k)
        corr_b = tcgemm(a_hi, b_lo, operand_format="fp32", chunk_k=chunk_k)
    else:
        corr_a = tcgemm(
            a_lo, b_hi, operand_format="fp32", chunk_k=chunk_k,
            out=ws.take("ec_corr_a", out_shape, np.float32), ws=ws,
        )
        corr_b = tcgemm(
            a_hi, b_lo, operand_format="fp32", chunk_k=chunk_k,
            out=ws.take("ec_corr_b", out_shape, np.float32), ws=ws,
        )

    inv_scale = np.float32(1.0 / OOTOMO_SCALE)
    # FP32 combination outside the (emulated) Tensor Core.  The in-place
    # form is bitwise identical to ``main + (corr_a + corr_b) * inv_scale``
    # (same operations in the same association, no extra roundings).
    if out is None:
        return main + (corr_a + corr_b) * inv_scale
    np.add(corr_a, corr_b, out=corr_a)
    corr_a *= inv_scale
    main += corr_a
    return main
