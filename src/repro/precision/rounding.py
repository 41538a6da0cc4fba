"""Rounding FP32 values to Tensor-Core operand formats.

All functions take an array (any float dtype), and return a **float32**
array whose values are exactly representable in the target format.  Keeping
the result in float32 lets downstream NumPy matmuls model the Tensor-Core
pattern "low-precision multiply, FP32 accumulate" directly.

Formats
-------
========  ========  ========  =====================
format    mantissa  exponent  unit roundoff (2^-(p))
========  ========  ========  =====================
FP16      10 + 1    5         2^-11 ≈ 4.9e-4
BF16      7 + 1     8         2^-8  ≈ 3.9e-3
TF32      10 + 1    8         2^-11 ≈ 4.9e-4
FP32      23 + 1    8         2^-24 ≈ 6.0e-8
========  ========  ========  =====================

The paper's "machine epsilon of Tensor Core" is the FP16/TF32 unit roundoff,
~1e-4; Tables 3/4 check that band-reduction errors stay at that level.

FP16 rounding kernel
--------------------
On a GPU the FP16 conversion is one instruction; NumPy's float16 cast is
a scalar loop that slows down further for results in the FP16 subnormal
range — where the Ootomo–Yokota low residuals and small trailing-matrix
entries land.  :func:`round_fp16` and the splits therefore round in
float32/uint32 arithmetic: for ``x`` in the binade ``2^e`` add and
subtract ``C = 1.5 * 2^(max(e, -14) + 13)``, whose float32 spacing is
``x``'s FP16 spacing, so the addition's own round-to-nearest-even is the
FP16 rounding and the subtraction is exact; then restore the sign bit
(``-0`` and negative values that round to zero).  The kernel is NumPy's
``astype(np.float16).astype(np.float32)`` bit for bit on every float32
(``tools/fp16_exhaustive.py`` checks all 2^32 patterns).  A chunk holding
a magnitude of 2^15 or more, NaN or Inf — anything that may overflow —
takes the cast itself, so overflow, NaN and the warnings NumPy raises for
them are unchanged.  The kernel runs over fixed-size chunks with two
chunk-sized scratch rows (:func:`fp16_scratch`, from the workspace arena
on the hot path), so the scratch never grows with the operand.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "FP16_EPS",
    "BF16_EPS",
    "TF32_EPS",
    "FP32_EPS",
    "round_fp16",
    "round_bf16",
    "round_tf32",
    "round_to_format",
    "split_fp16",
    "split_fp16_into",
    "fp16_scratch",
    "FP16_CHUNK",
]

#: Unit roundoff of IEEE half precision (10 explicit mantissa bits).
FP16_EPS: float = float(2.0**-11)
#: Unit roundoff of bfloat16 (7 explicit mantissa bits).
BF16_EPS: float = float(2.0**-8)
#: Unit roundoff of NVIDIA TF32 (10 explicit mantissa bits, FP32 exponent).
TF32_EPS: float = float(2.0**-11)
#: Unit roundoff of IEEE single precision.
FP32_EPS: float = float(2.0**-24)

#: Exponent-scaling factor used by the Ootomo–Yokota residual split: the
#: FP16 mantissa holds 11 significant bits, so the residual ``x - fp16(x)``
#: is scaled by 2^11 before its own FP16 rounding to avoid underflow.
OOTOMO_SCALE: float = float(2.0**11)


#: Elements per pass of the FP16 rounding kernel: its scratch is two
#: chunk-sized rows (256 KiB), so a chunk stays cache-resident across the
#: kernel's eight elementwise passes.
FP16_CHUNK: int = 1 << 15

_EXP_MASK = np.uint32(0x7F800000)
_SIGN_MASK = np.uint32(0x80000000)
#: 2^-14, the smallest normal FP16 magnitude: below it the FP16 grid
#: spacing stays at the subnormal step 2^-24.
_FP16_TINY = np.float32(2.0**-14)
#: 1.5 * 2^13: scales a power of two 2^e to the rounding constant C.
_MAGIC_SCALE = np.float32(1.5 * 2.0**13)
#: Exponent field of 2^15.  A chunk holding a larger magnitude, NaN or Inf
#: (all of which may overflow FP16) takes NumPy's cast instead.
_EXP_LIMIT = np.uint32(142 << 23)


def fp16_scratch(ws=None, size: int = FP16_CHUNK) -> np.ndarray:
    """Scratch rows of the FP16 kernel: ``(2, min(size, FP16_CHUNK))`` uint32.

    With a :class:`repro.perf.Workspace` the rows come from the arena
    (tag ``fp16_round``, one fixed-size buffer per thread).
    """
    shape = (2, max(1, min(int(size), FP16_CHUNK)))
    if ws is None:
        return np.empty(shape, dtype=np.uint32)
    return ws.take("fp16_round", shape, np.uint32)


def _round_chunk(v: np.ndarray, t: np.ndarray, u: np.ndarray) -> None:
    """Round the contiguous float32 chunk ``v`` to FP16 values, in place.

    ``t``/``u`` are scratch of ``v``'s length (uint32 / float32).  With
    ``C = 1.5 * 2^(max(e, -14) + 13)`` for ``v``'s binade ``2^e``, the sum
    ``v + C`` lies in C's binade, whose float32 spacing is the FP16
    spacing of ``v`` (``2^(e-10)``, or the subnormal step ``2^-24``), so
    the one float32 rounding of the sum is FP16 round-to-nearest-even and
    ``(v + C) - C`` is exact.  OR-ing ``v``'s sign bit back restores the
    sign of results that round to zero.
    """
    bits = v.view(np.uint32)
    np.bitwise_and(bits, _EXP_MASK, out=t)  # |v| truncated to 2^e (0 for tiny)
    if t.max() >= _EXP_LIMIT:
        v[...] = v.astype(np.float16)
        return
    c = t.view(np.float32)
    np.maximum(c, _FP16_TINY, out=c)
    c *= _MAGIC_SCALE
    np.add(v, c, out=u)
    u -= c
    np.bitwise_and(bits, _SIGN_MASK, out=t)
    np.bitwise_or(u.view(np.uint32), t, out=bits)


def _round_inplace(v: np.ndarray) -> np.ndarray:
    """Round the dense float32 array ``v`` (any axis order) to FP16 values in place."""
    flat = _flat(v)
    scratch = fp16_scratch(size=flat.size)
    step = scratch.shape[1]
    for s in range(0, flat.size, step):
        chunk = flat[s : s + step]
        _round_chunk(chunk, scratch[0, : chunk.size], scratch[1, : chunk.size].view(np.float32))
    return v


def _flat(a: np.ndarray) -> np.ndarray:
    """1-D view of dense ``a``'s memory in memory order (error if not dense)."""
    flat = a.ravel(order="K")
    if a.size and not np.shares_memory(flat, a):
        raise ValueError("expected a dense (C-, F- or axis-permuted-contiguous) array")
    return flat


def round_fp16(x) -> np.ndarray:
    """Round ``x`` to IEEE FP16 and return the values as float32.

    Round-to-nearest-even, with IEEE overflow to inf and gradual underflow
    to subnormals — the behaviour of the hardware conversion feeding
    Tensor Cores.  Computed in float32/uint32 arithmetic (module
    docstring), bitwise identical to NumPy's
    ``astype(np.float16).astype(np.float32)`` for every float32 input, and
    laid out in memory like that cast's result (``x``'s axis order);
    blocks holding a magnitude of 2^15 or more, NaN or Inf take that cast
    directly.
    """
    return _round_inplace(np.array(x, dtype=np.float32, order="K", copy=True))


def _round_mantissa_f32(x, drop_bits: int) -> np.ndarray:
    """Round float32 ``x`` to ``23 - drop_bits`` mantissa bits (RNE).

    This implements round-to-nearest-even directly on the bit pattern,
    which is exactly what the TF32 conversion inside Tensor Cores and the
    BF16 truncation unit do (modulo their treatment of NaN payloads, which
    we do not model).
    """
    arr = np.asarray(x, dtype=np.float32)
    bits = arr.view(np.uint32).copy()
    # Round-to-nearest-even on the dropped low bits:
    #   bias = (1 << (drop-1)) - 1 + guard-bit-of-result
    lsb = np.uint32(1) << np.uint32(drop_bits)
    guard = (bits >> np.uint32(drop_bits)) & np.uint32(1)
    bias = (lsb >> np.uint32(1)) - np.uint32(1) + guard
    bits = bits + bias
    bits &= ~np.uint32(lsb - np.uint32(1))
    out = bits.view(np.float32)
    # Preserve NaNs (the bias addition may have corrupted payloads / turned
    # a NaN into inf is impossible since exponent saturates, but be safe).
    nan_mask = np.isnan(arr)
    if np.any(nan_mask):
        out = out.copy()
        out[nan_mask] = np.float32(np.nan)
    return out


def round_bf16(x) -> np.ndarray:
    """Round ``x`` to bfloat16 (8-bit exponent, 7-bit mantissa) as float32."""
    return _round_mantissa_f32(x, drop_bits=16)


def round_tf32(x) -> np.ndarray:
    """Round ``x`` to TF32 (8-bit exponent, 10-bit mantissa) as float32.

    TF32 keeps the FP32 exponent, so unlike FP16 it neither overflows nor
    underflows for FP32-range inputs; only the mantissa is shortened.
    """
    return _round_mantissa_f32(x, drop_bits=13)


_ROUNDERS = {
    "fp16": round_fp16,
    "bf16": round_bf16,
    "tf32": round_tf32,
    "fp32": lambda x: np.asarray(x, dtype=np.float32),
}


def round_to_format(x, fmt: str) -> np.ndarray:
    """Round ``x`` to the named format (``fp16``/``bf16``/``tf32``/``fp32``)."""
    try:
        rounder = _ROUNDERS[fmt]
    except KeyError:
        raise ValueError(
            f"unknown operand format {fmt!r}; expected one of {sorted(_ROUNDERS)}"
        ) from None
    return rounder(x)


def split_fp16(x, *, scale: float = OOTOMO_SCALE) -> tuple[np.ndarray, np.ndarray]:
    """Ootomo–Yokota high/low FP16 split of an FP32 array.

    Returns ``(hi, lo)`` with ``hi = fp16(x)`` and ``lo = fp16((x - hi) *
    scale)``, both as float32 laid out in ``x``'s axis order.  The caller
    reconstructs ``x ≈ hi + lo / scale``.  Scaling the residual by ``2^11``
    before rounding keeps its significant bits above the FP16 underflow
    threshold — this is the "scale the matrix to reduce underflow" step of
    the paper's Section 5.3.
    """
    arr = np.asarray(x, dtype=np.float32)
    return split_fp16_into(arr, np.empty_like(arr), np.empty_like(arr), scale=scale)


def split_fp16_into(
    x, hi: np.ndarray, lo: np.ndarray, scratch: np.ndarray | None = None, *,
    scale: float = OOTOMO_SCALE,
) -> tuple[np.ndarray, np.ndarray]:
    """Allocation-free :func:`split_fp16` into caller-owned buffers.

    ``hi`` and ``lo`` are dense float32 buffers of ``x``'s shape with
    equal strides (``x`` itself may be any strided view); ``scratch`` is
    the rounding kernel's ``(2, c)`` uint32 scratch (:func:`fp16_scratch`,
    allocated here if omitted).  The split runs chunk by chunk so each
    chunk's hi and lo roundings work on cache-resident data.  Bitwise
    identical to :func:`split_fp16`; this is what the EC-TCGEMM hot path
    uses so the operand splits of every panel iteration reuse one set of
    workspace buffers.
    """
    arr = np.asarray(x, dtype=np.float32)
    if hi.strides != lo.strides:
        raise ValueError("split_fp16_into needs hi/lo buffers of equal layout")
    hf = _flat(hi)
    lf = _flat(lo)
    if arr.strides == hi.strides:
        src = _flat(arr)
    else:
        np.copyto(lo, arr)  # gather a strided view once; lo is overwritten per chunk
        src = lf
    if scratch is None:
        scratch = fp16_scratch(size=hf.size)
    step = scratch.shape[1]
    fscale = np.float32(scale)
    for s in range(0, hf.size, step):
        h = hf[s : s + step]
        l = lf[s : s + step]
        t = scratch[0, : h.size]
        u = scratch[1, : h.size].view(np.float32)
        np.copyto(h, src[s : s + step])
        _round_chunk(h, t, u)
        np.subtract(src[s : s + step], h, out=l)
        l *= fscale
        _round_chunk(l, t, u)
    return hi, lo
