"""Bulge chasing: symmetric band → tridiagonal (stage 2, paper §3.1).

Implements the Schwarz (1968) rotation scheme, the same family as LAPACK
``sbtrd`` and the bulge-chasing stage the paper delegates to MAGMA.  The
bandwidth is peeled off one diagonal at a time: to remove the outermost
diagonal, each band-edge entry ``A[j+b, j]`` is annihilated by a Givens
rotation of rows/columns ``(j+b-1, j+b)``; the rotation spawns one
out-of-band fill element ``b`` rows further down, which the chase follows
until it drops off the matrix edge.

Cost is Θ(n² b) without eigenvector accumulation — the reason two-stage
tridiagonalization wants a *small* bandwidth while Tensor-Core GEMMs want
a *large* one (the tension discussed in the paper's §4.1).  Accumulating
``Q2`` costs Θ(n³) (each rotation touches two columns of Q), the known
price of eigenvectors in two-stage methods.

Rotation work is BLAS1/2 and intentionally not routed through a GEMM
engine; the device performance model charges stage 2 via its own
analytic estimator.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..obs import spans as obs
from ..validation import as_symmetric_matrix

__all__ = ["bulge_chase", "reduce_bandwidth"]


def _givens(f: float, g: float) -> tuple[float, float]:
    """Stable Givens pair (c, s) with ``[c s; -s c]^T [f; g] = [r; 0]``."""
    if g == 0.0:
        return 1.0, 0.0
    if f == 0.0:
        return 0.0, 1.0
    r = np.hypot(f, g)
    return f / r, g / r


def _rot_pair(vi: np.ndarray, vk: np.ndarray, c: float, s: float, scratch: np.ndarray) -> None:
    """Rotate the vector pair ``(vi, vk) <- (c vi + s vk, -s vi + c vk)``.

    Allocation-free: both results are formed in place through the two
    preallocated ``scratch`` rows (the saved copy of ``vi`` and one
    product), bitwise identical to the temporary-allocating expression
    ``c*vi + s*vk`` / ``-s*vi + c*vk``.
    """
    w = vi.shape[0]
    sav = scratch[0, :w]
    tmp = scratch[1, :w]
    np.copyto(sav, vi)
    np.multiply(vk, s, out=tmp)
    np.multiply(sav, c, out=vi)
    vi += tmp
    np.multiply(vk, c, out=vk)
    np.multiply(sav, -s, out=tmp)
    vk += tmp


def _rot_rows(A, i, k, c, s, lo, hi, scratch) -> None:
    """Apply G^T from the left to rows (i, k), columns [lo, hi)."""
    _rot_pair(A[i, lo:hi], A[k, lo:hi], c, s, scratch)


def _rot_cols(A, i, k, c, s, lo, hi, scratch) -> None:
    """Apply G from the right to columns (i, k), rows [lo, hi)."""
    _rot_pair(A[lo:hi, i], A[lo:hi, k], c, s, scratch)


def bulge_chase(
    a,
    b: int,
    *,
    want_q: bool = True,
    variant: str = "givens",
    engine=None,
    workspace=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Reduce a symmetric band matrix to tridiagonal form.

    Parameters
    ----------
    a : array_like, (n, n) symmetric
        Band matrix with semi-bandwidth ``b`` (entries outside the band
        are assumed zero and ignored).
    b : int
        Semi-bandwidth of ``a``; ``b == 1`` returns the tridiagonal
        entries directly.
    want_q : bool
        Accumulate the orthogonal transform ``Q2`` with ``A ≈ Q2 T Q2^T``.
    variant : {"givens", "wavefront"}
        ``"givens"``: Schwarz rotation scheme (this module; the accuracy
        oracle the other scheme is tested against).
        ``"wavefront"``: Householder column sweeps whose chase hops run as
        batched anti-diagonal wavefronts of WY tile updates through the
        GEMM engine (:mod:`repro.eig.bulge_wavefront`; pass ``engine=`` /
        ``workspace=`` keywords for telemetry and arena reuse).  The
        drivers' default (:data:`repro.eig.driver.DEFAULT_BULGE_VARIANT`):
        about 5x faster than ``"givens"`` for a full ``syevd_2stage``
        with eigenvectors at n=384, b=32.
    engine, workspace : optional
        Forwarded to the wavefront variant (GEMM engine routing and
        scratch-arena reuse); unused by the Givens chase.

    Returns
    -------
    d : ndarray, shape (n,)
        Diagonal of the tridiagonal matrix ``T``.
    e : ndarray, shape (n-1,)
        Sub-diagonal of ``T``.
    q : ndarray (n, n) or None
        The accumulated transform (``None`` if not requested).
    """
    if variant == "wavefront":
        from .bulge_wavefront import bulge_chase_wavefront

        return bulge_chase_wavefront(
            a, b, want_q=want_q, engine=engine, workspace=workspace
        )
    if variant != "givens":
        raise ShapeError(
            f"variant must be 'givens' or 'wavefront', got {variant!r}"
        )
    A, q = reduce_bandwidth(a, b, target=1, want_q=want_q)
    n = A.shape[0]
    d = np.diagonal(A).copy()
    e = np.diagonal(A, offset=-1).copy() if n > 1 else np.empty(0, dtype=A.dtype)
    return d, e, q


def reduce_bandwidth(
    a,
    b: int,
    *,
    target: int = 1,
    want_q: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Reduce a symmetric band matrix's bandwidth from ``b`` to ``target``.

    The multi-step band reduction of the SBR framework (Bischof, Lang &
    Sun 2000): the bandwidth is peeled one outermost diagonal at a time by
    Givens chases.  ``target=1`` is full tridiagonalization (what
    :func:`bulge_chase` returns in (d, e) form); intermediate targets give
    the band-to-band steps of multi-sweep reduction strategies.

    Returns
    -------
    band : ndarray (n, n)
        Dense symmetric matrix of bandwidth ``target`` with
        ``A ≈ Q band Q^T``.
    q : ndarray (n, n) or None
        Accumulated orthogonal transform (``None`` if not requested).
    """
    a = as_symmetric_matrix(a, rtol=1e-3, atol=1e-4)
    n = a.shape[0]
    if b < 1:
        raise ShapeError(f"bandwidth must be >= 1, got {b}")
    if target < 1 or target > b:
        raise ShapeError(f"target bandwidth must be in [1, {b}], got {target}")
    dtype = a.dtype
    A = np.array(a, copy=True)
    q = np.eye(n, dtype=dtype) if want_q else None
    # One scratch pair reused by every rotation (Θ(n² b) of them): the
    # per-rotation ``.copy()`` temporaries were the hot loop's only
    # allocations.
    scratch = np.empty((2, n), dtype=dtype)

    # Peel the bandwidth one diagonal at a time: cur = current bandwidth.
    for cur in range(min(b, n - 1), target, -1):
        with obs.span("bulge.sweep", bandwidth=cur) as sweep:
            nrot = 0
            for j in range(n - cur):
                # Annihilate the band-edge entry A[j+cur, j], then chase the
                # fill element it spawns every `cur` rows down the band.
                col = j
                r = j + cur
                while r < n:
                    f_val = float(A[r - 1, col])
                    g_val = float(A[r, col])
                    if g_val == 0.0:
                        break
                    c, s = _givens(f_val, g_val)
                    i, k = r - 1, r
                    nrot += 1
                    # Window: all columns where rows (i, k) may be nonzero.
                    lo = max(col, 0)
                    hi = min(k + cur + 1, n)
                    _rot_rows(A, i, k, c, s, lo, hi, scratch)
                    _rot_cols(A, i, k, c, s, lo, hi, scratch)
                    if q is not None:
                        _rot_cols(q, i, k, c, s, 0, n, scratch)
                    # The rotation spawned one fill element at (r + cur, r - 1)
                    # (both triangles); chase it: it is the next entry to kill,
                    # in column r - 1, `cur` rows below the one just zeroed.
                    A[k, col] = 0.0
                    A[col, k] = 0.0
                    col = r - 1
                    r = r + cur
            sweep.count("rotations", nrot)
    return A, q
