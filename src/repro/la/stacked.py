"""Stacked hop factorizations shared by the wavefront bulge chases.

Both stage-2 chases — band→tridiagonal
(:mod:`repro.eig.bulge_wavefront`) and band→bidiagonal
(:mod:`repro.svd.banded`) — factor one batch group's hop blocks as a
single stacked LAPACK ``geqrf`` and apply the result as a WY pair
through batched GEMMs.  This module holds the pieces they share:

- :func:`stacked_qr` — the guarded ``geqrf`` over a ``(G, m, w)`` stack;
- :func:`stacked_wy` — the batched WY pair from its raw output;
- :func:`check_finite` — the NaN/Inf guard LAPACK itself lacks;
- :func:`carve` — a group's scratch stacks from one arena take.

``np.linalg.qr`` and ``np.matmul`` over a 3-D stack are bitwise identical
to the per-slice 2-D calls, and ``T`` is inverted slice by slice, so a
group's result does not depend on how many steps it batches.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from ..errors import NumericalBreakdownError

__all__ = ["carve", "check_finite", "stacked_qr", "stacked_wy"]


def check_finite(blocks, *, site: str) -> None:
    """Raise the scalar kernel's breakdown on NaN/Inf input.

    LAPACK propagates non-finite values silently, so the guard runs
    before the factorization.  ``max``/``min`` propagate NaN and each
    catches one sign of Inf; LAPACK's scaled norms cover the
    over/underflow range on their own.
    """
    if not (np.isfinite(blocks.max()) and np.isfinite(blocks.min())):
        raise NumericalBreakdownError(
            f"non-finite block in {site}", detector="nonfinite", site=site,
        )


def stacked_qr(blocks, *, site: str) -> tuple[np.ndarray, np.ndarray]:
    """Householder QR of every ``m × w`` slice of ``blocks`` in one call.

    Returns ``(hT, taus)`` from one stacked LAPACK ``geqrf``
    (``np.linalg.qr(..., mode="raw")``): the R factor sits in the upper
    triangle of ``hT`` (shape ``(G, m, w)``), the reflector tails below
    it, and ``taus`` is ``(G, min(m, w))``.  An all-zero column below the
    diagonal factors to ``tau == 0`` (the identity reflector), so a slice
    whose taus are all zero was already upper triangular.
    """
    check_finite(blocks, site=site)
    h, taus = np.linalg.qr(blocks, mode="raw")
    return h.swapaxes(1, 2), taus


def stacked_wy(hT, taus, V, W) -> None:
    """Batched WY pair ``H_1 .. H_kk = I - W Y^T`` from raw ``geqrf`` output.

    ``Y`` (written to ``V``) is the unit lower-trapezoidal reflector
    stack.  ``W = Y T`` with the compact-WY factor ``T`` obtained from
    its inverse, ``T^{-1} = triu(Y^T Y, 1) + diag(1 / tau)`` — one Gram
    product and one LAPACK ``trtri`` per slice instead of ``larft``'s
    column recurrence.  A reflector with ``tau == 0`` is the identity
    (its ``v`` is a unit vector, so row ``j`` of ``T^{-1}`` is
    diagonal-only): it gets a unit diagonal entry for the inverse, then
    its row and column of ``T`` are zeroed.  ``taus`` holds the first
    ``kk`` taus of each slice, the reflectors kept.
    """
    G, L, kk = V.shape
    diag = np.arange(kk)
    np.multiply(hT[:, :, :kk], np.tri(L, kk, -1, dtype=V.dtype), out=V)
    V[:, diag, diag] = 1
    t_inv = np.triu(np.matmul(V.swapaxes(1, 2), V), 1)
    live = taus != 0
    t_inv[:, diag, diag] = 1 / np.where(live, taus, 1)
    trtri = get_lapack_funcs("trtri", dtype=V.dtype)
    T = np.empty_like(t_inv)
    for g in range(G):
        T[g] = trtri(t_inv[g])[0]
    if not live.all():
        T *= live[:, :, None]
        T *= live[:, None, :]
    np.matmul(V, T, out=W)


def carve(ws, tag: str, dtype, G: int, shapes: dict) -> dict:
    """Carve a group's scratch stacks from one arena take.

    ``shapes`` maps a name to a per-step matrix shape; each view is a
    disjoint, contiguous ``(G, *shape)`` slice of a single buffer taken
    under ``tag``, so a group costs one arena lookup however many stacks
    it needs.
    """
    sizes = [G * r * c for r, c in shapes.values()]
    buf = ws.take(tag, (sum(sizes),), dtype)
    out, off = {}, 0
    for (name, shape), size in zip(shapes.items(), sizes):
        out[name] = buf[off : off + size].reshape((G,) + shape)
        off += size
    return out
