"""Banded SVD: band→bidiagonal bulge chasing + Golub–Kahan solve.

A true two-stage SVD path for banded matrices — the workload the
memory-aware bulge-chasing paper (arXiv 2510.12705) targets — run on the
same wavefront executor design as the EVD stage 2
(:mod:`repro.eig.bulge_wavefront`):

1. :func:`band_to_bidiagonal` — the band analogue of the symmetric bulge
   chase.  Each sweep opens with a right reflector that annihilates row
   ``j`` beyond the superdiagonal, then alternating left-QR / right-LQ
   hops chase the resulting fill block down the band.  Sweeps run on the
   anti-diagonal wavefront schedule of "Look-Ahead in the Two-Sided
   Reduction to Compact Band Forms" (arXiv 1709.00302):
   :func:`repro.gemm.symbolic.wavefront_rounds` over
   :func:`~repro.gemm.symbolic.bidiag_sweep_geometry`, the schedule
   :func:`~repro.gemm.symbolic.trace_band_to_bidiagonal` also replays.
   One round's identically-shaped steps form a batch group whose hop
   blocks are factored by one stacked LAPACK ``geqrf``
   (:mod:`repro.la.stacked`, shared with the EVD chase), and whose strip,
   tile and U/V updates launch as ``gemm_batched`` stacks through
   :class:`repro.gemm.engine.GemmEngine` under ``bulge.svd.*`` tags, with
   scratch from the :class:`repro.perf.Workspace` arena — so the stage
   joins the telemetry stream and the resilience/ABFT guards like the
   EVD stage 2.  The sweep opener is the one-row case of the hop.
2. The bidiagonal ``(d, e)`` is solved by the shared Golub–Kahan back
   end (:func:`repro.svd.direct.gk_bidiagonal_svd`).

:func:`svd_banded` wraps the two stages for a general square banded
matrix: a matrix with lower bandwidth ``bl > 0`` first gets a banded
Householder QR pre-pass (O(n · bl · (bl + bu)) — cheap for small bands),
whose ``R`` is upper-banded with bandwidth ``bl + bu``.

Unlike :func:`repro.svd.via_evd.svd_via_evd` (dense O(n^3) embedding)
and :func:`repro.svd.direct.svd_direct` (dense bidiagonalization), the
two-stage path does O(n^2 bw) work — the same structural win the
symmetric two-stage EVD has, and the cross-validation target the tests
pin against both dense routes.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError, ValidationError
from ..gemm.engine import GemmEngine, PlainEngine
from ..gemm.symbolic import (
    BIDIAG_WAVEFRONT_DELTA,
    bidiag_group_key,
    bidiag_sweep_geometry,
    wavefront_groups,
    wavefront_rounds,
)
from ..la.householder import apply_reflector_left, make_reflector
from ..la.stacked import carve, check_finite, stacked_qr, stacked_wy
from ..obs import spans as obs
from ..perf import resolve_workspace
from .direct import gk_bidiagonal_svd

__all__ = ["band_to_bidiagonal", "svd_banded"]

#: Semantic tags of the engine-routed launches (see
#: :data:`repro.gemm.symbolic.BULGE_SVD_TAGS`).
TAG_STRIP = "bulge.svd.strip"
TAG_TILE = "bulge.svd.tile"
TAG_U = "bulge.svd.u"
TAG_V = "bulge.svd.v"

#: ``site`` of the non-finite breakdown the chase raises.
SITE = "band_to_bidiagonal"


def band_to_bidiagonal(
    a,
    bw: int,
    *,
    want_uv: bool = True,
    engine: GemmEngine | None = None,
    workspace=None,
    batch: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray, np.ndarray | None]:
    """Reduce an upper-banded square matrix to upper bidiagonal form.

    ``a`` must satisfy ``a[i, j] == 0`` outside ``0 <= j - i <= bw``.
    Returns ``(u, d, e, v)`` with ``a = u @ bidiag(d, e) @ v.T`` (``u``
    and ``v`` are ``None`` when ``want_uv=False``).

    A sweep whose opener row is already bidiagonal is skipped, and a
    hop after the first whose left QR finds nothing below the diagonal
    ends its sweep (the fill has died out).  NaN/Inf in the input, or in
    a block about to be factored, raises
    :class:`~repro.errors.NumericalBreakdownError` with
    ``detector="nonfinite"``.

    Parameters
    ----------
    engine : GemmEngine, optional
        Engine for the strip/tile/U/V block updates (default: a
        dtype-neutral :class:`~repro.gemm.engine.PlainEngine`); the
        chase runs in float64.
    workspace : repro.perf.Workspace, bool, or None
        Scratch arena for the gather/WY/update stacks.
    batch : bool
        Launch each round's identically-shaped steps as one stack
        (default).  ``batch=False`` launches one step at a time —
        bitwise identical output, used by the schedule tests.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ShapeError(
            f"band_to_bidiagonal requires a non-empty square matrix, got {a.shape}"
        )
    if bw < 1:
        raise ShapeError(f"bandwidth must be >= 1, got {bw}")
    if np.any(np.tril(a, -1)):
        raise ShapeError(
            "band_to_bidiagonal requires an upper-banded matrix "
            "(nonzero entries below the diagonal found); "
            "use svd_banded for general banded input"
        )
    check_finite(a, site=SITE)
    n = a.shape[0]
    B = a.copy()
    # U and V are accumulated transposed, so each hop's column window is
    # a contiguous row block.
    ut = np.eye(n) if want_uv else None
    vt = np.eye(n) if want_uv else None
    if bw == 1 or n <= 2:
        return ut, np.diagonal(B).copy(), np.diagonal(B, 1).copy(), vt

    eng = engine if engine is not None else PlainEngine()
    ws = resolve_workspace(workspace)
    dead = bytearray(n)  # sweeps whose fill vanished (chase died out)
    nrounds = nsteps = nlaunches = 0

    with obs.span("bulge.svd", n=n, bandwidth=bw) as sp:
        for wave in wavefront_rounds(n, bw, geometry=bidiag_sweep_geometry,
                                     delta=BIDIAG_WAVEFRONT_DELTA):
            live = [(j, geom) for j, geom in wave if not dead[j]]
            if not live:
                continue
            nrounds += 1
            groups = wavefront_groups(live, key=bidiag_group_key)
            if not batch:
                groups = [(key, [s]) for key, steps in groups for s in steps]
            for (L, k), steps in groups:
                nlaunches += 1
                nsteps += len(steps)
                if L > 1:
                    steps = _left_qr(B, ut, L, k, steps, eng, ws, dead)
                if k > 1 and steps:
                    _right_lq(B, vt, L, k, steps, eng, ws, dead)
        sp.count("rounds", nrounds)
        sp.count("steps", nsteps)
        sp.count("launches", nlaunches)
        sp.count("dead_sweeps", sum(dead))

    d = np.diagonal(B).copy()
    e = np.diagonal(B, 1).copy()
    if not want_uv:
        return None, d, e, None
    return ut.T, d, e, vt.T


def _left_qr(B, ut, L, k, steps, eng, ws, dead) -> list:
    """Left QR of one group's ``L × L`` hop blocks; returns the steps
    that go on to their right LQ.

    ``B[a0:a1, :] <- Q^T B[a0:a1, :]`` — the block becomes R, the strip
    ``B[a0:a1, a1:c1]`` takes ``S - Y (W^T S)`` — and
    ``U[:, a0:a1] <- U[:, a0:a1] Q`` (on ``ut = U^T``).  A block with
    all-zero taus has nothing below its diagonal: on the sweep's first
    hop that only skips the left transform, on a later hop the chase has
    died out and the sweep ends.  Footprints of distinct steps are
    disjoint by the schedule invariant, so gather/scatter order is
    irrelevant.
    """
    n = B.shape[0]
    blocks = ws.take("svdb_qr", (len(steps), L, L), np.float64)
    for g, (j, (a0, a1, c1)) in enumerate(steps):
        blocks[g] = B[a0:a1, a0:a1]
    hT, taus = stacked_qr(blocks, site=SITE)
    kk = L - 1  # the last of L taus acts on a 1-vector: always 0
    taus = taus[:, :kk]
    alive = taus.any(axis=1)
    rest = steps
    if not alive.all():
        for g in np.flatnonzero(~alive):
            j, (a0, _, _) = steps[g]
            if a0 > j + 1:
                dead[j] = 1
        rest = [step for step in steps if not dead[step[0]]]
        keep = np.flatnonzero(alive)
        if keep.size == 0:
            return rest
        steps = [steps[g] for g in keep]
        hT, taus = hT[keep], taus[keep]
    R = np.triu(hT)
    for g, (j, (a0, a1, c1)) in enumerate(steps):
        B[a0:a1, a0:a1] = R[g]

    G = len(steps)
    shapes = {"V": (L, kk), "W": (L, kk)}
    if k > 0:
        shapes.update(S=(L, k), T=(kk, k))
    if ut is not None:
        shapes.update(X=(L, n), P=(kk, n))
    sc = carve(ws, "svdb_bundle", np.float64, G, shapes)
    V, W = sc["V"], sc["W"]
    stacked_wy(hT, taus, V, W)

    if k > 0:
        S = sc["S"]
        for g, (j, (a0, a1, c1)) in enumerate(steps):
            S[g] = B[a0:a1, a1:c1]
        T = eng.gemm_batched(W, S, ta=True, tag=TAG_STRIP, out=sc["T"])
        YT = eng.gemm_batched(V, T, tag=TAG_STRIP, out=S)
        for g, (j, (a0, a1, c1)) in enumerate(steps):
            B[a0:a1, a1:c1] -= YT[g]
    if ut is not None:
        _accumulate(ut, sc, V, W, [geom[0] for _, geom in steps], L, eng, TAG_U)
    return rest


def _right_lq(B, vt, L, k, steps, eng, ws, dead) -> None:
    """Right LQ of one group's ``L × k`` strips (QR of their transposes).

    ``B[:, a1:c1] <- B[:, a1:c1] Q`` — the strip becomes lower
    triangular (back inside the band), the tile ``B[a1:c1, a1:c1]``
    takes ``D - (D W) Y^T`` — and ``V[:, a1:c1] <- V[:, a1:c1] Q`` (on
    ``vt = V^T``).  All-zero taus on the opener mean row ``j`` was
    already bidiagonal: the sweep has nothing to chase.
    """
    n = B.shape[0]
    kk = min(k - 1, L)  # with k <= L the last tau acts on a 1-vector
    strips = ws.take("svdb_qr", (len(steps), k, L), np.float64)
    for g, (j, (a0, a1, c1)) in enumerate(steps):
        strips[g] = B[a0:a1, a1:c1].T
    hT, taus = stacked_qr(strips, site=SITE)
    taus = taus[:, :kk]
    alive = taus.any(axis=1)
    if not alive.all():
        if L == 1:
            for g in np.flatnonzero(~alive):
                dead[steps[g][0]] = 1
        keep = np.flatnonzero(alive)
        if keep.size == 0:
            return
        steps = [steps[g] for g in keep]
        hT, taus = hT[keep], taus[keep]
    R = np.triu(hT)
    for g, (j, (a0, a1, c1)) in enumerate(steps):
        B[a0:a1, a1:c1] = R[g].T

    G = len(steps)
    shapes = {"V": (k, kk), "W": (k, kk), "D": (k, k), "DW": (k, kk)}
    if vt is not None:
        shapes.update(X=(k, n), P=(kk, n))
    sc = carve(ws, "svdb_bundle", np.float64, G, shapes)
    V, W = sc["V"], sc["W"]
    stacked_wy(hT, taus, V, W)

    D = sc["D"]
    for g, (j, (a0, a1, c1)) in enumerate(steps):
        D[g] = B[a1:c1, a1:c1]
    DW = eng.gemm_batched(D, W, tag=TAG_TILE, out=sc["DW"])
    DWY = eng.gemm_batched(DW, V, tb=True, tag=TAG_TILE, out=D)
    for g, (j, (a0, a1, c1)) in enumerate(steps):
        B[a1:c1, a1:c1] -= DWY[g]
    if vt is not None:
        _accumulate(vt, sc, V, W, [geom[1] for _, geom in steps], k, eng, TAG_V)


def _accumulate(xt, sc, V, W, starts, width, eng, tag) -> None:
    """``X[:, c:c+width] <- X[:, c:c+width] (I - W Y^T)`` per start ``c``.

    Works on ``xt = X^T``, where the window is the contiguous row block
    ``xt[c:c+width]`` and the update is ``xt_c - Y (W^T xt_c)``.
    """
    X = sc["X"]
    for g, c in enumerate(starts):
        X[g] = xt[c : c + width]
    P = eng.gemm_batched(W, X, ta=True, tag=tag, out=sc["P"])
    PY = eng.gemm_batched(V, P, tag=tag, out=X)
    for g, c in enumerate(starts):
        xt[c : c + width] -= PY[g]


def svd_banded(
    a,
    bw: "int | None" = None,
    *,
    engine: GemmEngine | None = None,
    workspace=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-stage SVD of a square banded matrix ``A = U diag(s) V^T``.

    Stage 1 is :func:`band_to_bidiagonal` (band→bidiagonal bulge
    chasing, O(n^2 bw)); stage 2 the shared Golub–Kahan divide & conquer
    back end.  A matrix with content below the diagonal first gets a
    banded Householder QR pre-pass.  ``bw``, when given, is validated
    against the matrix's actual bandwidth; when omitted it is detected.
    Returns ``(u, s, vt)`` with singular values descending.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ShapeError(
            f"svd_banded requires a non-empty square matrix, got {a.shape}"
        )
    n = a.shape[0]
    bl, bu = _lower_upper_bandwidth(a)
    if bw is not None:
        if not isinstance(bw, (int, np.integer)) or bw < 1:
            raise ValidationError(
                f"bw must be a positive integer, got {bw!r}", field="bw"
            )
        if max(bl, bu) > bw:
            raise ValidationError(
                f"matrix has bandwidth ({bl}, {bu}), larger than the "
                f"declared bw={bw}",
                field="bw",
            )

    with obs.span("svd_banded", n=n, bl=bl, bu=bu):
        if bl > 0:
            q0, r = _banded_qr(a, bl, bu)
            bw_eff = max(min(bl + bu, n - 1), 1)
        else:
            q0, r = None, a
            bw_eff = max(min(bu, n - 1), 1)
        u_b, d, e, v_b = band_to_bidiagonal(
            r, bw_eff, engine=engine, workspace=workspace
        )
        u_small, s, v_small = gk_bidiagonal_svd(d, e)
        u = u_b @ u_small if q0 is None else q0 @ (u_b @ u_small)
        vt = (v_b @ v_small).T
    return u, s, vt


def _lower_upper_bandwidth(a) -> tuple[int, int]:
    """(lower, upper) bandwidth of a dense square matrix."""
    rows, cols = np.nonzero(a)
    if rows.size == 0:
        return 0, 0
    diag = cols - rows
    return int(max(0, -int(diag.min()))), int(max(0, int(diag.max())))


def _banded_qr(a, bl: int, bu: int) -> tuple[np.ndarray, np.ndarray]:
    """Householder QR of a banded matrix, exploiting the band structure.

    Column ``j`` has nonzeros only in rows ``[j, j + bl]``, so each
    reflector has length ``bl + 1`` and touches columns up to
    ``j + bl + bu``; ``R`` comes out upper-banded with bandwidth
    ``bl + bu``.  O(n · bl · (bl + bu)) panel-style work.
    """
    n = a.shape[0]
    r = a.copy()
    q = np.eye(n)
    for j in range(n - 1):
        lo, hi = j, min(j + bl + 1, n)
        if hi - lo < 2 or not np.any(r[lo + 1 : hi, j]):
            continue
        v_ref, beta, alpha = make_reflector(r[lo:hi, j])
        r[lo, j] = alpha
        r[lo + 1 : hi, j] = 0.0
        if beta != 0.0:
            c1 = min(j + bl + bu + 1, n)
            if c1 > j + 1:
                apply_reflector_left(r[lo:hi, j + 1 : c1], v_ref, beta)
            # q <- q H (H symmetric): q[:, lo:hi] -= beta (q v) v^T
            qb = q[:, lo:hi]
            qb -= np.multiply.outer(qb @ (beta * v_ref), v_ref)
    return q, r
