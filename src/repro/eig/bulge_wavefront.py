"""Wavefront (batched, engine-routed) bulge chasing — stage 2 on GEMMs.

The Givens scheme (:mod:`repro.eig.bulge`) walks the band one rotation at
a time, entirely outside the GEMM engine — stage 2 is invisible to the
tensor-core path, the workspace arena, and the GEMM telemetry stream.
This module is the MAGMA ``sytrd_sb2st``-style blocked Householder chase
(one reflector opens each column sweep, then one small QR + WY
application per hop) rebuilt on the memory-aware tile-batching design of
"Accelerating Bidiagonalization of Banded Matrices through Memory-Aware
Bulge-Chasing on GPUs" (arXiv 2510.12705) with the wavefront dependency
structure of "Look-Ahead in the Two-Sided Reduction to Compact Band
Forms" (arXiv 1709.00302):

- each batch group's hop blocks (and sweep-opening columns) are factored
  by one stacked LAPACK ``geqrf`` (``np.linalg.qr(..., mode="raw")``,
  slice-by-slice identical to unstacked calls), and the WY pair comes
  from a batched compact-WY ``T`` factor — no per-column Python loop
  (:mod:`repro.la.stacked`, shared with the band→bidiagonal chase);
- each sweep's per-hop reflectors are grouped into a WY pair (``Q = I -
  W Y^T``) and applied as *tile updates*: two strip GEMMs for the
  off-diagonal block, three small GEMMs plus one fused ``syr2k`` for the
  exactly-symmetric two-sided diagonal-tile update, and two GEMMs for the
  Q accumulation — all through :class:`repro.gemm.engine.GemmEngine`
  with ``out=``/``ta``/``tb`` (the PR-5 calling convention);
- steps of *different* sweeps separated by
  :data:`~repro.gemm.symbolic.WAVEFRONT_DELTA` hops have disjoint
  row/column footprints, so one round's anti-diagonal wavefront of tiles
  is launched as single ``gemm_batched`` stacks — the schedule
  (:func:`repro.gemm.symbolic.wavefront_rounds`) is shared with the
  symbolic trace, making the launch stream reproducible shape-by-shape
  without running the numerics;
- every gather/stack/WY/Q buffer is carved from two
  :class:`repro.perf.Workspace` takes per batch group (the QR input
  stack and one scratch bundle), so the steady-state loop performs no
  arena allocations (second pass over the same geometry: zero misses).

Because ``np.matmul`` and ``np.linalg.qr`` over a 3-D stack are bitwise
identical to the per-slice 2-D calls (and ``T`` is inverted slice by
slice), ``batch=False`` (one launch per step) and the default batched
execution produce *bitwise identical* results — the schedule-invariance
analogue of stage 1's look-ahead guarantee, pinned by tests.

The diagonal tile update uses the syr2k trick: with ``U = D W``,
``V = W^T D W`` (symmetric) and ``U' = U - (1/2) Y V``,

    Q^T D Q = D - Y U'^T - U' Y^T,

one fused ``syr2k(Y, U', alpha=-1, beta=1, out=D)`` — the output is
exactly symmetric by construction, so no explicit re-symmetrization pass
is needed.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..gemm.engine import GemmEngine, PlainEngine
from ..gemm.symbolic import wavefront_groups, wavefront_rounds
from ..la.stacked import carve, stacked_qr, stacked_wy
from ..obs import spans as obs
from ..perf import resolve_workspace
from ..validation import as_symmetric_matrix

__all__ = ["bulge_chase_wavefront"]

#: Semantic tags of the engine-routed launches (must stay in sync with
#: :data:`repro.gemm.symbolic.BULGE_WAVEFRONT_TAGS`).
TAG_STRIP = "bulge.wavefront.strip"
TAG_TILE = "bulge.wavefront.tile"
TAG_SYR2K = "bulge.wavefront.syr2k"
TAG_Q = "bulge.wavefront.q"


def bulge_chase_wavefront(
    a,
    b: int,
    *,
    want_q: bool = True,
    engine: GemmEngine | None = None,
    workspace=None,
    batch: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Reduce a symmetric band matrix to tridiagonal form (wavefront chase).

    Same contract as :func:`repro.eig.bulge.bulge_chase`, plus:

    Parameters
    ----------
    engine : GemmEngine, optional
        Engine the tile updates are launched through (default: a
        dtype-neutral :class:`~repro.gemm.engine.PlainEngine`).  Pass a
        recording / resilience-wrapped engine to join the GEMM telemetry
        stream and the ABFT guards.
    workspace : repro.perf.Workspace, bool, or None
        Scratch arena for every gather/WY/update buffer (see
        :func:`repro.perf.resolve_workspace`).
    batch : bool
        Launch each round's identically-shaped wavefront tiles as one
        ``gemm_batched`` stack (default).  ``batch=False`` launches one
        step at a time — bitwise identical output, used by the
        schedule-invariance tests.
    """
    a = as_symmetric_matrix(a, rtol=1e-3, atol=1e-4)
    n = a.shape[0]
    if b < 1:
        raise ShapeError(f"bandwidth must be >= 1, got {b}")
    dtype = a.dtype
    A = np.array(a, copy=True)
    q = np.eye(n, dtype=dtype) if want_q else None
    if b == 1 or n <= 2:
        d = np.diagonal(A).copy()
        e = np.diagonal(A, offset=-1).copy() if n > 1 else np.empty(0, dtype=dtype)
        return d, e, q

    eng = engine if engine is not None else PlainEngine()
    ws = resolve_workspace(workspace)
    dead = bytearray(n)  # sweeps whose bulge vanished (chase died out)
    nrounds = nsteps = nlaunches = 0

    with obs.span("bulge.wavefront", n=n, bandwidth=b) as sp:
        for wave in wavefront_rounds(n, b):
            live = [(j, geom) for j, geom in wave if not dead[j]]
            if not live:
                continue
            nrounds += 1
            groups = wavefront_groups(live)
            if not batch:
                groups = [(key, [s]) for key, steps in groups for s in steps]
            for key, steps in groups:
                nlaunches += 1
                nsteps += len(steps)
                _execute_group(A, q, key, steps, eng, ws, dead)
        sp.count("rounds", nrounds)
        sp.count("steps", nsteps)
        sp.count("launches", nlaunches)

    d = np.diagonal(A).copy()
    e = np.diagonal(A, offset=-1).copy()
    return d, e, q


def _execute_group(A, q, key, steps, eng, ws, dead) -> None:
    """Factor and apply one batch group of wavefront steps.

    ``key = (kind, L, w, c2)``; every step in ``steps`` shares it, so all
    gathered stacks are rectangular and the updates launch as single
    batched calls.  Row/column footprints of distinct steps are disjoint
    by the schedule invariant, so gather/scatter order is irrelevant.
    Both step kinds factor the block ``A[b0:b1, a0:a1]``: the sweep
    opener's is the single column ``j`` (``w == 1``).
    """
    _, L, w, c2 = key
    dtype = A.dtype
    n = A.shape[0]
    kk = min(L, w)

    blocks = ws.take("bw_block", (len(steps), L, w), dtype)
    for g, (j, geom) in enumerate(steps):
        a0, a1, b0, b1 = geom[1:5]
        blocks[g] = A[b0:b1, a0:a1]
    hT, taus = stacked_qr(blocks, site="bulge_wavefront")
    # All-zero taus mean the block had no sub-band content: that sweep's
    # chase has died out (identity transform, nothing to do).
    alive = taus.any(axis=1)
    if not alive.all():
        for g in np.flatnonzero(~alive):
            dead[steps[g][0]] = 1
        keep = np.flatnonzero(alive)
        if keep.size == 0:
            return
        steps = [steps[g] for g in keep]
        hT, taus = hT[keep], taus[keep]
    R = np.triu(hT)
    for g, (j, geom) in enumerate(steps):
        a0, a1, b0, b1 = geom[1:5]
        A[b0:b1, a0:a1] = R[g]
        A[a0:a1, b0:b1] = R[g].T

    G = len(steps)
    shapes = {
        "V": (L, kk), "W": (L, kk),
        "S": (L, c2), "ST": (kk, c2), "SU": (L, c2),
        "D": (L, L), "U": (L, kk), "VS": (kk, kk), "YV": (L, kk),
    }
    if q is not None:
        shapes.update(Qg=(n, L), P=(n, kk), PY=(n, L))
    sc = carve(ws, "bw_bundle", dtype, G, shapes)
    V, W = sc["V"], sc["W"]
    stacked_wy(hT, taus, V, W)

    # --- Strip: rows [b0,b1) x cols [b1,hi), left-applied Q^T then
    # mirrored (S <- S - Y (W^T S)). ------------------------------------
    if c2 > 0:
        S = sc["S"]
        for g, (j, geom) in enumerate(steps):
            b0, b1, hi = geom[3:6]
            S[g] = A[b0:b1, b1:hi]
        T = eng.gemm_batched(W, S, ta=True, tag=TAG_STRIP, out=sc["ST"])
        YT = eng.gemm_batched(V, T, tag=TAG_STRIP, out=sc["SU"])
        np.subtract(S, YT, out=S)
        for g, (j, geom) in enumerate(steps):
            b0, b1, hi = geom[3:6]
            A[b0:b1, b1:hi] = S[g]
            A[b1:hi, b0:b1] = S[g].T

    # --- Diagonal tile: exactly-symmetric two-sided update via the
    # fused syr2k trick (see module docstring). -------------------------
    D = sc["D"]
    for g, (j, geom) in enumerate(steps):
        b0, b1 = geom[3:5]
        D[g] = A[b0:b1, b0:b1]
    U = eng.gemm_batched(D, W, tag=TAG_TILE, out=sc["U"])
    VS = eng.gemm_batched(W, U, ta=True, tag=TAG_TILE, out=sc["VS"])
    YV = eng.gemm_batched(V, VS, tag=TAG_TILE, out=sc["YV"])
    np.multiply(YV, dtype.type(0.5), out=YV)
    np.subtract(U, YV, out=U)  # U' = D W - (1/2) Y (W^T D W)
    for g, (j, geom) in enumerate(steps):
        b0, b1 = geom[3:5]
        eng.syr2k(
            V[g], U[g], tag=TAG_SYR2K, out=A[b0:b1, b0:b1],
            alpha=-1.0, beta=1.0,
        )

    # --- Q accumulation: q[:, R] <- q[:, R] (I - W Y^T). ---------------
    if q is not None:
        Qg = sc["Qg"]
        for g, (j, geom) in enumerate(steps):
            b0, b1 = geom[3:5]
            Qg[g] = q[:, b0:b1]
        P = eng.gemm_batched(Qg, W, tag=TAG_Q, out=sc["P"])
        PY = eng.gemm_batched(P, V, tb=True, tag=TAG_Q, out=sc["PY"])
        for g, (j, geom) in enumerate(steps):
            b0, b1 = geom[3:5]
            q[:, b0:b1] -= PY[g]
