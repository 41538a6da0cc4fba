"""Recursive W construction and Q assembly — the paper's **Algorithm 2**.

When eigenvectors are needed, the back-transformation must apply the
product of all accumulated block reflectors.  Because the WY-based SBR
already maintains fully-formed per-block ``(W_j, Y_j)`` pairs, merging them
into one global pair is a tree of squarish GEMMs:

    (I - W_L Y_L^T)(I - W_R Y_R^T)
        = I - [W_L | W_R - W_L (Y_L^T W_R)] [Y_L | Y_R]^T

applied recursively over halves of the block list (Algorithm 2's
left-recurse / right-recurse / merge).  The paper measures ~320 ms vs
420 ms for the ZY-style sequential accumulation at n = 32768 (§4.4).

``form_q_from_blocks`` also provides the sequential ("forward") method
used with the ZY algorithm, for comparison and for Q assembly of
:func:`repro.sbr.zy.sbr_zy` results.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..gemm.engine import GemmEngine, PlainEngine
from .types import WYBlock

__all__ = ["form_wy_tree", "form_q_from_blocks"]


def form_wy_tree(
    pairs: "list[tuple[np.ndarray, np.ndarray]]",
    *,
    engine: GemmEngine | None = None,
    tag: str = "formw",
) -> tuple[np.ndarray, np.ndarray]:
    """Merge WY pairs (all over the same row space) into one pair.

    Parameters
    ----------
    pairs : list of (W, Y)
        WY pairs in application order (leftmost applied first); all must
        share the same row dimension.
    engine : GemmEngine, optional
        Engine for the merge GEMMs (tagged ``tag``).

    Returns
    -------
    (W, Y)
        Single pair with ``I - W Y^T = prod_j (I - W_j Y_j^T)``.
    """
    if not pairs:
        raise ShapeError("form_wy_tree requires at least one WY pair")
    rows = pairs[0][0].shape[0]
    for w, y in pairs:
        if w.shape != y.shape or w.shape[0] != rows:
            raise ShapeError(
                f"all WY pairs must share the row space; got {w.shape} vs rows={rows}"
            )
    eng = engine if engine is not None else PlainEngine()
    if any(a.dtype != eng.working_dtype for pair in pairs for a in pair):
        # Pairs outside the engine's dtype: merge them as separate arrays,
        # so each merge's result takes NumPy's promoted dtype (float32
        # pairs under an fp64 engine come back float64).
        return _merge_pairs(pairs, 0, len(pairs), eng, tag)
    w_all = np.hstack([w for w, _ in pairs])
    y_all = np.hstack([y for _, y in pairs])
    bounds = np.cumsum([0] + [w.shape[1] for w, _ in pairs]).tolist()
    _merge_in_place(w_all, y_all, bounds, eng, tag)
    return w_all, y_all


def _merge_pairs(pairs, lo, hi, eng, tag):
    """Merge ``pairs[lo:hi]`` into a new pair (Algorithm 2, out of place)."""
    if hi - lo == 1:
        return pairs[lo]
    mid = (lo + hi) // 2
    w_l, y_l = _merge_pairs(pairs, lo, mid, eng, tag)
    w_r, y_r = _merge_pairs(pairs, mid, hi, eng, tag)
    w_new = w_r - eng.gemm(w_l, eng.gemm(y_l.T, w_r, tag=tag), tag=tag)
    return np.hstack([w_l, w_new]), np.hstack([y_l, y_r])


def _merge_in_place(w_all, y_all, bounds, eng, tag):
    """Merge the pairs stored side by side in ``w_all``/``y_all``, in place.

    Pair ``j`` occupies columns ``bounds[j]:bounds[j+1]``.  Merging two
    neighbours only rewrites the right one's ``W`` columns (``[W_L | W_R -
    W_L (Y_L^T W_R)]``; ``Y`` is just ``[Y_L | Y_R]``), so the whole tree
    runs in the two arrays.  Both are held as the engine's prepared
    operands: ``Y`` and the leaves of ``W`` are split once, and each merge
    re-splits only the ``W`` columns it rewrote.  Returns the prepared
    ``(W, Y)`` for further products.
    """
    w_op = eng.prepare_operand(w_all, tag=None)
    y_op = eng.prepare_operand(y_all, tag=None)
    _merge_range(w_all, w_op, y_op, bounds, 0, len(bounds) - 1, eng, tag)
    return w_op, y_op


def _merge_range(w_all, w_op, y_op, bounds, lo, hi, eng, tag):
    """Merge pairs ``lo..hi-1`` (Algorithm 2's left/right recursion)."""
    if hi - lo == 1:
        return
    mid = (lo + hi) // 2
    _merge_range(w_all, w_op, y_op, bounds, lo, mid, eng, tag)
    _merge_range(w_all, w_op, y_op, bounds, mid, hi, eng, tag)
    c0, cm, c1 = bounds[lo], bounds[mid], bounds[hi]
    vector = min(cm - c0, c1 - cm, w_all.shape[0]) == 1
    y_l, w_l, w_r = (
        _piece(op, a, b, vector) for op, a, b in ((y_op, c0, cm), (w_op, c0, cm), (w_op, cm, c1))
    )
    ylt_wr = eng.gemm(y_l, w_r, ta=True, tag=tag)
    w_all[:, cm:c1] -= eng.gemm(w_l, ylt_wr, tag=tag)
    eng.update_operand(w_op, (slice(None), slice(cm, c1)))


def _piece(op, c0: int, c1: int, vector: bool):
    """Columns ``c0:c1`` of a merged operand, as the GEMM should see them.

    A matrix product's bits do not depend on its operands' leading
    dimensions, a matrix-vector product's do: there a plain array view is
    made compact, as the separately stored pairs of the recursion were.
    (Prepared handles get the same treatment inside the engine.)
    """
    piece = op[:, c0:c1]
    if vector and isinstance(piece, np.ndarray):
        return np.ascontiguousarray(piece)
    return piece


def form_q_from_blocks(
    blocks: "list[WYBlock]",
    n: int,
    *,
    engine: GemmEngine | None = None,
    method: str = "tree",
    dtype=np.float32,
    tag: str = "form_q",
) -> np.ndarray:
    """Assemble the n×n orthogonal ``Q = prod_j embed(I - W_j Y_j^T)``.

    Parameters
    ----------
    blocks : list of WYBlock
        Per-block factors in application order (as produced by the SBR
        drivers); block ``j`` acts on rows ``offset_j..n``.
    n : int
        Full matrix size.
    method : {"tree", "forward"}
        ``"tree"``: embed all blocks into the common row space of the first
        block and merge with :func:`form_wy_tree` (Algorithm 2), then one
        GEMM forms Q.  ``"forward"``: sequentially apply each block to the
        accumulating Q (the conventional ZY-era back transformation).
    """
    eng = engine if engine is not None else PlainEngine()
    q = np.eye(n, dtype=dtype)
    if not blocks:
        return q

    if method == "forward":
        for blk in blocks:
            off = blk.offset
            w = blk.w.astype(dtype, copy=False)
            y = blk.y.astype(dtype, copy=False)
            qw = eng.gemm(q[:, off:], w, tag=tag)
            q[:, off:] -= eng.gemm(qw, y.T, tag=tag)
        return q

    if method != "tree":
        raise ShapeError(f"method must be 'tree' or 'forward', got {method!r}")

    # Embed every block into the row space of the first (largest) block,
    # side by side: block j's pair fills columns bounds[j]:bounds[j+1].
    base = min(blk.offset for blk in blocks)
    rows = n - base
    bounds = np.cumsum([0] + [blk.ncols for blk in blocks]).tolist()
    w_all = np.zeros((rows, bounds[-1]), dtype=dtype)
    y_all = np.zeros((rows, bounds[-1]), dtype=dtype)
    for blk, c0, c1 in zip(blocks, bounds, bounds[1:]):
        pad = blk.offset - base
        w_all[pad:, c0:c1] = blk.w
        y_all[pad:, c0:c1] = blk.y
    if np.dtype(dtype) == eng.working_dtype:
        w_op, y_op = _merge_in_place(w_all, y_all, bounds, eng, "formw")
    else:
        # Outside the engine's dtype, merge separate pairs, as form_wy_tree
        # does, so products promote and operands are split as given.
        pairs = [(w_all[:, c0:c1].copy(), y_all[:, c0:c1].copy())
                 for c0, c1 in zip(bounds, bounds[1:])]
        w_op, y_op = _merge_pairs(pairs, 0, len(pairs), eng, "formw")

    # Q[base:, base:] = I - W Y^T  (one big GEMM, on the merged split).
    q[base:, base:] -= eng.gemm(w_op, y_op, tb=True, tag=tag)
    return q
