"""Symbolic (shape-only) GEMM trace executors.

These functions replay the *control flow* of the band-reduction algorithms
without touching data, emitting the exact GEMM shape stream the numeric
drivers would issue.  This makes paper-scale shape streams (n = 32768)
available in microseconds, which is how the performance figures (5–11) are
regenerated without an A100.

Fidelity contract (enforced by tests): for any (n, b, nb), the symbolic
trace equals the numeric engine's recorded trace filtered to
*algorithm-level* tags — the trailing updates, W/Q formation — i.e.
everything except panel-internal GEMMs (tags ``panel_*``/``qr_*``/
``tsqr``), whose cost the device model charges through its panel
estimators instead.

Tag vocabulary matches :mod:`repro.sbr.zy` / :mod:`repro.sbr.wy` /
:mod:`repro.sbr.formw`.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..validation import check_blocksizes
from .trace import GemmRecord, GemmTrace

__all__ = [
    "ALGORITHM_TAGS",
    "BULGE_WAVEFRONT_TAGS",
    "BULGE_SVD_TAGS",
    "WAVEFRONT_DELTA",
    "BIDIAG_WAVEFRONT_DELTA",
    "full_update_col_blocks",
    "trace_sbr_zy",
    "trace_sbr_wy",
    "trace_form_q",
    "is_algorithm_tag",
    "bulge_sweep_geometry",
    "wavefront_rounds",
    "wavefront_groups",
    "trace_bulge_wavefront",
    "bidiag_sweep_geometry",
    "bidiag_group_key",
    "trace_band_to_bidiagonal",
]

#: Tags that belong to the algorithm-level GEMM stream (vs panel internals).
ALGORITHM_TAGS = frozenset(
    {
        "zy_aw",
        "zy_wtaw",
        "zy_z",
        "zy_zyt",
        "zy_yzt",
        "zy_syr2k",
        "form_w",
        "wy_oaw",
        "wy_right",
        "wy_left",
        "wy_full_right",
        "wy_full_left",
        "sbr_strip",
        "formw",
        "form_q",
    }
)


#: Tags of the stage-2 wavefront bulge chase's engine-routed tile updates
#: (:mod:`repro.eig.bulge_wavefront`).  The chase's panel-internal work —
#: the batched bulge-block QR and the WY build — stays outside the engine,
#: exactly like stage 1's ``panel_*`` work, so these four tags are the
#: complete algorithm-level stream of stage 2.
BULGE_WAVEFRONT_TAGS = frozenset(
    {
        "bulge.wavefront.strip",
        "bulge.wavefront.tile",
        "bulge.wavefront.syr2k",
        "bulge.wavefront.q",
    }
)

#: Tags of the banded-SVD bulge chase's engine-routed block updates
#: (:mod:`repro.svd.banded`): the out-of-band strip application, the
#: in-band tile application, and the U/V accumulations.
BULGE_SVD_TAGS = frozenset(
    {
        "bulge.svd.strip",
        "bulge.svd.tile",
        "bulge.svd.u",
        "bulge.svd.v",
    }
)


def is_algorithm_tag(tag: str) -> bool:
    """Whether ``tag`` belongs to the algorithm-level GEMM stream."""
    return (
        tag in ALGORITHM_TAGS
        or tag in BULGE_WAVEFRONT_TAGS
        or tag in BULGE_SVD_TAGS
    )


def full_update_col_blocks(t: int, b: int, nb: int) -> "list[tuple[int, int]]":
    """Column blocking of the mirrored block-boundary trailing update.

    The ``t``-column full update computes only the lower trapezoid of each
    column block and mirrors it, so the third ``wy_full_left`` GEMM becomes
    one GEMM per block of shape ``(t - c0) x (c1 - c0) x k``.  The first
    block is ``b`` wide: it is exactly the set of columns the *next* big
    block's first panel reads, which is what makes look-ahead overlap
    possible (the rest of the update can proceed concurrently with that
    panel's QR).  Subsequent blocks are ``nb`` wide to keep the GEMMs
    near-square.

    Shared between the numeric driver (:mod:`repro.sbr.wy`) and the
    symbolic trace so the fidelity contract holds by construction.
    """
    if t <= 0:
        return []
    blocks = [(0, min(b, t))]
    while blocks[-1][1] < t:
        c0 = blocks[-1][1]
        blocks.append((c0, min(c0 + nb, t)))
    return blocks


def trace_sbr_zy(n: int, b: int, *, want_q: bool = True, use_syr2k: bool = False) -> GemmTrace:
    """Shape stream of :func:`repro.sbr.zy.sbr_zy` (algorithm-level tags)."""
    check_blocksizes(n, b)
    trace = GemmTrace()
    i = 0
    while n - i - b >= 2:
        m = n - i - b
        w = min(b, m)
        if w < b:
            trace.record(w, b - w, m, tag="sbr_strip")
            trace.record(m, b - w, w, tag="sbr_strip")
        trace.record(m, w, m, tag="zy_aw")
        trace.record(w, w, m, tag="zy_wtaw")
        trace.record(m, w, w, tag="zy_z")
        if use_syr2k:
            trace.add(GemmRecord(m, m, w, tag="zy_syr2k", op="syr2k"))
        else:
            trace.record(m, m, w, tag="zy_zyt")
            trace.record(m, m, w, tag="zy_yzt")
        if want_q:
            trace.record(n, w, m, tag="form_q")
            trace.record(n, m, w, tag="form_q")
        i += b
    return trace


def trace_sbr_wy(
    n: int,
    b: int,
    nb: int,
    *,
    want_q: bool = True,
    q_method: str = "tree",
    mirror: bool = False,
) -> GemmTrace:
    """Shape stream of :func:`repro.sbr.wy.sbr_wy` (algorithm-level tags).

    With ``mirror=False`` (default) the block-boundary two-sided update is
    counted as the paper's Algorithm 1 writes it — a full ``mf x mf``
    third GEMM — which is the accounting behind Table 2 and the
    performance-model figures.  ``mirror=True`` models the implementation's
    symmetry-aware schedule instead (lower-trapezoid column blocks from
    :func:`full_update_col_blocks` plus a mirror write, ~35% fewer flops);
    the numeric-fidelity tests compare the driver's GEMM stream against
    this variant.
    """
    check_blocksizes(n, b, nb)
    trace = GemmTrace()
    block_ncols: list[tuple[int, int]] = []  # (offset, accumulated columns)

    j0 = 0
    while n - j0 - b >= 2:
        M = n - j0 - b
        k = 0
        advance = False
        for r in range(0, nb, b):
            i = j0 + r
            m = n - i - b
            if m < 2:
                break
            w = min(b, m)
            if w < b:
                trace.record(w, b - w, m, tag="sbr_strip")
                trace.record(m, b - w, w, tag="sbr_strip")
            if k > 0:
                trace.record(k, w, M, tag="form_w")
                trace.record(M, w, k, tag="form_w")
            trace.record(M, w, M, tag="wy_oaw")
            k += w
            if m <= b + 1:
                _record_partial(trace, M, k, r, cn=m)
                break
            if r + b >= nb:
                mf = M - r
                trace.record(M, mf, k, tag="wy_full_right")
                trace.record(k, mf, M, tag="wy_full_left")
                if mirror:
                    # Implementation schedule: one lower-trapezoid GEMM per
                    # column block, mirrored into the upper triangle.
                    for c0, c1 in full_update_col_blocks(mf, b, nb):
                        trace.record(mf - c0, c1 - c0, k, tag="wy_full_left")
                else:
                    trace.record(mf, mf, k, tag="wy_full_left")
                advance = True
                break
            _record_partial(trace, M, k, r, cn=b)
        if k > 0:
            block_ncols.append((j0 + b, k))
        if not advance:
            break
        j0 += nb

    if want_q and block_ncols:
        trace.extend(trace_form_q(n, block_ncols, method=q_method))
    return trace


def _record_partial(trace: GemmTrace, M: int, k: int, r: int, *, cn: int) -> None:
    trace.record(M, cn, k, tag="wy_right")
    trace.record(k, cn, M, tag="wy_left")
    trace.record(M - r, cn, k, tag="wy_left")


def trace_form_q(
    n: int,
    blocks: "list[tuple[int, int]]",
    *,
    method: str = "tree",
) -> GemmTrace:
    """Shape stream of :func:`repro.sbr.formw.form_q_from_blocks`.

    ``blocks`` is a list of ``(offset, ncols)`` pairs in application order.
    """
    trace = GemmTrace()
    if not blocks:
        return trace
    if method == "forward":
        for offset, k in blocks:
            m = n - offset
            trace.record(n, k, m, tag="form_q")
            trace.record(n, m, k, tag="form_q")
        return trace
    if method != "tree":
        raise ConfigurationError(f"method must be 'tree' or 'forward', got {method!r}")

    base = min(offset for offset, _ in blocks)
    rows = n - base
    ncols = [k for _, k in blocks]

    def merge(lo: int, hi: int) -> int:
        if hi - lo == 1:
            return ncols[lo]
        mid = (lo + hi) // 2
        kl = merge(lo, mid)
        kr = merge(mid, hi)
        trace.record(kl, kr, rows, tag="formw")
        trace.record(rows, kr, kl, tag="formw")
        return kl + kr

    k_all = merge(0, len(blocks))
    trace.record(rows, rows, k_all, tag="form_q")
    return trace


# ---------------------------------------------------------------------------
# Stage-2 wavefront bulge chasing: schedule geometry + symbolic trace.
#
# The schedule below is *shared* with the numeric executor
# (:mod:`repro.eig.bulge_wavefront`) — the numeric code iterates the same
# rounds/groups, so the fidelity contract between this trace and the
# engine-recorded stream holds by construction (the SBR
# ``full_update_col_blocks`` idiom).  The trace assumes a *generic* band
# matrix: every sweep's chase runs its full geometric length (the numeric
# code additionally short-circuits sweeps whose bulge is exactly zero,
# e.g. an already-tridiagonal input declared with a larger bandwidth).
# ---------------------------------------------------------------------------

#: Minimum step separation between adjacent sweeps of the wavefront
#: schedule.  Step ``t`` of sweep ``j`` touches rows/columns
#: ``[j+1+(t-1)b, j+1+(t+2)b)``; steps of sweeps ``d`` apart scheduled
#: ``DELTA*d`` steps apart are disjoint iff ``(DELTA*d - 3) * b >= d``,
#: which ``DELTA = 4`` satisfies for every ``b >= 1`` — so all steps of
#: one round commute and any batching order is bitwise-identical to the
#: serial schedule.
WAVEFRONT_DELTA = 4


def bulge_sweep_geometry(n: int, b: int, j: int) -> "list[tuple]":
    """Step geometries of sweep ``j`` of the blocked/wavefront bulge chase.

    Each step is ``(kind, a0, a1, b0, b1, hi)``: ``kind == "col"`` is the
    sweep's opening reflector (annihilating column ``j`` below the
    subdiagonal; its "QR block" is the single column segment), ``"qr"``
    is one chase hop (QR of the bulge block ``A[b0:b1, a0:a1]``).  In
    both kinds ``[b0, b1)`` is the row range the step's orthogonal
    transform acts on and ``hi`` bounds the band/bulge content of those
    rows, so the step's two-sided update covers the diagonal tile
    ``[b0, b1)²`` plus the strip columns ``[b1, hi)``.
    """
    steps: "list[tuple]" = []
    r0, e0 = j + 1, min(j + 1 + b, n)
    if e0 - r0 < 2:
        return steps
    steps.append(("col", j, j + 1, r0, e0, min(e0 + b, n)))
    a0, a1 = r0, e0
    while True:
        b0 = a0 + b
        b1 = min(a1 + b, n)
        if b1 - b0 < 2:
            break
        steps.append(("qr", a0, a1, b0, b1, min(b1 + b, n)))
        a0, a1 = b0, b1
    return steps


def wavefront_rounds(
    n: int, b: int, *, geometry=bulge_sweep_geometry, delta: int = WAVEFRONT_DELTA
):
    """Yield the rounds of the wavefront schedule.

    Round ``r`` executes step ``r - delta * j`` of every sweep ``j`` for
    which that index is in range — the anti-diagonal wavefront: all
    steps of one round have pairwise-disjoint row/column footprints (see
    :data:`WAVEFRONT_DELTA` for the symmetric chase's ``geometry``,
    :data:`BIDIAG_WAVEFRONT_DELTA` for :func:`bidiag_sweep_geometry`), so
    the numeric executor may batch them into single ``gemm_batched``
    launches.  Each yielded round is a non-empty list of
    ``(j, geometry)`` pairs in ascending ``j``.
    """
    nsweeps = max(n - 2, 0)
    while nsweeps and not geometry(n, b, nsweeps - 1):
        nsweeps -= 1
    # Sweeps finish in ascending-j order (sweep j+1 has at most one step
    # fewer than sweep j, so finish rounds are strictly increasing) —
    # the active window is [lo, r // delta].  Only the window's
    # geometries are held: a sweep's is built when it starts and dropped
    # when it finishes.
    geoms: "dict[int, list]" = {}
    lo = r = 0
    while lo < nsweeps:
        hi = min(r // delta, nsweeps - 1)
        if hi not in geoms and hi >= lo:
            geoms[hi] = geometry(n, b, hi)
        while lo <= hi and r - delta * lo >= len(geoms[lo]):
            del geoms[lo]
            lo += 1
        if lo <= hi:
            yield [(j, geoms[j][r - delta * j]) for j in range(lo, hi + 1)]
        r += 1


def _bulge_group_key(geom) -> tuple:
    kind, a0, a1, b0, b1, hi = geom
    return (kind, b1 - b0, (a1 - a0) if kind == "qr" else 1, hi - b1)


def wavefront_groups(
    wave: "list[tuple]", *, key=_bulge_group_key
) -> "list[tuple[tuple, list]]":
    """Partition one round's steps into identically-shaped batch groups.

    ``key`` maps a step geometry to its group key.  The default is the
    symmetric chase's ``(kind, L, w, c2)`` — transform row count, QR
    block width, strip width; :func:`bidiag_group_key` is the
    band→bidiagonal one.  Steps sharing a key issue identically-shaped
    tile updates and are launched as one ``gemm_batched`` stack; the
    sorted key order fixes the launch schedule the symbolic trace pins.
    """
    groups: "dict[tuple, list]" = {}
    for j, geom in wave:
        groups.setdefault(key(geom), []).append((j, geom))
    return sorted(groups.items())


def trace_bulge_wavefront(n: int, b: int, *, want_q: bool = True) -> GemmTrace:
    """Shape stream of :func:`repro.eig.bulge_wavefront.bulge_chase_wavefront`.

    Emits exactly the engine-routed launches of the numeric executor on a
    generic band matrix (no dead sweeps): per batch group, two
    ``gemm_batched`` strip launches (when the strip is non-empty), three
    ``gemm_batched`` tile launches plus one fused ``syr2k`` per step, and
    two ``gemm_batched`` Q-accumulation launches (when ``want_q``).
    """
    trace = GemmTrace()
    if n <= 2 or b < 1:
        return trace
    for wave in wavefront_rounds(n, b):
        for (kind, L, w, c2), steps in wavefront_groups(wave):
            g = len(steps)
            kk = min(L, w)
            if c2 > 0:
                trace.add(GemmRecord(kk, c2, L, tag="bulge.wavefront.strip",
                                     op="gemm_batched", batch=g))
                trace.add(GemmRecord(L, c2, kk, tag="bulge.wavefront.strip",
                                     op="gemm_batched", batch=g))
            trace.add(GemmRecord(L, kk, L, tag="bulge.wavefront.tile",
                                 op="gemm_batched", batch=g))
            trace.add(GemmRecord(kk, kk, L, tag="bulge.wavefront.tile",
                                 op="gemm_batched", batch=g))
            trace.add(GemmRecord(L, kk, kk, tag="bulge.wavefront.tile",
                                 op="gemm_batched", batch=g))
            for _ in steps:
                trace.add(GemmRecord(L, L, kk, tag="bulge.wavefront.syr2k",
                                     op="syr2k"))
            if want_q:
                trace.add(GemmRecord(n, kk, L, tag="bulge.wavefront.q",
                                     op="gemm_batched", batch=g))
                trace.add(GemmRecord(n, L, kk, tag="bulge.wavefront.q",
                                     op="gemm_batched", batch=g))
    return trace


# ---------------------------------------------------------------------------
# Band→bidiagonal wavefront chase (:mod:`repro.svd.banded`): geometry,
# schedule parameters and symbolic trace, shared with the numeric
# executor exactly like the symmetric chase's above.
# ---------------------------------------------------------------------------

#: Step separation of the band→bidiagonal wavefront.  Step ``t`` of sweep
#: ``j`` touches rows/columns ``[j+1+(t-1)bw, j+1+(t+1)bw)`` (the opener,
#: ``t = 0``, touches ``[j, j+1+bw)``, inside that range); steps of sweeps
#: ``d`` apart scheduled ``DELTA*d`` steps apart are disjoint iff
#: ``(DELTA*d - 2) * bw >= d``, which ``DELTA = 3`` satisfies for every
#: ``bw >= 1`` (``DELTA = 2`` fails at ``d = 1``).
BIDIAG_WAVEFRONT_DELTA = 3


def bidiag_sweep_geometry(n: int, bw: int, j: int) -> "list[tuple]":
    """Step geometries of sweep ``j`` of the band→bidiagonal chase.

    Each step is ``(a0, a1, c1)``: a left QR of the hop block
    ``B[a0:a1, a0:a1]`` (restoring upper triangularity, applied to the
    strip ``B[a0:a1, a1:c1]`` and to ``U[:, a0:a1]``), then — when
    ``c1 - a1 >= 2`` — a right LQ of that strip (making it lower
    triangular, i.e. back inside the band, applied to the tile
    ``B[a1:c1, a1:c1]`` and to ``V[:, a1:c1]``).  The first step is the
    row opener, the ``a1 - a0 == 1`` case: its 1×1 left block has
    nothing to factor and its strip is row ``j`` beyond the diagonal.
    Every step's footprint is ``[a0, c1)`` in rows and columns.
    """
    r0, e0 = j + 1, min(j + 1 + bw, n)
    if e0 - r0 < 2:
        return []
    steps = [(j, r0, e0)]
    a0, a1 = r0, e0
    while True:
        c1 = min(a1 + bw, n)
        steps.append((a0, a1, c1))
        if c1 - a1 < 2:
            return steps
        a0, a1 = a1, c1


def bidiag_group_key(geom) -> tuple:
    """Batch-group key ``(L, k)`` of a band→bidiagonal step.

    ``L = a1 - a0`` is the left block size (1 for the opener) and
    ``k = c1 - a1`` the strip width; they fix every stacked shape.
    """
    a0, a1, c1 = geom
    return (a1 - a0, c1 - a1)


def trace_band_to_bidiagonal(n: int, bw: int, *, want_uv: bool = True) -> GemmTrace:
    """Shape stream of :func:`repro.svd.banded.band_to_bidiagonal`.

    Emits exactly the engine-routed launches of the numeric executor on a
    generic upper band (no dead sweeps, no identity hop factors): per
    batch group of ``g`` steps with key ``(L, k)``, the left QR's
    ``kl = L - 1`` reflectors launch two strip products (when ``k > 0``)
    and two U products (when ``want_uv``); the right LQ's
    ``kr = min(k - 1, L)`` reflectors (when ``k >= 2``) launch two tile
    products and two V products (when ``want_uv``), each one
    ``gemm_batched`` of ``g`` slices.
    """
    trace = GemmTrace()

    def add(m, nn, k, tag, g):
        trace.add(GemmRecord(m, nn, k, tag=tag, op="gemm_batched", batch=g))

    for wave in wavefront_rounds(n, bw, geometry=bidiag_sweep_geometry,
                                 delta=BIDIAG_WAVEFRONT_DELTA):
        for (L, k), steps in wavefront_groups(wave, key=bidiag_group_key):
            g = len(steps)
            if L > 1:
                kl = L - 1
                if k > 0:
                    add(kl, k, L, "bulge.svd.strip", g)
                    add(L, k, kl, "bulge.svd.strip", g)
                if want_uv:
                    add(kl, n, L, "bulge.svd.u", g)
                    add(L, n, kl, "bulge.svd.u", g)
            if k > 1:
                kr = min(k - 1, L)
                add(k, kr, k, "bulge.svd.tile", g)
                add(k, k, kr, "bulge.svd.tile", g)
                if want_uv:
                    add(kr, n, k, "bulge.svd.v", g)
                    add(k, n, kr, "bulge.svd.v", g)
    return trace
