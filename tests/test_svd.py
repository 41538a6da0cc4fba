"""Tests for the SVD and randomized low-rank package."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.gemm.engine import PlainEngine
from repro.matrices import generate_symmetric
from repro.svd import (
    block_lanczos_eig,
    low_rank_approx,
    randomized_eig,
    randomized_svd,
    svd_via_evd,
)


def _planted(m, n, rank, rng, noise=0.0):
    a = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    if noise:
        a = a + noise * rng.standard_normal((m, n))
    return a


class TestSvdViaEvd:
    @pytest.mark.parametrize("method", ["jordan_wielandt", "gram"])
    @pytest.mark.parametrize("m,n", [(40, 40), (60, 30), (33, 21)])
    def test_full_svd(self, rng, method, m, n):
        a = rng.standard_normal((m, n))
        u, s, vt = svd_via_evd(a, method=method, precision="fp64")
        s_ref = np.linalg.svd(a, compute_uv=False)
        np.testing.assert_allclose(s, s_ref, atol=1e-10)
        np.testing.assert_allclose((u * s) @ vt, a, atol=1e-10)
        np.testing.assert_allclose(u.T @ u, np.eye(n), atol=1e-10)
        np.testing.assert_allclose(vt @ vt.T, np.eye(n), atol=1e-10)

    def test_wide_matrix(self, rng):
        a = rng.standard_normal((20, 50))
        u, s, vt = svd_via_evd(a, precision="fp64")
        np.testing.assert_allclose((u * s) @ vt, a, atol=1e-10)
        assert s.shape == (20,)

    def test_singular_values_descending(self, rng):
        _, s, _ = svd_via_evd(rng.standard_normal((30, 20)), precision="fp64")
        assert np.all(np.diff(s) <= 1e-12)

    def test_gram_squares_condition(self, rng):
        # A condition-1e6 matrix: the Gram route loses the small singular
        # values' digits, Jordan-Wielandt keeps them.
        u0, _ = np.linalg.qr(rng.standard_normal((50, 20)))
        v0, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        s_true = np.geomspace(1.0, 1e-6, 20)
        a = (u0 * s_true) @ v0.T
        _, s_jw, _ = svd_via_evd(a, method="jordan_wielandt", precision="fp64")
        rel_jw = abs(s_jw[-1] - s_true[-1]) / s_true[-1]
        assert rel_jw < 1e-4

    def test_tc_precision_level(self, rng):
        a = rng.standard_normal((48, 24))
        _, s, _ = svd_via_evd(a, precision="fp16_tc", b=4)
        s_ref = np.linalg.svd(a, compute_uv=False)
        assert float(np.abs(s - s_ref).max()) / s_ref[0] < 5e-3

    def test_bad_method(self, rng):
        with pytest.raises(ConfigurationError):
            svd_via_evd(rng.standard_normal((8, 4)), method="bidiag")

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            svd_via_evd(np.zeros((0, 3)))


class TestRandomizedSvd:
    def test_exact_on_planted_rank(self, rng):
        a = _planted(80, 60, 10, rng)
        u, s, vt = randomized_svd(a, 10, rng=rng)
        assert np.linalg.norm(a - (u * s) @ vt) / np.linalg.norm(a) < 1e-10

    def test_near_optimal_with_noise(self, rng):
        a = _planted(100, 70, 8, rng, noise=1e-3)
        u, s, vt = randomized_svd(a, 8, power_iterations=2, rng=rng)
        err = np.linalg.norm(a - (u * s) @ vt)
        s_ref = np.linalg.svd(a, compute_uv=False)
        optimal = np.sqrt(np.sum(s_ref[8:] ** 2))
        assert err < 2 * optimal

    def test_shapes(self, rng):
        u, s, vt = randomized_svd(rng.standard_normal((30, 20)), 5, rng=rng)
        assert u.shape == (30, 5) and s.shape == (5,) and vt.shape == (5, 20)

    def test_orthonormal_factors(self, rng):
        u, _, vt = randomized_svd(_planted(40, 30, 6, rng), 6, rng=rng)
        np.testing.assert_allclose(u.T @ u, np.eye(6), atol=1e-10)
        np.testing.assert_allclose(vt @ vt.T, np.eye(6), atol=1e-10)

    def test_rank_validation(self, rng):
        with pytest.raises(ShapeError):
            randomized_svd(rng.standard_normal((10, 8)), 0)
        with pytest.raises(ShapeError):
            randomized_svd(rng.standard_normal((10, 8)), 9)

    def test_engine_string(self, rng):
        a = _planted(40, 30, 5, rng)
        u, s, vt = randomized_svd(a, 5, engine="fp32", rng=rng)
        assert np.linalg.norm(a - (u * s) @ vt) / np.linalg.norm(a) < 1e-4


class TestRandomizedEig:
    def test_top_eigenpairs_decaying(self, rng):
        a, lam_true = generate_symmetric(100, distribution="geo", cond=1e6,
                                         signs="positive", rng=rng)
        lam, v = randomized_eig(a, 5, power_iterations=4, rng=rng)
        top = np.sort(lam_true)[::-1][:5]
        assert np.abs(np.sort(lam)[::-1] - top).max() / top[0] < 1e-4
        np.testing.assert_allclose(v.T @ v, np.eye(5), atol=1e-8)

    def test_magnitude_ordering_with_negatives(self, rng):
        a, lam_true = generate_symmetric(60, distribution="arith", cond=100, rng=rng)
        lam, _ = randomized_eig(a, 60, oversample=0, power_iterations=1, rng=rng)
        # Full-rank sketch: exact spectrum (any order by |.|).
        np.testing.assert_allclose(np.sort(lam), np.sort(lam_true), atol=1e-8)

    def test_rejects_asymmetric(self, rng):
        from repro.errors import NotSymmetricError

        with pytest.raises(NotSymmetricError):
            randomized_eig(rng.standard_normal((10, 10)), 3)


class TestBlockLanczos:
    def test_beats_subspace_iteration_same_products(self, rng):
        # Ref [40]'s claim: at equal A-product counts, block Lanczos is at
        # least as accurate as subspace iteration on a decaying spectrum.
        a, lam_true = generate_symmetric(120, distribution="geo", cond=1e6,
                                         signs="positive", rng=rng)
        top = np.sort(lam_true)[::-1][:6]
        lam_si, _ = randomized_eig(a, 6, oversample=6, power_iterations=3, rng=rng)
        lam_bl, _ = block_lanczos_eig(a, 6, block_size=12, n_blocks=4, rng=rng)
        err_si = np.abs(np.sort(lam_si)[::-1] - top).max()
        err_bl = np.abs(np.sort(lam_bl)[::-1] - top).max()
        assert err_bl <= 5 * err_si  # never dramatically worse...
        assert err_bl / top[0] < 1e-5  # ...and accurate in absolute terms

    def test_exact_on_planted_rank(self, rng):
        q0, _ = np.linalg.qr(rng.standard_normal((80, 6)))
        a = (q0 * np.array([10, 8, 6, 4, 2, 1.0])) @ q0.T
        lam, v = block_lanczos_eig(a, 6, block_size=6, n_blocks=3, rng=rng)
        np.testing.assert_allclose(np.sort(lam)[::-1], [10, 8, 6, 4, 2, 1], atol=1e-8)
        np.testing.assert_allclose(a @ v, v * lam, atol=1e-7)

    def test_basis_exhaustion_guard(self, rng):
        a = np.eye(10)  # Krylov space collapses after one block
        with pytest.raises(ConfigurationError):
            block_lanczos_eig(a, 8, block_size=2, n_blocks=5, rng=rng)

    def test_bad_blocks(self, rng):
        a, _ = generate_symmetric(16, rng=rng)
        with pytest.raises(ConfigurationError):
            block_lanczos_eig(a, 4, n_blocks=0, rng=rng)


class TestLowRankApprox:
    def test_randomized_path(self, rng):
        a = _planted(50, 40, 7, rng)
        approx = low_rank_approx(a, 7, rng=rng)
        assert np.linalg.norm(a - approx) / np.linalg.norm(a) < 1e-9

    def test_evd_path(self, rng):
        a, lam = generate_symmetric(48, distribution="geo", cond=1e4,
                                    signs="positive", rng=rng)
        approx = low_rank_approx(a, 10, method="evd", b=4)
        s_ref = np.sort(np.abs(lam))[::-1]
        optimal = np.sqrt(np.sum(s_ref[10:] ** 2))
        assert np.linalg.norm(a - approx, "fro") < 3 * optimal + 1e-6

    def test_bad_method(self, rng):
        with pytest.raises(ConfigurationError):
            low_rank_approx(rng.standard_normal((8, 8)), 2, method="cur")


class TestBidiagonalize:
    from repro.svd import bidiagonalize as _bidiag  # noqa: F401 (import check)

    @pytest.mark.parametrize("m,n", [(30, 20), (15, 15), (8, 3), (5, 1)])
    def test_factorization(self, rng, m, n):
        from repro.svd import bidiagonalize

        a = rng.standard_normal((m, n))
        u, d, e, v = bidiagonalize(a)
        b = np.zeros((m, n))
        b[np.arange(n), np.arange(n)] = d
        if n > 1:
            b[np.arange(n - 1), np.arange(1, n)] = e
        np.testing.assert_allclose(u @ b @ v.T, a, atol=1e-12)
        np.testing.assert_allclose(u.T @ u, np.eye(m), atol=1e-13)
        np.testing.assert_allclose(v.T @ v, np.eye(n), atol=1e-13)

    def test_no_uv(self, rng):
        from repro.svd import bidiagonalize

        u, d, e, v = bidiagonalize(rng.standard_normal((12, 8)), want_uv=False)
        assert u is None and v is None
        assert d.shape == (8,) and e.shape == (7,)

    def test_singular_values_preserved(self, rng):
        from repro.svd import bidiagonalize

        a = rng.standard_normal((20, 10))
        _, d, e, _ = bidiagonalize(a, want_uv=False)
        b = np.diag(d) + np.diag(e, 1)
        np.testing.assert_allclose(
            np.linalg.svd(b, compute_uv=False),
            np.linalg.svd(a, compute_uv=False),
            atol=1e-11,
        )

    def test_rejects_wide(self, rng):
        from repro.svd import bidiagonalize

        with pytest.raises(ShapeError):
            bidiagonalize(rng.standard_normal((3, 6)))


class TestSvdDirect:
    @pytest.mark.parametrize("m,n", [(30, 20), (20, 30), (25, 25), (10, 1), (1, 7)])
    def test_matches_lapack(self, rng, m, n):
        from repro.svd import svd_direct

        a = rng.standard_normal((m, n))
        u, s, vt = svd_direct(a)
        k = min(m, n)
        np.testing.assert_allclose(s, np.linalg.svd(a, compute_uv=False), atol=1e-11)
        np.testing.assert_allclose((u * s) @ vt, a, atol=1e-11)
        np.testing.assert_allclose(u.T @ u, np.eye(k), atol=1e-12)
        np.testing.assert_allclose(vt @ vt.T, np.eye(k), atol=1e-12)

    def test_rank_deficient(self, rng):
        from repro.svd import svd_direct

        a = rng.standard_normal((20, 5)) @ rng.standard_normal((5, 12))
        u, s, vt = svd_direct(a)
        assert np.sum(s > 1e-10) == 5
        np.testing.assert_allclose((u * s) @ vt, a, atol=1e-11)
        np.testing.assert_allclose(u.T @ u, np.eye(12), atol=1e-11)

    def test_zero_matrix(self):
        from repro.svd import svd_direct

        u, s, vt = svd_direct(np.zeros((6, 4)))
        np.testing.assert_array_equal(s, 0)
        np.testing.assert_allclose(u.T @ u, np.eye(4), atol=1e-13)

    def test_agrees_with_via_evd(self, rng):
        from repro.svd import svd_direct, svd_via_evd

        a = rng.standard_normal((24, 16))
        _, s1, _ = svd_direct(a)
        _, s2, _ = svd_via_evd(a, precision="fp64")
        np.testing.assert_allclose(s1, s2, atol=1e-10)

    def test_golub_kahan_structure(self, rng):
        # The perfect-shuffle claim itself: the shuffled JW embedding of a
        # bidiagonal matrix is tridiagonal with the interleaved bands.
        n = 6
        d = rng.standard_normal(n)
        e = rng.standard_normal(n - 1)
        b = np.diag(d) + np.diag(e, 1)
        jw = np.zeros((2 * n, 2 * n))
        jw[:n, n:] = b
        jw[n:, :n] = b.T
        perm = np.empty(2 * n, dtype=int)
        perm[0::2] = np.arange(n, 2 * n)  # v-coordinates first...
        perm[1::2] = np.arange(n)         # ...then u, per module docstring
        t = jw[np.ix_(perm, perm)]
        from repro.la import tridiag_to_dense

        off = np.empty(2 * n - 1)
        off[0::2] = d
        off[1::2] = e
        np.testing.assert_allclose(t, tridiag_to_dense(np.zeros(2 * n), off), atol=0)


def _random_banded(n, bl, bu, rng):
    a = rng.standard_normal((n, n))
    mask = np.zeros((n, n), dtype=bool)
    idx = np.arange(n)
    diff = idx[None, :] - idx[:, None]
    mask[(diff > bu) | (diff < -bl)] = True
    a[mask] = 0.0
    return a


class TestSvdBanded:
    @pytest.mark.parametrize(
        "n,bl,bu",
        [
            (48, 0, 4),    # upper-banded
            (48, 0, 1),    # already bidiagonal
            (32, 0, 31),   # bw >= n-1 (dense upper triangle)
            (49, 0, 5),    # n not a multiple of anything nice
            (48, 3, 0),    # lower-banded: exercises the QR pre-pass
            (48, 4, 4),    # general band
            (3, 1, 1),
            (2, 1, 1),
            (1, 0, 0),
        ],
    )
    def test_factorization(self, rng, n, bl, bu):
        from repro.svd import svd_banded

        a = _random_banded(n, bl, bu, rng)
        u, s, vt = svd_banded(a)
        np.testing.assert_allclose(u @ np.diag(s) @ vt, a, atol=1e-11)
        # Orthogonality 1e-9: the shared Golub–Kahan back end loses a few
        # digits when the spectrum has near-zero singular values (same
        # characteristic as svd_direct).
        np.testing.assert_allclose(u.T @ u, np.eye(n), atol=1e-9)
        np.testing.assert_allclose(vt @ vt.T, np.eye(n), atol=1e-9)
        assert np.all(np.diff(s) <= 1e-12)
        np.testing.assert_allclose(
            s, np.linalg.svd(a, compute_uv=False), atol=1e-10
        )

    def test_band_to_bidiagonal_invariant(self, rng):
        from repro.svd import band_to_bidiagonal

        a = _random_banded(40, 0, 6, rng)
        u, d, e, v = band_to_bidiagonal(a, 6)
        b = np.diag(d) + np.diag(e, 1)
        np.testing.assert_allclose(u @ b @ v.T, a, atol=1e-12)
        np.testing.assert_allclose(u.T @ u, np.eye(40), atol=1e-12)
        np.testing.assert_allclose(v.T @ v, np.eye(40), atol=1e-12)

    def test_band_to_bidiagonal_no_uv(self, rng):
        from repro.svd import band_to_bidiagonal

        a = _random_banded(24, 0, 4, rng)
        u_full, d_full, e_full, _ = band_to_bidiagonal(a, 4)
        u, d, e, v = band_to_bidiagonal(a, 4, want_uv=False)
        assert u is None and v is None
        np.testing.assert_array_equal(d, d_full)
        np.testing.assert_array_equal(e, e_full)

    def test_band_to_bidiagonal_rejects_lower_content(self, rng):
        from repro.svd import band_to_bidiagonal

        with pytest.raises(ShapeError):
            band_to_bidiagonal(_random_banded(16, 2, 2, rng), 3)

    def test_cross_validates_against_svd_via_evd(self, rng):
        from repro.svd import svd_banded

        a = _random_banded(40, 0, 5, rng)
        _, s1, _ = svd_banded(a)
        _, s2, _ = svd_via_evd(a, precision="fp64")
        np.testing.assert_allclose(s1, s2, atol=1e-10)

    def test_validates_declared_bandwidth(self, rng):
        from repro.errors import ValidationError
        from repro.svd import svd_banded

        a = _random_banded(16, 0, 5, rng)
        with pytest.raises(ValidationError) as exc:
            svd_banded(a, 3)
        assert exc.value.field == "bw"
        with pytest.raises(ValidationError):
            svd_banded(a, 0)

    def test_rejects_bad_shapes(self):
        from repro.svd import svd_banded

        with pytest.raises(ShapeError):
            svd_banded(np.zeros((3, 4)))
        with pytest.raises(ShapeError):
            svd_banded(np.zeros((0, 0)))

    def test_engine_tags_and_workspace_reuse(self, rng):
        from repro.gemm import Fp64Engine
        from repro.gemm.symbolic import BULGE_SVD_TAGS
        from repro.perf import Workspace
        from repro.svd import svd_banded

        a = _random_banded(40, 0, 5, rng)
        eng = Fp64Engine(record=True)
        ws = Workspace()
        svd_banded(a, engine=eng, workspace=ws)
        assert BULGE_SVD_TAGS <= {r.tag for r in eng.trace.records}
        before = dict(ws.stats())
        svd_banded(a, workspace=ws)
        after = dict(ws.stats())
        assert after["misses"] == before["misses"]


def _bidiag(d, e):
    return np.diag(d) + np.diag(e, 1)


def _chase_counters(a, bw, **kw):
    """Run band_to_bidiagonal under a collector; return result and span counters."""
    from repro import obs
    from repro.svd import band_to_bidiagonal

    with obs.collect() as session:
        out = band_to_bidiagonal(a, bw, **kw)
    spans = session.by_path("bulge.svd")
    return out, (spans[0].counters if spans else {})


class _PoisonTileEngine(PlainEngine):
    """Plain engine whose first right-LQ tile product comes back as NaN."""

    fired = False

    def gemm_batched(self, a, b, *, tag="", **kw):
        out = super().gemm_batched(a, b, tag=tag, **kw)
        if tag == "bulge.svd.tile" and not self.fired:
            self.fired = True
            out[...] = np.nan
        return out


class TestBandToBidiagonalWavefront:
    """The wavefront band→bidiagonal chase: schedule invariance, dead-chase
    rules, non-finite guard, accuracy beyond singular values, arena use."""

    @pytest.mark.parametrize("n,bw", [(40, 6), (33, 7), (17, 16), (25, 2)])
    def test_batched_matches_one_step_per_launch_bitwise(self, rng, n, bw):
        from repro.svd import band_to_bidiagonal

        a = _random_banded(n, 0, bw, rng)
        batched = band_to_bidiagonal(a, bw, batch=True)
        serial = band_to_bidiagonal(a, bw, batch=False)
        for x, y in zip(batched, serial):
            np.testing.assert_array_equal(x, y)

    def test_already_bidiagonal_input_skips_every_sweep(self, rng):
        from repro.gemm import Fp64Engine

        n, bw = 30, 5
        a = _bidiag(rng.standard_normal(n), rng.standard_normal(n - 1))
        eng = Fp64Engine(record=True)
        (u, d, e, v), counters = _chase_counters(a, bw, engine=eng)
        assert not eng.trace.records
        assert counters["dead_sweeps"] == n - 2
        np.testing.assert_array_equal(d, np.diagonal(a))
        np.testing.assert_array_equal(e, np.diagonal(a, 1))
        np.testing.assert_array_equal(u, np.eye(n))
        np.testing.assert_array_equal(v, np.eye(n))

    def test_bidiagonal_opener_row_is_skipped(self, rng):
        # Row 0 already bidiagonal: sweep 0 is skipped, and the rest is the
        # chase of the trailing submatrix (sweep j+1 there is sweep j here).
        from repro.svd import band_to_bidiagonal

        n, bw = 36, 5
        a = _random_banded(n, 0, bw, rng)
        a[0, 2:] = 0
        (u, d, e, v), counters = _chase_counters(a, bw)
        assert counters["dead_sweeps"] >= 1
        _, d_sub, e_sub, _ = band_to_bidiagonal(a[1:, 1:], bw)
        assert d[0] == a[0, 0] and e[0] == a[0, 1]
        np.testing.assert_array_equal(d[1:], d_sub)
        np.testing.assert_array_equal(e[1:], e_sub)
        assert u[0, 0] == 1 and v[0, 0] == 1
        np.testing.assert_allclose(u @ _bidiag(d, e) @ v.T, a, atol=1e-12)

    @pytest.mark.parametrize("batch", [True, False])
    def test_zero_rows_mid_matrix_end_the_chase(self, rng, batch):
        # Zero rows [p, p + bw): the first hop after them factors an empty
        # block (no left transform, the sweep goes on), a later hop inside
        # them finds no fill and ends its sweep.
        from repro.gemm import Fp64Engine
        from repro.gemm.symbolic import trace_band_to_bidiagonal
        from repro.svd import band_to_bidiagonal

        n, bw, p = 48, 6, 20
        a = _random_banded(n, 0, bw, rng)
        a[p : p + bw] = 0
        eng = Fp64Engine(record=True)
        (u, d, e, v), counters = _chase_counters(a, bw, engine=eng, batch=batch)
        assert counters["dead_sweeps"] >= 1
        assert len(eng.trace.records) < len(trace_band_to_bidiagonal(n, bw).records)
        np.testing.assert_allclose(u @ _bidiag(d, e) @ v.T, a, atol=1e-12)
        np.testing.assert_allclose(u.T @ u, np.eye(n), atol=1e-12)
        np.testing.assert_allclose(v.T @ v, np.eye(n), atol=1e-12)
        np.testing.assert_allclose(
            np.linalg.svd(_bidiag(d, e), compute_uv=False),
            np.linalg.svd(a, compute_uv=False), atol=1e-12,
        )
        other = band_to_bidiagonal(a, bw, batch=not batch)
        for x, y in zip((u, d, e, v), other):
            np.testing.assert_array_equal(x, y)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_band_entry_raises(self, rng, value):
        from repro.errors import NumericalBreakdownError
        from repro.svd import band_to_bidiagonal, svd_banded

        a = _random_banded(40, 0, 5, rng)
        a[20, 23] = value
        for call in (lambda: band_to_bidiagonal(a, 5), lambda: svd_banded(a, 5)):
            with pytest.raises(NumericalBreakdownError) as exc:
                call()
            assert exc.value.detector == "nonfinite"
            assert exc.value.site == "band_to_bidiagonal"

    def test_nan_from_a_tile_update_is_caught_before_factoring(self, rng):
        from repro.errors import NumericalBreakdownError
        from repro.svd import band_to_bidiagonal

        with pytest.raises(NumericalBreakdownError) as exc:
            band_to_bidiagonal(_random_banded(40, 0, 5, rng), 5,
                               engine=_PoisonTileEngine())
        assert exc.value.detector == "nonfinite"
        assert exc.value.site == "band_to_bidiagonal"

    def test_reconstruction_and_orthogonality_at_scale(self, rng):
        from repro.svd import band_to_bidiagonal

        n, bw = 192, 16
        a = _random_banded(n, 0, bw, rng)
        u, d, e, v = band_to_bidiagonal(a, bw)
        np.testing.assert_allclose(u @ _bidiag(d, e) @ v.T, a, atol=1e-12)
        np.testing.assert_allclose(u.T @ u, np.eye(n), atol=1e-12)
        np.testing.assert_allclose(v.T @ v, np.eye(n), atol=1e-12)

    @pytest.mark.parametrize("want_uv", [True, False])
    def test_arena_two_takes_per_factorization_and_no_second_call_misses(
            self, rng, want_uv):
        from repro.gemm.symbolic import (
            BIDIAG_WAVEFRONT_DELTA,
            bidiag_group_key,
            bidiag_sweep_geometry,
            wavefront_groups,
            wavefront_rounds,
        )
        from repro.perf import Workspace
        from repro.svd import band_to_bidiagonal

        n, bw = 65, 6
        a = _random_banded(n, 0, bw, rng)
        factorizations = sum(
            (L > 1) + (k > 1)
            for wave in wavefront_rounds(n, bw, geometry=bidiag_sweep_geometry,
                                         delta=BIDIAG_WAVEFRONT_DELTA)
            for (L, k), _ in wavefront_groups(wave, key=bidiag_group_key)
        )
        ws = Workspace()
        band_to_bidiagonal(a, bw, want_uv=want_uv, workspace=ws)
        first = dict(ws.stats())
        assert 0 < first["takes"] <= 2 * factorizations
        band_to_bidiagonal(a, bw, want_uv=want_uv, workspace=ws)
        second = dict(ws.stats())
        assert second["misses"] == first["misses"]
        assert second["takes"] - first["takes"] == first["takes"]

    def test_flop_model_counts_engine_visible_work(self, rng):
        from repro.gemm import Fp64Engine
        from repro.gemm.symbolic import is_algorithm_tag, trace_band_to_bidiagonal
        from repro.metrics.flops import band_to_bidiagonal_flops
        from repro.svd import band_to_bidiagonal

        n, bw = 40, 5
        eng = Fp64Engine(record=True)
        band_to_bidiagonal(_random_banded(n, 0, bw, rng), bw, engine=eng)
        rec = eng.trace.filter(lambda r: is_algorithm_tag(r.tag))
        visible = trace_band_to_bidiagonal(n, bw, want_uv=True).total_flops
        assert rec.total_flops == visible
        with_uv = band_to_bidiagonal_flops(n, bw, want_uv=True)
        without = band_to_bidiagonal_flops(n, bw, want_uv=False)
        assert with_uv > visible and with_uv > without > 0
        assert band_to_bidiagonal_flops(n, 1) == 0
