"""Tests for the wavefront bulge chase and its end-to-end wiring.

Covers the default stage 2: numerical correctness across edge
geometries for both ``bulge_chase`` variants, the bitwise
batched-vs-serial contract, engine-tag visibility, steady-state
arena reuse, the non-finite guard in front of the LAPACK hop QR, the
driver's ``bulge_variant`` plumbing and default, a differential check
against the Givens oracle, and the analytic stage-2 flop models behind
``phase_plan``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.eig import bulge_chase
from repro.eig.bulge_wavefront import TAG_TILE, bulge_chase_wavefront
from repro.errors import NumericalBreakdownError, ShapeError, ValidationError
from repro.gemm import Fp64Engine
from repro.gemm.engine import PlainEngine
from repro.gemm.symbolic import BULGE_WAVEFRONT_TAGS, is_algorithm_tag
from repro.la import extract_band, tridiag_to_dense
from repro.matrices.distributions import DISTRIBUTIONS
from repro.perf import Workspace
from tests.conftest import random_symmetric

VARIANTS = ("givens", "wavefront")

# Edge geometries: single sweep hop (b >= n-1), bandwidth 1 passthrough,
# n not a multiple of b, b > n/2, tiny matrices, and bulk shapes.
EDGE_GEOMETRIES = [
    (8, 2), (24, 3), (40, 5), (33, 7), (12, 11), (30, 1),
    (5, 4), (3, 2), (2, 1), (65, 16), (9, 8), (50, 2),
]


class TestWavefrontBulgeChase:
    @pytest.mark.parametrize("n,b", EDGE_GEOMETRIES)
    def test_similarity_and_orthogonality(self, rng, n, b):
        ab = extract_band(random_symmetric(n, rng), b)
        d, e, q = bulge_chase(ab, b, want_q=True, variant="wavefront")
        t = tridiag_to_dense(d, e)
        np.testing.assert_allclose(q @ t @ q.T, ab, atol=1e-12)
        np.testing.assert_allclose(q.T @ q, np.eye(n), atol=1e-12)

    @pytest.mark.parametrize("n,b", [(40, 5), (33, 7), (12, 11), (30, 1), (9, 8)])
    def test_all_variants_agree_on_spectrum(self, rng, n, b):
        ab = extract_band(random_symmetric(n, rng), b)
        spectra = []
        for variant in VARIANTS:
            d, e, _ = bulge_chase(ab, b, want_q=False, variant=variant)
            spectra.append(np.linalg.eigvalsh(tridiag_to_dense(d, e)))
        np.testing.assert_allclose(spectra[0], spectra[1], atol=1e-11)

    def test_batched_matches_serial_bitwise(self, rng):
        # The wavefront schedule's batched anti-diagonal execution must be
        # bit-identical to executing the same groups one step at a time:
        # np.matmul over a 3-D stack is defined as the per-slice product.
        ab = extract_band(random_symmetric(48, rng), 6)
        d1, e1, q1 = bulge_chase_wavefront(ab, 6, batch=True)
        d2, e2, q2 = bulge_chase_wavefront(ab, 6, batch=False)
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_array_equal(e1, e2)
        np.testing.assert_array_equal(q1, q2)

    def test_already_tridiagonal_dead_sweeps(self, rng):
        # Declared bandwidth larger than the true one: every sweep is dead
        # and Q must stay exactly the identity.
        t_in = extract_band(random_symmetric(20, rng), 1)
        d, e, q = bulge_chase(t_in, 5, want_q=True, variant="wavefront")
        np.testing.assert_array_equal(q, np.eye(20))
        np.testing.assert_allclose(
            q @ tridiag_to_dense(d, e) @ q.T, t_in, atol=1e-12
        )

    def test_no_q(self, rng):
        ab = extract_band(random_symmetric(24, rng), 4)
        _, _, q = bulge_chase(ab, 4, want_q=False, variant="wavefront")
        assert q is None

    def test_extreme_scales(self, rng):
        # The hoisted pre-scaling must keep reflectors finite across the
        # representable range.
        for scale in (1e300, 1e-300):
            ab = extract_band(random_symmetric(16, rng), 3) * scale
            d, e, q = bulge_chase(ab, 3, want_q=True, variant="wavefront")
            assert np.all(np.isfinite(d)) and np.all(np.isfinite(e))
            np.testing.assert_allclose(
                q @ tridiag_to_dense(d, e) @ q.T, ab, atol=1e-12 * scale
            )

    def test_unknown_variant_message_lists_wavefront(self, rng):
        with pytest.raises(ShapeError, match="wavefront"):
            bulge_chase(
                extract_band(random_symmetric(8, rng), 2), 2, variant="panel"
            )


class _PoisonTileEngine(PlainEngine):
    """Plain engine that turns its first diagonal-tile product into NaN."""

    fired = False

    def gemm_batched(self, a, b, *, tag="", **kw):
        out = super().gemm_batched(a, b, tag=tag, **kw)
        if tag == TAG_TILE and not self.fired:
            self.fired = True
            out[...] = np.nan
        return out


class TestLapackHopFactors:
    """The stacked ``geqrf`` hop path: its WY build, and the NaN/Inf
    guard that LAPACK (which propagates non-finite values silently)
    lacks."""

    def test_wy_pair_matches_the_scalar_recurrence(self, rng):
        # The batched T-factor build against repro.la.wy.build_wy, the
        # column recurrence it replaces, including a tau == 0 reflector
        # in mid-block (an all-zero column factors to the identity).
        from repro.la.stacked import stacked_wy
        from repro.la.wy import build_wy

        blocks = rng.standard_normal((3, 12, 8))
        blocks[1, :, 3] = 0
        h, taus = np.linalg.qr(blocks, mode="raw")
        assert taus[1, 3] == 0
        V = np.empty((3, 12, 8))
        W = np.empty_like(V)
        stacked_wy(h.swapaxes(1, 2), taus, V, W)
        for g in range(3):
            w_ref, _ = build_wy(V[g], taus[g])
            np.testing.assert_allclose(W[g], w_ref, rtol=0, atol=1e-13)

    def test_nan_from_a_tile_update_raises_nonfinite(self, rng):
        ab = extract_band(random_symmetric(40, rng), 5)
        with pytest.raises(NumericalBreakdownError) as exc:
            bulge_chase_wavefront(ab, 5, engine=_PoisonTileEngine())
        assert exc.value.detector == "nonfinite"
        assert exc.value.site == "bulge_wavefront"

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_band_entry_raises_nonfinite(self, rng, value):
        ab = extract_band(random_symmetric(40, rng), 5)
        ab[20, 17] = ab[17, 20] = value
        with pytest.raises(NumericalBreakdownError) as exc:
            bulge_chase_wavefront(ab, 5)
        assert exc.value.detector == "nonfinite"
        assert exc.value.site == "bulge_wavefront"


class TestWavefrontEngineAndWorkspace:
    def test_engine_tags(self, rng):
        ab = extract_band(random_symmetric(40, rng), 5)
        eng = Fp64Engine(record=True)
        bulge_chase_wavefront(ab, 5, engine=eng)
        tags = {r.tag for r in eng.trace.records}
        assert tags <= BULGE_WAVEFRONT_TAGS
        assert "bulge.wavefront.tile" in tags
        assert "bulge.wavefront.syr2k" in tags
        assert "bulge.wavefront.q" in tags
        assert all(is_algorithm_tag(t) for t in tags)

    def test_no_q_tags(self, rng):
        ab = extract_band(random_symmetric(40, rng), 5)
        eng = Fp64Engine(record=True)
        bulge_chase_wavefront(ab, 5, want_q=False, engine=eng)
        assert "bulge.wavefront.q" not in {r.tag for r in eng.trace.records}

    def test_steady_state_alloc_free(self, rng):
        ab = extract_band(random_symmetric(48, rng), 6)
        ws = Workspace()
        bulge_chase_wavefront(ab, 6, workspace=ws)
        before = dict(ws.stats())
        bulge_chase_wavefront(ab, 6, workspace=ws)
        after = dict(ws.stats())
        assert after["misses"] == before["misses"]
        assert after["hits"] > before["hits"]

    @pytest.mark.parametrize("want_q", [True, False])
    def test_at_most_two_arena_takes_per_group(self, rng, want_q):
        # One take for the QR input stack, one scratch bundle for the rest.
        from repro import obs

        ab = extract_band(random_symmetric(65, rng), 6)
        ws = Workspace()
        with obs.collect() as session:
            bulge_chase_wavefront(ab, 6, want_q=want_q, workspace=ws)
        (span,) = session.by_path("bulge.wavefront")
        assert span.counters["launches"] > 0
        assert ws.stats()["takes"] <= 2 * span.counters["launches"]


class TestDriverBulgeVariant:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_syevd_2stage_variant(self, rng, variant):
        from repro.eig.driver import syevd_2stage

        a = random_symmetric(64, rng)
        res = syevd_2stage(
            a, b=8, nb=16, precision="fp64", bulge_variant=variant
        )
        lam, x = res.eigenvalues, res.eigenvectors
        assert np.linalg.norm(a @ x - x * lam) / np.linalg.norm(a) < 1e-12
        np.testing.assert_allclose(x.T @ x, np.eye(64), atol=1e-12)

    def test_rejects_bad_variant(self, rng):
        from repro.eig.driver import syevd_2stage

        with pytest.raises(ValidationError) as exc:
            syevd_2stage(random_symmetric(16, rng), b=4, bulge_variant="fast")
        assert exc.value.field == "bulge_variant"

    def test_syevd_selected_rejects_bad_variant(self, rng):
        from repro.eig.driver import syevd_selected

        with pytest.raises(ValidationError) as exc:
            syevd_selected(
                random_symmetric(16, rng), b=4, select=(0, 3),
                bulge_variant="fast",
            )
        assert exc.value.field == "bulge_variant"

    def test_wavefront_with_abft(self, rng):
        from repro.eig.driver import syevd_2stage

        a = random_symmetric(48, rng)
        res = syevd_2stage(
            a, b=8, nb=16, precision="fp64", bulge_variant="wavefront",
            abft="correct",
        )
        lam, x = res.eigenvalues, res.eigenvectors
        assert np.linalg.norm(a @ x - x * lam) / np.linalg.norm(a) < 1e-12


class TestDefaultVariant:
    def test_drivers_default_to_wavefront(self):
        import inspect

        from repro.eig.driver import (
            DEFAULT_BULGE_VARIANT, syevd_2stage, syevd_selected,
        )

        assert DEFAULT_BULGE_VARIANT == "wavefront"
        for fn in (syevd_2stage, syevd_selected):
            default = inspect.signature(fn).parameters["bulge_variant"].default
            assert default == DEFAULT_BULGE_VARIANT

    def test_default_run_plans_the_wavefront_chase(self, rng):
        # The live ETA model of a default run must price the chase that
        # actually runs.
        from repro.eig.driver import syevd_2stage
        from repro.metrics.flops import bulge_wavefront_flops

        res = syevd_2stage(random_symmetric(48, rng), b=8, nb=16, live=True)
        planned = res.metrics["progress"]["phases"]["bulge"]["planned"]
        assert planned == float(bulge_wavefront_flops(48, 8, want_q=True))

    @given(
        b=st.integers(2, 10),
        blocks=st.integers(2, 6),
        rem=st.integers(0, 8),
        distribution=st.sampled_from(sorted(DISTRIBUTIONS)),
        cond=st.sampled_from([10.0, 1e3, 1e6]),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_default_matches_givens_oracle(self, b, blocks, rem, distribution,
                                           cond, seed):
        from repro.eig.driver import syevd_2stage
        from repro.matrices import generate_symmetric
        from repro.metrics import (
            eigenvalue_error, orthogonality_error,
            sbr_backward_error_bound, sbr_orthogonality_bound,
        )

        n = b * blocks + 1 + rem % (b - 1)  # never a multiple of b
        a, lam = generate_symmetric(
            n, distribution=distribution, cond=cond,
            rng=np.random.default_rng(seed),
        )
        res = syevd_2stage(a, b=b, nb=2 * b)
        ref = syevd_2stage(a, b=b, nb=2 * b, bulge_variant="givens")
        # Both chases consume the same (bitwise identical) fp32 band and
        # run in float64, so they agree to the float64 envelope; against
        # the true spectrum and for X, the fp32 stage 1 sets the bound.
        assert eigenvalue_error(ref.eigenvalues, res.eigenvalues) <= (
            sbr_backward_error_bound(n, b, precision="fp64")
        )
        assert eigenvalue_error(lam, res.eigenvalues) <= (
            sbr_backward_error_bound(n, b, precision="fp32")
        )
        assert orthogonality_error(res.eigenvectors) <= (
            sbr_orthogonality_bound(n, b, precision="fp32")
        )


class TestBulgeFlopModels:
    def test_dispatch_and_positive(self):
        from repro.metrics import bulge_flops

        for variant in VARIANTS:
            with_q = bulge_flops(256, 16, variant=variant, want_q=True)
            without = bulge_flops(256, 16, variant=variant, want_q=False)
            assert with_q > without > 0

    def test_wavefront_counts_engine_visible_work(self, rng):
        # The wavefront model's engine-visible portion must equal the
        # flops the engine actually records.
        from repro.gemm.symbolic import trace_bulge_wavefront

        n, b = 40, 5
        ab = extract_band(random_symmetric(n, rng), b)
        eng = Fp64Engine(record=True)
        bulge_chase_wavefront(ab, b, engine=eng)
        rec = eng.trace.filter(lambda r: is_algorithm_tag(r.tag))
        assert rec.total_flops == trace_bulge_wavefront(n, b, want_q=True).total_flops

    def test_phase_plan_varies_with_variant(self):
        from repro.obs.live.progress import phase_plan

        plans = {
            v: phase_plan(256, 16, 64, bulge_variant=v)["bulge"]
            for v in VARIANTS
        }
        assert len(set(plans.values())) == len(VARIANTS)
        assert all(p > 0 for p in plans.values())
