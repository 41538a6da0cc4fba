"""Tests for Tensor-Core precision emulation (rounding, TC-GEMM, EC-TCGEMM)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.precision import (
    BF16_EPS,
    FP16_EPS,
    FP32_EPS,
    TF32_EPS,
    Precision,
    ec_tcgemm,
    round_bf16,
    round_fp16,
    round_tf32,
    round_to_format,
    split_fp16,
    tcgemm,
)
from repro.perf import Workspace
from repro.precision.rounding import FP16_CHUNK, fp16_scratch, split_fp16_into


class TestRounding:
    def test_fp16_idempotent(self, rng):
        x = rng.standard_normal(1000).astype(np.float32)
        once = round_fp16(x)
        np.testing.assert_array_equal(once, round_fp16(once))

    def test_tf32_idempotent(self, rng):
        x = rng.standard_normal(1000).astype(np.float32)
        once = round_tf32(x)
        np.testing.assert_array_equal(once, round_tf32(once))

    def test_bf16_idempotent(self, rng):
        x = rng.standard_normal(1000).astype(np.float32)
        once = round_bf16(x)
        np.testing.assert_array_equal(once, round_bf16(once))

    @pytest.mark.parametrize(
        "fn,eps",
        [(round_fp16, FP16_EPS), (round_tf32, TF32_EPS), (round_bf16, BF16_EPS)],
    )
    def test_relative_error_bounded(self, rng, fn, eps):
        # Restrict to each format's *normalized* range: below ~2^-14 FP16
        # goes subnormal and the relative bound intentionally degrades.
        x = rng.standard_normal(10000).astype(np.float32)
        x = x[np.abs(x) > 2.0**-10]
        rel = np.abs(fn(x) - x) / np.abs(x)
        assert float(rel.max()) <= eps

    def test_fp16_matches_numpy_float16(self, rng):
        x = rng.standard_normal(1000).astype(np.float32)
        np.testing.assert_array_equal(
            round_fp16(x).view(np.uint32),
            x.astype(np.float16).astype(np.float32).view(np.uint32),
        )

    def test_tf32_keeps_10_mantissa_bits(self):
        # 1 + 2^-10 is exactly representable in TF32; 1 + 2^-11 rounds to
        # even (down to 1.0).
        assert round_tf32(np.float32(1 + 2.0**-10)) == np.float32(1 + 2.0**-10)
        assert round_tf32(np.float32(1 + 2.0**-11)) == np.float32(1.0)

    def test_bf16_keeps_7_mantissa_bits(self):
        assert round_bf16(np.float32(1 + 2.0**-7)) == np.float32(1 + 2.0**-7)
        assert round_bf16(np.float32(1 + 2.0**-8)) == np.float32(1.0)

    def test_tf32_round_to_nearest_even(self):
        # Halfway case 1 + 3*2^-11 rounds up to 1 + 2^-10*2 (even mantissa).
        val = np.float32(1 + 3 * 2.0**-11)
        assert round_tf32(val) == np.float32(1 + 2 * 2.0**-10)

    def test_tf32_preserves_fp32_exponent_range(self):
        # 1e-30 underflows in FP16 but not TF32.
        small = np.float32(1e-30)
        assert round_fp16(small) == 0.0
        assert round_tf32(small) != 0.0

    def test_rounding_preserves_sign_and_zero(self):
        x = np.array([0.0, -0.0, 1.5, -1.5], dtype=np.float32)
        for fn in (round_fp16, round_tf32, round_bf16):
            out = fn(x)
            assert out[0] == 0 and out[1] == 0
            assert out[2] > 0 and out[3] < 0

    def test_nan_preserved(self):
        x = np.array([np.nan, 1.0], dtype=np.float32)
        for fn in (round_fp16, round_tf32, round_bf16):
            out = fn(x)
            assert np.isnan(out[0]) and out[1] == 1.0

    def test_round_to_format_dispatch(self, rng):
        x = rng.standard_normal(10).astype(np.float32)
        np.testing.assert_array_equal(round_to_format(x, "fp16"), round_fp16(x))
        np.testing.assert_array_equal(round_to_format(x, "tf32"), round_tf32(x))
        np.testing.assert_array_equal(round_to_format(x, "fp32"), x)

    def test_round_to_format_unknown(self):
        with pytest.raises(ValueError, match="unknown operand format"):
            round_to_format(np.zeros(3), "fp8")

    def test_returns_float32(self, rng):
        x = rng.standard_normal(10)
        for fn in (round_fp16, round_tf32, round_bf16):
            assert fn(x).dtype == np.float32


class TestSplitFp16:
    def test_reconstruction_accuracy(self, rng):
        x = rng.standard_normal(5000).astype(np.float32)
        hi, lo = split_fp16(x)
        recon = hi + lo / np.float32(2.0**11)
        rel = np.abs(recon - x) / np.maximum(np.abs(x), 1e-30)
        # Two-term split captures ~22 bits.
        assert float(rel.max()) < 2.0**-20

    def test_hi_is_fp16(self, rng):
        x = rng.standard_normal(100).astype(np.float32)
        hi, lo = split_fp16(x)
        np.testing.assert_array_equal(hi, round_fp16(hi))
        np.testing.assert_array_equal(lo, round_fp16(lo))

    def test_scaling_avoids_underflow(self):
        # Residuals of O(1) values are ~2^-11; unscaled FP16 rounding of the
        # residual would lose bits near the subnormal threshold for small x.
        x = np.full(10, 0.001, dtype=np.float32)
        hi, lo = split_fp16(x)
        recon = hi + lo / np.float32(2.0**11)
        assert float(np.abs(recon - x).max() / 0.001) < 2.0**-20


def _f32(v: float) -> int:
    """Bit pattern of the float32 nearest ``v``."""
    return int(np.float32(v).view(np.uint32))


def _patterns(lo: int, hi: int, step: int = 1 << 20):
    """Every float32 with bit pattern in ``[lo, hi)``, both signs, in chunks."""
    for s in range(lo, hi, step):
        bits = np.arange(s, min(s + step, hi), dtype=np.uint32)
        yield np.concatenate([bits, bits | np.uint32(0x80000000)]).view(np.float32)


def _cast16(x) -> np.ndarray:
    """NumPy's FP16 round trip — the reference the kernel must match bit for bit."""
    with np.errstate(over="ignore"):
        return np.asarray(x, dtype=np.float32).astype(np.float16).astype(np.float32)


def _model16(x) -> np.ndarray:
    """FP16 rounding in float64: RNE onto the FP16 grid spacing of ``x``.

    The spacing ``2^(max(e, -14) - 10)`` comes from ``x``'s exponent bits;
    the rounding is one float64 ``rint`` of an exact quotient.  About 10x
    faster than NumPy's cast in the subnormal band, so it stands in for
    the cast where a test sweeps whole binades; ``test_model_is_the_cast``
    pins it to the cast.  Finite inputs with ``|x| < 65520`` only.
    """
    x = np.asarray(x, dtype=np.float32)
    e = x.view(np.uint32) & np.uint32(0x7F800000)
    np.maximum(e, np.uint32(113 << 23), out=e)  # exponent field of 2^-14
    e -= np.uint32(10 << 23)
    spacing = e.view(np.float32).astype(np.float64)
    return (np.rint(x / spacing) * spacing).astype(np.float32)


def _split_ref(x, rounder) -> tuple[np.ndarray, np.ndarray]:
    hi = rounder(x)
    with np.errstate(invalid="ignore"):
        return hi, rounder((np.asarray(x, dtype=np.float32) - hi) * np.float32(2.0**11))


def _bits_equal(a, b) -> bool:
    return np.array_equal(np.asarray(a).view(np.uint32), np.asarray(b).view(np.uint32))


def _split_into(x, ws=None):
    x = np.asarray(x, dtype=np.float32)
    hi = np.empty(x.shape, dtype=np.float32)
    lo = np.empty(x.shape, dtype=np.float32)
    return split_fp16_into(x, hi, lo, fp16_scratch(ws, hi.size))


#: The three entry points of the FP16 kernel, each returning (hi, lo).
_SPLITTERS = {
    "round_fp16": lambda x: (round_fp16(x), None),
    "split_fp16": split_fp16,
    "split_fp16_into": _split_into,
}


class TestFp16KernelBitPatterns:
    """The vectorized FP16 rounding is NumPy's float16 cast, bit for bit.

    The exhaustive sweep over all 2^32 patterns is
    ``tools/fp16_exhaustive.py`` (its own CI job); these tests cover the regions
    where the kernel's arithmetic changes: the FP16 subnormal band and
    the normal/subnormal threshold, the top binades near overflow,
    float32 subnormals, ties, signed zeros and the fallback inputs.
    """

    def test_model_is_the_cast(self):
        # Every 257th pattern of the subnormal band, every pattern of the
        # top binades up to 65504: the float64 model is NumPy's cast.
        for x in _patterns(_f32(2.0**-26), _f32(2.0**-13)):
            x = x[::257]
            assert _bits_equal(_model16(x), _cast16(x))
        for x in _patterns(_f32(2.0**14), _f32(65504.0) + 1):
            assert _bits_equal(_model16(x), _cast16(x))

    def test_every_float32_in_the_fp16_subnormal_band(self):
        # [2^-26, 2^-13): results and low residuals land on the subnormal
        # grid or cross into the normal range.  round_fp16 sees every
        # pattern (the whole band shares the FP16 spacing 2^-24); the two
        # splits (the same kernel applied twice) every 5th, offset per
        # chunk so the sample drifts through the band.
        for i, x in enumerate(_patterns(_f32(2.0**-26), _f32(2.0**-13))):
            grid = np.rint(x.astype(np.float64) * 2.0**24) * 2.0**-24
            assert _bits_equal(round_fp16(x), grid.astype(np.float32))
            sample = x[i % 5 :: 5]
            ref_hi, ref_lo = _split_ref(sample, _model16)
            for split in (split_fp16, _split_into):
                hi, lo = split(sample)
                assert _bits_equal(hi, ref_hi) and _bits_equal(lo, ref_lo)

    @pytest.mark.parametrize("name", sorted(_SPLITTERS))
    def test_every_float32_in_the_top_binades(self, name):
        # [2^14, 2^16): up to 65504 the kernel's own arithmetic, above it
        # (overflow to 65504 or inf) the fallback cast.
        for x in _patterns(_f32(2.0**14), _f32(2.0**16)):
            with np.errstate(over="ignore"):
                hi, lo = _SPLITTERS[name](x)
            ref_hi, ref_lo = _split_ref(x, _cast16)
            assert _bits_equal(hi, ref_hi)
            if lo is not None:
                assert _bits_equal(lo, ref_lo)

    @pytest.mark.parametrize("name", sorted(_SPLITTERS))
    def test_every_float32_subnormal(self, name):
        x = next(_patterns(1, 1 << 23, step=1 << 23))
        hi, lo = _SPLITTERS[name](x)
        assert _bits_equal(hi, _model16(x))  # all round to ±0
        assert not np.any(hi.view(np.uint32) & np.uint32(0x7FFFFFFF))
        if lo is not None:
            assert _bits_equal(lo, _split_ref(x, _model16)[1])
        sample = x[::61]
        assert _bits_equal(_SPLITTERS[name](sample)[0], _cast16(sample))

    @pytest.mark.parametrize("name", sorted(_SPLITTERS))
    def test_ties_round_to_even(self, name):
        # Midpoints between neighbouring finite FP16 values, both signs.
        grid = np.arange(0, 0x7C00, dtype=np.uint16).view(np.float16).astype(np.float64)
        mid = ((grid[:-1] + grid[1:]) / 2).astype(np.float32)
        assert np.array_equal(mid.astype(np.float64), (grid[:-1] + grid[1:]) / 2)
        x = np.concatenate([mid, -mid])
        hi, lo = _SPLITTERS[name](x)
        ref_hi, ref_lo = _split_ref(x, _cast16)
        assert _bits_equal(hi, ref_hi)
        if lo is not None:
            assert _bits_equal(lo, ref_lo)
        # Even mantissa wins: 1 + 2^-11 -> 1, 1 + 3*2^-11 -> 1 + 2^-9.
        assert round_fp16(np.float32(1 + 2.0**-11)) == 1.0
        assert round_fp16(np.float32(1 + 3 * 2.0**-11)) == np.float32(1 + 2.0**-9)

    @pytest.mark.parametrize("name", sorted(_SPLITTERS))
    def test_signed_zero_and_overflow_edges(self, name):
        below = np.nextafter(np.float32(65520.0), np.float32(0.0))
        x = np.array([0.0, -0.0, 65504.0, -65504.0, below, -below, 65520.0, -65520.0,
                      2.0**-25, -(2.0**-25), 2.0**-24, -(2.0**-24)], dtype=np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            hi, lo = _SPLITTERS[name](x)
        ref_hi, ref_lo = _split_ref(x, _cast16)
        assert _bits_equal(hi, ref_hi)
        assert _bits_equal(hi[:8], np.array(
            [0.0, -0.0, 65504.0, -65504.0, 65504.0, -65504.0, np.inf, -np.inf],
            dtype=np.float32))
        assert np.signbit(hi[1]) and np.signbit(hi[9])  # -0 stays -0
        if lo is not None:
            assert _bits_equal(lo, ref_lo)

    @pytest.mark.parametrize("name", sorted(_SPLITTERS))
    def test_nonfinite_and_overflow_take_the_cast(self, name, rng):
        # Three chunks; only the middle one holds NaN / ±Inf / overflow,
        # so the fallback and the kernel both run within one call.
        x = (rng.standard_normal(3 * FP16_CHUNK) * 1e-3).astype(np.float32)
        mid = FP16_CHUNK + np.arange(6) * 1000
        x[mid] = [np.nan, np.inf, -np.inf, 1e6, -7e4, 65520.0]
        with np.errstate(invalid="ignore", over="ignore"):
            hi, lo = _SPLITTERS[name](x)
        ref_hi, ref_lo = _split_ref(x, _cast16)
        assert _bits_equal(hi, ref_hi)
        if lo is not None:
            assert _bits_equal(lo, ref_lo)
        assert np.isnan(hi[mid[0]]) and np.isposinf(hi[mid[3]]) and np.isneginf(hi[mid[4]])

    @pytest.mark.parametrize("name", sorted(_SPLITTERS))
    def test_strided_inputs(self, name, rng):
        base = (rng.standard_normal((70, 90)) * 10.0 ** rng.integers(-9, 3, (70, 90)))
        base = base.astype(np.float32)
        for view in (base.T, base[::3, 1::2], base[:, 5:50], base.reshape(-1)[::7]):
            hi, lo = _SPLITTERS[name](view)
            ref_hi, ref_lo = _split_ref(view, _cast16)
            assert _bits_equal(hi, ref_hi)
            if lo is not None:
                assert _bits_equal(lo, ref_lo)

    def test_round_fp16_keeps_the_cast_layout(self, rng):
        # BLAS accumulation order follows operand orientation, so a
        # rounded operand is laid out like the cast's result.
        a = rng.standard_normal((40, 30)).astype(np.float32)
        for view in (a, a.T, a[:, ::2]):
            ref = _cast16(view)
            got = round_fp16(view)
            assert got.strides == ref.strides
            assert _bits_equal(got, ref)
        hi, lo = split_fp16(a.T)
        assert hi.flags.f_contiguous and lo.flags.f_contiguous

    def test_workspace_scratch_is_fixed_size(self, rng):
        ws = Workspace()
        x = (rng.standard_normal((300, 300)) * 1e-4).astype(np.float32)
        for _ in range(2):
            hi, lo = _split_into(x, ws)
            ref_hi, ref_lo = _split_ref(x, _cast16)
            assert _bits_equal(hi, ref_hi) and _bits_equal(lo, ref_lo)
        # One fixed-size scratch buffer, reused: no growth with the operand.
        tag = ws.stats()["by_tag"]["fp16_round"]
        assert tag["misses"] == 1 and tag["bytes_allocated"] == 2 * FP16_CHUNK * 4

    def test_split_into_rejects_mismatched_buffers(self):
        x = np.ones((4, 4), dtype=np.float32)
        with pytest.raises(ValueError):
            split_fp16_into(x, np.empty((4, 4), np.float32), np.empty((4, 4), np.float32).T)
        with pytest.raises(ValueError):
            split_fp16_into(x, np.empty((4, 8), np.float32)[:, :4],
                            np.empty((4, 8), np.float32)[:, :4])


class TestTcgemm:
    def test_matches_fp16_reference(self, rng):
        a = rng.standard_normal((20, 30)).astype(np.float32)
        b = rng.standard_normal((30, 10)).astype(np.float32)
        expected = round_fp16(a) @ round_fp16(b)
        np.testing.assert_allclose(tcgemm(a, b), expected, rtol=1e-6)

    def test_error_level_is_fp16(self, rng):
        a = rng.standard_normal((64, 64)).astype(np.float32)
        b = rng.standard_normal((64, 64)).astype(np.float32)
        exact = a.astype(np.float64) @ b.astype(np.float64)
        err = np.abs(tcgemm(a, b) - exact).max() / np.abs(exact).max()
        assert 1e-5 < err < 1e-2  # fp16-grade, not fp32-grade

    def test_fp32_format_is_plain_matmul(self, rng):
        a = rng.standard_normal((8, 8)).astype(np.float32)
        b = rng.standard_normal((8, 8)).astype(np.float32)
        np.testing.assert_allclose(tcgemm(a, b, operand_format="fp32"), a @ b, rtol=1e-6)

    def test_chunked_accumulation_close_to_unchunked(self, rng):
        a = rng.standard_normal((16, 128)).astype(np.float32)
        b = rng.standard_normal((128, 16)).astype(np.float32)
        full = tcgemm(a, b)
        chunked = tcgemm(a, b, chunk_k=32)
        np.testing.assert_allclose(chunked, full, rtol=1e-4, atol=1e-4)

    def test_chunk_larger_than_k(self, rng):
        a = rng.standard_normal((4, 8)).astype(np.float32)
        b = rng.standard_normal((8, 4)).astype(np.float32)
        np.testing.assert_array_equal(tcgemm(a, b, chunk_k=100), tcgemm(a, b))

    def test_result_dtype_float32(self, rng):
        out = tcgemm(rng.standard_normal((3, 4)), rng.standard_normal((4, 5)))
        assert out.dtype == np.float32

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ShapeError):
            tcgemm(np.zeros((3, 4)), np.zeros((5, 3)))

    def test_rejects_1d(self):
        with pytest.raises(ShapeError):
            tcgemm(np.zeros(3), np.zeros((3, 2)))

    def test_rejects_bad_chunk(self, rng):
        with pytest.raises(ValueError):
            tcgemm(rng.standard_normal((4, 4)), rng.standard_normal((4, 4)), chunk_k=0)

    @pytest.mark.parametrize("fmt,eps", [("bf16", BF16_EPS), ("tf32", TF32_EPS)])
    def test_other_formats_error_levels(self, rng, fmt, eps):
        a = rng.standard_normal((64, 64)).astype(np.float32)
        b = rng.standard_normal((64, 64)).astype(np.float32)
        exact = a.astype(np.float64) @ b.astype(np.float64)
        err = np.abs(tcgemm(a, b, operand_format=fmt) - exact).max() / np.abs(exact).max()
        assert err < 100 * eps * np.sqrt(64)


class TestEcTcgemm:
    def test_recovers_fp32_accuracy(self, rng):
        a = rng.standard_normal((64, 96)).astype(np.float32)
        b = rng.standard_normal((96, 48)).astype(np.float32)
        exact = a.astype(np.float64) @ b.astype(np.float64)
        scale = np.abs(exact).max()
        err_ec = np.abs(ec_tcgemm(a, b) - exact).max() / scale
        err_tc = np.abs(tcgemm(a, b) - exact).max() / scale
        assert err_ec < 1e-6          # fp32-grade
        assert err_tc > 50 * err_ec   # and much better than plain TC

    def test_comparable_to_sgemm(self, rng):
        a = rng.standard_normal((32, 32)).astype(np.float32)
        b = rng.standard_normal((32, 32)).astype(np.float32)
        exact = a.astype(np.float64) @ b.astype(np.float64)
        err_ec = np.abs(ec_tcgemm(a, b) - exact).max()
        err_sg = np.abs((a @ b) - exact).max()
        assert err_ec < 16 * max(err_sg, FP32_EPS)

    def test_shape_checks(self):
        with pytest.raises(ShapeError):
            ec_tcgemm(np.zeros((2, 3)), np.zeros((4, 2)))

    def test_wide_dynamic_range(self, rng):
        # Entries spanning many orders of magnitude: the scaled residual
        # split must not underflow away the small entries' corrections.
        a = (rng.standard_normal((32, 32)) * 10.0 ** rng.uniform(-3, 3, (32, 32))).astype(np.float32)
        b = rng.standard_normal((32, 32)).astype(np.float32)
        exact = a.astype(np.float64) @ b.astype(np.float64)
        err = np.abs(ec_tcgemm(a, b) - exact).max() / np.abs(exact).max()
        assert err < 1e-5


class TestPrecisionEnum:
    def test_from_name_roundtrip(self):
        for mode in Precision:
            assert Precision.from_name(mode.value) is mode
            assert Precision.from_name(mode) is mode

    def test_from_name_case_insensitive(self):
        assert Precision.from_name("FP16_TC") is Precision.FP16_TC

    def test_from_name_unknown(self):
        with pytest.raises(ValueError, match="unknown precision"):
            Precision.from_name("fp8")

    def test_tensor_core_flags(self):
        assert Precision.FP16_TC.uses_tensor_core
        assert Precision.FP16_EC_TC.uses_tensor_core
        assert not Precision.FP32.uses_tensor_core
        assert not Precision.FP64.uses_tensor_core

    def test_error_corrected_flag(self):
        assert Precision.FP16_EC_TC.is_error_corrected
        assert not Precision.FP16_TC.is_error_corrected

    def test_machine_eps_ordering(self):
        assert Precision.FP64.machine_eps < Precision.FP32.machine_eps
        assert Precision.FP32.machine_eps < Precision.FP16_TC.machine_eps
        assert Precision.FP16_TC.machine_eps < Precision.BF16_TC.machine_eps

    def test_ec_eps_is_fp32(self):
        assert Precision.FP16_EC_TC.machine_eps == Precision.FP32.machine_eps

    def test_working_dtype(self):
        assert Precision.FP64.working_dtype == np.float64
        for mode in (Precision.FP32, Precision.FP16_TC, Precision.FP16_EC_TC):
            assert mode.working_dtype == np.float32

    def test_round_operand_matches_format(self, rng):
        x = rng.standard_normal(100).astype(np.float32)
        np.testing.assert_array_equal(Precision.FP16_TC.round_operand(x), round_fp16(x))
        np.testing.assert_array_equal(Precision.TF32_TC.round_operand(x), round_tf32(x))
