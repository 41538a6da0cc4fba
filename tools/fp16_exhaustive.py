"""Exhaustive check of the FP16 rounding kernel against NumPy's cast.

Feeds every one of the 2^32 float32 bit patterns through
:func:`repro.precision.round_fp16` and compares the result, bit pattern
for bit pattern, with ``x.astype(np.float16).astype(np.float32)``.
(The hi/lo split applies the same elementwise kernel to ``x`` and to a
float32 residual, which is itself one of these patterns.)

Exits 0 when nothing differs and 1 otherwise, printing the first
mismatches.  Not collected by pytest; run it directly::

    PYTHONPATH=src python tools/fp16_exhaustive.py --workers 2

A full sweep takes about five minutes on two cores of a 2-core x86
machine.
"""

from __future__ import annotations

import argparse
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.precision import round_fp16

CHUNK = 1 << 22


def check_chunk(start: int) -> tuple[int, list]:
    """Mismatch count and the first few mismatches over one chunk of patterns."""
    bits = np.arange(start, start + CHUNK, dtype=np.uint64).astype(np.uint32)
    x = bits.view(np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        got = round_fp16(x).view(np.uint32)
        ref = x.astype(np.float16).astype(np.float32).view(np.uint32)
    bad = np.flatnonzero(got != ref)
    return int(bad.size), [(int(bits[i]), int(got[i]), int(ref[i])) for i in bad[:5]]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workers", type=int, default=1)
    args = p.parse_args(argv)
    if not 1 <= args.workers <= 64:
        p.error("--workers must be between 1 and 64")

    starts = range(0, 1 << 32, CHUNK)
    total, examples = 0, []
    t0 = time.perf_counter()
    with ProcessPoolExecutor(max_workers=args.workers) as pool:
        for i, (count, found) in enumerate(pool.map(check_chunk, starts), 1):
            total += count
            examples.extend(found[: max(0, 10 - len(examples))])
            if i % 128 == 0 or i == len(starts):
                print(f"{i}/{len(starts)} chunks, {total} mismatches, "
                      f"{time.perf_counter() - t0:.0f} s", flush=True)
    for xb, got, want in examples:
        print(f"MISMATCH: x=0x{xb:08x} got=0x{got:08x} want=0x{want:08x}")
    print(f"checked {1 << 32} float32 patterns in {time.perf_counter() - t0:.0f} s: "
          f"{total} mismatches")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
