"""The benchmark's workloads: seeded inputs, the timed call, the output check.

Every input comes from ``repro.matrices.generate_symmetric`` driven by a
``numpy.random.default_rng(seed)``; the program under test only ever sees
the generated arrays.  Every public entry point is called with explicit
arguments, so a renamed or removed argument fails the run instead of
silently falling back to another configuration.  Arguments that are not
passed (``bulge_variant``, ``tridiag_solver``, ``on_breakdown``,
``workspace`` and every other ``JobSpec`` field) are left at their
defaults on purpose: a change of default is then measured.

Each check raises :class:`CheckFailed` when a measured error crosses its
bound.  The bounds come from ``repro.metrics.bounds`` at the precision the
call ran in; :func:`bounds_table` lists them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields

import numpy as np

import repro
from repro.metrics import (
    backward_error,
    eigenvalue_error,
    orthogonality_error,
    sbr_backward_error_bound,
    sbr_orthogonality_bound,
)

#: Spectrum class of every generated matrix.
DISTRIBUTION = "geo"
COND = 1e3
#: Stage-1 precision of the direct EVD/SBR workloads.
PRECISION = "fp16_ec_tc"
#: Inputs generated per run (and per serve class); calls cycle through them.
POOL = 2


class CheckFailed(Exception):
    """An output missed its accuracy bound or has the wrong structure."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def generate_symmetric(n: int, rng: np.random.Generator):
    """One seeded symmetric matrix and its exact spectrum."""
    return repro.generate_symmetric(n, distribution=DISTRIBUTION, cond=COND, rng=rng)


def _matrices(n: int, rng: np.random.Generator, count: int) -> list:
    return [generate_symmetric(n, rng) for _ in range(count)]


def check_eigenvalues(a, lam_true, lam, bound: float) -> float:
    """Eigenvalues against the generated spectrum and ``numpy.linalg.eigh``."""
    lam = np.asarray(lam, dtype=np.float64)
    _require(lam.shape == lam_true.shape, f"got {lam.shape} eigenvalues, want {lam_true.shape}")
    _require(bool(np.all(np.isfinite(lam))), "non-finite eigenvalue")
    err = max(
        eigenvalue_error(lam_true, lam),
        eigenvalue_error(np.linalg.eigvalsh(a), lam),
    )
    _require(err <= bound, f"eigenvalue error {err:.3e} > bound {bound:.3e}")
    return err


@dataclass
class EvdVec:
    """``syevd_2stage`` with eigenvectors, as a user calls it."""

    n: int = 384
    b: int = 32
    nb: int = 128

    def inputs(self, rng):
        return _matrices(self.n, rng, POOL)

    def call(self, inp):
        a, _ = inp
        return repro.syevd_2stage(
            a, b=self.b, nb=self.nb, precision=PRECISION, want_vectors=True
        )

    def warmup(self):
        a, _ = generate_symmetric(self.nb, np.random.default_rng(0))
        self.call((a, None))

    def bounds(self) -> dict:
        return {
            "eig_rel_err": sbr_backward_error_bound(self.n, self.b, precision=PRECISION),
            "residual": sbr_backward_error_bound(self.n, self.b, precision=PRECISION),
            "orth": sbr_orthogonality_bound(self.n, self.b, precision=PRECISION),
        }

    def check(self, inp, res) -> dict:
        a, lam_true = inp
        bnd = self.bounds()
        lam, x = res.eigenvalues, res.eigenvectors
        err = check_eigenvalues(a, lam_true, lam, bnd["eig_rel_err"])
        _require(x is not None and x.shape == a.shape, "eigenvectors missing")
        resid = float(np.linalg.norm(a @ x - x * lam)) / (self.n * float(np.linalg.norm(a)))
        _require(resid <= bnd["residual"], f"residual {resid:.3e} > {bnd['residual']:.3e}")
        orth = orthogonality_error(x)
        _require(orth <= bnd["orth"], f"orthogonality {orth:.3e} > {bnd['orth']:.3e}")
        return {"acc.eig_rel_err": err, "acc.residual": resid, "acc.orth": orth}


@dataclass
class SbrN2048:
    """The paper's stage 1 alone: WY band reduction with Q formed."""

    n: int = 2048
    b: int = 32
    nb: int = 256

    def inputs(self, rng):
        return _matrices(self.n, rng, POOL)

    def call(self, inp):
        a, _ = inp
        return repro.sbr_wy(
            a, self.b, self.nb, engine=repro.make_engine(PRECISION), want_q=True
        )

    def warmup(self):
        a, _ = generate_symmetric(self.nb, np.random.default_rng(0))
        self.call((a, None))

    def bounds(self) -> dict:
        return {
            "sbr_backward_err": sbr_backward_error_bound(self.n, self.b, precision=PRECISION),
            "orth": sbr_orthogonality_bound(self.n, self.b, precision=PRECISION),
        }

    def check(self, inp, res) -> dict:
        a, _ = inp
        bnd = self.bounds()
        band, q = res.band, res.q
        _require(q is not None and band.shape == a.shape, "band or Q missing")
        _require(
            not np.any(np.triu(band, self.b + 1)) and not np.any(np.tril(band, -self.b - 1)),
            f"result is not banded with bandwidth {self.b}",
        )
        berr = backward_error(a, q, band)
        _require(berr <= bnd["sbr_backward_err"],
                 f"backward error {berr:.3e} > {bnd['sbr_backward_err']:.3e}")
        orth = orthogonality_error(q)
        _require(orth <= bnd["orth"], f"orthogonality {orth:.3e} > {bnd['orth']:.3e}")
        return {"acc.sbr_backward_err": berr, "acc.orth": orth}


@dataclass
class SvdBanded:
    """Two-stage banded SVD of the upper band of a seeded matrix."""

    n: int = 384
    bw: int = 16

    def _band(self, a):
        return np.triu(a) - np.triu(a, self.bw + 1)

    def inputs(self, rng):
        return [(self._band(a), None) for a, _ in _matrices(self.n, rng, POOL)]

    def call(self, inp):
        band, _ = inp
        return repro.svd_banded(band, self.bw)

    def warmup(self):
        a, _ = generate_symmetric(4 * self.bw, np.random.default_rng(0))
        self.call((self._band(a), None))

    def bounds(self) -> dict:
        # The whole path runs in float64.
        return {"svd_rel_err": sbr_backward_error_bound(self.n, self.bw, precision="fp64")}

    def check(self, inp, res) -> dict:
        band, _ = inp
        _, s, _ = res
        bound = self.bounds()["svd_rel_err"]
        s_ref = np.linalg.svd(band, compute_uv=False)
        _require(s.shape == s_ref.shape and bool(np.all(np.isfinite(s))), "bad singular values")
        err = eigenvalue_error(s_ref, s)
        _require(err <= bound, f"singular value error {err:.3e} > bound {bound:.3e}")
        return {"acc.svd_rel_err": err}


#: The serve-mix job classes: priority and the JobSpec fields set explicitly.
SERVE_CLASSES = (
    ("interactive", {"coalescible": True, "want_vectors": False}),
    ("standard", {"want_vectors": True}),
    ("batch", {"checkpointed": True}),
)


@dataclass
class ServeMix:
    """Closed-loop clients in lockstep on ``EvdService(workers=2)``."""

    #: Matrix size of each class in ``SERVE_CLASSES``.
    sizes: tuple = (64, 96, 128)
    b: int = 8
    clients: int = 2
    workers: int = 2

    def inputs(self, rng):
        return {
            prio: _matrices(n, rng, POOL)
            for (prio, _), n in zip(SERVE_CLASSES, self.sizes)
        }

    def cycle(self, pool, rng, k: int):
        """Cycle ``k`` of rounds, each round one (priority, input, JobSpec) per client.

        A cycle holds every combination of classes across the clients
        once, in an order drawn from ``rng``.  Jobs of one round run side
        by side and share the interpreter, so a job's time depends on its
        neighbour's class; whole cycles keep that mix the same in every
        run.
        """
        from repro.serve import JobSpec

        combos = list(itertools.product(range(len(SERVE_CLASSES)), repeat=self.clients))
        for i in rng.permutation(len(combos)):
            jobs = []
            for client, c in enumerate(combos[i]):
                prio, spec_fields = SERVE_CLASSES[c]
                inp = pool[prio][(k + client) % POOL]
                jobs.append((prio, inp, JobSpec(a=inp[0], b=self.b, priority=prio, **spec_fields)))
            yield jobs

    def bounds(self) -> dict:
        from repro.serve import JobSpec

        # The jobs keep JobSpec's default precision; the bound follows it.
        precision = next(f.default for f in fields(JobSpec) if f.name == "precision")
        return {
            f"eig_rel_err.{prio}": sbr_backward_error_bound(n, self.b, precision=precision)
            for (prio, _), n in zip(SERVE_CLASSES, self.sizes)
        }

    def check(self, prio, inp, result) -> dict:
        a, lam_true = inp
        _require(result is not None, "job did not finish in time")
        _require(result.outcome == "done", f"job outcome {result.outcome!r}: {result.error}")
        err = check_eigenvalues(a, lam_true, result.eigenvalues,
                                self.bounds()[f"eig_rel_err.{prio}"])
        return {"acc.eig_rel_err": err}


WORKLOADS = {
    "evd-vec": EvdVec,
    "sbr-n2048": SbrN2048,
    "svd-banded": SvdBanded,
    "serve-mix": ServeMix,
}


def bounds_table() -> dict:
    """Every accuracy bound the checks apply, per workload at full size."""
    return {name: cls().bounds() for name, cls in WORKLOADS.items()}
