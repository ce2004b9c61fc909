"""Mirror side: superpotential, bounded domain, and numeric critical points.

The superpotential W is the Laurent polynomial sum_i e^{lambda_i} z^{v_i},
a plain ``ZLaurent`` with its terms in ray order.  The rest reads only W's
terms: z_j dW/dz_j scales the term at v by v_j, and Newton takes its
exponent rows and coefficients from them.  Critical points of the log
derivatives are found by multistart Newton iteration in logarithmic
coordinates u (z = exp(u)), which keeps iterates off the coordinate
hyperplanes and makes deduplication well defined modulo 2*pi in each
imaginary part.  Starts iterate together as one S x n batch with one
batched linear solve per step.  The Newton settings are fixed: 50 starts per
expected root (``SolverConfig.start_count``), at most ``MAX_ITER`` = 80
steps, and roots closer than ``DEDUP_TOL`` = 1e-6 in log coordinates are one
root.  A start converges when each |z_j dW/dz_j| is below ``TOL`` = 1e-12
times min(1, sum_i |v_ij| |t_i|), the size of that equation's own terms
t_i, so a root means the same at every scale of q.  A caller that has proved
W has at most k roots may pass k seed starts; they run first, and the
random starts are drawn and run only when the seeds miss a root.  The random
starts come from one seeded stdlib stream (``random.Random(seed)``, one
``randbytes`` call), so no command loads numpy.random.

Only the float code (``critical_points`` and its helpers) imports numpy, so
the exact commands that build W or its log derivatives never load it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .errors import (
    DegenerateSpectrum,
    IncompleteRootSet,
    ZeroCoordinate,
)
from .disc_algebra import QLaurent
from .syz_transform import ZLaurent
from .toric_core import q_vector


def superpotential(data) -> ZLaurent:
    """W = sum_i e^{lambda_i} z^{v_i}, its terms in ray order."""
    return ZLaurent._wrap(
        {v: QLaurent.monomial(e) for v, e in zip(data.rays, data.lambda_exponents)}
    )


def jacobian_generators(w: ZLaurent):
    """The logarithmic derivatives z_j dW/dz_j: the term at v scaled by v_j."""
    n = len(next(iter(w.terms)))
    return [
        ZLaurent._wrap({v: c.scale(v[j]) for v, c in w.terms.items() if v[j]})
        for j in range(n)
    ]


def _coefficients(w: ZLaurent, q_numeric):
    """Numeric coefficient of each term of W at positive q, in term order."""
    some_q_exponent = next(iter(next(iter(w.terms.values())).terms))
    q = q_vector(q_numeric, len(some_q_exponent))
    return [c.evaluate(q) for c in w.terms.values()]


def domain_membership(data, z, q_numeric):
    """Whether |e^{lambda_i} z^{v_i}| < 1 for every i at numeric q."""
    zv = [complex(c) for c in z]
    if any(c == 0 for c in zv):
        raise ZeroCoordinate("mirror coordinates must be nonzero")
    w = superpotential(data)
    for v, mono in zip(w.terms, _coefficients(w, q_numeric)):
        for zj, vj in zip(zv, v):
            mono *= abs(zj) ** vj
        if not mono < 1.0:
            return False
    return True


MAX_ITER = 80
TOL = 1e-12
DEDUP_TOL = 1e-6


@dataclass
class SolverConfig:
    expected_count: int
    seed: int = 0

    def start_count(self):
        return 50 * self.expected_count


@dataclass
class CriticalPointSet:
    points: tuple              # tuples of complex mirror coordinates
    values: tuple              # W at each point
    monomial_values: tuple     # per point, the d complex term values
    residuals: tuple           # max |z_j dW/dz_j| at each point
    failed_starts: int = 0     # of the starts that ran
    starts: int = 0            # that ran, seeds included

    def __len__(self):
        return len(self.points)


def _wrapped_distances(us, u):
    """Largest coordinate gap from each row of ``us`` to ``u``, modulo 2*pi i."""
    import numpy as np

    dre = np.abs(us.real - u.real)
    dim = np.abs(us.imag - u.imag) % (2 * np.pi)
    return np.max(np.maximum(dre, np.minimum(dim, 2 * np.pi - dim)), axis=-1)


def _newton(rays, coeffs, u):
    """Iterate the S x n starts ``u`` in place, as one batch; mask of converged.

    A start converges when every |z_j dW/dz_j| is below ``TOL`` times the
    smaller of 1 and the sum of the absolute values of its terms.  It fails
    when its exponents blow up, its residual stops being finite, its Jacobian
    is singular or it has not converged after ``MAX_ITER`` steps.
    """
    import numpy as np

    n = rays.shape[1]
    outer = (rays[:, :, None] * rays[:, None, :]).reshape(len(rays), n * n)
    active = np.arange(len(u))
    done = np.zeros(len(u), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(MAX_ITER):
            if not active.size:
                break
            expo = u[active] @ rays.T                         # (S, d)
            live = np.max(expo.real, axis=1) <= 50.0
            t = coeffs * np.exp(expo)
            f = t @ rays                                      # (S, n)
            live &= np.all(np.isfinite(f), axis=1)
            scale = np.minimum(1.0, np.abs(t) @ np.abs(rays))
            conv = live & np.all(np.abs(f) < TOL * scale, axis=1)
            done[active[conv]] = True
            keep = live & ~conv
            jac = (t[keep] @ outer).reshape(-1, n, n)          # (S, n, n)
            try:
                step = np.linalg.solve(jac, -f[keep, :, None])
            except np.linalg.LinAlgError:
                regular = np.linalg.slogdet(jac)[0] != 0
                keep[keep] = regular
                step = np.linalg.solve(jac[regular], -f[keep, :, None])
            del jac  # hold one Jacobian batch at a time
            active = active[keep]
            u[active] += step[..., 0]
    return done


def _random_starts(seed, count, n):
    """``count`` x n log-coordinate starts, Re u in [-3, 3) and Im u in [0, 2*pi).

    One seeded stdlib stream gives all 2 * count * n values from one
    ``randbytes`` call: each 64-bit word keeps its top 53 bits, k / 2**53, the
    uniforms ``random.random()`` makes.  numpy.random is never loaded.
    """
    import random

    import numpy as np

    words = np.frombuffer(random.Random(seed).randbytes(16 * count * n), dtype="<u8")
    re, im = ((words >> 11) * 2.0 ** -53).reshape(2, count, n)
    return (6.0 * re - 3.0) + 1j * (2 * np.pi * im)


def critical_points(w: ZLaurent, q_numeric, config: SolverConfig, seeds=None):
    """Multistart Newton search for all roots of z_j dW/dz_j = 0.

    ``seeds`` are log-coordinate starts that run first, as their own batch;
    a caller gives them only when W has at most ``len(seeds)`` roots, so the
    random starts, one array run as one batch, are drawn and run only when
    the seeds miss a root.  Roots are deduplicated in run order and sorted
    canonically, so the result is deterministic for a fixed seed.  Raises
    IncompleteRootSet unless exactly ``expected_count`` roots are found.
    """
    import numpy as np

    rays = np.array(list(w.terms), dtype=float)      # (d, n)
    n = rays.shape[1]
    coeffs = np.array(_coefficients(w, q_numeric))   # (d,)
    roots, ran, failed = [], 0, 0
    for batch in [None] if seeds is None else [np.array(seeds, dtype=complex), None]:
        if batch is None:  # the random starts, drawn only when they run
            if seeds is not None and len(roots) == len(seeds):
                break
            batch = _random_starts(config.seed, config.start_count(), n)
        ran += len(batch)
        converged = batch[_newton(rays, coeffs, batch)]
        failed += len(batch) - len(converged)
        converged.imag %= 2 * np.pi
        for root in roots:
            converged = converged[_wrapped_distances(converged, root) >= DEDUP_TOL]
        while len(converged):
            roots.append(converged[0])
            converged = converged[_wrapped_distances(converged, roots[-1]) >= DEDUP_TOL]

    if len(roots) != config.expected_count:
        raise IncompleteRootSet(
            f"found {len(roots)} distinct critical points, expected "
            f"{config.expected_count} ({failed} of {ran} "
            f"starts failed to converge)"
        )

    records = []
    for u in roots:
        t = coeffs * np.exp(rays @ u)
        z = tuple(complex(x) for x in np.exp(u))
        value = complex(np.sum(t))
        resid = float(np.max(np.abs(rays.T @ t)))
        records.append((value, z, tuple(complex(x) for x in t), resid, u))
    records.sort(
        key=lambda rec: (rec[0].real, rec[0].imag)
        + tuple(x for zj in rec[1] for x in (zj.real, zj.imag))
    )

    logs = np.array([rec[4] for rec in records]).reshape(len(records), n)
    near = _wrapped_distances(logs[:, None], logs[None]) < 10 * DEDUP_TOL
    if np.count_nonzero(near) > np.count_nonzero(np.diag(near)):
        warnings.warn(
            "two critical points nearly coincide; spectra may be degenerate",
            DegenerateSpectrum,
        )

    return CriticalPointSet(
        points=tuple(rec[1] for rec in records),
        values=tuple(rec[0] for rec in records),
        monomial_values=tuple(rec[2] for rec in records),
        residuals=tuple(rec[3] for rec in records),
        failed_starts=failed,
        starts=ran,
    )


def evaluate_at_critical(phi: ZLaurent, cps: CriticalPointSet, q_numeric):
    """Values of a Laurent object at every critical point."""
    qv = [float(x) for x in q_numeric]
    out = []
    for z in cps.points:
        if any(zj == 0 for zj in z):
            raise ZeroCoordinate("critical point has a vanishing coordinate")
        out.append(phi.evaluate(z, qv))
    return out
