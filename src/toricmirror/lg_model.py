"""Mirror side: superpotential, bounded domain, and numeric critical points.

The superpotential is the d-term Laurent object sum_i e^{lambda_i} z^{v_i}.
Critical points of its logarithmic derivatives are found by multistart
Newton iteration in logarithmic coordinates u (z = exp(u)), which keeps
iterates off the coordinate hyperplanes and makes deduplication well defined
modulo 2*pi in each imaginary part.  All starts iterate together as one
S x n batch with one batched linear solve per step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrum,
    IncompleteRootSet,
    ZeroCoordinate,
)
from .disc_algebra import QLaurent
from .syz_transform import ZLaurent


@dataclass(frozen=True)
class Superpotential:
    """The mirror Laurent function together with its source data."""

    data: object
    terms: ZLaurent

    def coefficients(self, q_numeric):
        """Numeric coefficient of each ray's term at positive q."""
        return [self.terms.terms[v].evaluate(q_numeric) for v in self.data.rays]


def superpotential(data) -> Superpotential:
    zl = ZLaurent(
        {
            data.rays[i]: QLaurent.monomial(data.lambda_exponents[i])
            for i in range(data.d)
        }
    )
    return Superpotential(data=data, terms=zl)


def jacobian_generators(w: Superpotential):
    """The n logarithmic derivatives z_j dW/dz_j = sum_i v_i^j e^{lambda_i} z^{v_i}."""
    data = w.data
    gens = []
    for j in range(data.n):
        gens.append(
            ZLaurent(
                [
                    (data.rays[i], QLaurent.monomial(data.lambda_exponents[i], data.rays[i][j]))
                    for i in range(data.d)
                    if data.rays[i][j]
                ]
            )
        )
    return gens


def domain_membership(data, z, q_numeric):
    """Whether |e^{lambda_i} z^{v_i}| < 1 for every i at numeric q."""
    zv = [complex(c) for c in z]
    if any(c == 0 for c in zv):
        raise ZeroCoordinate("mirror coordinates must be nonzero")
    coeffs = superpotential(data).coefficients(q_numeric)
    for i in range(data.d):
        mono = coeffs[i]
        for zj, vj in zip(zv, data.rays[i]):
            mono *= abs(zj) ** vj
        if not mono < 1.0:
            return False
    return True


@dataclass
class SolverConfig:
    expected_count: int
    starts: int | None = None
    max_iter: int = 80
    tol: float = 1e-12
    dedup_tol: float = 1e-6
    seed: int = 0

    def start_count(self):
        return self.starts if self.starts is not None else 50 * self.expected_count


@dataclass
class CriticalPointSet:
    points: tuple              # tuples of complex mirror coordinates
    values: tuple              # W at each point
    monomial_values: tuple     # per point, the d complex term values
    residuals: tuple           # max |z_j dW/dz_j| at each point
    failed_starts: int = 0

    def __len__(self):
        return len(self.points)


def _wrapped_distances(us, u):
    """Largest coordinate gap from each row of ``us`` to ``u``, modulo 2*pi i."""
    dre = np.abs(us.real - u.real)
    dim = np.abs(us.imag - u.imag) % (2 * np.pi)
    return np.max(np.maximum(dre, np.minimum(dim, 2 * np.pi - dim)), axis=-1)


def _newton(rays, coeffs, u, config):
    """Iterate the S x n starts ``u`` in place, as one batch; mask of converged.

    A start fails when its exponents blow up, its residual stops being finite,
    its Jacobian is singular or it has not converged after ``max_iter`` steps.
    """
    n = rays.shape[1]
    outer = (rays[:, :, None] * rays[:, None, :]).reshape(len(rays), n * n)
    active = np.arange(len(u))
    done = np.zeros(len(u), dtype=bool)
    for _ in range(config.max_iter):
        if not active.size:
            break
        expo = u[active] @ rays.T                         # (S, d)
        live = np.max(expo.real, axis=1) <= 50.0
        with np.errstate(over="ignore", invalid="ignore"):
            t = coeffs * np.exp(expo)
            f = t @ rays                                  # (S, n)
        live &= np.all(np.isfinite(f), axis=1)
        conv = live & (np.max(np.abs(f), axis=1) < config.tol)
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


def critical_points(w: Superpotential, q_numeric, config: SolverConfig):
    """Multistart Newton search for all roots of z_j dW/dz_j = 0.

    All starts are drawn as one array and iterated as one batch.  Roots are
    deduplicated in draw order and sorted canonically, so the result is
    deterministic for a fixed seed.  Raises IncompleteRootSet unless exactly
    ``expected_count`` distinct roots are found.
    """
    data = w.data
    n = data.n
    rays = np.array(data.rays, dtype=float)          # (d, n)
    coeffs = np.array(w.coefficients(q_numeric))     # (d,)
    rng = np.random.default_rng(config.seed)
    shape = (config.start_count(), n)
    u = rng.uniform(-3.0, 3.0, shape) + 1j * rng.uniform(0.0, 2 * np.pi, shape)
    converged = u[_newton(rays, coeffs, u, config)]
    failed = len(u) - len(converged)
    converged.imag %= 2 * np.pi

    roots = []
    while len(converged):
        root, converged = converged[0], converged[1:]
        roots.append(root)
        converged = converged[_wrapped_distances(converged, root) >= config.dedup_tol]

    if len(roots) != config.expected_count:
        raise IncompleteRootSet(
            f"found {len(roots)} distinct critical points, expected "
            f"{config.expected_count} ({failed} of {len(u)} "
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
    near = _wrapped_distances(logs[:, None], logs[None]) < 10 * config.dedup_tol
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
