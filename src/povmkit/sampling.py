"""Random generators for states, unitaries, measures and no-signaling boxes.

All generators take an explicit ``numpy.random.Generator`` so sweeps and
property tests stay reproducible under a fixed seed.
"""

from __future__ import annotations

import numpy as np

from .feasibility import MarginalSet
from .measures import PvmMeasure
from .operators import DEFAULT_TOL, State
from .tables import ProbabilityTable


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix with phase fixing."""
    ginibre = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(ginibre)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q @ np.diag(phases.conj())


def random_pure_state(dim: int, rng: np.random.Generator) -> State:
    """Haar-random pure state."""
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return State.pure(vec)


def random_density_matrix(dim: int, rng: np.random.Generator, rank: int | None = None) -> State:
    """Random mixed state ``G G^dag / Tr`` from a Ginibre block of given rank."""
    k = dim if rank is None else int(rank)
    block = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    rho = block @ block.conj().T
    return State(rho / np.trace(rho).real)


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random Hermitian matrix with independent Gaussian entries."""
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (raw + raw.conj().T) / 2.0


def random_basis_pvm(dim: int, rng: np.random.Generator) -> PvmMeasure:
    """Maximal PVM of a Haar-random orthonormal basis."""
    u = random_unitary(dim, rng)
    elements = [np.outer(u[:, k], u[:, k].conj()) for k in range(dim)]
    return PvmMeasure(elements)


def random_no_signaling_marginals(rng: np.random.Generator, tol: float = DEFAULT_TOL) -> MarginalSet:
    """Uniform-ish sample of the full no-signaling polytope of 2x2x2 boxes.

    Single-variable means are drawn first; each pair correlator is then drawn
    uniformly from its exact admissible interval, so every sample is a valid
    no-signaling box and extremal (CHSH-violating) corners stay reachable.
    """
    mean_a, mean_ap, mean_b, mean_bp = rng.uniform(-1.0, 1.0, size=4)

    def table(mean_x: float, mean_y: float) -> ProbabilityTable:
        low = abs(mean_x + mean_y) - 1.0
        high = 1.0 - abs(mean_x - mean_y)
        corr = rng.uniform(low, high) if high > low else low
        values = np.empty((2, 2))
        for i, sx in enumerate((1.0, -1.0)):
            for j, sy in enumerate((1.0, -1.0)):
                values[i, j] = (1.0 + sx * mean_x + sy * mean_y + sx * sy * corr) / 4.0
        return ProbabilityTable(np.clip(values, 0.0, None), tol=tol)

    return MarginalSet(
        ab=table(mean_a, mean_b),
        abp=table(mean_a, mean_bp),
        apb=table(mean_ap, mean_b),
        apbp=table(mean_ap, mean_bp),
        tol=tol,
    )


def pr_box_marginals(tol: float = DEFAULT_TOL) -> MarginalSet:
    """Extremal no-signaling box reaching the algebraic CHSH maximum of 4."""
    correlated = ProbabilityTable([[0.5, 0.0], [0.0, 0.5]], tol=tol)
    anticorrelated = ProbabilityTable([[0.0, 0.5], [0.5, 0.0]], tol=tol)
    return MarginalSet(
        ab=correlated, abp=correlated, apb=correlated, apbp=anticorrelated, tol=tol
    )


def mix_marginals(
    first: MarginalSet, second: MarginalSet, weight: float, tol: float = DEFAULT_TOL
) -> MarginalSet:
    """Entrywise convex combination ``weight * first + (1 - weight) * second``.

    No-signaling is preserved under mixing, so interpolating a random box
    toward the extremal one yields samples on both sides of the CHSH boundary.
    """
    w = float(weight)
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {weight!r}")
    tables = [
        ProbabilityTable(w * a.values + (1.0 - w) * b.values, tol=tol)
        for a, b in zip(first.tables(), second.tables())
    ]
    return MarginalSet.from_tables(tables, tol=tol)
