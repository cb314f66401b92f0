"""Generalized two-photon polarization correlation experiment.

Each photon of a correlated pair meets a semi-transparent mirror of
transmissivity ``gamma`` that routes it either to a polarization analyzer at
angle ``theta`` (transmitted beam, detector D) or to one at angle ``theta'``
(reflected beam, detector D').  Per arm the detector statistics form a
bivariate POVM realizing a joint nonideal measurement of the two polarization
observables; the two arms combine into a quadrivariate product POVM whose
joint outcome distribution always exists at a fixed arrangement.  The four
limiting arrangements with ``gamma`` in {0, 1} reproduce the standard
photon-correlation experiments whose combined statistics violate CHSH.

Outcome convention per arm: index ``(m, n)`` with ``m`` the click variable of
detector D and ``n`` of detector D'; ``'+'`` means a click.  A single photon
cannot fire both detectors, so the ``(+, +)`` element is the zero operator,
and ``(-, -)`` collects the analyzer outcomes that reach neither detector.

Correlator convention: analyzer projectors lie in the linear-polarization
plane, ``E(theta)+`` projecting onto ``(cos theta, sin theta)``.  With the
default maximally entangled pair (the singlet) two ideal analyzers give the
correlator ``-cos 2(theta1 - theta2)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatchError, InternalConsistencyError, ValidationError
from .measures import PovmMeasure, PvmMeasure, _stack_violations
from .operators import DEFAULT_TOL, State, tensor
from .tables import ProbabilityTable

#: The four limiting mirror settings of the standard experiments, paired with
#: the quadrivariate axes summed out there; the other two axes carry the
#: informative outcomes.
STANDARD_GAMMA_PAIRS = ((1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0))
_STANDARD_DROPPED_AXES = ((1, 3), (1, 2), (0, 3), (0, 2))

#: Sign placements of the eight CHSH combinations: every pattern
#: ``(s1, s2, s3, s4)`` over the correlators (E11, E12, E21, E22) whose sign
#: product is -1.
CHSH_SIGN_PATTERNS = tuple(
    signs
    for signs in itertools.product((1, -1), repeat=4)
    if signs[0] * signs[1] * signs[2] * signs[3] == -1
)


_SIGN_LABELS = ("+", "-")
_ARM_LABELS = (("+", "+"), ("+", "-"), ("-", "+"), ("-", "-"))
_ANGLE_NAMES = ("theta1", "theta1p", "theta2", "theta2p")


def _finite_angles(angles, names: Sequence[str]) -> np.ndarray:
    values = np.array([float(a) for a in angles])
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValidationError(f"angle {names[bad[0]]} is non-finite: {float(values[bad[0]])!r}")
    return values


def _polarization_stack(angles, names: Sequence[str]) -> np.ndarray:
    """Unvalidated ``(N, 2, 2, 2)`` projector pairs ``(E+, E-)`` for N plane angles."""
    theta = _finite_angles(angles, names)
    c, s = np.cos(theta), np.sin(theta)
    vectors = np.stack([c, s, -s, c], axis=-1).reshape(-1, 2, 2)
    return (vectors[..., :, None] * vectors[..., None, :]).astype(complex)


def _arm_stacks(gammas, angles, names: Sequence[str], tol: float) -> np.ndarray:
    """Validated arm POVMs of shape ``(A, G, 4, 2, 2)`` in ``_ARM_LABELS`` order.

    ``gammas`` has shape ``(A, G)``: G mirror settings for each of A arms;
    ``angles`` lists ``theta, theta'`` per arm.  One stacked validation covers
    the analyzer projectors of all angles, one more every arm POVM.
    """
    projectors = _polarization_stack(angles, names)
    direct, reflected = projectors[0::2, None], projectors[1::2, None]
    g = np.asarray(gammas, dtype=float)
    w = g[..., None, None]
    zero = np.zeros(g.shape + (2, 2), dtype=complex)
    arms = np.stack([zero, w * direct[:, :, 0], (1.0 - w) * reflected[:, :, 0],
                     w * direct[:, :, 1] + (1.0 - w) * reflected[:, :, 1]], axis=-3)
    for stack, projective in ((projectors, True), (arms, False)):
        invalid = _stack_violations(stack, tol, projective)
        if invalid:
            index, lines = next(iter(invalid.items()))
            where = (f"angle {names[index[0]]}" if projective
                     else f"arm {index[0] + 1} at gamma={float(g[index])!r}")
            raise ValidationError(f"{where}: " + "; ".join(lines))
    return arms


def _born_products(rho: State, arm1: np.ndarray, arm2: np.ndarray, tol: float) -> np.ndarray:
    """``p[..., m1, n1, m2, n2] = Tr(rho E1_i (x) E2_j)`` for broadcast ``(..., 4, 2, 2)`` arms."""
    if rho.dim != 4:
        raise DimensionMismatchError(f"two-photon state must have dimension 4, got {rho.dim}")
    r = rho.matrix.reshape(2, 2, 2, 2)
    probs = np.real(np.einsum("...ica,...jdb,abcd->...ij", arm1, arm2, r))
    if not probs.min() >= -tol:
        raise InternalConsistencyError(
            f"probability {probs.min():.3e} below -tol from validated inputs"
        )
    return probs.reshape(probs.shape[:-2] + (2, 2, 2, 2))


def polarization_pvm(theta: float, tol: float = DEFAULT_TOL) -> PvmMeasure:
    """Linear-polarization observable at plane angle ``theta`` (radians)."""
    return PvmMeasure(_polarization_stack([theta], ("theta",))[0], labels=_SIGN_LABELS, tol=tol)


def arm_povm(
    gamma: float, theta: float, theta_p: float, tol: float = DEFAULT_TOL
) -> PovmMeasure:
    """Bivariate POVM of one interferometer arm.

    The ``m``-marginal is a smearing of the ``theta`` observable with matrix
    ``[[gamma, 0], [1 - gamma, 1]]`` and the ``n``-marginal a smearing of the
    ``theta'`` observable with ``[[1 - gamma, 0], [gamma, 1]]``; at
    ``gamma = 1`` the latter degenerates to the uninformative family {O, I}.
    """
    g = float(gamma)
    if not 0.0 <= g <= 1.0:
        raise ValidationError(f"mirror transmissivity must lie in [0, 1], got {gamma!r}")
    elements = _arm_stacks([[g]], [theta, theta_p], ("theta", "theta_p"), tol)[0, 0]
    return PovmMeasure(elements, labels=_ARM_LABELS, index_shape=(2, 2), tol=tol)


def bell_state(tol: float = DEFAULT_TOL) -> State:
    """Singlet two-photon polarization state ``(|+-> - |-+>) / sqrt(2)``."""
    vector = np.zeros(4, dtype=complex)
    vector[1] = 1.0 / np.sqrt(2.0)
    vector[2] = -1.0 / np.sqrt(2.0)
    return State.pure(vector, tol=tol)


@dataclass(frozen=True)
class AspectConfig:
    """Mirror transmissivities, analyzer angles and two-photon state."""

    gamma1: float
    gamma2: float
    theta1: float
    theta1p: float
    theta2: float
    theta2p: float
    state: State

    def __post_init__(self):
        for name in ("gamma1", "gamma2"):
            value = float(getattr(self, name))
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1], got {value!r}")
            object.__setattr__(self, name, value)
        angles = _finite_angles([getattr(self, name) for name in _ANGLE_NAMES], _ANGLE_NAMES)
        for name, value in zip(_ANGLE_NAMES, angles.tolist()):
            object.__setattr__(self, name, value)
        if self.state.dim != 4:
            raise DimensionMismatchError(
                f"two-photon state must have dimension 4, got {self.state.dim}"
            )


def quadrivariate_povm(config: AspectConfig, tol: float = DEFAULT_TOL) -> PovmMeasure:
    """Product POVM of the two arm arrangements, indexed ``(m1, n1, m2, n2)``.

    Built only on request; the joint tables use the product structure instead.
    """
    arm1 = arm_povm(config.gamma1, config.theta1, config.theta1p, tol)
    arm2 = arm_povm(config.gamma2, config.theta2, config.theta2p, tol)
    elements = [tensor(e1, e2) for e1 in arm1.elements for e2 in arm2.elements]
    labels = tuple(l1 + l2 for l1 in arm1.labels for l2 in arm2.labels)
    return PovmMeasure(elements, labels=labels, index_shape=(2, 2, 2, 2), tol=tol)


def joint_probabilities(config: AspectConfig, tol: float = DEFAULT_TOL) -> ProbabilityTable:
    """Outcome distribution of the full arrangement on the configured state.

    The quadrivariate POVM factorizes over the arms, so the table is one
    contraction of the two arm POVMs with the state, and the bivariate
    marginal seen in one arm never depends on the mirror setting of the other.
    """
    angles = [getattr(config, name) for name in _ANGLE_NAMES]
    arms = _arm_stacks([[config.gamma1], [config.gamma2]], angles, _ANGLE_NAMES, tol)
    probs = _born_products(config.state, arms[0, 0], arms[1, 0], tol)
    return ProbabilityTable(probs, axis_labels=(_SIGN_LABELS,) * 4, tol=tol)


def correlator(table: ProbabilityTable) -> float:
    """Dichotomic correlator of a 2x2 table with outcome signs (+1, -1)."""
    values = np.asarray(table.values, dtype=float)
    if values.shape != (2, 2):
        raise DimensionMismatchError(f"correlator requires a 2x2 table, got {values.shape}")
    return float(values[0, 0] - values[0, 1] - values[1, 0] + values[1, 1])


class ChshReport(NamedTuple):
    """Correlators of four settings and all eight CHSH sign placements."""

    correlators: tuple[float, float, float, float]
    values: tuple[tuple[tuple[int, int, int, int], float], ...]
    canonical: float
    max_abs: float
    argmax: tuple[int, int, int, int]


def chsh_value(bivariates: Sequence[ProbabilityTable]) -> ChshReport:
    """Evaluate all CHSH combinations of four bivariate distributions.

    ``bivariates`` are the tables of the setting pairs (in order) (A, B),
    (A, B'), (A', B), (A', B').  The canonical combination puts the minus sign
    on the last correlator; the report also carries every sign placement and
    the largest magnitude among them.
    """
    if len(bivariates) != 4:
        raise DimensionMismatchError("exactly four bivariate tables are required")
    e = tuple(correlator(table) for table in bivariates)
    values = tuple(
        (signs, float(sum(s * ek for s, ek in zip(signs, e))))
        for signs in CHSH_SIGN_PATTERNS
    )
    best_signs, best = max(values, key=lambda item: abs(item[1]))
    return ChshReport(
        correlators=e,
        values=values,
        canonical=dict(values)[(1, 1, 1, -1)],
        max_abs=abs(best),
        argmax=best_signs,
    )


class CompositeResult(NamedTuple):
    """Informative bivariate tables of the four limiting arrangements."""

    tables: tuple[ProbabilityTable, ProbabilityTable, ProbabilityTable, ProbabilityTable]
    chsh: ChshReport


def standard_composite(
    theta1: float,
    theta1p: float,
    theta2: float,
    theta2p: float,
    state: State | None = None,
    tol: float = DEFAULT_TOL,
) -> CompositeResult:
    """Run the four limiting arrangements and combine their informative tables.

    At ``gamma = 1`` an arm ideally measures its ``theta`` observable through
    detector D, at ``gamma = 0`` its ``theta'`` observable through detector
    D'; the composite therefore pairs the settings as (A, B), (A, B'),
    (A', B), (A', B') with A, A' the first arm's angles and B, B' the second's.
    Unlike a single arrangement, these four tables come from four distinct
    experiments and need not admit any joint distribution.  All four come from
    one contraction over the (2, 2) grid of mirror limits.
    """
    rho = bell_state(tol) if state is None else state
    # Mirror limits (1, 0) per arm: the grid's C order is STANDARD_GAMMA_PAIRS.
    arms = _arm_stacks([(1.0, 0.0)] * 2, [theta1, theta1p, theta2, theta2p], _ANGLE_NAMES, tol)
    grid = _born_products(rho, arms[0][:, None], arms[1][None, :], tol)
    tables = tuple(
        ProbabilityTable(joint.sum(axis=drop), axis_labels=(_SIGN_LABELS,) * 2, tol=tol)
        for joint, drop in zip(grid.reshape(4, 2, 2, 2, 2), _STANDARD_DROPPED_AXES)
    )
    return CompositeResult(tables=tables, chsh=chsh_value(tables))
