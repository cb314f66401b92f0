"""Generalized two-photon polarization correlation experiment.

Each photon of a correlated pair meets a semi-transparent mirror of
transmissivity ``gamma`` that routes it either to a polarization analyzer at
angle ``theta`` (transmitted beam, detector D) or to one at angle ``theta'``
(reflected beam, detector D').  Per arm the detector statistics form a
bivariate POVM realizing a joint nonideal measurement of the two polarization
observables; the two arms combine into a quadrivariate product POVM whose
joint outcome distribution always exists at a fixed arrangement.  An arm POVM
smears its two analyzer PVMs by a ``(4, 2, 2)`` mirror weight matrix
``W(gamma)``, and the Born rule is linear, so an arrangement's table is
``W(gamma1) P W(gamma2)^T`` with ``P`` the Born table of the analyzer pairs.
The analyzer PVMs are closed forms checked by the qubit PVM filter of ``measures``; nothing is kept.
The four limiting arrangements with ``gamma`` in {0, 1} reproduce the standard
photon-correlation experiments whose combined statistics violate CHSH; there
``W`` holds only 0 and 1, and the tables are ``P``.

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
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError
from .measures import PovmMeasure, PvmMeasure, _check_qubit_pvms
from .operators import DEFAULT_TOL, State, _checked_finite, _checked_tol, _checked_unit
from .tables import ProbabilityTable, _check_tables

#: The four limiting mirror settings of the standard experiments, paired with
#: the axes of (A, A', B, B') that carry their informative outcomes: the
#: setting pairs (A, B), (A, B'), (A', B), (A', B').
STANDARD_GAMMA_PAIRS = ((1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0))
_SETTING_PAIR_AXES = ((0, 2), (0, 3), (1, 2), (1, 3))
#: The axes each setting pair's table sums out of a joint over (A, A', B, B').
_SETTING_PAIR_DROP = tuple(tuple(ax for ax in range(4) if ax not in keep)
                           for keep in _SETTING_PAIR_AXES)

#: Sign placements of the eight CHSH combinations: every pattern
#: ``(s1, s2, s3, s4)`` over the correlators (E11, E12, E21, E22) whose sign
#: product is -1, the canonical ``(1, 1, 1, -1)`` first.
CHSH_SIGN_PATTERNS = tuple(s for s in itertools.product((1, -1), repeat=4) if math.prod(s) == -1)


_SIGN_LABELS = ("+", "-")
_ARM_LABELS = (("+", "+"), ("+", "-"), ("-", "+"), ("-", "-"))
_ANGLE_NAMES = ("theta1", "theta1p", "theta2", "theta2p")


def _analyzer_stack(angles: Sequence[float], names: Sequence[str], tol: float) -> np.ndarray:
    """``(N, 2, 2, 2)`` PVMs ``(E+, E-)`` onto ``(c, s)`` and ``(-s, c)`` at N checked plane angles, checked at ``tol``.

    Real products of ``c, s = cos, sin theta``, ``E-`` with ``E+``'s diagonal swapped, checked by
    ``measures._check_qubit_pvms`` at the largest ``|fl(c*c + s*s) - 1|`` (an exact subtraction).
    """
    entries, delta = [], 0.0
    for c, s in ((math.cos(theta), math.sin(theta)) for theta in angles):
        entries += (c * c, c * s, c * s, s * s, s * s, -c * s, -c * s, c * c)
        delta = max(delta, abs(c * c + s * s - 1.0))
    pvms = np.array(entries, dtype=complex).reshape(-1, 2, 2, 2)
    return _check_qubit_pvms(pvms, delta, tol, True, lambda n: f"angle {names[n]}")


def _mirror_weights(gamma: float) -> np.ndarray:
    """``W[c, s, a]``: weight of analyzer ``s`` (theta, theta') outcome ``a`` in arm cell ``c``."""
    g, r = gamma, 1.0 - gamma
    return np.array([0.0, 0.0, 0.0, 0.0, g, 0.0, 0.0, 0.0,
                     0.0, 0.0, r, 0.0, 0.0, g, 0.0, r]).reshape(4, 2, 2)


def _born_products(rho: State, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Unchecked ``p[..., i, j] = Tr(rho E1_i (x) E2_j)`` for broadcast ``(..., I|J, 2, 2)`` stacks."""
    if rho.dim != 4:
        raise DimensionMismatchError(f"two-photon state must have dimension 4, got {rho.dim}")
    r = rho.matrix.reshape(2, 2, 2, 2)
    return np.real(np.einsum("...ica,...jdb,abcd->...ij", first, second, r))


def _analyzer_pairs(rho: State, angles: Sequence[float], tol: float) -> tuple[np.ndarray, float]:
    """Unchecked Born table ``P[s, t, a, b]`` of arm 1's analyzer ``s`` and arm 2's ``t``, and its ``tol``."""
    pvms = _analyzer_stack(angles, _ANGLE_NAMES, tol)
    return _born_products(rho, pvms[:2, None], pvms[None, 2:]), max(tol, rho.tol)


def polarization_pvm(theta: float, tol: float = DEFAULT_TOL) -> PvmMeasure:
    """Linear-polarization observable at plane angle ``theta`` (radians)."""
    theta, tol = _checked_finite(theta, "angle theta"), _checked_tol(tol)
    pvm = _analyzer_stack([theta], ("theta",), tol)[0]
    return PvmMeasure.__new__(PvmMeasure)._init_valid(pvm, _SIGN_LABELS, None, tol)


def arm_povm(
    gamma: float, theta: float, theta_p: float, tol: float = DEFAULT_TOL
) -> PovmMeasure:
    """Bivariate POVM of one interferometer arm.

    The ``m``-marginal is a smearing of the ``theta`` observable with matrix
    ``[[gamma, 0], [1 - gamma, 1]]`` and the ``n``-marginal a smearing of the
    ``theta'`` observable with ``[[1 - gamma, 0], [gamma, 1]]``; at
    ``gamma = 1`` the latter degenerates to the uninformative family {O, I}.
    """
    g = _checked_unit(gamma, "mirror transmissivity")
    angles = [_checked_finite(theta, "angle theta"), _checked_finite(theta_p, "angle theta_p")]
    tol = _checked_tol(tol)
    pvms = _analyzer_stack(angles, ("theta", "theta_p"), tol)
    # Validated PVMs smeared by weights in [0, 1] form a POVM; it is not checked again.
    elements = np.einsum("csa,saij->cij", _mirror_weights(g), pvms)
    return PovmMeasure.__new__(PovmMeasure)._init_valid(elements, _ARM_LABELS, (2, 2), tol)


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
            object.__setattr__(self, name, _checked_unit(getattr(self, name), name))
        for name in _ANGLE_NAMES:
            object.__setattr__(self, name, _checked_finite(getattr(self, name), f"angle {name}"))
        if self.state.dim != 4:
            raise DimensionMismatchError(
                f"two-photon state must have dimension 4, got {self.state.dim}"
            )


def quadrivariate_povm(config: AspectConfig, tol: float = DEFAULT_TOL) -> PovmMeasure:
    """Product POVM of the two arm arrangements, indexed ``(m1, n1, m2, n2)``.

    Built only on request, as one ``einsum`` of the two arm stacks; the joint
    tables use the product structure instead.
    """
    arm1 = arm_povm(config.gamma1, config.theta1, config.theta1p, tol)
    arm2 = arm_povm(config.gamma2, config.theta2, config.theta2p, tol)
    elements = np.einsum("iab,jcd->ijacbd", arm1.stack(), arm2.stack()).reshape(16, 4, 4)
    labels = tuple(l1 + l2 for l1 in arm1.labels for l2 in arm2.labels)
    return PovmMeasure(elements, labels=labels, index_shape=(2, 2, 2, 2), tol=tol)


def joint_probabilities(config: AspectConfig, tol: float = DEFAULT_TOL) -> ProbabilityTable:
    """Outcome distribution of the full arrangement on the configured state.

    The quadrivariate POVM factorizes over the arms and the Born rule is linear
    in each, so the table is the analyzer-pair table contracted with both mirror
    weight matrices; one arm's bivariate marginal never depends on the other's mirror.
    """
    pairs, tol = _analyzer_pairs(config.state, [getattr(config, n) for n in _ANGLE_NAMES], _checked_tol(tol))
    probs = np.einsum("xsa,stab,ytb->xy", _mirror_weights(config.gamma1), pairs,
                      _mirror_weights(config.gamma2)).reshape(2, 2, 2, 2)
    _check_tables(probs[None], tol)
    return ProbabilityTable.__new__(ProbabilityTable)._init_valid(probs, (_SIGN_LABELS,) * 4, tol)


def correlator(table: ProbabilityTable) -> float:
    """Dichotomic correlator of a 2x2 table with outcome signs (+1, -1)."""
    values = table.values
    if values.shape != (2, 2):
        raise DimensionMismatchError(f"correlator requires a 2x2 table, got {values.shape}")
    (pp, pm), (mp, mm) = values.tolist()
    return pp - pm - mp + mm


class ChshReport(NamedTuple):
    """Correlators of four settings and all eight CHSH sign placements."""

    correlators: tuple[float, float, float, float]
    values: tuple[tuple[tuple[int, int, int, int], float], ...]
    canonical: float
    max_abs: float
    argmax: tuple[int, int, int, int]


def chsh_value(bivariates) -> ChshReport:
    """Evaluate all CHSH combinations of four bivariate distributions.

    ``bivariates`` is a ``MarginalSet`` or the tables of the setting pairs (in
    order) (A, B), (A, B'), (A', B), (A', B').  The canonical combination puts
    the minus sign on the last correlator; the report also carries every sign
    placement and the largest magnitude among them (the first one on a tie).
    """
    tables = bivariates.tables() if hasattr(bivariates, "tables") else bivariates
    if not isinstance(tables, Sequence) or len(tables) != 4:
        raise DimensionMismatchError("exactly four bivariate tables are required")
    e1, e2, e3, e4 = e = tuple(map(correlator, tables))
    # Starting at 0.0, as the builtin ``sum`` starts at 0, no placement reads -0.0.
    sums = [0.0 + a * e1 + b * e2 + c * e3 + d * e4 for a, b, c, d in CHSH_SIGN_PATTERNS]
    magnitudes = list(map(abs, sums))
    k = magnitudes.index(max(magnitudes))  # the first largest, as ``max`` finds it
    return ChshReport(e, tuple(zip(CHSH_SIGN_PATTERNS, sums)), sums[0], magnitudes[k], CHSH_SIGN_PATTERNS[k])


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
    experiments and need not admit any joint distribution.  At a limit the
    mirror weights are 0 and 1, so the four tables are the analyzer-pair table.
    """
    rho = bell_state(tol) if state is None else state
    angles = [_checked_finite(theta, f"angle {name}")
              for theta, name in zip((theta1, theta1p, theta2, theta2p), _ANGLE_NAMES)]
    pairs, tol = _analyzer_pairs(rho, angles, _checked_tol(tol))
    # Rows (A, A') against columns (B, B'): the C order is STANDARD_GAMMA_PAIRS.
    sums = pairs.reshape(4, 2, 2)
    labels = (_SIGN_LABELS,) * 2
    _check_tables(sums, tol)
    tables = tuple(ProbabilityTable.__new__(ProbabilityTable)._init_valid(t, labels, tol)
                   for t in sums)
    return CompositeResult(tables=tables, chsh=chsh_value(tables))
