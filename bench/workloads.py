"""Seeded inputs, items and reference checks of the benchmark workloads.

Inputs are plain numpy arrays made here from the run's seed, never by
``povmkit.sampling``, so a change to the library cannot change a workload; the
library receives only the generated inputs.  Each check recomputes the
expected output with this module's own numpy code (closed forms, an explicit
Born rule, explicit marginal sums), so it does not trust the code it checks.

The library is reached through attributes of the ``povmkit`` package at call
time, so the tracer's wrappers at the package's import sites see every call.
Only public names and documented CLI flags are used.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Absorber grid of one trade-off item: the CLI's default resolution.
GRID = np.linspace(0.0, 1.0, 101)
#: Items whose own |S| lies this close to 2 skip the LP-versus-CHSH decision
#: check (the documented boundary band is 1e-9); generation keeps every box
#: ten times further away, so no item needs the skip.
DECISION_BAND = 1e-7
_GENERATION_MARGIN = 1e-6
#: Sign placements of the CHSH combinations over (E11, E12, E21, E22).
_SIGNS = np.array(
    [s for s in np.ndindex(2, 2, 2, 2) if sum(s) % 2 == 1], dtype=float
) * -2.0 + 1.0
#: Analyzer angles reaching Tsirelson's bound 2*sqrt(2) on the singlet.
TSIRELSON = np.array([0.0, np.pi / 4, np.pi / 8, 3 * np.pi / 8])


def _digest(name: str, *arrays: np.ndarray) -> str:
    h = hashlib.sha256(name.encode())
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()


def _xlogx(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.where(x > 0.0, x * np.log(np.where(x > 0.0, x, 1.0)), 0.0)


def closed_form_entropies(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Path and interference smearing entropies of the absorber model."""
    root = np.sqrt(a)
    j_path = 0.5 * (_xlogx(1.0 + a) - _xlogx(a))
    j_interference = 0.5 * (2.0 * np.log(2.0) - _xlogx(1.0 + root) - _xlogx(1.0 - root))
    return j_path, j_interference


_J_PATH, _J_INTERFERENCE = closed_form_entropies(GRID)


def sweep_error(points) -> str | None:
    """Check one 101-point sweep against the closed forms; None when it passes."""
    rows = np.array([tuple(p) for p in points], dtype=float)
    if rows.shape != (GRID.size, 5):
        return f"sweep returned shape {rows.shape}"
    a, j_lambda, j_mu, bound, slack = rows.T
    if not np.array_equal(a, GRID):
        return "sweep output is not in grid order"
    drift = max(np.max(np.abs(j_lambda - _J_PATH)), np.max(np.abs(j_mu - _J_INTERFERENCE)))
    if drift > 1e-8:
        return f"entropies drift {drift:.3e} from the closed forms"
    if np.max(np.abs(bound - np.log(2.0))) > 1e-12:
        return "bound differs from ln 2"
    if slack.min() < -1e-9:
        return f"negative slack {slack.min():.3e}"
    return None


def singlet_correlators(t1, t1p, t2, t2p) -> np.ndarray:
    """Ideal-analyzer correlators -cos 2(theta_i - theta_j) for (A,B), (A,B'), (A',B), (A',B')."""
    return -np.cos(2.0 * np.array([t1 - t2, t1 - t2p, t1p - t2, t1p - t2p]))


def chsh_max(correlators: np.ndarray) -> float:
    return float(np.max(np.abs(_SIGNS @ np.asarray(correlators, dtype=float))))


def table_correlators(tables: np.ndarray) -> np.ndarray:
    """Correlators of a (4, 2, 2) stack of dichotomic tables."""
    t = np.asarray(tables, dtype=float)
    return t[:, 0, 0] - t[:, 0, 1] - t[:, 1, 0] + t[:, 1, 1]


_SINGLET = np.array([[0.0, 1.0], [-1.0, 0.0]]) / np.sqrt(2.0)


def _projectors(theta: float) -> tuple[np.ndarray, np.ndarray]:
    c, s = np.cos(theta), np.sin(theta)
    return np.outer([c, s], [c, s]), np.outer([-s, c], [-s, c])


def _arm(gamma: float, theta: float, theta_p: float) -> np.ndarray:
    d_plus, d_minus = _projectors(theta)
    r_plus, r_minus = _projectors(theta_p)
    return np.stack([
        np.zeros((2, 2)),
        gamma * d_plus,
        (1.0 - gamma) * r_plus,
        gamma * d_minus + (1.0 - gamma) * r_minus,
    ])


def fixed_arrangement_tables(g1, g2, t1, t1p, t2, t2p) -> np.ndarray:
    """Setting-pair tables (A,B), (A,B'), (A',B), (A',B') of one arrangement on the singlet.

    Born rule on the product POVM, written out on the state vector:
    p[i, j] = <psi| E1_i (x) E2_j |psi> with psi the singlet as a 2x2 array.
    """
    e1, e2 = _arm(g1, t1, t1p), _arm(g2, t2, t2p)
    joint = np.einsum("ab,iac,jbd,cd->ij", _SINGLET, e1, e2, _SINGLET).reshape(2, 2, 2, 2)
    return setting_pair_tables(joint)


def setting_pair_tables(joint: np.ndarray) -> np.ndarray:
    """Tables (A,B), (A,B'), (A',B), (A',B') of a joint table over (A, A', B, B')."""
    return np.stack([
        joint.sum(axis=(1, 3)), joint.sum(axis=(1, 2)),
        joint.sum(axis=(0, 3)), joint.sum(axis=(0, 2)),
    ])


class Workload:
    """One set of seeded inputs; ``item(i)`` is timed, ``check(i, out)`` is not.

    ``pass_len`` items make one pass over the inputs.  Runs stop only at pass
    boundaries, so per-item call counts repeat exactly.
    """

    name = ""
    pass_len = 1
    feasible_frac = 0.0
    #: Set while the tracer is installed; a workload whose items are child
    #: processes (``child_processes``) then traces inside them.
    traced = False
    child_processes = False
    #: Names of the item kinds of a rotation, when items differ in kind.
    slot_names: tuple[str, ...] = ()

    def describe(self) -> str:
        raise NotImplementedError

    def item(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> str | None:
        raise NotImplementedError


class Tradeoff(Workload):
    """One ``tradeoff_sweep`` over the 101-point grid at a seeded phase."""

    name = "tradeoff"

    def __init__(self, pk, seed: int):
        self.pk = pk
        self.phases = np.random.default_rng([seed, 1]).uniform(0.0, 2.0 * np.pi, size=16)
        self.digest = _digest(self.name, GRID, self.phases)
        library = np.array([
            (pk.path_nonideality_entropy(a), pk.interference_nonideality_entropy(a)) for a in GRID
        ])
        drift = float(np.max(np.abs(library - np.column_stack([_J_PATH, _J_INTERFERENCE]))))
        if drift > 1e-12:
            raise RuntimeError(f"library closed-form entropies drift {drift:.3e} from the reference")

    def describe(self) -> str:
        return f"{self.phases.size} seeded phases x {GRID.size}-point absorber grid"

    def item(self, i: int):
        return self.pk.tradeoff_sweep(GRID, self.phases[i % self.phases.size])

    def check(self, i: int, out) -> str | None:
        return sweep_error(out)


class Bell(Workload):
    """The four limiting arrangements, plus one fixed arrangement, at seeded angles."""

    name = "bell"

    def __init__(self, pk, seed: int):
        self.pk = pk
        rng = np.random.default_rng([seed, 2])
        self.angles = rng.uniform(0.0, np.pi, size=(256, 4))
        self.gammas = rng.uniform(0.0, 1.0, size=(256, 2))
        self.digest = _digest(self.name, self.angles, self.gammas)
        self.state = pk.State.pure(_SINGLET.reshape(-1))
        self.expected_corr = np.array([singlet_correlators(*t) for t in self.angles])
        self.expected_fixed = np.array([
            fixed_arrangement_tables(*g, *t) for g, t in zip(self.gammas, self.angles)
        ])

    def describe(self) -> str:
        return f"{len(self.angles)} seeded angle sets and mirror pairs on the singlet"

    def item(self, i: int):
        pk = self.pk
        k = i % len(self.angles)
        t1, t1p, t2, t2p = self.angles[k]
        g1, g2 = self.gammas[k]
        composite = pk.standard_composite(t1, t1p, t2, t2p, state=self.state)
        config = pk.AspectConfig(gamma1=g1, gamma2=g2, theta1=t1, theta1p=t1p,
                                 theta2=t2, theta2p=t2p, state=self.state)
        marginals = pk.MarginalSet.from_quadrivariate(pk.joint_probabilities(config))
        return composite, marginals, pk.chsh_value(marginals.tables())

    def check(self, i: int, out) -> str | None:
        composite, marginals, fixed_chsh = out
        k = i % len(self.angles)
        expected = self.expected_corr[k]
        measured = table_correlators([t.values for t in composite.tables])
        if np.max(np.abs(measured - expected)) > 1e-9:
            return "composite tables differ from the singlet closed form"
        if np.max(np.abs(np.array(composite.chsh.correlators) - expected)) > 1e-9:
            return "composite correlators differ from the singlet closed form"
        if abs(composite.chsh.max_abs - chsh_max(expected)) > 1e-9:
            return "composite |S| differs from the closed form"
        tables = np.array([t.values for t in marginals.tables()])
        if np.max(np.abs(tables - self.expected_fixed[k])) > 1e-9:
            return "fixed-arrangement tables differ from the reference Born rule"
        if fixed_chsh.max_abs > 2.0 + 1e-9 or chsh_max(table_correlators(tables)) > 2.0 + 1e-9:
            return f"fixed arrangement violates CHSH (|S| = {fixed_chsh.max_abs!r})"
        return None


def _random_box(rng) -> np.ndarray:
    """No-signaling box: uniform means, each correlator uniform on its admissible interval."""
    means = rng.uniform(-1.0, 1.0, size=4)  # A, A', B, B'
    tables = []
    for x, y in ((0, 2), (0, 3), (1, 2), (1, 3)):
        mx, my = means[x], means[y]
        corr = rng.uniform(abs(mx + my) - 1.0, 1.0 - abs(mx - my))
        signs = np.array([1.0, -1.0])
        tables.append((1.0 + signs[:, None] * mx + signs[None, :] * my
                       + np.outer(signs, signs) * corr) / 4.0)
    return np.clip(np.array(tables), 0.0, None)


_PR_BOX = np.array([[[0.5, 0.0], [0.0, 0.5]]] * 3 + [[[0.0, 0.5], [0.5, 0.0]]])


def _box_chsh(box: np.ndarray) -> float:
    return chsh_max(table_correlators(box))


def _pr_crossing(base: np.ndarray) -> float:
    """Weight w at which w * PR + (1 - w) * base reaches |S| = 2 (|S| is convex in w)."""
    low, high = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (low + high)
        if _box_chsh(mid * _PR_BOX + (1.0 - mid) * base) < 2.0:
            low = mid
        else:
            high = mid
    return low


class Boxes(Workload):
    """One ``joint_exists`` per pre-built no-signaling box.

    The pool mixes three kinds in equal shares: random boxes on the local
    side, PR-box mixtures half on each side of |S| = 2, and boxes of fixed
    arrangements on the singlet.  The feasible share is therefore 5/6 for
    every seed, so per-item call counts do not depend on the seed.  Boxes
    closer than 1e-6 to |S| = 2 are redrawn (about 1 in 100 random boxes lies
    beyond |S| = 2 and is redrawn too).
    """

    name = "boxes"
    per_kind = 100
    pass_len = 3 * per_kind

    def __init__(self, pk, seed: int):
        self.pk = pk
        rng = np.random.default_rng([seed, 3])
        n = self.per_kind
        boxes = [self._draw(rng, lambda: _random_box(rng), lambda s: s < 2.0) for _ in range(n)]
        for k in range(n):
            want_feasible = k % 2 == 0
            base = self._draw(rng, lambda: _random_box(rng), lambda s: s < 2.0)
            cross = _pr_crossing(base)

            def mixture():
                w = cross * rng.uniform() if want_feasible else cross + (1 - cross) * rng.uniform()
                return w * _PR_BOX + (1.0 - w) * base

            boxes.append(self._draw(rng, mixture, lambda s: (s < 2.0) == want_feasible))
        for _ in range(n):
            boxes.append(self._draw(
                rng,
                lambda: fixed_arrangement_tables(*rng.uniform(0, 1, 2), *rng.uniform(0, np.pi, 4)),
                lambda s: s < 2.0,
            ))
        self.boxes = np.array(boxes)[rng.permutation(3 * n)]
        self.chsh = np.array([_box_chsh(b) for b in self.boxes])
        self.feasible_frac = float(np.mean(self.chsh < 2.0))
        self.digest = _digest(self.name, self.boxes)
        self.marginals = [
            pk.MarginalSet.from_tables([pk.ProbabilityTable(t) for t in box]) for box in self.boxes
        ]

    @staticmethod
    def _draw(rng, make, accept):
        while True:
            box = make()
            s = _box_chsh(box)
            if abs(s - 2.0) >= _GENERATION_MARGIN and accept(s):
                return box

    def describe(self) -> str:
        return (f"{len(self.boxes)} no-signaling boxes (random, PR mixtures, fixed arrangements), "
                f"feasible share {self.feasible_frac:.4f}")

    def item(self, i: int):
        return self.pk.joint_exists(self.marginals[i % len(self.marginals)])

    def check(self, i: int, out) -> str | None:
        k = i % len(self.boxes)
        s = self.chsh[k]
        if abs(s - 2.0) > DECISION_BAND and out.feasible != (s < 2.0):
            return f"LP decision {out.feasible} contradicts |S| = {s!r}"
        if out.feasible:
            joint = np.asarray(out.joint.values, dtype=float)
            if joint.shape != (2, 2, 2, 2) or joint.min() < -1e-12:
                return "witness is not a nonnegative (2, 2, 2, 2) table"
            if np.max(np.abs(setting_pair_tables(joint) - self.boxes[k])) > 1e-9:
                return "witness does not reproduce the input tables"
        elif not abs(out.certificate[1]) > 2.0:
            return f"infeasible certificate has |value| {abs(out.certificate[1])!r} <= 2"
        return None


class Cli(Workload):
    """One ``python -m povmkit.cli`` process per item, in a fixed rotation.

    The rotation is ``srt sweep`` at a seeded phase, ``aspect
    standard-composite`` at the Tsirelson angles shifted by a seeded offset,
    and ``fine --marginals`` on that composite's tables (exit 2: no joint
    distribution).  Outputs are compared with the same calls made in process.
    """

    name = "cli"
    pass_len = 3
    child_processes = True
    slot_names = ("srt sweep", "aspect standard-composite", "fine --marginals")

    def __init__(self, pk, seed: int, work_dir: Path):
        self.pk = pk
        rng = np.random.default_rng([seed, 4])
        self.phase, offset = rng.uniform(0.0, 2.0 * np.pi, size=2)
        self.angles = TSIRELSON + offset
        self.digest = _digest(self.name, np.array([self.phase]), self.angles)
        self.trace_path = work_dir / "cli_trace.json"
        marginals_path = work_dir / "marginals.json"

        self.ref_sweep = np.array([tuple(p) for p in pk.tradeoff_sweep(GRID, self.phase)])
        composite = pk.standard_composite(*self.angles)
        self.ref_corr = np.array(composite.chsh.correlators)
        self.ref_max = composite.chsh.max_abs
        tables = [t.values.tolist() for t in composite.tables]
        marginals_path.write_text(json.dumps(dict(zip(("AB", "ABp", "ApB", "ApBp"), tables))))
        decision = pk.joint_exists(pk.MarginalSet.from_tables(composite.tables))
        self.ref_certificate = float(decision.certificate[1])

        # The in-process references pass the same checks as the library items.
        error = sweep_error(self.ref_sweep)
        if error or np.max(np.abs(self.ref_corr - singlet_correlators(*self.angles))) > 1e-9:
            raise RuntimeError(f"in-process reference failed its check: {error}")

        self.args = (
            ["srt", "sweep", "--phase", repr(float(self.phase))],
            ["aspect", "standard-composite", "--angles", ",".join(repr(float(t)) for t in self.angles)],
            ["fine", "--marginals", str(marginals_path)],
        )
        self.expected_codes = (0, 0, 2)

    def describe(self) -> str:
        return f"rotation of {len(self.args)} CLI commands at a seeded phase and angle offset"

    def item(self, i: int):
        args = self.args[i % 3]
        if self.traced:
            self.trace_path.unlink(missing_ok=True)
            command = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(self.trace_path), *args]
        else:
            command = [sys.executable, "-m", "povmkit.cli", *args]
        return subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=120)

    def read_child_trace(self) -> dict | None:
        """Aggregates the traced child of the last item wrote, if it wrote any."""
        if not self.trace_path.exists():
            return None
        return json.loads(self.trace_path.read_text())

    def check(self, i: int, out) -> str | None:
        k = i % 3
        if out.returncode != self.expected_codes[k]:
            return f"{self.slot_names[k]} exited {out.returncode}: {out.stderr.strip()[-300:]}"
        try:
            if k == 0:
                lines = out.stdout.strip().splitlines()
                if lines[0] != "a,J_lambda,J_mu,bound,slack":
                    return "unexpected sweep header"
                rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
                if rows.shape != self.ref_sweep.shape or np.max(np.abs(rows - self.ref_sweep)) > 1e-12:
                    return "sweep output differs from the in-process sweep"
            elif k == 1:
                report = json.loads(out.stdout)
                if (np.max(np.abs(np.array(report["correlators"]) - self.ref_corr)) > 1e-12
                        or abs(report["max_abs"] - self.ref_max) > 1e-12):
                    return "composite output differs from the in-process composite"
            else:
                report = json.loads(out.stdout)
                if report["decision"] != "infeasible":
                    return f"fine decided {report['decision']!r}"
                if abs(report["certificate"]["value"] - self.ref_certificate) > 1e-12:
                    return "fine certificate differs from the in-process decision"
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unparsable {self.slot_names[k]} output: {exc!r}"
        return None


WORKLOADS = ("tradeoff", "bell", "boxes", "cli")


def build(name: str, pk, seed: int, work_dir: Path) -> Workload:
    if name == "tradeoff":
        return Tradeoff(pk, seed)
    if name == "bell":
        return Bell(pk, seed)
    if name == "boxes":
        return Boxes(pk, seed)
    if name == "cli":
        return Cli(pk, seed, work_dir)
    raise ValueError(f"unknown workload {name!r}")
