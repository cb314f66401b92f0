"""Command-line entry point tying the experiment modules together.

Subcommands: ``measure`` (validation), ``martens`` (joint-smearing report),
``srt`` (interferometer model and trade-off sweep), ``aspect`` (two-photon
arrangements and CHSH), ``fine`` (joint-distribution feasibility).  Data goes
to ``--out`` or standard output, diagnostics to standard error.

Exit codes follow BSD conventions: 64 for an unknown subcommand, 65 for flag
or input validation failures.  ``measure validate`` exits 1 on an invalid
measure; ``fine`` exits 2 when no joint distribution exists and 3 when the
marginals violate no-signaling.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import serialize
from .aspect import AspectConfig, bell_state, chsh_value, joint_probabilities, standard_composite
from .errors import NoSignalingError, PovmkitError
from .feasibility import MarginalSet, joint_exists
from .measures import born_probabilities, povm_violations
from .nonideality import check_martens, solve_nonideality
from .operators import DEFAULT_TOL
from .srt import SrtConfig, srt_bivariate, srt_povm, tradeoff_sweep

EX_OK = 0
EX_USAGE = 64
EX_DATAERR = 65

_COMMANDS = ("measure", "martens", "srt", "aspect", "fine")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(x: float) -> str:
    """Format a float with 17 significant digits for exact round-trips."""
    return format(float(x), ".17g")


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text + ("" if text.endswith("\n") else "\n"), encoding="utf-8")
    else:
        print(text)


def _common_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=DEFAULT_TOL, help="numeric tolerance")
    common.add_argument("--out", default=None, help="write data to this path instead of stdout")
    common.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")
    return common


def _build_parser() -> _Parser:
    common = _common_parser()
    parser = _Parser(prog="povmkit", description=__doc__)
    subparsers = parser.add_subparsers(dest="command")

    measure = subparsers.add_parser("measure", parents=[common])
    measure.add_argument("action", choices=("validate",))
    measure.add_argument("file")

    martens = subparsers.add_parser("martens", parents=[common])
    martens.add_argument("--bivariate", required=True, help="bivariate measure JSON")
    martens.add_argument("--pvm1", required=True, help="first-axis target PVM JSON")
    martens.add_argument("--pvm2", required=True, help="second-axis target PVM JSON")

    srt = subparsers.add_parser("srt", parents=[common])
    srt.add_argument("mode", nargs="?", choices=("sweep",))
    srt.add_argument("--absorber", type=float, default=None)
    srt.add_argument("--phase", type=float, default=0.0)
    srt.add_argument("--emit", choices=("povm", "bivariate", "probabilities"), default=None)
    srt.add_argument("--state", default=None, help="state JSON for --emit probabilities")
    srt.add_argument("--points", type=int, default=101, help="sweep grid size")

    aspect = subparsers.add_parser("aspect", parents=[common])
    aspect.add_argument("mode", nargs="?", choices=("standard-composite",))
    aspect.add_argument("--gamma1", type=float, default=None)
    aspect.add_argument("--gamma2", type=float, default=None)
    aspect.add_argument("--angles", default=None, help="theta1,theta1p,theta2,theta2p in radians")
    aspect.add_argument("--state", default="bell", help="'bell' or a state JSON path")
    aspect.add_argument("--emit", choices=("joint", "marginals", "chsh"), default=None)

    fine = subparsers.add_parser("fine", parents=[common])
    fine.add_argument("--marginals", required=True, help="four labeled 2x2 tables, JSON")

    return parser


def _join_angles(argv: list[str]) -> list[str]:
    """Spell ``--angles VALUE`` as ``--angles=VALUE``, so that argparse does not
    take a value with a leading minus sign, such as ``-0.5,0,0,0``, for an option."""
    joined = []
    for token in argv:
        if joined and joined[-1] == "--angles" and not token.startswith("--"):
            joined[-1] = f"--angles={token}"
        else:
            joined.append(token)
    return joined


def _parse_angles(text: str | None) -> tuple[float, float, float, float]:
    if text is None:
        raise _UsageError("--angles is required")
    parts = text.split(",")
    if len(parts) != 4:
        raise _UsageError(f"--angles needs four comma-separated values, got {text!r}")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError:
        raise _UsageError(f"--angles values must be numbers, got {text!r}")
    return values


def _load_state(spec: str, tol: float):
    if spec == "bell":
        return bell_state(tol)
    return serialize.state_from_dict(serialize.load_json(spec), tol=tol)


def _cmd_measure(args) -> int:
    data = serialize.load_json(args.file)
    try:
        elements = [serialize.matrix_from_dict(e) for e in data.get("elements", [])]
    except (TypeError, PovmkitError) as exc:
        print(f"unreadable measure file: {exc}", file=sys.stderr)
        return 1
    violations = povm_violations(elements, tol=args.tol)
    if violations:
        report = {"valid": False, "violations": violations}
        _write(serialize.dump_json(report), args.out)
        return 1
    _write(serialize.dump_json({"valid": True, "violations": []}), args.out)
    return EX_OK


def _cmd_martens(args) -> int:
    bivariate = serialize.measure_from_dict(serialize.load_json(args.bivariate), tol=args.tol)
    if bivariate.index_shape is None or len(bivariate.index_shape) != 2:
        raise _UsageError("--bivariate must carry a two-axis index_shape")
    pvm1 = serialize.measure_from_dict(serialize.load_json(args.pvm1), pvm=True, tol=args.tol)
    pvm2 = serialize.measure_from_dict(serialize.load_json(args.pvm2), pvm=True, tol=args.tol)
    lam = solve_nonideality(bivariate.marginal(keep=0), pvm1, tol=args.tol)
    mu = solve_nonideality(bivariate.marginal(keep=1), pvm2, tol=args.tol)
    report = check_martens(lam, mu, pvm1, pvm2, tol=args.tol)
    fields = {
        "J_lambda": report.j_lambda,
        "J_mu": report.j_mu,
        "bound": report.bound,
        "slack": report.slack,
    }
    if args.fmt == "csv":
        lines = ["J_lambda,J_mu,bound,slack",
                 ",".join(_fmt(fields[k]) for k in ("J_lambda", "J_mu", "bound", "slack"))]
        _write("\n".join(lines), args.out)
    else:
        _write(serialize.dump_json(fields), args.out)
    return EX_OK


def _cmd_srt(args) -> int:
    if args.mode == "sweep":
        if args.points < 2:
            raise _UsageError("--points must be at least 2")
        grid = np.linspace(0.0, 1.0, args.points)
        points = tradeoff_sweep(grid, chi=args.phase, tol=args.tol)
        lines = ["a,J_lambda,J_mu,bound,slack"]
        for point in points:
            lines.append(
                ",".join(
                    _fmt(v)
                    for v in (point.absorber, point.j_lambda, point.j_mu, point.bound, point.slack)
                )
            )
        _write("\n".join(lines), args.out)
        return EX_OK

    if args.absorber is None or args.emit is None:
        raise _UsageError("srt requires --absorber and --emit (or the 'sweep' mode)")
    config = SrtConfig(absorber=args.absorber, phase=args.phase)
    if args.emit == "povm":
        _write(serialize.dump_json(serialize.measure_to_dict(srt_povm(config, args.tol))), args.out)
    elif args.emit == "bivariate":
        _write(
            serialize.dump_json(serialize.measure_to_dict(srt_bivariate(config, args.tol))),
            args.out,
        )
    else:
        if args.state is None:
            raise _UsageError("--emit probabilities requires --state")
        rho = _load_state(args.state, args.tol)
        table = born_probabilities(srt_povm(config, args.tol), rho, args.tol)
        _write(serialize.dump_json(serialize.table_to_dict(table)), args.out)
    return EX_OK


def _chsh_report_dict(report) -> dict:
    return {
        "correlators": [float(e) for e in report.correlators],
        "values": [
            {"signs": list(signs), "value": float(value)} for signs, value in report.values
        ],
        "canonical": float(report.canonical),
        "max_abs": float(report.max_abs),
        "argmax_signs": list(report.argmax),
    }


def _chsh_csv_lines(report) -> list[str]:
    return ["signs,value"] + [
        f"\"{' '.join(f'{s:+d}' for s in signs)}\",{_fmt(value)}" for signs, value in report.values
    ]


def _cmd_aspect(args) -> int:
    angles = _parse_angles(args.angles)
    state = _load_state(args.state, args.tol)

    if args.mode == "standard-composite":
        result = standard_composite(*angles, state=state, tol=args.tol)
        if args.fmt == "json":
            _write(serialize.dump_json(_chsh_report_dict(result.chsh)), args.out)
        else:
            lines = _chsh_csv_lines(result.chsh) + [f"max_abs,{_fmt(result.chsh.max_abs)}"]
            _write("\n".join(lines), args.out)
        print(f"|S| = {result.chsh.max_abs:.9f} over the four limiting arrangements", file=sys.stderr)
        return EX_OK

    if args.gamma1 is None or args.gamma2 is None or args.emit is None:
        raise _UsageError("aspect requires --gamma1, --gamma2, --angles and --emit")
    config = AspectConfig(
        gamma1=args.gamma1,
        gamma2=args.gamma2,
        theta1=angles[0],
        theta1p=angles[1],
        theta2=angles[2],
        theta2p=angles[3],
        state=state,
    )
    joint = joint_probabilities(config, args.tol)
    if args.emit == "joint":
        if args.fmt == "json":
            _write(serialize.dump_json(serialize.table_to_dict(joint)), args.out)
        else:
            lines = ["m1,n1,m2,n2,p"]
            labels = joint.axis_labels or tuple((0, 1) for _ in range(4))
            for idx in np.ndindex(*joint.shape):
                outcome = ",".join(str(labels[ax][i]) for ax, i in enumerate(idx))
                lines.append(f"{outcome},{_fmt(joint.values[idx])}")
            _write("\n".join(lines), args.out)
        return EX_OK

    marginals = MarginalSet.from_quadrivariate(joint, tol=args.tol)
    if args.emit == "marginals":
        if args.fmt == "json":
            _write(serialize.dump_json(serialize.marginals_to_dict(marginals)), args.out)
        else:
            lines = ["table,row,col,p"]
            for key, table in zip(("AB", "ABp", "ApB", "ApBp"), marginals.tables()):
                for i in range(2):
                    for j in range(2):
                        lines.append(f"{key},{i},{j},{_fmt(table.values[i, j])}")
            _write("\n".join(lines), args.out)
        return EX_OK

    report = chsh_value(marginals.tables())
    if args.fmt == "json":
        _write(serialize.dump_json(_chsh_report_dict(report)), args.out)
    else:
        _write("\n".join(_chsh_csv_lines(report)), args.out)
    return EX_OK


def _cmd_fine(args) -> int:
    marginals = serialize.marginals_from_dict(serialize.load_json(args.marginals), tol=args.tol)
    try:
        decision = joint_exists(marginals, tol=args.tol)
    except NoSignalingError as exc:
        _write(serialize.dump_json({"decision": "no-signaling-violation", "detail": str(exc)}), args.out)
        return 3
    if decision.feasible:
        report = {
            "decision": "feasible",
            "boundary": decision.boundary,
            "witness": serialize.table_to_dict(decision.joint),
            "marginal_residual": decision.residual,
            "chsh_max_abs": decision.chsh.max_abs,
        }
        _write(serialize.dump_json(report), args.out)
        return EX_OK
    signs, value = decision.certificate
    report = {
        "decision": "infeasible",
        "boundary": decision.boundary,
        "certificate": {"signs": list(signs), "value": float(value)},
        "chsh_max_abs": decision.chsh.max_abs,
    }
    _write(serialize.dump_json(report), args.out)
    return 2


_HANDLERS = {
    "measure": _cmd_measure,
    "martens": _cmd_martens,
    "srt": _cmd_srt,
    "aspect": _cmd_aspect,
    "fine": _cmd_fine,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and not argv[0].startswith("-") and argv[0] not in _COMMANDS:
        print(
            f"unknown subcommand {argv[0]!r}; expected one of {', '.join(_COMMANDS)}",
            file=sys.stderr,
        )
        return EX_USAGE
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_angles(argv))
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EX_USAGE
        if not (math.isfinite(args.tol) and args.tol > 0.0):
            raise _UsageError(f"--tol must be a finite number greater than 0, got {args.tol!r}")
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DATAERR
    except SystemExit as exc:  # argparse -h/--help
        return int(exc.code or 0)
    except (PovmkitError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DATAERR


if __name__ == "__main__":
    sys.exit(main())
