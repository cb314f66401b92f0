"""Command-line entry point tying the experiment modules together.

Subcommands: ``measure`` (validation), ``martens`` (joint-smearing report),
``srt`` (interferometer model and trade-off sweep), ``aspect`` (two-photon
arrangements and CHSH), ``fine`` (joint-distribution feasibility).  Data goes
to ``--out`` or standard output, diagnostics to standard error.

Exit codes follow BSD conventions: 64 for an unknown subcommand, 65 for flag
or input validation failures.  ``measure validate`` exits 1 on an invalid
measure; ``martens`` exits 2 when a marginal is not exactly a smearing of its
PVM; ``fine`` exits 2 when no joint distribution exists and 3 when the
marginals violate no-signaling.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import serialize
from .aspect import AspectConfig, bell_state, chsh_value, joint_probabilities, standard_composite
from .errors import NoSignalingError, PovmkitError, ValidationError
from .feasibility import MarginalSet, joint_exists
from .measures import born_probabilities, povm_violations
from .nonideality import check_martens, solve_nonideality
from .operators import DEFAULT_TOL, _checked_tol
from .srt import SrtConfig, srt_bivariate, srt_povm, tradeoff_sweep

EX_OK = 0
EX_USAGE = 64
EX_DATAERR = 65

#: The one choice of each optional positional ``mode``, checked after parsing so
#: that a value following an unrecognized option is reported with it.
_MODES = {"srt": "sweep", "aspect": "standard-composite"}
_ANGLES_SPELLINGS = frozenset("--angles"[:n] for n in range(3, 9))


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(x: float) -> str:
    """Format a float with 17 significant digits for exact round-trips."""
    return format(float(x), ".17g")


def _csv(header: str, rows) -> str:
    """``header``, then one line per row: floats with ``_fmt``, every other cell with ``str``."""
    lines = [",".join(_fmt(c) if isinstance(c, float) else str(c) for c in row) for row in rows]
    return "\n".join([header, *lines])


def _emit(args, record, header: str = "", rows=()) -> None:
    """Write ``record`` as JSON, or ``header`` and ``rows`` as CSV under ``--format csv`` or
    when there is no record, to ``--out`` or standard output."""
    csv = record is None or getattr(args, "fmt", "json") == "csv"
    text = _csv(header, rows) if csv else serialize.dump_json(record)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _common_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=DEFAULT_TOL, help="numeric tolerance")
    common.add_argument("--out", default=None, help="write data to this path instead of stdout")
    return common


def _build_parser() -> _Parser:
    common = _common_parser()
    formatted = argparse.ArgumentParser(add_help=False, parents=[common])
    formatted.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")
    parser = _Parser(prog="povmkit", description=__doc__)
    subparsers = parser.add_subparsers(dest="command")

    measure = subparsers.add_parser("measure", parents=[common])
    measure.add_argument("action", choices=("validate",))
    measure.add_argument("file")

    martens = subparsers.add_parser("martens", parents=[formatted])
    martens.add_argument("--bivariate", required=True, help="bivariate measure JSON")
    martens.add_argument("--pvm1", required=True, help="first-axis target PVM JSON")
    martens.add_argument("--pvm2", required=True, help="second-axis target PVM JSON")

    srt = subparsers.add_parser("srt", parents=[common])
    srt.add_argument("mode", nargs="?", metavar="{sweep}")
    srt.add_argument("--absorber", type=float, default=None)
    srt.add_argument("--phase", type=float, default=0.0)
    srt.add_argument("--emit", choices=("povm", "bivariate", "probabilities"), default=None)
    srt.add_argument("--state", default=None, help="state JSON for --emit probabilities")
    srt.add_argument("--points", type=int, default=101, help="sweep grid size")

    aspect = subparsers.add_parser("aspect", parents=[formatted])
    aspect.add_argument("mode", nargs="?", metavar="{standard-composite}")
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
    take a value with a leading minus sign, such as ``-0.5,0,0,0``, for an option.
    Its abbreviations ``--a`` to ``--angle`` are joined alike; where one stands for
    another option, as ``--a`` for ``srt --absorber``, the joined form means the same."""
    joined = []
    for token in argv:
        if joined and joined[-1] in _ANGLES_SPELLINGS and not token.startswith("--"):
            joined[-1] = f"{joined[-1]}={token}"
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
        elements = serialize._elements_from_dict(data)
    except PovmkitError as exc:
        print(f"unreadable measure file: {exc}", file=sys.stderr)
        return 1
    violations = povm_violations(elements, tol=args.tol)
    _emit(args, {"valid": not violations, "violations": violations})
    return 1 if violations else EX_OK


def _cmd_martens(args) -> int:
    bivariate = serialize.measure_from_dict(serialize.load_json(args.bivariate), tol=args.tol)
    if bivariate.index_shape is None or len(bivariate.index_shape) != 2:
        raise _UsageError("--bivariate must carry a two-axis index_shape")
    pvm1 = serialize.measure_from_dict(serialize.load_json(args.pvm1), pvm=True, tol=args.tol)
    pvm2 = serialize.measure_from_dict(serialize.load_json(args.pvm2), pvm=True, tol=args.tol)
    lam = solve_nonideality(bivariate.marginal(keep=0), pvm1)
    mu = solve_nonideality(bivariate.marginal(keep=1), pvm2)
    report = check_martens(lam, mu, pvm1, pvm2)
    if not report.applicable:
        inexact = [f"the {axis} marginal onto --pvm{k} (residual {m.residual:.3e})"
                   for k, axis, m in ((1, "first", lam), (2, "second", mu)) if not m.is_exact]
        print(f"not applicable: no exact decomposition of {' or '.join(inexact)}", file=sys.stderr)
        return 2
    fields = {
        "J_lambda": report.j_lambda,
        "J_mu": report.j_mu,
        "bound": report.bound,
        "slack": report.slack,
    }
    _emit(args, fields, ",".join(fields), [fields.values()])
    return EX_OK


def _cmd_srt(args) -> int:
    if args.mode == "sweep":
        if args.points < 2:
            raise _UsageError("--points must be at least 2")
        grid = np.linspace(0.0, 1.0, args.points)
        points = tradeoff_sweep(grid, chi=args.phase, tol=args.tol)
        # A TradeoffPoint's fields are the columns, in order; the sweep is written as CSV only.
        _emit(args, None, "a,J_lambda,J_mu,bound,slack", points)
        return EX_OK

    if args.absorber is None or args.emit is None:
        raise _UsageError("srt requires --absorber and --emit (or the 'sweep' mode)")
    config = SrtConfig(absorber=args.absorber, phase=args.phase)
    if args.emit in ("povm", "bivariate"):
        build = srt_povm if args.emit == "povm" else srt_bivariate
        _emit(args, serialize.measure_to_dict(build(config, args.tol)))
    else:
        if args.state is None:
            raise _UsageError("--emit probabilities requires --state")
        rho = _load_state(args.state, args.tol)
        table = born_probabilities(srt_povm(config, args.tol), rho)
        _emit(args, serialize.table_to_dict(table))
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


def _chsh_rows(report):
    return ((f"\"{' '.join(f'{s:+d}' for s in signs)}\"", value) for signs, value in report.values)


def _cmd_aspect(args) -> int:
    angles = _parse_angles(args.angles)
    state = _load_state(args.state, args.tol)

    if args.mode == "standard-composite":
        chsh = standard_composite(*angles, state=state, tol=args.tol).chsh
        rows = [*_chsh_rows(chsh), ("max_abs", chsh.max_abs)]
        _emit(args, _chsh_report_dict(chsh), "signs,value", rows)
        print(f"|S| = {chsh.max_abs:.9f} over the four limiting arrangements", file=sys.stderr)
        return EX_OK

    if args.gamma1 is None or args.gamma2 is None or args.emit is None:
        raise _UsageError("aspect requires --gamma1, --gamma2, --angles and --emit")
    joint = joint_probabilities(AspectConfig(args.gamma1, args.gamma2, *angles, state=state), args.tol)
    if args.emit == "joint":
        record = serialize.table_to_dict(joint)
        rows = ((*keys, p) for keys, p in zip(itertools.product(*joint.axis_labels), record["values"]))
        _emit(args, record, "m1,n1,m2,n2,p", rows)
        return EX_OK

    marginals = MarginalSet.from_quadrivariate(joint)
    if args.emit == "marginals":
        record = serialize.marginals_to_dict(marginals)
        rows = ((key, i, j, p) for key, table in record.items()
                for i, row in enumerate(table) for j, p in enumerate(row))
        _emit(args, record, "table,row,col,p", rows)
        return EX_OK

    report = chsh_value(marginals)
    _emit(args, _chsh_report_dict(report), "signs,value", _chsh_rows(report))
    return EX_OK


def _cmd_fine(args) -> int:
    marginals = serialize.marginals_from_dict(serialize.load_json(args.marginals), tol=args.tol)
    try:
        decision = joint_exists(marginals)
    except NoSignalingError as exc:
        _emit(args, {"decision": "no-signaling-violation", "detail": str(exc)})
        return 3
    report = {"decision": "feasible" if decision.feasible else "infeasible", "boundary": decision.boundary}
    if decision.feasible:
        report.update(witness=serialize.table_to_dict(decision.joint), marginal_residual=decision.residual)
    else:
        signs, value = decision.certificate
        report["certificate"] = {"signs": list(signs), "value": float(value)}
    report["chsh_max_abs"] = decision.chsh.max_abs
    _emit(args, report)
    return EX_OK if decision.feasible else 2


_HANDLERS = {
    "measure": _cmd_measure,
    "martens": _cmd_martens,
    "srt": _cmd_srt,
    "aspect": _cmd_aspect,
    "fine": _cmd_fine,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and not argv[0].startswith("-") and argv[0] not in _HANDLERS:
        print(f"unknown subcommand {argv[0]!r}; expected one of {', '.join(_HANDLERS)}", file=sys.stderr)
        return EX_USAGE
    parser = _build_parser()
    try:
        argv = _join_angles(argv)
        args, extras = parser.parse_known_args(argv)
        mode = getattr(args, "mode", None)
        if mode not in (None, _MODES.get(args.command)):
            if not extras:
                choice = _MODES[args.command]
                raise _UsageError(f"argument mode: invalid choice: {mode!r} (choose from {choice!r})")
            extras = sorted(extras + [mode], key=argv.index)
        if extras:
            raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EX_USAGE
        try:
            _checked_tol(args.tol)
        except ValidationError as exc:
            raise _UsageError(f"--{exc}") from None
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
