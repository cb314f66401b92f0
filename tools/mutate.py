"""One-operator mutation run of povmkit modules against the tier-1 suite.

Run from the repository root::

    python tools/mutate.py src/povmkit/feasibility.py src/povmkit/operators.py

For every comparison and arithmetic operator in the named modules, the tool
swaps that one operator (``<`` and ``<=``, ``>`` and ``>=``, ``==`` and
``!=``, ``+`` and ``-``, ``*`` and ``/``) in a temporary copy of the
repository, runs tier-1 there with ``-x``, and counts the mutant killed when
pytest fails.  It prints each survivor as ``file:line [function] op -> op``
with its source line.  Survivors listed in ``ALLOWED`` are equivalent or only
move an equality threshold; they are printed apart, with their reasons.  The
exit code is 1 when any other mutant survives, so a new gap shows up as a
failed run.  It is also 1, before any tier-1 run, when an ``ALLOWED`` entry of
a named module matches no mutant because its source line changed or went
away; each such entry is printed as ``STALE``.  The run is not part of tier-1:
each surviving mutant costs one full tier-1 run (about 25 s on 2 vCPU).  At
most ``JOBS`` tier-1 runs go at once, each in its own copy, so the run stays
small in memory.
"""

from __future__ import annotations

import argparse
import ast
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Tier-1 runs at a time.
JOBS = min(2, os.cpu_count() or 1)

#: Each operator's source token and the token of its mutant.
SWAPS = {
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
    ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*"),
}

#: Known survivors, keyed by (file name, stripped source line, operator token, and
#: how many mutants of that token come before it on the line).  Each holds a
#: one-line reason why no test can or should kill it.
ALLOWED = {
    ("feasibility.py", "passed=worst <= marginals.tol,", "<=", 0):
        "equality threshold: a marginal discrepancy exactly at tol",
    ("feasibility.py", "a, b = a * sign[:, None], b * sign", "*", 0):
        "equivalent: sign is +-1, and x / -1 equals x * -1 bit for bit, signed zeros included",
    ("feasibility.py", "a, b = a * sign[:, None], b * sign", "*", 1):
        "equivalent: sign is +-1, and x / -1 equals x * -1 bit for bit, signed zeros included",
    ("feasibility.py", "entering = next((j for j, cost in enumerate(costs) if cost > tol), -1)", ">", 0):
        "equality threshold: a reduced cost exactly at the pivot tolerance",
    ("feasibility.py", "if coeff > tol:", ">", 0):
        "equality threshold: a column coefficient exactly at the pivot tolerance",
    ("feasibility.py", "if ratio < best_ratio - tol or (", "<", 0):
        "equality threshold: a ratio exactly the pivot tolerance below the best goes to the tie rule",
    ("feasibility.py", "abs(ratio - best_ratio) <= tol", "<=", 0):
        "equality threshold: a ratio tie exactly at the pivot tolerance",
    ("feasibility.py", "and (leaving < 0 or basis[i] < basis[leaving])", "<", 1):
        "equivalent: basic variables are distinct, so basis[i] never equals basis[leaving]",
    ("feasibility.py", "chsh_feasible = s <= 2.0 + tol", "<=", 0):
        "equality threshold: |S(b')| exactly 2 + tol",
    ("feasibility.py", "chsh_feasible = s <= 2.0 + tol", "+", 0):
        "equivalent: it moves the CHSH verdict only for |S(b')| in (2 - tol, 2 + tol], inside the "
        "boundary band, where that verdict is neither asserted nor reported",
    ("feasibility.py", "boundary = abs(s - 2.0) <= max(tol, BOUNDARY_TOL)", "<=", 0):
        "equality threshold: |S(b')| exactly at the edge of the boundary band",
    ("feasibility.py", "lp_feasible = optimum <= LP_OPT_TOL and residual <= tol", "<=", 0):
        "equality threshold: a phase-1 optimum exactly at LP_OPT_TOL",
    ("feasibility.py", "lp_feasible = optimum <= LP_OPT_TOL and residual <= tol", "<=", 1):
        "equality threshold: a witness residual exactly at tol",
    ("operators.py", "return bool(np.isfinite(arr).all() and _hermitian_defect(arr).max() <= tol)",
     "<=", 0): "equality threshold: a Hermitian defect exactly at tol",
    ("operators.py", "return is_hermitian(arr, tol) and bool(_lowest_eigenvalues(arr) >= -tol)",
     ">=", 0): "equality threshold: a lowest eigenvalue exactly at -tol",
    ("operators.py", "return is_hermitian(arr, tol) and bool(np.abs(arr @ arr - arr).max() <= tol)",
     "<=", 0): "equality threshold: an idempotence defect exactly at tol",
    ("operators.py", "return bool(np.max(np.abs(gram - np.eye(arr.shape[0]))) <= tol)", "<=", 0):
        "equality threshold: a unitarity defect exactly at tol",
    ("operators.py", "if not _hermitian_defect(arr).max() <= self.tol:", "<=", 0):
        "equality threshold: a state's Hermitian defect exactly at tol",
    ("operators.py", "if lowest < -self.tol:", "<", 0):
        "equality threshold: a state's lowest eigenvalue exactly at -tol",
    ("operators.py", "if abs(tr - 1.0) > self.tol:", ">", 0):
        "equality threshold: a state's trace exactly tol away from 1",
    ("operators.py", "if product < bound - tol:", "<", 0):
        "equality threshold: an uncertainty product exactly tol below its bound",
    ("nonideality.py", "zero = norms <= tol",
     "<=", 0):
        "equality threshold: a target Gram diagonal entry exactly at tol",
    ("nonideality.py", "if peak <= 0.0:",
     "<=", 0):
        "equivalent: the overlaps of two PVMs on one space sum to its dimension, so the peak is never 0",
    ("nonideality.py", "if report.applicable and report.slack < -max(lam.tol, mu.tol, pvm1.tol, pvm2.tol):",
     "<", 0):
        "equality threshold: a Martens slack exactly at -tol",
    ("srt.py", "if not (held := slack >= -marginal_tol).all():", ">=", 0):
        "equality threshold: a Martens slack exactly at -tol",
    ("srt.py", "if not (held := drift <= 4 * 2.0**-52 * (1.0 + logs)).all():", "<=", 0):
        "equality threshold: a closed-form drift exactly at its derived bound",
    ("measures.py", "not_hermitian = finite & ~(herm <= tol)",
     "<=", 0):
        "equality threshold: a Hermitian defect exactly at tol",
    ("measures.py", "not_positive = finite & ~not_hermitian & ~(lowest >= -tol)",
     ">=", 0):
        "equality threshold: a lowest eigenvalue exactly at -tol",
    ("measures.py", "not_projector = finite & ~(idempotence <= tol)",
     "<=", 0):
        "equality threshold: an idempotence defect exactly at tol",
    ("measures.py", "not_orthogonal = ~(overlaps <= tol) & finite[..., :, None] & finite[..., None, :]",
     "<=", 0):
        "equality threshold: an overlap exactly at tol",
    ("measures.py", "return u, s, vh, s.size == d * d and bool(s[-1] > measure.tol)", ">", 0):
        "equality threshold: a frame singular value exactly at tol",
    ("measures.py", "if residual > bound:", ">", 0):
        "equality threshold: a reconstruction residual exactly at its derived bound",
    ("tables.py", "if (flat.min() >= -tol and flat.max() <= 1.0 + 2.0 * bound", ">=", 0):
        "equivalent: a stricter accept pass sends the table to the reject pass, which accepts "
        "an entry exactly at -tol too",
    ("tables.py", "if (flat.min() >= -tol and flat.max() <= 1.0 + 2.0 * bound", "<=", 0):
        "equivalent: a stricter accept pass sends the table to the reject pass, which has no "
        "upper bound on an entry and judges the total the same way",
    ("tables.py", "if (flat.min() >= -tol and flat.max() <= 1.0 + 2.0 * bound", "*", 0):
        "equivalent: the entry bound only keeps the totals from overflowing; with entries >= -tol, "
        "an entry above 1 + 2 bound already puts its total more than bound from 1",
    ("tables.py", "and np.abs(_reduce_trailing(np.add, flat) - 1.0).max() <= bound):", "<=", 0):
        "equivalent: a stricter accept pass sends the table to the reject pass, which accepts "
        "a total exactly bound from 1 too",
    ("tables.py", "if not 0 < n <= 7 or x.size < 64 * n:", "<=", 0):
        "equivalent: a 7-entry axis goes to numpy's own reduction, whose bits the slice arithmetic equals",
    ("tables.py", "if not 0 < n <= 7 or x.size < 64 * n:", "<", 1):
        "equivalent: exactly 64 rows go to numpy's own reduction, whose bits the slice arithmetic equals",
    ("tables.py", "if not 0 < n <= 7 or x.size < 64 * n:", "*", 0):
        "equivalent: fewer than 64 rows take the slice arithmetic, which gives numpy's bits more slowly",
    ("tables.py", "if abs(total - 1.0) > bound:", ">", 0):
        "equality threshold: a table total exactly bound from 1, read by the reject pass only "
        "when another table of the stack fails",
    ("sampling.py", "values[i, j] = (1.0 + sx * mean_x + sy * mean_y + sx * sy * corr) / 4.0", "*", 2):
        "equivalent: sy is +-1, and x / -1 equals x * -1 bit for bit, signed zeros included",
    ("sampling.py", "corr = rng.uniform(low, high) if high > low else low", ">", 0):
        "equality threshold: it differs only at high == low exactly, where uniform(low, low) is low too",
}


@dataclass(frozen=True)
class Mutant:
    path: Path          # the module, relative to the repository root
    line: int
    function: str
    token: str
    swapped: str
    source_line: str
    nth: int            # earlier mutants of the same token on the same source line
    text: str           # the whole mutated module

    @property
    def key(self) -> tuple[str, str, str, int]:
        return self.path.name, self.source_line, self.token, self.nth

    def __str__(self) -> str:
        return (f"{self.path}:{self.line} [{self.function}] {self.token!r} -> {self.swapped!r}"
                f"    {self.source_line}")


def _operator_gaps(tree: ast.AST):
    """``(operator, left operand, right operand)`` of every swappable operator."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            yield node.op, node.left, node.right
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if type(op) in SWAPS:
                    yield op, left, right


def _one_swap(tree: ast.AST, mutated: str, op: type) -> bool:
    """True when ``mutated`` parses to ``tree`` with one ``op`` node swapped and nothing else."""
    try:
        other = ast.parse(mutated)
    except SyntaxError:
        return False
    kinds = [(type(a), type(b)) for a, b in zip(ast.walk(tree), ast.walk(other))]
    if len(kinds) != sum(1 for _ in ast.walk(other)):
        return False
    changed = [pair for pair in kinds if pair[0] is not pair[1]]
    swapped = {v[0]: k for k, v in SWAPS.items()}[SWAPS[op][1]]
    return changed == [(op, swapped)]


def _functions(tree: ast.AST) -> list[tuple[int, int, str]]:
    """``(first line, last line, qualified name)`` of every function, outermost first."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if not isinstance(child, ast.ClassDef):
                    found.append((child.lineno, child.end_lineno, name))
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def mutants(path: Path) -> list[Mutant]:
    """One mutant per swappable operator of the module at ``path`` (relative to the root)."""
    text = (ROOT / path).read_text()
    data = text.encode()
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    lines = text.split("\n")
    tree = ast.parse(text)
    functions = _functions(tree)
    found = []
    for op, left, right in _operator_gaps(tree):
        token, swapped = SWAPS[type(op)]
        # The operator sits between its operands, among parentheses, spaces and comments;
        # ast offsets count UTF-8 bytes.
        lo = starts[left.end_lineno - 1] + left.end_col_offset
        hi = starts[right.lineno - 1] + right.col_offset
        gap = data[lo:hi].decode()
        at, i = -1, 0
        while at < 0 and i < len(gap):
            if gap[i] == "#":
                i = gap.find("\n", i)
                i = len(gap) if i < 0 else i
            elif gap.startswith(token, i):
                at = i
            else:
                i += 1
        if at < 0:
            continue
        offset = len(data[:lo].decode()) + at
        mutated = text[:offset] + swapped + text[offset + len(token):]
        if not _one_swap(tree, mutated, type(op)):
            continue
        line = text.count("\n", 0, offset) + 1
        function = next((name for first, last, name in reversed(functions)
                         if first <= line <= last), "<module>")
        found.append((offset, line, function, token, swapped, lines[line - 1].strip(), mutated))
    seen: dict[tuple[str, str], int] = {}
    ordered = []
    for _, line, function, token, swapped, source_line, mutated in sorted(found):
        nth = seen[source_line, token] = seen.get((source_line, token), -1) + 1
        ordered.append(Mutant(path, line, function, token, swapped, source_line, nth, mutated))
    return ordered


def _copy_repository(into: Path) -> Path:
    target = into / "repo"
    shutil.copytree(ROOT, target, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out", "BENCH_*.json"))
    return target


def _tier1(copy: Path, timeout: float) -> bool:
    """True when tier-1 passes in ``copy``; a run past ``timeout`` seconds counts as failed."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--continue-on-collection-errors"]
    try:
        result = subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return result.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", type=Path,
                        help="module paths relative to the repository root")
    args = parser.parse_args(argv)

    todo = [m for path in args.modules for m in mutants(path)]
    print(f"{len(todo)} mutants in {len(args.modules)} modules", flush=True)
    names = {path.name for path in args.modules}
    stale = sorted({key for key in ALLOWED if key[0] in names} - {m.key for m in todo})
    for name, source_line, token, nth in stale:
        print(f"STALE    {name}: no mutant of {token!r} (#{nth}) on    {source_line}", file=sys.stderr)
    if stale:
        return 1
    with tempfile.TemporaryDirectory(prefix="povmkit-mutate-") as workdir:
        copies = queue.Queue()
        for k in range(JOBS):
            copies.put(_copy_repository(Path(workdir) / str(k)))
        probe = copies.get()
        started = time.perf_counter()
        if not _tier1(probe, timeout=3600):
            print("tier-1 fails on the unmutated tree; nothing to measure", file=sys.stderr)
            return 2
        timeout = 5 * (time.perf_counter() - started) + 60
        copies.put(probe)

        def run(mutant: Mutant) -> tuple[Mutant, bool]:
            copy = copies.get()
            module = copy / mutant.path
            try:
                module.write_text(mutant.text)
                survived = _tier1(copy, timeout)
                print(f"{'survived' if survived else 'killed  '} {mutant}", flush=True)
                return mutant, survived
            finally:
                module.write_text((ROOT / mutant.path).read_text())
                copies.put(copy)

        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            outcomes = list(pool.map(run, todo))

    survivors = [m for m, survived in outcomes if survived]
    allowed = [m for m in survivors if m.key in ALLOWED]
    new = [m for m in survivors if m.key not in ALLOWED]
    for path in args.modules:
        mine = [(m, s) for m, s in outcomes if m.path == path]
        print(f"{path}: {len(mine)} mutants, {sum(not s for _, s in mine)} killed, "
              f"{sum(m.key in ALLOWED for m, s in mine if s)} allowed survivors, "
              f"{sum(m.key not in ALLOWED for m, s in mine if s)} other survivors")
    for mutant in allowed:
        print(f"allowed  {mutant}\n         ({ALLOWED[mutant.key]})")
    for mutant in new:
        print(f"SURVIVED {mutant}")
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())
