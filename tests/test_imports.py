"""Import-level contracts: the runtime needs numpy only, and every name the bench tracer wraps exists."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_library_and_cli_import_without_scipy():
    code = (
        "import povmkit, povmkit.cli, sys; "
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')); "
        "print(loaded); sys.exit(1 if loaded else 0)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_every_traced_name_resolves_to_a_callable():
    # Resolved as the tracer resolves them: a class through its own __init__ or
    # the named method.  The tracer reports a missing name as absent, and the run
    # still exits 0 with null per-layer metrics, so a rename must fail here.
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, name in tracer.TARGETS:
        owner_name, _, method = name.partition(".")
        owner = vars(importlib.import_module(f"povmkit.{module_name}")).get(owner_name)
        if isinstance(owner, type):
            target = vars(owner).get(method or "__init__")
        else:
            target = None if method else owner
        if not callable(target):
            missing.append(f"{module_name}.{name}")
    assert missing == []
