"""``import matadj`` in a fresh interpreter loads no introspection machinery:
neither ``dataclasses`` nor the modules it pulls in, nor ``typing``."""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")
PROBE = "import sys, matadj; print(*[m for m in sys.argv[1:] if m in sys.modules])"


def test_import_loads_no_introspection_modules():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", PROBE, *HEAVY], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.split() == []


def test_import_loads_no_typing():
    # -S skips the site hooks, which on some hosts load typing before any import
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-S", "-c", PROBE, "typing"], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.split() == []
