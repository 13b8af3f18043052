"""Each CLI command runs in a fresh interpreter, so the package's import is
part of every command's cost.  ``dataclasses`` pulls in ``inspect``, ``ast``
and ``dis``, which in a bare ``python -S`` took longer than the package's
own modules; the package imports neither.  ``python -S`` keeps what site
imports out of the check."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CHECK = """
import sys
sys.path.insert(0, sys.argv[1])
import weightsys.cli, weightsys.evaluation
print(" ".join(m for m in ("dataclasses", "inspect") if m in sys.modules))
"""


def test_the_package_imports_neither_dataclasses_nor_inspect():
    out = subprocess.run([sys.executable, "-S", "-c", CHECK, str(SRC)],
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == []
