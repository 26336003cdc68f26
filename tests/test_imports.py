"""Each package imports first, on its own, in a fresh interpreter.

:mod:`repro.runtime` imports the compiler (:meth:`NetworkEngine.compile
<repro.runtime.engine.NetworkEngine.compile>`), and the compiler and the
slicing search build the runtime's vectorized executor.  They import it
where they build it, not at module level, so neither package has to be
imported before the other.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

STATEMENTS = [
    "import repro.core",
    "import repro.runtime",
    "import repro.core.compiler",
    "import repro.serve",
    # Core first, then the compiler's deferred import of the runtime.
    "from repro.core.compiler import RaellaCompiler; RaellaCompiler()",
]


@pytest.mark.parametrize("statement", STATEMENTS)
def test_imports_in_a_fresh_interpreter(statement):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", statement],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
