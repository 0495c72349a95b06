"""What a fresh ``import ledgaze`` loads.

The package needs only ``scipy.linalg`` and ``scipy.spatial.distance``;
``scipy.signal`` (which loads ``scipy.stats``) would be most of every CLI
call's start-up. The check runs in a new interpreter because the test
oracles load ``scipy.signal`` into this one.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_neither_scipy_signal_nor_stats():
    code = ("import sys; import ledgaze; "
            "print(' '.join(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    assert done.stdout.strip() == ""
