"""Process set-up shared by the benchmark scripts.

Call `pin_environment()` before anything imports numpy: it fixes the BLAS
thread count and puts the checkout's own `src/` first on the import path,
so the benchmark always measures the sources next to it.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One client, small matrices (at most 400 x 19): BLAS threads cannot help,
# and on a shared machine they only add scheduling noise.  Kept <= nproc.
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment() -> None:
    """Pin BLAS threads and import voicepd from this checkout, or exit 1."""
    if not (SRC / "voicepd" / "__init__.py").is_file():
        sys.exit(f"perfbench: no voicepd sources under {SRC}")
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))
    import voicepd

    if Path(voicepd.__file__).resolve().parent != SRC / "voicepd":
        sys.exit(f"perfbench: imported voicepd from {voicepd.__file__}, not {SRC}")
