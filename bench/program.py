"""Locates the program under test in the checkout that holds this benchmark.

The benchmark runs the checkout's own sources (``src/bibagree``) and the
independent oracles (``tests/oracles.py``), never an installed copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TESTS = ROOT / "tests"


def require_program() -> None:
    """Put the checkout's sources first on sys.path, or exit if they are absent."""
    if not (SRC / "bibagree" / "__init__.py").is_file() or not (TESTS / "oracles.py").is_file():
        raise SystemExit(f"error: {ROOT} holds no src/bibagree package and tests/oracles.py")
    for path in (str(TESTS), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import bibagree

    if Path(bibagree.__file__).resolve().parent != SRC / "bibagree":
        raise SystemExit(f"error: imported bibagree from {bibagree.__file__}, not from {SRC}")
