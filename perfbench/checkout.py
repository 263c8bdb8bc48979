"""Locate the program's sources in the checkout this benchmark sits in."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_sources() -> bool:
    """Put ``src/`` of this checkout first on ``sys.path``.

    Returns False when the checkout holds no ``dlpc`` sources, so callers can
    refuse to run rather than measure some other installed copy.
    """
    if not (SRC / "dlpc" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True
