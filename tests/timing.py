"""What the ``tests/time_*.py`` scripts share."""
from __future__ import annotations

from pathlib import Path

import boxmodal


def src_lines() -> int:
    """Lines of the Python source of the ``boxmodal`` package that was imported.

    With ``PYTHONPATH`` pointed at another checkout, that checkout's package
    is both the one timed and the one counted.
    """
    files = Path(boxmodal.__file__).parent.glob("*.py")
    return sum(len(f.read_text(encoding="utf-8").splitlines()) for f in files)
