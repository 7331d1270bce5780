"""What the ``tests/time_*.py`` scripts share."""
from __future__ import annotations

from pathlib import Path


def package_lines(package: Path) -> int:
    """Lines of the Python source files of a package directory."""
    return sum(len(f.read_text(encoding="utf-8").splitlines()) for f in package.glob("*.py"))


def src_lines() -> int:
    """Lines of the Python source of the ``boxmodal`` package that was imported.

    With ``PYTHONPATH`` pointed at another checkout, that checkout's package
    is both the one timed and the one counted.
    """
    import boxmodal  # here, so that ``time_ab.py`` can count checkouts without importing it

    return package_lines(Path(boxmodal.__file__).parent)
