"""Locates the checkout the benchmark runs in and puts its src/ on sys.path."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_src() -> None:
    """Import promptrefine from this checkout only; exit if it has none."""
    if not (SRC / "promptrefine" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
