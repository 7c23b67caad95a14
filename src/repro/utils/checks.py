"""Argument checks shared by constructors and the CLI that fronts them."""

from __future__ import annotations

__all__ = ["check_count"]


def check_count(value: int, name: str) -> int:
    """A size or bound that must be at least 1; ``name`` gets the blame."""
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value
