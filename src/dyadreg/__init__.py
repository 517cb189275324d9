"""Seeded simulator of a parent-infant dyad that co-regulates a shared
visceral state by negotiating symbols through a naming game."""

__version__ = "0.1.0"
