"""Pseudospectral solver and verification harness for fully nonlinear
dispersive shallow-water models on periodic domains."""
from __future__ import annotations

__version__ = "0.1.0"

from .grid import PeriodicGrid, ScalarField, VectorField

__all__ = ["PeriodicGrid", "ScalarField", "VectorField"]
