"""Spark execution engine for the six strategies (§4).

Entry point: :func:`repro.engine.runner.run_strategy`.
"""
from .runner import run_strategy

__all__ = ["run_strategy"]
