"""Continuation of localized synchrony patterns in coupled oscillator chains."""

from . import asymptotics, continuation, dynamics, lattice, model

__all__ = ["model", "lattice", "asymptotics", "continuation", "dynamics", "cli"]
__version__ = "0.1.0"
