"""Procedural reasoning tasks with verifiable rewards and
backtrack-controlled reasoning traces."""

__version__ = "0.1.0"
