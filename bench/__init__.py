"""Whole-scenario benchmark for the Mantis reproduction (see README.md)."""
