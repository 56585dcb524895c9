"""Benchmark harness utilities: table rendering."""

from .tables import format_table, print_table

__all__ = [
    "format_table",
    "print_table",
]
