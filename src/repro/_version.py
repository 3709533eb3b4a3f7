"""Single source of truth for the package version.

Lives in its own module (instead of ``repro/__init__``) so leaf
packages — notably :mod:`repro.obs`, whose trace/ledger headers embed
the version — can import it without triggering the full top-level
import graph.
"""

__version__ = "1.35.0"
