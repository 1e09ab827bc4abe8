"""Toolkit for the (-2,3,2s+1) pretzel knot groups.

Generates the Wirtinger presentation, machine-checks its Tietze
simplification to a two generator, one relator form while tracking the
longitude, builds Dehn surgery quotients, verifies the peripheral
identities, and emits replayable non-left-orderability certificates.
"""

__version__ = "0.1.0"
