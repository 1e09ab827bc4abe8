"""Toolkit for the (-2,3,2s+1) pretzel knot groups.

Generates the Wirtinger presentation, machine-checks its Tietze
simplification to a two generator, one relator form while tracking the
longitude, builds Dehn surgery quotients, verifies the peripheral
identities, and emits replayable non-left-orderability certificates.
"""

from .derivation import (
    final_relator,
    knot_group_presentation,
    longitude_word,
    run_pipeline,
    simplify_longitude,
    verify_L_induction,
    verify_R_induction,
)
from .knot import initial_longitude, tunnel_collapse, wirtinger_presentation
from .orderability import (
    Certificate,
    Inconclusive,
    nlo_search,
    replay_certificate,
    replay_lemma_l_positive,
)
from .presentations import DerivationTrace, Presentation, replay_trace
from .surgery import Slope, h1_order, surgered_presentation, verify_fact, verify_lemma_k
from .words import CyclicWord, Word, W, palindrome_rotation, parse_word

__all__ = [
    "Certificate", "CyclicWord", "DerivationTrace", "Inconclusive",
    "Presentation", "Slope", "W", "Word",
    "final_relator", "h1_order", "initial_longitude",
    "knot_group_presentation", "longitude_word", "nlo_search",
    "palindrome_rotation", "parse_word", "replay_certificate",
    "replay_lemma_l_positive", "replay_trace", "run_pipeline",
    "simplify_longitude", "surgered_presentation", "tunnel_collapse",
    "verify_L_induction", "verify_R_induction", "verify_fact",
    "verify_lemma_k", "wirtinger_presentation",
]
__version__ = "0.1.0"
