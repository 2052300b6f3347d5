"""mobsynth: nonparametric copula-based synthetic mobility trajectories.

Fit empirical-margin + kernel vine copula models (and a Markov baseline) to
grid-projected trajectory corpora, synthesize new datasets, and score them
on realism (topN visits, MMD, mutual-information decay) and privacy leakage
(sequence reconstruction, membership inference).
"""

from .geogrid import GridSpec, encode, decode, curve_position
from .dataio import Corpus, GridTrace, ingest, simulate_ground_truth
from .copula import EmpiricalMargin, KernelPairCopula, VineModel, vine_fit
from .generators import MarkovGenerator, VineGenerator
from .metrics import topn_report, mmd_test, mi_decay
from .privacy import hide_locations, sequence_attack, membership_attack, battery

__version__ = "0.1.0"

__all__ = [
    "GridSpec", "encode", "decode", "curve_position",
    "Corpus", "GridTrace", "ingest", "simulate_ground_truth",
    "EmpiricalMargin", "KernelPairCopula", "VineModel", "vine_fit",
    "MarkovGenerator", "VineGenerator",
    "topn_report", "mmd_test", "mi_decay",
    "hide_locations", "sequence_attack", "membership_attack", "battery",
    "__version__",
]
