"""mobsynth: nonparametric copula-based synthetic mobility trajectories.

Fit empirical-margin + kernel vine copula models (and a Markov baseline) to
grid-projected trajectory corpora, synthesize new datasets, and score them
on realism (topN visits, MMD, mutual-information decay) and privacy leakage
(sequence reconstruction, membership inference).
"""
