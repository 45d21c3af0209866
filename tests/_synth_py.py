"""Noise-free target reconstruction from a synthetic benchmark's sidecar.

The package writes the sidecar but never reads the weights back; the
tests rebuild each record's clean target from them to check the
generator.
"""

import numpy as np

from enzood.model import _featurize
from enzood.synth import _signal


def reconstruct_targets(records, truth: dict) -> np.ndarray:
    """Noise-free targets from the sidecar weights; equals record values
    exactly when sigma=0."""
    x_e, x_s = _featurize(records)
    out = []
    for record, e, s in zip(records, x_e, x_s):
        clean = _signal(e, s, truth["enzyme_features"], truth["substrate_features"])
        out.append(clean + truth["rho"] * truth["family_offsets"][record.organism])
    return np.array(out)
