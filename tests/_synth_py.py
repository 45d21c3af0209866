"""Noise-free target reconstruction from a synthetic benchmark's sidecar.

The package writes the sidecar but never reads the weights back; the
tests rebuild each record's clean target from them to check the
generator.
"""

import numpy as np

from enzood.model import featurize_substrate
from enzood.synth import _signal


def reconstruct_targets(records, truth: dict) -> np.ndarray:
    """Noise-free targets from the sidecar weights; equals record values
    exactly when sigma=0."""
    out = []
    for record in records:
        clean = _signal(
            record.sequence,
            featurize_substrate(record.graph),
            truth["enzyme_features"],
            truth["substrate_features"],
        )
        out.append(clean + truth["rho"] * truth["family_offsets"][record.organism])
    return np.array(out)
