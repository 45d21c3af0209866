"""Shared molecule corpus, benchmark fixtures and helpers for the test suite."""

import base64
import hashlib

import numpy as np
import pytest

from enzood.harness import nested_identity_split
from enzood.model import _blocks
from enzood.synth import SynthConfig, generate

# Dialect-clean molecules exercising chains, branches, rings, aromatics,
# charges, heteroatoms, and every bond order.  Fused aromatics and
# lone-pair aromatics (furan, pyrrole) are outside the dialect: aromatic
# bonds count 1.5 toward valence with the sum rounded up, which caps an
# aromatic atom at two ring bonds and rejects [nH]/o ring forms.
MOLECULE_CORPUS = [
    "CCO",
    "CC(C)O",
    "CCCC",
    "C1CC1",
    "C1CCCCC1",
    "c1ccccc1",
    "c1ccccc1O",
    "Cc1ccccc1",
    "CC(=O)O",
    "CC(=O)OC",
    "CC(=O)NC",
    "CCN",
    "CCS",
    "CCCl",
    "CC(C)(C)C",
    "C=CC=C",
    "C#N",
    "CC#CC",
    "OCC(O)CO",
    "C1CCCCC1CC(=O)O",
    "c1ccncc1",
    "[NH4+]",
    "CC[O-]",
    "ClC(Cl)(Cl)Cl",
    "CP(=O)(O)O",
    "CS(=O)(=O)C",
    "C1CC1c1ccccc1",
    "C%10CCCC%10",
]

# Subset whose unprotected-atom pool is at least floor(0.3 * atom_count),
# so a 30% graph-mask request is never clipped by the protection rules.
MASKABLE_SMILES = [
    "CCCC",
    "CCCCCC",
    "CC(C)CCO",
    "Cc1ccccc1C",
    "CCCCCCCCCC",
    "CCSCC",
    "CCOC",
    "C1CCCCC1CCCC",
    "CC(=O)OCCCCC",
    "CC(C)(C)CCCC",
]


@pytest.fixture(scope="session")
def corpus_smiles():
    return list(MOLECULE_CORPUS)


@pytest.fixture(scope="session")
def maskable_smiles():
    return list(MASKABLE_SMILES)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def bench300():
    """The default 300-record synthetic benchmark."""
    cfg = SynthConfig()
    assert cfg.rho == 0.5
    records, _ = generate(cfg)
    assert len(records) == 300
    return records


@pytest.fixture(scope="session")
def ood_split(bench300):
    """Nested split of bench300 at identity 0.6, built once per run.

    0.3 of the records go to the outer test set; 2/7 of the remaining
    pool goes to validation, leaving a 50/20/30 percent layout."""
    return nested_identity_split(bench300, 0.6, 0.3, 2.0 / 7.0, seed=0)


# ---------------------------------------------------------------------------
# Damaged checkpoints: edits of the JSON object write_checkpoint writes


def recoded(params: dict, edit) -> dict:
    """A checkpoint's params block with theta decoded, edited by ``edit``
    and encoded again."""
    theta = np.frombuffer(base64.b64decode(params["theta"]), dtype="<f8")
    return {**params, "theta": base64.b64encode(edit(theta).astype("<f8").tobytes()).decode()}


def nested_lists(params: dict) -> dict:
    """A params block in the retired checkpoint form: one nested list per
    block."""
    theta = np.frombuffer(base64.b64decode(params["theta"]), dtype="<f8")
    return {name: block.tolist() for name, block in _blocks(theta, *params["layers"]).items()}


# RunConfig's fields while it still had normalize_cons, in declaration order
OLD_CONFIG_KEYS = ("p_s", "p_g", "substrate_mode", "lam", "normalize_cons", "learning_rate",
                   "epochs", "batch_size", "hidden_enzyme", "hidden_substrate", "embed_dim",
                   "seed")


def old_echo(data):
    """The echo and hash a checkpoint of the same run had before
    normalize_cons was removed."""
    data["config"]["normalize_cons"] = "false"
    text = "".join(f"{key}={data['config'][key]}\n" for key in OLD_CONFIG_KEYS)
    data["config_hash"] = hashlib.sha256(text.encode("utf-8")).hexdigest()


# edits of a whole checkpoint object that leave its params intact but its
# config echo unusable
CONFIG_ECHO_DAMAGES = [
    pytest.param(lambda data: data["config"].update(seed="-1"), id="negative-seed"),
    pytest.param(lambda data: data["config"].update(lam="0.25"), id="edited-lam"),
    pytest.param(lambda data: data.pop("config_hash"), id="no-hash"),
    pytest.param(old_echo, id="old-echo"),
]
