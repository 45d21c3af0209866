"""Out-of-distribution robustness toolkit for enzyme kinetics regression.

The package splits into small single-purpose modules; this namespace
re-exports the pieces a typical workflow touches so short scripts can
get by with ``from enzood import ...``:

- molgraph: SMILES parsing, canonical forms, rendering enumeration
- augment: constrained enzyme/substrate masking of dataset records
- seqid: alignment identity, clustering, and identity-disjoint splits
- model: two-branch regressor with consistency-regularized training
- metrics: regression scores plus threshold-curve aggregation
- synth: synthetic benchmark generator with a ground-truth sidecar
- io: dataset records, serialization, and run configuration
- harness: experiment drivers (sweeps, comparisons, reports)
- cli: command line front end over the whole pipeline
"""

from .augment import (
    AugmentConfig,
    augment_dataset,
    augment_record,
    mask_graph,
    mask_sequence,
)
from .errors import (
    ConfigError,
    DatasetError,
    DegenerateTargetsError,
    DuplicateIdError,
    EnzoodError,
    GraphError,
    InfeasibleSplitError,
    NonFiniteError,
    SizeError,
    SmilesSyntaxError,
    ValenceError,
)
from .harness import (
    LAMBDA_GRID,
    MASK_GRID,
    NestedSplit,
    best_lambda_index,
    evaluate_params,
    good_evaluation,
    lambda_sweep,
    mask_sweep,
    nested_identity_split,
    read_checkpoint,
    train_on_split,
    two_arm_comparison,
    write_checkpoint,
    write_report,
    write_train_log,
)
from .io import (
    EsiRecord,
    RunConfig,
    config_hash,
    load_config,
    read_dataset,
    write_dataset,
)
from .metrics import (
    GoodCurve,
    au_good,
    curve_from_risks,
    mae,
    r_squared,
)
from .model import (
    ModelParams,
    TrainConfig,
    featurize_enzyme,
    featurize_substrate,
    init_params,
    predict,
    train,
)
from .molgraph import (
    MolGraph,
    canonical_smiles,
    enumerate_smiles,
    is_isomorphic,
    parse_smiles,
    write_smiles,
)
from .seqid import (
    OodSplit,
    build_ood_splits,
    global_identity,
    greedy_cluster,
    max_identity_to_train,
    pairwise_identity_matrix,
    read_split_file,
    write_split_file,
)
from .synth import (
    SynthConfig,
    generate,
    load_synth_config,
    read_truth,
    write_benchmark,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentConfig",
    "ConfigError",
    "DatasetError",
    "DegenerateTargetsError",
    "DuplicateIdError",
    "EnzoodError",
    "EsiRecord",
    "GoodCurve",
    "GraphError",
    "InfeasibleSplitError",
    "LAMBDA_GRID",
    "MASK_GRID",
    "ModelParams",
    "MolGraph",
    "NestedSplit",
    "NonFiniteError",
    "OodSplit",
    "RunConfig",
    "SizeError",
    "SmilesSyntaxError",
    "SynthConfig",
    "TrainConfig",
    "ValenceError",
    "au_good",
    "augment_dataset",
    "augment_record",
    "best_lambda_index",
    "build_ood_splits",
    "canonical_smiles",
    "config_hash",
    "curve_from_risks",
    "enumerate_smiles",
    "evaluate_params",
    "featurize_enzyme",
    "featurize_substrate",
    "generate",
    "global_identity",
    "good_evaluation",
    "greedy_cluster",
    "init_params",
    "is_isomorphic",
    "lambda_sweep",
    "load_config",
    "load_synth_config",
    "mae",
    "mask_graph",
    "mask_sequence",
    "mask_sweep",
    "max_identity_to_train",
    "nested_identity_split",
    "pairwise_identity_matrix",
    "parse_smiles",
    "predict",
    "r_squared",
    "read_checkpoint",
    "read_dataset",
    "read_split_file",
    "read_truth",
    "train",
    "train_on_split",
    "two_arm_comparison",
    "write_benchmark",
    "write_checkpoint",
    "write_dataset",
    "write_report",
    "write_smiles",
    "write_split_file",
    "write_train_log",
]
