"""Dataset and configuration persistence shared by the whole pipeline.

Two dataset formats: tab-delimited (human-inspectable corpora) and one
JSON object per line (metadata-rich synthetic sets).  Reals always carry
17 significant digits so write-then-read reproduces every double
bit-exactly and repeated writes are byte-identical.  Run configuration
is flat key=value text with strict key checking; every artifact embeds
the seed and a hash of the resolved configuration.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .augment import AugmentConfig, validate_sequence
from .errors import ConfigError, DatasetError, DuplicateIdError
from .model import TrainConfig
from .molgraph import MolGraph, parse_smiles

TASKS = ("kcat", "km")

FORMAT_TSV = "tsv"
FORMAT_JSONL = "jsonl"
FORMATS = (FORMAT_TSV, FORMAT_JSONL)

_COLUMNS = (
    "id",
    "sequence",
    "smiles",
    "value",
    "task",
    "organism",
    "substrate_name",
    "ph",
    "temperature",
    "substrate_mask",
)
_HEADER = "\t".join(_COLUMNS)
_REQUIRED = ("id", "sequence", "smiles", "value", "task")


def format_real(x: float) -> str:
    """17 significant digits: enough to reconstruct the double exactly."""
    return f"{float(x):.17g}"


def _mask_to_text(mask) -> str:
    return "".join("1" if b else "0" for b in mask)


def _mask_from_text(text: str) -> tuple[bool, ...]:
    if not text or set(text) - {"0", "1"}:
        raise ValueError(f"substrate_mask must be a string of 0/1, got {text!r}")
    return tuple(c == "1" for c in text)


@dataclass(frozen=True)
class EsiRecord:
    """One measured enzyme-substrate interaction.

    value is the log10 kinetic parameter named by task.  substrate_mask,
    when present, marks masked substrate atoms from graph-mask
    augmentation so materialized pseudo records survive round trips.
    graph is the substrate parsed from smiles during validation; it is
    derived, so it stays out of equality, hashing, repr and both file
    formats.
    """

    id: str
    sequence: str
    smiles: str
    value: float
    task: str = "kcat"
    organism: str | None = None
    substrate_name: str | None = None
    ph: float | None = None
    temperature: float | None = None
    substrate_mask: tuple[bool, ...] | None = None
    graph: MolGraph = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        if self.ph is not None:
            object.__setattr__(self, "ph", float(self.ph))
        if self.temperature is not None:
            object.__setattr__(self, "temperature", float(self.temperature))
        if self.substrate_mask is not None:
            object.__setattr__(
                self, "substrate_mask", tuple(bool(b) for b in self.substrate_mask)
            )
        if not self.id or any(c.isspace() for c in self.id):
            raise DatasetError(
                f"record id must be non-empty without whitespace, got {self.id!r}"
            )
        try:
            validate_sequence(self.sequence)
            graph = parse_smiles(self.smiles)
        except ValueError as exc:
            raise DatasetError(f"record {self.id!r}: {exc}") from exc
        object.__setattr__(self, "graph", graph)
        if not math.isfinite(self.value):
            raise DatasetError(f"record {self.id!r}: value must be finite, got {self.value}")
        if self.task not in TASKS:
            raise DatasetError(
                f"record {self.id!r}: task must be one of {TASKS}, got {self.task!r}"
            )
        for name in ("ph", "temperature"):
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                raise DatasetError(f"record {self.id!r}: {name} must be finite, got {v}")
        for name in ("organism", "substrate_name"):
            v = getattr(self, name)
            if v is not None and (not v or "\t" in v or "\n" in v):
                raise DatasetError(
                    f"record {self.id!r}: {name} must be non-empty single-line text"
                )
        if self.substrate_mask is not None:
            if len(self.substrate_mask) != len(graph):
                raise DatasetError(
                    f"record {self.id!r}: substrate_mask length "
                    f"{len(self.substrate_mask)} != atom count {len(graph)}"
                )
            for i, (masked, prot) in enumerate(zip(self.substrate_mask, graph.protected)):
                if masked and prot:
                    raise DatasetError(
                        f"record {self.id!r}: substrate_mask marks protected atom {i}"
                    )


# ---------------------------------------------------------------------------
# Dataset files


def _infer_format(path: Path) -> str:
    suffix = path.suffix.lower().lstrip(".")
    if suffix in FORMATS:
        return suffix
    raise ConfigError(
        f"cannot infer dataset format from {path.name!r}; pass fmt explicitly"
    )


def _check_format(fmt: str) -> str:
    if fmt not in FORMATS:
        raise ConfigError(f"dataset format must be one of {FORMATS}, got {fmt!r}")
    return fmt


def _build_record(raw: dict, origin: str, lineno: int) -> EsiRecord:
    try:
        return EsiRecord(**raw)
    except (DatasetError, ValueError, TypeError) as exc:
        raise DatasetError(f"{origin}:{lineno}: {exc}") from exc


def _parse_tsv(lines, origin: str) -> list[tuple[int, EsiRecord]]:
    if not lines:
        raise DatasetError(f"{origin}:1: empty file, expected header {_HEADER!r}")
    if lines[0] != _HEADER:
        raise DatasetError(f"{origin}:1: bad header, expected {_HEADER!r}")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split("\t")
        if len(cells) != len(_COLUMNS):
            raise DatasetError(
                f"{origin}:{lineno}: expected {len(_COLUMNS)} columns, got {len(cells)}"
            )
        raw = {}
        for name, cell in zip(_COLUMNS, cells):
            if not cell:
                if name in _REQUIRED:
                    raise DatasetError(f"{origin}:{lineno}: missing required field {name}")
                raw[name] = None
                continue
            try:
                if name in ("value", "ph", "temperature"):
                    raw[name] = float(cell)
                elif name == "substrate_mask":
                    raw[name] = _mask_from_text(cell)
                else:
                    raw[name] = cell
            except ValueError as exc:
                raise DatasetError(f"{origin}:{lineno}: bad {name}: {exc}") from exc
        records.append((lineno, _build_record(raw, origin, lineno)))
    return records


def _parse_jsonl(lines, origin: str) -> list[tuple[int, EsiRecord]]:
    records = []
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{origin}:{lineno}: invalid record line: {exc}") from exc
        if not isinstance(obj, dict):
            raise DatasetError(f"{origin}:{lineno}: record line must be an object")
        unknown = sorted(set(obj) - set(_COLUMNS))
        if unknown:
            raise DatasetError(f"{origin}:{lineno}: unknown fields {unknown}")
        missing = [name for name in _REQUIRED if name not in obj]
        if missing:
            raise DatasetError(f"{origin}:{lineno}: missing required fields {missing}")
        raw = dict(obj)
        if "substrate_mask" in raw and raw["substrate_mask"] is not None:
            try:
                raw["substrate_mask"] = _mask_from_text(raw["substrate_mask"])
            except (TypeError, ValueError) as exc:
                raise DatasetError(f"{origin}:{lineno}: bad substrate_mask: {exc}") from exc
        records.append((lineno, _build_record(raw, origin, lineno)))
    return records


def read_dataset(path, fmt: str | None = None) -> list[EsiRecord]:
    """Load and eagerly validate every record.

    Validation errors name the file and line; duplicate ids raise
    DuplicateIdError.
    """
    path = Path(path)
    fmt = _check_format(fmt) if fmt else _infer_format(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DatasetError(f"cannot read dataset {path}: {exc}") from exc
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    origin = str(path)
    if fmt == FORMAT_TSV:
        numbered = _parse_tsv(lines, origin)
    else:
        numbered = _parse_jsonl(lines, origin)
    seen: dict[str, int] = {}
    for lineno, record in numbered:
        if record.id in seen:
            raise DuplicateIdError(
                f"{origin}:{lineno}: duplicate id {record.id!r} "
                f"(first seen at line {seen[record.id]})"
            )
        seen[record.id] = lineno
    return [record for _, record in numbered]


def _record_to_tsv(r: EsiRecord) -> str:
    cells = (
        r.id,
        r.sequence,
        r.smiles,
        format_real(r.value),
        r.task,
        r.organism or "",
        r.substrate_name or "",
        "" if r.ph is None else format_real(r.ph),
        "" if r.temperature is None else format_real(r.temperature),
        "" if r.substrate_mask is None else _mask_to_text(r.substrate_mask),
    )
    return "\t".join(cells)


def _record_to_jsonl(r: EsiRecord) -> str:
    parts = [
        f'"id": {json.dumps(r.id)}',
        f'"sequence": {json.dumps(r.sequence)}',
        f'"smiles": {json.dumps(r.smiles)}',
        f'"value": {format_real(r.value)}',
        f'"task": {json.dumps(r.task)}',
    ]
    if r.organism is not None:
        parts.append(f'"organism": {json.dumps(r.organism)}')
    if r.substrate_name is not None:
        parts.append(f'"substrate_name": {json.dumps(r.substrate_name)}')
    if r.ph is not None:
        parts.append(f'"ph": {format_real(r.ph)}')
    if r.temperature is not None:
        parts.append(f'"temperature": {format_real(r.temperature)}')
    if r.substrate_mask is not None:
        parts.append(f'"substrate_mask": {json.dumps(_mask_to_text(r.substrate_mask))}')
    return "{" + ", ".join(parts) + "}"


def write_dataset(records, path, fmt: str | None = None) -> None:
    """Deterministic field order and formatting; rewriting the same
    records yields a byte-identical file."""
    path = Path(path)
    fmt = _check_format(fmt) if fmt else _infer_format(path)
    records = list(records)
    seen = set()
    for record in records:
        if record.id in seen:
            raise DuplicateIdError(f"duplicate id {record.id!r} in records to write")
        seen.add(record.id)
    if fmt == FORMAT_TSV:
        body = [_HEADER] + [_record_to_tsv(r) for r in records]
    else:
        body = [_record_to_jsonl(r) for r in records]
    text = "\n".join(body)
    if body:
        text += "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Run configuration


@dataclass(frozen=True)
class RunConfig:
    """Resolved pipeline configuration; defaults match the reference
    operating point (10% masking on both sides, lam=0.5, 64-dim
    embedding)."""

    p_s: float = 0.10
    p_g: float = 0.10
    substrate_mode: str = "graph_mask"
    lam: float = 0.5
    normalize_cons: bool = False
    learning_rate: float = 0.02
    epochs: int = 300
    batch_size: int = 16
    hidden_enzyme: int = 48
    hidden_substrate: int = 16
    embed_dim: int = 64
    seed: int = 0

    def __post_init__(self):
        # constructing the module configs runs their validation
        self.train_config()

    def augment_config(self) -> AugmentConfig:
        return AugmentConfig(
            p_s=self.p_s,
            p_g=self.p_g,
            substrate_mode=self.substrate_mode,
            seed=self.seed,
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            lam=self.lam,
            learning_rate=self.learning_rate,
            epochs=self.epochs,
            batch_size=self.batch_size,
            hidden_enzyme=self.hidden_enzyme,
            hidden_substrate=self.hidden_substrate,
            embed_dim=self.embed_dim,
            seed=self.seed,
            normalize_cons=self.normalize_cons,
            augment=self.augment_config(),
        )


_CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))


def parse_bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(f"expected true or false, got {text!r}")


def parse_int(text: str) -> int:
    return int(text, 10)


def parse_real(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite real, got {text!r}")
    return value


_CONFIG_PARSERS = {
    "p_s": parse_real,
    "p_g": parse_real,
    "substrate_mode": str,
    "lam": parse_real,
    "normalize_cons": parse_bool,
    "learning_rate": parse_real,
    "epochs": parse_int,
    "batch_size": parse_int,
    "hidden_enzyme": parse_int,
    "hidden_substrate": parse_int,
    "embed_dim": parse_int,
    "seed": parse_int,
}

assert set(_CONFIG_PARSERS) == set(_CONFIG_KEYS)


def iter_config_pairs(text: str, origin: str = "<config>"):
    """Yield (lineno, key, value) from flat key=value lines; '#' starts a
    comment and blank lines are skipped."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{origin}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        yield lineno, key.strip(), value.strip()


def parse_config_pairs(text: str, parsers: dict, origin: str) -> dict:
    """Typed overrides from key=value text; unknown keys are all reported
    at once, duplicates and bad literals name their line."""
    overrides: dict = {}
    unknown: list[str] = []
    for lineno, key, value in iter_config_pairs(text, origin):
        if key not in parsers:
            unknown.append(key)
            continue
        if key in overrides:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key}")
        try:
            overrides[key] = parsers[key](value)
        except ValueError as exc:
            raise ConfigError(f"{origin}:{lineno}: bad value for {key}: {exc}") from exc
    if unknown:
        raise ConfigError(f"{origin}: unknown configuration keys: {', '.join(sorted(unknown))}")
    return overrides


def parse_config_text(text: str, origin: str = "<config>") -> RunConfig:
    """Flat key=value lines; an empty document resolves to all defaults."""
    return RunConfig(**parse_config_pairs(text, _CONFIG_PARSERS, origin))


def load_config(path=None) -> RunConfig:
    """Read a config file; None means all defaults."""
    if path is None:
        return RunConfig()
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, origin=str(path))


def resolved_items(cfg) -> tuple[tuple[str, str], ...]:
    """(key, value-text) pairs in declaration order, formatted the same
    way everywhere so echoes and hashes agree byte-for-byte.

    Works on any flat config dataclass, not just RunConfig.
    """
    def scalar(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return format_real(v)
        return str(v)

    out = []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        text = ",".join(scalar(item) for item in v) if isinstance(v, tuple) else scalar(v)
        out.append((f.name, text))
    return tuple(out)


def config_hash(cfg) -> str:
    """sha256 over the resolved key=value lines."""
    text = "\n".join(f"{k}={v}" for k, v in resolved_items(cfg)) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
