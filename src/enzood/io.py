"""Dataset and configuration persistence shared by the whole pipeline.

One dataset format: tab-delimited text with a fixed header.  Reals always
carry 17 significant digits so write-then-read reproduces every double
bit-exactly and repeated writes are byte-identical.  Run and synthesis
configurations are flat key=value text with strict key checking, read
by one grammar; every artifact embeds the seed and a hash of the
resolved configuration.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import re
from dataclasses import dataclass, field, fields
from pathlib import Path

from .augment import SUBSTRATE_MODES, validate_sequence
from .errors import ConfigError, DatasetError, DuplicateIdError
from .molgraph import MolGraph, parse_smiles

TASKS = ("kcat", "km")

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


def format_scalar(value) -> str:
    """The text of one config value, report cell or log cell: format_real
    for a float, str for anything else."""
    if isinstance(value, float):
        return format_real(value)
    return str(value)


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
    derived, so it stays out of equality, hashing, repr and the file
    format.
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


def _check_suffix(path: Path) -> None:
    if path.suffix.lower() != ".tsv":
        raise ConfigError(f"dataset file {path.name!r} must end in .tsv")


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


def read_dataset(path) -> list[EsiRecord]:
    """Load and eagerly validate every record of a .tsv file.

    Validation errors name the file and line; duplicate ids raise
    DuplicateIdError.
    """
    path = Path(path)
    _check_suffix(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DatasetError(f"cannot read dataset {path}: {exc}") from exc
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    origin = str(path)
    numbered = _parse_tsv(lines, origin)
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


def write_dataset(records, path) -> None:
    """Deterministic field order and formatting in a .tsv file; rewriting
    the same records yields a byte-identical file."""
    path = Path(path)
    _check_suffix(path)
    records = list(records)
    seen = set()
    for record in records:
        if record.id in seen:
            raise DuplicateIdError(f"duplicate id {record.id!r} in records to write")
        seen.add(record.id)
    text = "\n".join([_HEADER] + [_record_to_tsv(r) for r in records]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Run configuration

MAX_MASK_RATIO = 0.3


@dataclass(frozen=True)
class RunConfig:
    """The run configuration: every setting of augmentation and training.

    Defaults match the reference operating point (10% masking on both
    sides, lam=0.5, 64-dim embedding).  p_s and p_g are the enzyme and
    substrate mask ratios, capped at 0.3 (MAX_MASK_RATIO);
    substrate_mode picks between re-rendered SMILES text (enumeration)
    and atom masking (graph_mask).  lam weighs the consistency term (0
    disables it).  seed drives initialisation, batch order and
    every augmentation draw.  Every range check lives here and raises
    ConfigError naming the field.
    """

    p_s: float = 0.10
    p_g: float = 0.10
    substrate_mode: str = "graph_mask"
    lam: float = 0.5
    learning_rate: float = 0.02
    epochs: int = 300
    batch_size: int = 16
    hidden_enzyme: int = 48
    hidden_substrate: int = 16
    embed_dim: int = 64
    seed: int = 0

    def __post_init__(self):
        for name in ("p_s", "p_g", "lam", "learning_rate"):
            check_real(name, getattr(self, name))
        check_ratio("p_s", self.p_s)
        check_ratio("p_g", self.p_g)
        if self.substrate_mode not in SUBSTRATE_MODES:
            raise ConfigError(
                f"substrate_mode must be one of {SUBSTRATE_MODES}, got {self.substrate_mode!r}"
            )
        if not (self.lam >= 0 and math.isfinite(self.lam)):
            raise ConfigError(f"lam must be finite and non-negative, got {self.lam}")
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ConfigError(
                f"learning_rate must be finite and positive, got {self.learning_rate}"
            )
        for name in ("epochs", "batch_size", "hidden_enzyme", "hidden_substrate", "embed_dim"):
            check_integer(name, getattr(self, name), 1)
        check_integer("seed", self.seed, 0)


def check_real(name: str, value) -> None:
    """ConfigError naming ``name`` unless value is a real number (not a
    bool): a bool would echo as True or False, which no real field
    reads back."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ConfigError(f"{name} must be a real number, got {value!r}")


def check_ratio(name: str, value: float) -> None:
    """Mask ratios above 0.3 hurt more than they help, so both are capped
    there; NaN fails the range test too."""
    if not 0.0 <= value <= MAX_MASK_RATIO:
        raise ConfigError(f"{name} must be in [0, {MAX_MASK_RATIO}], got {value}")


def check_integer(name: str, value, least: int) -> None:
    """ConfigError naming ``name`` unless value is an integer (not a
    bool) of at least ``least``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < least:
        raise ConfigError(f"{name} must be an integer of at least {least}, got {value!r}")


def parse_int(text: str) -> int:
    return int(text, 10)


def parse_real(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite real, got {text!r}")
    return value


def _parse_list(text: str) -> tuple[str, ...]:
    items = tuple(part.strip() for part in text.split(",") if part.strip())
    if not items:
        raise ValueError("expected a comma-separated list")
    return items


_PARSERS = {float: parse_real, int: parse_int, str: str, tuple: _parse_list}

# '#' opens a comment at the start of a line or after whitespace, so the
# triple bond of a SMILES value such as CC#N stays part of the value
_COMMENT = re.compile(r"(?:^|\s)#")


def parse_config_text(text: str, origin: str = "<config>", kind=RunConfig):
    """A ``kind`` (RunConfig or SynthConfig) from flat key=value lines.

    Blank lines are skipped and a '#' at the start of a line or after
    whitespace starts a comment.  Each value is read by the type of its
    field's default: a float by parse_real, an int by parse_int, a str
    as it stands and a tuple as a comma-separated list.  Unknown keys are
    all reported at once; a duplicate key or a bad value names its line.
    An empty document resolves to all defaults.
    """
    defaults = {f.name: f.default for f in fields(kind)}
    overrides: dict = {}
    unknown: list[str] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = _COMMENT.split(line, maxsplit=1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{origin}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = (part.strip() for part in stripped.partition("="))
        if key not in defaults:
            unknown.append(key)
            continue
        if key in overrides:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key}")
        try:
            overrides[key] = _PARSERS[type(defaults[key])](value)
        except ValueError as exc:
            raise ConfigError(f"{origin}:{lineno}: bad value for {key}: {exc}") from exc
    if unknown:
        raise ConfigError(f"{origin}: unknown configuration keys: {', '.join(sorted(unknown))}")
    return kind(**overrides)


def load_config(path=None, kind=RunConfig):
    """Read a ``kind`` config file; None means all defaults."""
    if path is None:
        return kind()
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, str(path), kind)


def resolved_items(cfg) -> tuple[tuple[str, str], ...]:
    """(key, value-text) pairs in declaration order, formatted the same
    way everywhere so echoes and hashes agree byte-for-byte.

    Works on any flat config dataclass, not just RunConfig.
    """
    out = []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        text = ",".join(map(format_scalar, v)) if isinstance(v, tuple) else format_scalar(v)
        out.append((f.name, text))
    return tuple(out)


def config_hash(cfg) -> str:
    """sha256 over the resolved key=value lines."""
    text = "\n".join(f"{k}={v}" for k, v in resolved_items(cfg)) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
