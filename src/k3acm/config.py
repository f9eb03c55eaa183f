"""Load and dump lattice descriptions as strict JSON documents.

A config file is a single JSON object with exactly the keys

    rank          int, 1 to 22
    gram          row-major list of lists of ints
    labels        list of strings, one per basis class
    ample         coordinate list of the ample class
    k3            bool, enables the even/signature surface checks
    assumptions   list of geometric facts (see ``assumption_from_json``)

Unknown keys are rejected so that typos fail loudly instead of being
silently ignored.  A config file is read as UTF-8 and may hold at most
``_MAX_CONFIG_BYTES`` bytes; a file that is longer, is not UTF-8, nests
too deeply for the JSON reader or holds an integer past Python's
int-string digit limit (4,300 digits) is refused with a ConfigError.
"""

import json
from pathlib import Path

from .classifier import Assumption, AssumptionKind
from .errors import ConfigError
from .lattice import DivClass, Lattice

_CONFIG_KEYS = ("rank", "gram", "labels", "ample", "k3", "assumptions")
_ASSUMPTION_KEYS = ("subject", "kind", "note")

_DATA_DIR = Path(__file__).parent / "data"

# the rank of H^2(X, Z) of a K3 surface bounds every Picard lattice; the
# signature's cost grows about as rank^4.5, to hours at rank 1000
_MAX_RANK = 22

# a rank-22 config whose every entry has 4,300 digits, the most that
# Python reads as an int, is about 2.2 MB; a longer file (/dev/zero, say)
# is refused before it is read whole
_MAX_CONFIG_BYTES = 4 * 1024 * 1024


def _is_int(x) -> bool:
    # bool is an int subclass; a config saying "rank": true is a mistake
    return isinstance(x, int) and not isinstance(x, bool)


def _int_list(value, length: int, where: str) -> list[int]:
    if not isinstance(value, list) or len(value) != length:
        raise ConfigError(f"{where} must be a list of {length} ints")
    if not all(_is_int(x) for x in value):
        raise ConfigError(f"{where} must contain only ints")
    return list(value)


def assumption_to_json(a: Assumption) -> dict:
    return {"subject": list(a.subject.coords), "kind": a.kind.value,
            "note": a.note}


def assumption_from_json(data, rank: int) -> Assumption:
    if not isinstance(data, dict):
        raise ConfigError("each assumption must be a JSON object")
    extra = set(data) - set(_ASSUMPTION_KEYS)
    if extra:
        raise ConfigError(f"unknown assumption keys: {sorted(extra)}")
    for key in ("subject", "kind"):
        if key not in data:
            raise ConfigError(f"assumption is missing the {key!r} key")
    subject = DivClass(_int_list(data["subject"], rank, "assumption subject"))
    try:
        kind = AssumptionKind(data["kind"])
    except ValueError:
        allowed = ", ".join(k.value for k in AssumptionKind)
        raise ConfigError(
            f"unknown assumption kind {data['kind']!r}; "
            f"expected one of: {allowed}") from None
    note = data.get("note", "")
    if not isinstance(note, str):
        raise ConfigError("assumption note must be a string")
    return Assumption(subject, kind, note)


def config_from_json(data) -> tuple[Lattice, tuple[Assumption, ...]]:
    """Validate a parsed config document and build the lattice it describes."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    extra = set(data) - set(_CONFIG_KEYS)
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")
    missing = [k for k in _CONFIG_KEYS if k not in data]
    if missing:
        raise ConfigError(f"config is missing keys: {missing}")

    rank = data["rank"]
    if not _is_int(rank) or rank < 1:
        raise ConfigError("rank must be a positive int")
    if rank > _MAX_RANK:
        raise ConfigError(f"rank {rank} exceeds {_MAX_RANK}, the rank of "
                          "H^2(X, Z) of a K3 surface")

    gram = data["gram"]
    if not isinstance(gram, list) or len(gram) != rank:
        raise ConfigError(f"gram must be a list of {rank} rows")
    gram = [_int_list(row, rank, f"gram row {i}") for i, row in enumerate(gram)]

    labels = data["labels"]
    if (not isinstance(labels, list) or len(labels) != rank
            or not all(isinstance(s, str) for s in labels)):
        raise ConfigError(f"labels must be a list of {rank} strings")

    ample = _int_list(data["ample"], rank, "ample")

    k3 = data["k3"]
    if not isinstance(k3, bool):
        raise ConfigError("k3 must be a bool")

    raw = data["assumptions"]
    if not isinstance(raw, list):
        raise ConfigError("assumptions must be a list")
    assumptions = tuple(assumption_from_json(a, rank) for a in raw)

    lat = Lattice(gram=gram, labels=tuple(labels), ample=DivClass(ample), k3=k3)
    return lat, assumptions


def config_to_json(lat: Lattice, assumptions=()) -> dict:
    return {
        "rank": lat.rank,
        "gram": [list(row) for row in lat.gram],
        "labels": list(lat.labels),
        "ample": list(lat.ample.coords),
        "k3": lat.k3,
        "assumptions": [assumption_to_json(a) for a in assumptions],
    }


def loads_config(text: str) -> tuple[Lattice, tuple[Assumption, ...]]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    except ValueError as exc:  # an int past the int-string digit limit
        raise ConfigError(
            f"config holds an unreadable number: {exc}") from None
    except RecursionError:
        raise ConfigError("config is nested too deeply to read") from None
    return config_from_json(data)


def _read_capped(path: Path) -> bytes:
    """The file's bytes; of a file longer than _MAX_CONFIG_BYTES, only
    enough of them to show that.

    Read in 64 KiB pieces: one read of the whole cap would allocate it for
    every config, which costs more than reading a shipped one.
    """
    parts, size = [], 0
    with path.open("rb") as f:
        while size <= _MAX_CONFIG_BYTES:
            part = f.read(1 << 16)
            if not part:
                break
            parts.append(part)
            size += len(part)
    return b"".join(parts)


def load_config(path) -> tuple[Lattice, tuple[Assumption, ...]]:
    """Read, validate and build one lattice config file."""
    path = Path(path)
    try:
        raw = _read_capped(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if len(raw) > _MAX_CONFIG_BYTES:
        raise ConfigError(f"config {path} is longer than "
                          f"{_MAX_CONFIG_BYTES} bytes")
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8: {exc}") from None
    return loads_config(text)


def data_path(name: str) -> Path:
    """Absolute path of a shipped config file (e.g. ``quartic_b2_4.json``)."""
    path = _DATA_DIR / name
    if not path.is_file():
        raise ConfigError(
            f"no shipped config named {name!r}; "
            f"available: {shipped_config_names()}")
    return path


def shipped_config_names() -> tuple[str, ...]:
    return tuple(sorted(p.name for p in _DATA_DIR.glob("*.json")))


def shipped_quartic_names() -> tuple[str, ...]:
    """The shipped rank-2 quartic configs, one per classifier presentation."""
    return tuple(n for n in shipped_config_names() if n.startswith("quartic_"))
