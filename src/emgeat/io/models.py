"""Versioned, checksummed text serialization of trained linear models.

The payload is canonical JSON (sorted keys) carrying every field needed for
self-contained prediction; a sha256 of the payload guards against file
corruption. JSON float encoding round-trips exactly, so a saved model
reproduces bit-identical decision values.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from ..learn import LinearModel
from .recordings import FormatError, read_lines

MODEL_MAGIC = "# emg-linear-model v1"


def save_model(model: LinearModel, path) -> Path:
    path = Path(path)
    payload = {
        "feature_names": list(model.feature_names),
        "weights": list(map(float, model.weights)),
        "bias": float(model.bias),
        "mean": list(map(float, model.mean)),
        "scale": list(map(float, model.scale)),
        "positive_label": model.positive_label,
        "negative_label": model.negative_label,
        "train_info": model.train_info,
    }
    body = json.dumps(payload, sort_keys=True)
    digest = hashlib.sha256(body.encode()).hexdigest()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(MODEL_MAGIC + "\n")
        fh.write(f"# sha256={digest}\n")
        fh.write(body + "\n")
    return path


def load_model(path) -> LinearModel:
    """Read a model and verify its checksum and that its arrays fit its
    features: one finite weight, mean and nonzero scale each, finite bias."""
    path = Path(path)
    lines = read_lines(path, MODEL_MAGIC)
    if len(lines) < 3 or not lines[1].startswith("# sha256="):
        raise FormatError(f"{path}:2: missing checksum line")
    stored = lines[1][len("# sha256=") :]
    body = "\n".join(lines[2:])
    digest = hashlib.sha256(body.encode()).hexdigest()
    if digest != stored:
        raise FormatError(f"{path}: checksum mismatch; file corrupted")
    try:
        payload = json.loads(body)
    except (ValueError, RecursionError) as exc:  # ValueError: JSONDecodeError, huge ints
        raise FormatError(f"{path}: unparseable payload: {exc}") from None
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: model payload is not a JSON object")
    names = payload.get("feature_names")
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise FormatError(f"{path}: model field 'feature_names' is not a list of names")
    for key in ("positive_label", "negative_label"):
        if key not in payload:
            raise FormatError(f"{path}: model payload missing field {key!r}")
    arrays = {
        key: _finite(path, payload, key, () if key == "bias" else (len(names),))
        for key in ("bias", "weights", "mean", "scale")
    }
    if not arrays["scale"].all():
        raise FormatError(f"{path}: model field 'scale' holds a zero")
    # A model fitted with a nan or infinite penalty is all zeros.
    info = payload.get("train_info", {})
    c = info.get("c", 1.0) if isinstance(info, dict) else None
    if not (type(c) in (int, float) and 0 < c < math.inf):
        raise FormatError(f"{path}: model field 'train_info' needs a positive finite 'c'")
    return LinearModel(
        feature_names=tuple(names),
        bias=float(arrays.pop("bias")),
        positive_label=payload["positive_label"],
        negative_label=payload["negative_label"],
        train_info=info,
        **arrays,
    )


def _finite(path, payload, key, shape) -> np.ndarray:
    try:
        value = np.asarray(payload.get(key), dtype=float)  # a missing key is nan
    except (TypeError, ValueError, OverflowError):
        value = None
    if value is None or value.shape != shape or not np.isfinite(value).all():
        what = f"{shape[0]} finite numbers, one per feature" if shape else "a finite number"
        raise FormatError(f"{path}: model field {key!r} must be {what}")
    return value
