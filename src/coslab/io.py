"""JSON file I/O for the function and body representations."""

from __future__ import annotations

import json
from pathlib import Path

from .errors import RepresentationError
from .sphere import GrassmannFunctionS2, GridFunction, HarmonicCoeffs
from .starbody import StarBody
from .zonal import ZonalFunction

__all__ = ["load_object", "save_object", "detect_kind"]


def detect_kind(d: dict) -> str:
    """Representation family of a parsed JSON object."""
    if "repr_kind" in d:
        return "starbody"
    if "kind" in d:
        return "grassmann"
    if "basis" in d:
        return "zonal"
    if "ordering" in d:
        return "coeffs"
    if "grid" in d:
        return "grid"
    raise RepresentationError("file does not contain a known representation")


_LOADERS = {
    "starbody": StarBody.from_dict,
    "grassmann": GrassmannFunctionS2.from_dict,
    "zonal": ZonalFunction.from_dict,
    "coeffs": HarmonicCoeffs.from_dict,
    "grid": GridFunction.from_dict,
}


def load_object(path: str | Path):
    """Read a representation file; text that is not JSON, a missing key or a
    malformed field raises RepresentationError."""
    with open(path) as fh:
        try:
            d = json.load(fh)
        except ValueError as exc:           # JSONDecodeError or UnicodeDecodeError
            raise RepresentationError(f"{path}: not a JSON file: {exc}") from exc
    if not isinstance(d, dict):
        raise RepresentationError(f"{path}: expected a JSON object")
    kind = detect_kind(d)
    try:
        return _LOADERS[kind](d)
    except KeyError as exc:
        raise RepresentationError(f"{path}: {kind} file needs the key {exc}") from exc
    except (TypeError, ValueError, RepresentationError) as exc:
        raise RepresentationError(f"{path}: malformed {kind} file: {exc}") from exc


def save_object(obj, path: str | Path, meta: dict | None = None) -> None:
    d = obj.to_dict()
    if meta:
        d["meta"] = {**d.get("meta", {}), **meta}
    with open(path, "w") as fh:
        json.dump(d, fh, indent=1)
        fh.write("\n")
