"""Checkpoint serialization: one structured text document.

Layout: a version line, the full config echo, scalar run state, then
named arrays (shape header plus one line of row-major values).  Floats
are written with repr, which round-trips every double exactly, so
save -> load -> continue is bit-identical to an uninterrupted run.  All
randomness is drawn from counter-keyed streams, so the only rng state a
resume needs is the update counter itself (recorded as rng_scheme).
"""

from __future__ import annotations

import os
import warnings

import numpy as np

from . import config as cfgmod

VERSION_LINE = "refgame checkpoint v1"


def _format_scalar(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_scalar(raw):
    raw = raw.strip()
    if raw == "true":
        return True
    if raw == "false":
        return False
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def save_checkpoint(path, cfg, scalars, arrays):
    """Atomically write config echo, scalar state and named arrays."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as f:
        f.write(VERSION_LINE + "\n")
        f.write("[config]\n")
        f.write("\n".join(cfgmod.config_lines(cfg)) + "\n")
        f.write("[state]\n")
        f.write("rng_scheme = counter\n")
        for key in sorted(scalars):
            f.write(f"{key} = {_format_scalar(scalars[key])}\n")
        for name in sorted(arrays):
            arr = np.asarray(arrays[name], dtype=np.float64)
            dims = " ".join(str(d) for d in arr.shape)
            f.write(f"[array {name} {dims}]\n")
            # repr of the value list is the per-value repr join, built in C
            f.write(repr(arr.ravel().tolist())[1:-1].replace(", ", " ") + "\n")
    os.replace(tmp, path)


def _read_config(path, lines):
    """Consume the version line and the [config] block from an iterator
    of lines, up to and including the [state] line; returns the config."""
    head = next(lines, "<empty>")
    if head != VERSION_LINE:
        raise ValueError(f"checkpoint {path}: version mismatch "
                         f"(got {head!r}, want {VERSION_LINE!r})")
    if next(lines, None) != "[config]":
        raise ValueError(f"checkpoint {path}: no [config] block after the "
                         f"version line")
    config_lines = []
    for line in lines:
        if line == "[state]":
            break
        config_lines.append(line)
    else:
        raise ValueError(f"checkpoint {path}: no [state] block")
    values = cfgmod.parse_config_text("\n".join(config_lines))
    cfg = cfgmod.RunConfig()
    for key, value in values.items():
        setattr(cfg, key, value)
    return cfg.validate()


def load_checkpoint_config(path):
    """The config echo alone; the array sections are never read."""
    with open(path) as f:
        return _read_config(path, (line.rstrip("\n") for line in f))


def _parse_array(path, header, values_line):
    """(name, array) from an ``[array name d0 d1 ...]`` header and the
    line of values that follows it."""
    try:
        _, name, *dims = header[1:-1].split()
        shape = tuple(int(d) for d in dims)
    except ValueError:
        raise ValueError(f"checkpoint {path}: malformed header {header!r}") from None
    if values_line is None:
        raise ValueError(f"checkpoint {path}: array {name} has no values line")
    try:
        # older NumPy only warns on text it cannot read to the end
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            values = np.fromstring(values_line, dtype=np.float64, sep=" ")
    except (ValueError, DeprecationWarning):
        raise ValueError(f"checkpoint {path}: array {name} has a malformed "
                         f"values line") from None
    if values.size != int(np.prod(shape, dtype=int)):
        raise ValueError(f"checkpoint {path}: array {name} has "
                         f"{values.size} values for shape {shape}")
    return name, values.reshape(shape)


def load_checkpoint(path):
    """Returns (RunConfig, scalar dict, array dict); rejects unknown
    format versions and truncated or malformed arrays."""
    with open(path) as f:
        text = f.read()
    # every save ends with a newline, so a file without one was cut short,
    # possibly inside the last value
    if text and not text.endswith("\n"):
        raise ValueError(f"checkpoint {path}: truncated (no final newline)")
    lines = iter(text.splitlines())
    cfg = _read_config(path, lines)
    scalars = {}
    arrays = {}
    for line in lines:
        if line.startswith("[array "):
            name, arr = _parse_array(path, line, next(lines, None))
            arrays[name] = arr
        elif not arrays and "=" in line:
            key, _, raw = line.partition("=")
            scalars[key.strip()] = _parse_scalar(raw)
        elif line.strip():
            raise ValueError(f"checkpoint {path}: unexpected line {line!r}")
    return cfg, scalars, arrays
