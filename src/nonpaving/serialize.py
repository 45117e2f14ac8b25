"""Deterministic text output: 17-significant-digit reals and canonical JSON.

Every number written to disk goes through format_real so that repeated runs
produce byte-identical files and every value round-trips exactly. The JSON
emitter exists because json.dumps offers no control over float formatting.
"""

import json
import math

__all__ = ["format_real", "format_complex", "dumps_json"]


def format_real(x: float) -> str:
    """Render a finite float with 17 significant digits (exact round-trip)."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("cannot serialize non-finite value %r" % x)
    return format(x, ".17g")


def format_complex(z: complex) -> str:
    """Render a complex number as re{sign}imj, e.g. '0.5-0.5j'."""
    z = complex(z)
    re = format_real(z.real)
    im = format_real(abs(z.imag))
    sign = "-" if math.copysign(1.0, z.imag) < 0 else "+"
    return f"{re}{sign}{im}j"


def _emit(value, level: int) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_real(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        brackets, items = "{}", (_key(k) + _emit(v, level + 1) for k, v in value.items())
    elif isinstance(value, (list, tuple)):
        brackets, items = "[]", (_emit(v, level + 1) for v in value)
    else:
        raise TypeError("cannot serialize %r" % type(value))
    if not value:
        return brackets
    pad = "\n" + "  " * (level + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + "  " * level + brackets[1]


def _key(key) -> str:
    if not isinstance(key, str):
        raise TypeError("JSON object keys must be strings, got %r" % (key,))
    return json.dumps(key) + ": "


def dumps_json(value) -> str:
    """Serialize nested dicts/lists/scalars to JSON with stable formatting.

    Containers are laid out one item a line, indented two spaces a level.
    Keys keep insertion order; floats use format_real. Returns a string with
    a trailing newline, ready to be written to a file.
    """
    return _emit(value, 0) + "\n"
