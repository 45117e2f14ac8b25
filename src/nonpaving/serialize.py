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
    sign = "-" if (z.imag < 0 or (z.imag == 0 and math.copysign(1.0, z.imag) < 0)) else "+"
    return f"{re}{sign}{im}j"


def _emit(value, level, out):
    pad = "  " * (level + 1)
    closepad = "  " * level
    if value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(format_real(value))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise TypeError("JSON object keys must be strings, got %r" % (key,))
            out.append(pad + json.dumps(key) + ": ")
            _emit(item, level + 1, out)
            out.append(",\n" if i + 1 < len(value) else "\n")
        out.append(closepad + "}")
    elif isinstance(value, (list, tuple)):
        if len(value) == 0:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(value):
            out.append(pad)
            _emit(item, level + 1, out)
            out.append(",\n" if i + 1 < len(value) else "\n")
        out.append(closepad + "]")
    else:
        raise TypeError("cannot serialize %r" % type(value))


def dumps_json(value) -> str:
    """Serialize nested dicts/lists/scalars to JSON with stable formatting.

    Containers are laid out one item a line, indented two spaces a level.
    Keys keep insertion order; floats use format_real. Returns a string with
    a trailing newline, ready to be written to a file.
    """
    out: list[str] = []
    _emit(value, 0, out)
    return "".join(out) + "\n"
