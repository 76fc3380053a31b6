"""Deterministic JSON/CSV emission.

All floating-point values are printed with 17 significant digits, so a
given document is byte-identical across runs; field order is the insertion
order of the dictionaries built by the callers.  Parsing maps JSON floats
to mpf so that emitted tables round-trip without loss.
"""

from __future__ import annotations

import json
from typing import Iterable, List

import mpmath as mp

from .errors import UnprintableValue

__all__ = ["format_float", "dumps", "loads", "rows_to_csv"]


def format_float(x) -> str:
    """A float or mpf rendered with 17 significant digits (valid JSON)."""
    if isinstance(x, mp.mpf):
        # mpmath's decimal conversion scales by the exponent of the
        # mantissa's last bit, so a large value held at many bits exceeds
        # Python's int-to-str limit; 96 bits are ample for 17 digits and
        # print the same digits unless within 2^-96 of a decimal tie
        with mp.workprec(96):
            x = +x
        try:
            return mp.nstr(x, 17)
        except ValueError as exc:
            _, _, exp, bc = x._mpf_
            raise UnprintableValue(
                f"cannot print a {bc}-bit value near 2^{exp + bc}: {exc}"
            ) from exc
    return "%.17g" % float(x)


def _emit(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, (float, mp.mpf)):
        return format_float(obj)
    if isinstance(obj, dict):
        items = ",".join(f"{json.dumps(str(k))}:{_emit(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_emit(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Serialize to a deterministic single-line JSON document."""
    return _emit(obj)


def loads(s: str):
    """Parse JSON with floats mapped to mpf (lossless for 17-digit input)."""
    return json.loads(s, parse_float=mp.mpf)


def rows_to_csv(header: Iterable, rows: Iterable[List]) -> str:
    """CSV with all floats at 17 significant digits."""

    def cell(v) -> str:
        if isinstance(v, (float, mp.mpf)):
            return format_float(v)
        return str(v)

    lines = [",".join(cell(h) for h in header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"
