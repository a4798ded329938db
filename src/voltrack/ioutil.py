"""The one output layer: CSV and JSON text, and atomic writes.

Every CSV and JSON file the CLI writes is formatted here.  Floats use
their shortest round-tripping representation, so a fixed seed gives
byte-identical files and a written value parses back to the same float.
"""

from __future__ import annotations

import json
import os
import secrets

import numpy as np

__all__ = [
    "OUT_DIR_ENV",
    "SCHEMA_VERSION",
    "float_repr",
    "csv_text",
    "json_text",
    "atomic_write_text",
    "resolve_out_path",
]

OUT_DIR_ENV = "VOLTRACK_OUT_DIR"
SCHEMA_VERSION = 1

_CSV_SPECIALS = (",", '"', "\r", "\n")


def float_repr(x: float) -> str:
    """Shortest decimal string that parses back to the identical float."""
    return repr(float(x))


def _csv_cell(cell) -> str:
    """None is an empty cell; a str cell is quoted as csv.QUOTE_MINIMAL
    would quote it; an int or float cell is its repr."""
    if cell is None:
        return ""
    if isinstance(cell, str):
        if any(c in cell for c in _CSV_SPECIALS):
            return '"' + cell.replace('"', '""') + '"'
        return cell
    return repr(cell)


def csv_text(header, *columns) -> str:
    """CSV text of a header line and equally long columns, one row per line.

    An ndarray column is written from tolist(), so its floats get the
    float_repr bytes.  Any other sequence may hold Python ints, floats,
    str and None cells.
    """
    if len(columns) != len(header) or len(set(map(len, columns))) > 1:
        raise ValueError("csv_text needs one column per header name, all of one length")
    cells = [
        map(repr, col.tolist()) if isinstance(col, np.ndarray) else map(_csv_cell, col)
        for col in columns
    ]
    lines = [",".join(map(_csv_cell, header)), *map(",".join, zip(*cells))]
    return "\n".join(lines) + "\n"


def json_text(kind: str, doc) -> str:
    """A JSON document: schema_version, kind, then the items of doc.

    Indented by 2 with a trailing newline.  NaN and infinities raise
    ValueError, since they are not JSON.
    """
    envelope = {"schema_version": SCHEMA_VERSION, "kind": kind, **doc}
    return json.dumps(envelope, indent=2, allow_nan=False) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    """Write text through a temp file and rename, so a reader never sees
    a partially written file.  The temp file is created beside the target,
    under a random name and only if no file has it, so it gets the mode a
    plain open() would give (0o666 less the umask) without the umask
    being read or changed."""
    target = os.path.abspath(path)
    tmp = os.path.join(os.path.dirname(target), f".tmp-{secrets.token_hex(8)}")
    fh = open(tmp, "x", newline="")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        # the temp file is this call's own: open() above created it
        os.unlink(tmp)
        raise


def resolve_out_path(path: str) -> str:
    """Prefix bare file names with $VOLTRACK_OUT_DIR when it is set."""
    out_dir = os.environ.get(OUT_DIR_ENV)
    if out_dir and not os.path.dirname(path):
        return os.path.join(out_dir, path)
    return path
