"""Small IO helpers shared by the CSV and JSON writers."""

from __future__ import annotations

import os
import tempfile

__all__ = ["OUT_DIR_ENV", "float_repr", "atomic_write_text", "resolve_out_path"]

OUT_DIR_ENV = "VOLTRACK_OUT_DIR"


def float_repr(x: float) -> str:
    """Shortest decimal string that parses back to the identical float."""
    return repr(float(x))


def atomic_write_text(path: str, text: str) -> None:
    """Write text through a temp file and rename, so a reader never sees
    a partially written file.  The file gets the mode a plain open()
    would give it (0o666 less the umask), not mkstemp's 0o600."""
    target = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def resolve_out_path(path: str) -> str:
    """Prefix bare file names with $VOLTRACK_OUT_DIR when it is set."""
    out_dir = os.environ.get(OUT_DIR_ENV)
    if out_dir and not os.path.dirname(path):
        return os.path.join(out_dir, path)
    return path
