"""Atomic file writes for run artifacts.

Benchmark JSON, obs snapshots, dashboard HTML, and repaired stores are all
"whole document" artifacts: a reader should see either the previous complete
version or the new complete version, never a half-written file from a run
that was killed mid-write. The helpers here write to a temporary sibling in
the destination directory and :func:`os.replace` it over the target — an
atomic rename on POSIX and Windows because the two paths share a
filesystem.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def atomic_write_bytes(path: str | Path, payload: bytes) -> Path:
    """Write ``payload`` to ``path`` atomically; returns the path written.

    The temporary sibling is cleaned up on any failure, so an interrupted
    write leaves neither a partial target nor a stray temp file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(handle, "wb") as tmp:
            tmp.write(payload)
            tmp.flush()
            os.fsync(tmp.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def atomic_write_text(
    path: str | Path, text: str, encoding: str = "utf-8"
) -> Path:
    """Text twin of :func:`atomic_write_bytes`."""
    return atomic_write_bytes(path, text.encode(encoding))

