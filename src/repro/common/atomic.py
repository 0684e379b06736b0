"""Write-then-rename file output.

A process killed mid-write must never leave a truncated artifact for
downstream tooling to choke on: the text goes to ``<path>.tmp`` first
and replaces ``path`` in one ``os.replace``.
"""

from __future__ import annotations

import json
import os
from typing import Any


def atomic_write_text(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def atomic_write_json(path: str, payload: Any) -> None:
    """``payload`` as indented JSON plus a trailing newline.  Serializing
    happens before the temp file is opened, so an unserializable
    payload leaves ``path`` untouched."""
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
