"""Build and load the compiled event kernel (``_kernel.c``).

The kernel is one C source file next to this module.  :func:`load`
looks for a build of exactly that source in :data:`CACHE_DIR`: the file
name carries the first 16 hex digits of the source's sha256 and the
interpreter's extension suffix, so a stale or foreign build is never
picked up.  On a miss it compiles the source with the compiler and
flags the interpreter was built with (``sysconfig``), writes the result
to a temporary file and renames it into place, so concurrent importers
never see a half-written library.  ``setup.py`` builds the same file
name at install time.

Deleting :data:`CACHE_DIR` forces a rebuild on the next import.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shlex
import subprocess
import sysconfig
import tempfile
from types import ModuleType

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")

#: Where builds live (gitignored).
CACHE_DIR = os.path.join(os.path.dirname(SOURCE), "_build")

#: Import name of the extension; its init symbol is ``PyInit__kernel``.
MODULE_NAME = "repro.sim._kernel"


def build_name(source: bytes) -> str:
    """File name of the build of ``source`` for this interpreter."""
    digest = hashlib.sha256(source).hexdigest()[:16]
    return f"_kernel_{digest}{sysconfig.get_config_var('EXT_SUFFIX')}"


def compile_command(source_path: str, out_path: str) -> list:
    """One compile-and-link command, from the interpreter's build flags."""
    cfg = sysconfig.get_config_var
    return [
        *shlex.split(cfg("LDSHARED") or "cc -shared"),
        *shlex.split(cfg("CFLAGS") or ""),
        *shlex.split(cfg("CCSHARED") or ""),
        "-I",
        sysconfig.get_paths()["include"],
        source_path,
        "-o",
        out_path,
    ]


def build(source_path: str = SOURCE, cache_dir: str = CACHE_DIR) -> str:
    """Path of the build of ``source_path``, compiling it on a miss."""
    with open(source_path, "rb") as fh:
        source = fh.read()
    path = os.path.join(cache_dir, build_name(source))
    if os.path.exists(path):
        return path
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    os.close(fd)
    try:
        # Compile a private copy of the bytes that were hashed, so an
        # edit racing the build cannot land under the old digest.
        src_copy = tmp + ".c"
        with open(src_copy, "wb") as fh:
            fh.write(source)
        try:
            proc = subprocess.run(
                compile_command(src_copy, tmp),
                capture_output=True,
                text=True,
            )
        except OSError as exc:
            raise ImportError(_requirement(source_path, str(exc))) from exc
        finally:
            os.unlink(src_copy)
        if proc.returncode != 0:
            raise ImportError(
                _requirement(source_path, proc.stderr.strip() or proc.stdout.strip())
            )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def _requirement(source_path: str, detail: str) -> str:
    return (
        "repro.sim needs a C compiler and the Python development headers "
        f"(Python.h) to build its event kernel from {source_path}; "
        f"the build failed:\n{detail}"
    )


def load(source_path: str = SOURCE, cache_dir: str = CACHE_DIR) -> ModuleType:
    """The kernel module built from ``source_path``."""
    path = build(source_path, cache_dir)
    spec = importlib.util.spec_from_file_location(MODULE_NAME, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
