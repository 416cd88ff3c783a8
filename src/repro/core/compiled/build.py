"""Build the ``_kernels`` extension with the system C compiler.

Usage::

    python -m repro.core.compiled.build            # build in place
    python -m repro.core.compiled.build --check    # exit 1 if absent or stale

No setuptools machinery is required at runtime: we invoke the compiler
directly (``$CC``, else ``cc``, else ``gcc``) with the interpreter's
include directory and the platform ``EXT_SUFFIX``, which is all a
single-file C extension needs.  ``pip install repro[compiled]`` (see
``setup.py``) runs the same compile through setuptools when the
``REPRO_BUILD_COMPILED=1`` env var opts in.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE / "_kernels.c"


def find_compiler() -> str | None:
    """The C compiler to use: ``$CC`` if set, else ``cc``, else ``gcc``."""
    cc = os.environ.get("CC")
    if cc:
        return cc if shutil.which(cc.split()[0]) else None
    for cand in ("cc", "gcc", "clang"):
        if shutil.which(cand):
            return cand
    return None


def ext_path() -> Path:
    """Where the built extension lands (ABI-tagged, import-ready)."""
    return HERE / ("_kernels" + sysconfig.get_config_var("EXT_SUFFIX"))


def source_version() -> str:
    """The ``__version__`` that ``_kernels.c`` gives the module it builds."""
    found = re.search(r'"__version__",\s*"([^"]*)"', SOURCE.read_text())
    return found.group(1) if found else "unknown"


def build(verbose: bool = True) -> Path:
    """Compile ``_kernels.c`` in place; returns the extension path.

    Raises ``RuntimeError`` when no C compiler is available and
    ``subprocess.CalledProcessError`` when the compile itself fails.
    """
    cc = find_compiler()
    if cc is None:
        raise RuntimeError(
            "no C compiler found (set $CC, or install cc/gcc/clang); "
            "backend='compiled' needs one to build _kernels")
    out = ext_path()
    include = sysconfig.get_paths()["include"]
    cmd = [*cc.split(), "-shared", "-fPIC", "-O2", "-fno-strict-aliasing",
           "-I", include, str(SOURCE), "-o", str(out)]
    if verbose:
        print("+", " ".join(cmd), file=sys.stderr)
    subprocess.run(cmd, check=True)
    return out


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if "--check" in args:
        from . import compiled_version
        out = ext_path()
        if not out.exists():
            print("compiled backend absent (run: "
                  "python -m repro.core.compiled.build)")
            return 1
        built, want = compiled_version(), source_version()
        if built != want:
            print(f"compiled backend stale: {out} is version {built}, "
                  f"_kernels.c is version {want} (run: "
                  f"python -m repro.core.compiled.build)")
            return 1
        print(f"compiled backend present: {out} (version {built})")
        return 0
    out = build()
    print(f"built {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
