"""Setup shim for legacy editable installs (offline environment, no wheel pkg).

Set ``REPRO_BUILD_COMPILED=1`` to also build the optional native kernel
extension (``repro.core.compiled._kernels``) at install time.  The
default leaves it out: the package degrades cleanly without it
(``backend="compiled"`` raises ``BackendUnavailable``), and the
extension can always be built later with
``python -m repro.core.compiled.build``.
"""
import os

from setuptools import Extension, find_packages, setup

ext_modules = []
if os.environ.get("REPRO_BUILD_COMPILED") == "1":
    ext_modules.append(Extension(
        "repro.core.compiled._kernels",
        sources=["src/repro/core/compiled/_kernels.c"],
        extra_compile_args=["-O2", "-fno-strict-aliasing"],
    ))

setup(
    name="repro",
    version="1.1.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[],
    extras_require={"compiled": []},
    ext_modules=ext_modules,
)
