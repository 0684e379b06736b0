"""Legacy setup shim.

The execution environment has no ``wheel`` package, so PEP 660
editable installs (``pip install -e .``) cannot build an editable
wheel.  This shim lets pip fall back to ``setup.py develop``.
"""

import hashlib
import os

from setuptools import Extension, find_packages, setup


def kernel_extension() -> Extension:
    """The compiled event kernel, built under the file name
    ``repro.sim.kernel.build_name`` looks up: ``_build/_kernel_<first 16
    hex digits of the source's sha256><EXT_SUFFIX>`` next to the source."""
    source = os.path.join("src", "repro", "sim", "_kernel.c")
    with open(source, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()[:16]
    return Extension(f"repro.sim._build._kernel_{digest}", [source])


setup(
    name="sabres-repro",
    description="Reproduction of SABRes: atomic object reads for "
    "in-memory rack-scale computing (MICRO 2016)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    # The loader hashes the kernel source to find its build.
    package_data={"repro.sim": ["_kernel.c"]},
    ext_modules=[kernel_extension()],
    python_requires=">=3.9",
    entry_points={
        "console_scripts": [
            "repro-harness=repro.harness.cli:main",
            "repro-perf=repro.perf.cli:main",
            "repro-campaign=repro.experiments.campaign_cli:main",
            "repro-serve=repro.serve.cli:main",
            "repro-load=repro.loadgen.cli:main",
            # Historical name, kept for compatibility.
            "sabres-experiments=repro.harness.cli:main",
        ]
    },
)
