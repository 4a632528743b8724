"""Setup shim so `pip install -e .` works offline (no wheel package
available for PEP-517 editable builds in this environment)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Adaptive security support for heterogeneous memory on GPUs "
        "(HPCA 2022) - trace-driven reproduction"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=[],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
        "lint": ["ruff", "mypy"],
        "examples": ["numpy"],
    },
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
)
