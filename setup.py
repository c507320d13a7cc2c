"""Setuptools metadata for the repro package.

The offline environment ships setuptools without the ``wheel`` package,
so PEP 517 builds cannot produce editable wheels; keeping the metadata
here (instead of pyproject.toml) lets ``pip install -e .`` fall back to
``setup.py develop``.  The ``repro`` console script is the CLI front
door (``repro lint``, equivalent to ``python -m repro lint``).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.1.0",
    description=(
        "Mixed-signal photonic SRAM tensor core with electro-optic ADC "
        "(DAC 2025 reproduction) plus a batched photonic serving stack"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
    entry_points={
        "console_scripts": [
            "repro=repro.__main__:main",
        ],
    },
)
