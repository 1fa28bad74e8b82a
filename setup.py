"""Package metadata.

Metadata lives here (rather than a [project] table in pyproject.toml)
so that `pip install -e .` works in fully offline environments: a
[project] table forces pip onto the PEP 517 editable path, which
requires the `wheel` package and network-installed build backends.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Python reproduction of 'Extending the Mochi Methodology to Enable "
        "Dynamic HPC Data Services' (Dorier et al., 2024): a composable, "
        "dynamic HPC data-service framework on a deterministic "
        "discrete-event substrate."
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=[],
    extras_require={"test": ["pytest", "hypothesis", "pytest-benchmark"]},
    entry_points={
        "console_scripts": [
            # lint / race / health / xray (same as `python -m repro`).
            "repro=repro.cli:main",
        ]
    },
)
