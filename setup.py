"""Setuptools packaging for environments without PEP-517 build isolation (offline installs)."""
from setuptools import find_packages, setup

setup(
    name="apspark-repro",
    version="1.0.0",
    description="Reproduction of 'Solving All-Pairs Shortest-Paths Problem in "
                "Large Graphs Using Apache Spark' (ICPP 2019)",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # The compiled dense kernel's source, built on first use (repro.linalg.native).
    package_data={"repro.linalg": ["*.c"]},
    python_requires=">=3.9",
    install_requires=["numpy", "scipy"],
    entry_points={
        "console_scripts": [
            "apspark = repro.experiments.cli:main",
        ],
    },
)
