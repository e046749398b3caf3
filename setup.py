"""Package metadata and install script: `pip install -e .` from a checkout.

This file is the only packaging metadata (there is no pyproject.toml).  The
test suite also needs pytest and hypothesis, which are not install
requirements.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.25.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro": ["py.typed"]},
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "networkx>=3.0"],
)
