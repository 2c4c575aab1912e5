"""Package metadata for the reproduction.

This ``setup.py`` is the only packaging file: there is no
``pyproject.toml``.  Without the ``wheel`` package, PEP 660 editable
installs fail, so ``pip install -e .`` falls back to the classic
``setup.py develop`` path.  ``install_requires`` lists every third-party
package ``src/`` imports; ``tests/unit/test_install_metadata.py`` checks
that.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of INSPECTOR: Data Provenance Using Intel Processor Trace (ICDCS 2016)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=[],
)
