"""Setuptools shim.

The offline environment ships setuptools without the ``wheel`` package, so
PEP 517 editable installs (which need ``bdist_wheel``) are unavailable.  This
``setup.py`` lets ``pip install -e . --no-use-pep517`` (and plain
``python setup.py develop``) perform a legacy editable install.  All project
metadata lives here; the repository has no ``pyproject.toml``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Near Optimal Coflow Scheduling in Networks (SPAA 2019) — reproduction"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    # numpy >= 1.25 for Generator.spawn (used by the repro.api batch runner)
    install_requires=["numpy>=1.25", "scipy>=1.9", "networkx>=2.8"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
