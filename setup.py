"""Setup for ``pip install -e .`` (no pyproject in this environment).

Core install is dependency-free.  Extras:

* ``test`` — the unit/property suite's stack: pytest plus hypothesis
  (``tests/test_properties.py``, ``tests/test_schemes_properties.py``).
  The suite also runs straight from a checkout with no install at all
  (the repo-root ``conftest.py`` wires up the ``src/`` layout).
* ``bench`` — the optional performance stack: numpy (the storage of
  the compiled ``native`` zone backend, see ``repro.zones.backend``)
  and pytest-benchmark (the ``benchmarks/`` suite;
  ``benchmarks/conftest.py`` skips collection cleanly when the plugin
  is absent).
* ``native`` — the compiled DBM kernel's runtime dependency (numpy:
  :class:`repro.zones.dbm_native.NativeDBM` stores its matrix as an
  int64 array).  The C extension itself is built by this setup script.

The ``repro.zones._dbmkernel`` extension is marked ``optional``: a
missing C toolchain degrades the build to a warning and the package
falls back to the pure-Python reference backend at runtime (the
``native`` backend simply drops out of ``available_backends()``).  Build it in
place for a source checkout with::

    python setup.py build_ext --inplace
"""

from setuptools import Extension, find_packages, setup

setup(
    name="repro-timing",
    version="0.3.0",
    description="Platform-specific timing verification framework "
                "(DATE 2015 reproduction)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    ext_modules=[
        Extension(
            "repro.zones._dbmkernel",
            sources=["src/repro/zones/_dbmkernel.c"],
            optional=True,
        ),
    ],
    entry_points={
        "console_scripts": ["repro-timing = repro.cli:main"],
    },
    extras_require={
        "test": ["pytest", "hypothesis"],
        "bench": ["numpy", "pytest-benchmark"],
        "native": ["numpy"],
    },
)
