import os

from setuptools import Extension, setup

# The compiled kernels are an optional speedup: a C compiler and the Python
# headers are all they need.  When the build fails, the package falls back
# to the pure-numpy kernels in owpan._kernels._pure.  Set OWPAN_NO_EXT=1 to
# skip the build entirely.
ext_modules = []
if not os.environ.get("OWPAN_NO_EXT"):
    ext_modules = [
        Extension(
            "owpan._kernels._native", ["src/owpan/_kernels/_native.c"], optional=True
        )
    ]

setup(ext_modules=ext_modules)
