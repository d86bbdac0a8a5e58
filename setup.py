from setuptools import Extension, setup

# The compiled kernels are an optional speedup: a C compiler and the Python
# headers are all they need.  When the build fails, the package falls back
# to the pure-numpy kernels in owpan._kernels._pure; OWPAN_KERNELS=pure
# selects those at run time even when the build succeeded.
setup(
    ext_modules=[
        Extension(
            "owpan._kernels._native", ["src/owpan/_kernels/_native.c"], optional=True
        )
    ]
)
