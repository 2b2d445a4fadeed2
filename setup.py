from setuptools import Extension, setup

# optional: without a C compiler the package installs on the pure Python
# kernels alone
setup(ext_modules=[Extension("wildcycles._ckernels", ["src/wildcycles/_ckernels.c"], optional=True)])
