from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Build the accelerator extension, but never fail the install.

    The package falls back to the pure-Python kernels when the compiled
    module is absent (see ddlab._kernels).
    """

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing, etc.
            print(f"warning: skipping compiled kernels ({exc}); "
                  "using pure-Python fallback")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"warning: could not build {ext.name} ({exc}); "
                  "using pure-Python fallback")


setup(ext_modules=[Extension("ddlab._kernels._gf2ext",
                             ["src/ddlab/_kernels/_gf2ext.c"])],
      cmdclass={"build_ext": OptionalBuildExt})
