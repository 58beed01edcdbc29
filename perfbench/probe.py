"""Print, as one JSON object, the interpreter, numpy and BLAS facts a child sees.

The BLAS thread count is read from the OpenBLAS library numpy loaded, when
there is one; otherwise it is reported as null.
"""

from __future__ import annotations

import ctypes
import json
import platform

import numpy


def blas_threads() -> int | None:
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


if __name__ == "__main__":
    print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__, "blas_threads": blas_threads()}))
