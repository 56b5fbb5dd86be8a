"""Session-wide test helpers: the run header names numpy and the BLAS kernel,
since float bytes depend on the kernel OpenBLAS picks at run time;
tests/test_golden.py's subprocess names its forced core the same way."""

import ctypes

import numpy


def blas_core_name():
    """The core whose kernels numpy's bundled OpenBLAS picked at run time (set
    by the CPU, or by OPENBLAS_CORETYPE), or "unknown" where it cannot be read.

    numpy.show_config() is no help here: it names the build host's core."""
    try:
        from numpy._core import _multiarray_umath

        corename = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_corename64_
    except (ImportError, OSError, AttributeError):
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    name = corename()
    return name.decode() if name else "unknown"


def _kernel_line():
    return f"numpy {numpy.__version__}, OpenBLAS core {blas_core_name()}"


def pytest_report_header(config):
    return _kernel_line()


def pytest_terminal_summary(terminalreporter):
    # again at the end, where a -q run, which prints no header, shows it too
    terminalreporter.write_line(_kernel_line())
