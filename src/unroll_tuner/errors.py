"""The package's two exception classes.

Every pipeline error is an `UnrollTunerError`; the CLI prints it as one
`error:` line and exits 2.  A `KernelError` is the one kind a caller may
want to tell apart: one sample's kernels failed in the native backend (they
did not compile, the compile or run exceeded the timeout, the run exited
non-zero or printed output that does not parse, or the unrolled variants'
checksums disagree), while the rest of the corpus may still label.
"""

from __future__ import annotations


class UnrollTunerError(Exception):
    """Base class for every error raised by this package."""


class KernelError(UnrollTunerError):
    """One sample's kernels failed to build, run or agree."""
