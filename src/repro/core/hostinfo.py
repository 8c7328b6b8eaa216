"""Host facts shared by every machine-readable payload.

One tiny module so the bench harness, the runner's trace wiring, the
profiler and the CLI all report the *same* numbers: every payload that
describes a measurement carries ``machine.cpu_count`` (speedups are
meaningless without it) and, on POSIX, the peak resident-set size at the
time the payload was built.  Keeping these helpers out of
:mod:`repro.perf` lets the core runner use them without importing the
whole harness.
"""

from __future__ import annotations

import os
import platform
import sys
from typing import Dict, Optional

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]

__all__ = ["cpu_count", "machine_info", "peak_rss_kb"]


def cpu_count() -> Optional[int]:
    """Logical CPU count, ``None`` when the platform cannot tell."""
    return os.cpu_count()


def peak_rss_kb() -> Dict[str, Optional[int]]:
    """Peak resident-set size so far, in KB (Linux ``ru_maxrss`` units).

    ``self`` covers this process, ``children`` the high-water mark over
    all reaped child processes.  Both are monotone
    process-lifetime maxima, so per-section values in a longer session
    are cumulative, not isolated — still the honest upper bound on what
    the section needed.
    """
    if resource is None:  # pragma: no cover - non-POSIX platforms
        return {"self": None, "children": None}
    return {
        "self": int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
        "children": int(
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        ),
    }


def machine_info() -> Dict[str, object]:
    """The ``machine`` block attached to every measurement payload."""
    import numpy as np

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "cpu_count": cpu_count(),
    }
