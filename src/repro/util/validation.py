"""Argument validation helpers shared across the library.

These raise early with a message naming the offending parameter, which
keeps the simulator configuration errors readable instead of surfacing
as deep numpy broadcasting failures.
"""

from __future__ import annotations

import math

__all__ = [
    "check_positive",
    "check_finite",
    "check_non_negative",
    "check_fraction",
    "check_probability",
    "check_checkpoint_interval",
    "check_crash_rate",
    "check_crash_schedule",
    "check_reannounce_rate",
    "check_polluter_fraction",
    "check_quarantine",
    "check_partition_windows",
    "check_partition_schedule",
]


def check_positive(name: str, value: float) -> float:
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_fraction(name: str, value: float) -> float:
    """A fraction in the closed interval [0, 1]."""
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Alias of :func:`check_fraction`, used where the value is a probability."""
    return check_fraction(name, value)


# -- proxy crash-recovery knobs ---------------------------------------------
#
# These name the ``baps`` CLI flag alongside the parameter, because the
# recovery knobs are most often set from the command line and "interval
# must be > 0" is useless when the user typed three different flags.


def check_checkpoint_interval(value: float) -> float:
    if not value > 0:
        raise ValueError(
            f"checkpoint interval (--checkpoint-interval) must be > 0 "
            f"seconds of virtual time, got {value!r}"
        )
    return value


def check_crash_rate(value: float) -> float:
    if value < 0:
        raise ValueError(
            f"proxy crash rate (--proxy-crash-rate) must be >= 0 crashes "
            f"per virtual second, got {value!r}"
        )
    return value


def check_crash_schedule(
    crash_rate: float, crash_times: tuple[float, ...] | None
) -> None:
    """A fault model draws crash times from a rate *or* takes an explicit
    list — silently combining the two would make the schedule ambiguous."""
    if crash_times is not None and crash_rate > 0:
        raise ValueError(
            "give either an explicit crash schedule (--proxy-crash-at) or a "
            "crash rate (--proxy-crash-rate), not both"
        )
    if crash_times is None and crash_rate == 0:
        raise ValueError(
            "a proxy fault model needs a crash source: set a crash rate "
            "(--proxy-crash-rate) or explicit crash times (--proxy-crash-at)"
        )
    if crash_times is not None:
        if not crash_times:
            raise ValueError(
                "explicit crash schedule (--proxy-crash-at) must name at "
                "least one crash time"
            )
        if any(t < 0 for t in crash_times):
            raise ValueError(
                f"crash times (--proxy-crash-at) must be >= 0, got {crash_times!r}"
            )


def check_reannounce_rate(value: float) -> float:
    if not value > 0:
        raise ValueError(
            f"re-announcement rate (--reannounce-rate) must be > 0 clients "
            f"per virtual second, got {value!r}"
        )
    return value


# -- adversarial-peer / quarantine knobs -------------------------------------


def check_polluter_fraction(value: float) -> float:
    if not (0.0 <= value <= 1.0):
        raise ValueError(
            f"polluter fraction (--polluter-fraction) must be in [0, 1], "
            f"got {value!r}"
        )
    return value


def check_partition_windows(
    windows: tuple[tuple[float, float], ...] | None,
    span: float | None = None,
) -> None:
    """Explicit inter-proxy partition windows must be well-formed:
    each ``(start, end)`` with ``0 <= start < end``, sorted, and
    non-overlapping; with *span* given, every window must begin inside
    the trace (a window entirely past the last request can never fire).
    """
    if windows is None:
        return
    if not windows:
        raise ValueError(
            "explicit partition windows (--partition-at + "
            "--partition-length) must name at least one window"
        )
    prev_end = None
    for start, end in windows:
        if start < 0:
            raise ValueError(
                f"partition window starts (--partition-at) must be >= 0, "
                f"got {start!r}"
            )
        if not end > start:
            raise ValueError(
                f"partition window length (--partition-length) must be > 0 "
                f"seconds of virtual time, got window ({start!r}, {end!r})"
            )
        if prev_end is not None and start < prev_end:
            raise ValueError(
                f"partition windows (--partition-at) must be ordered and "
                f"non-overlapping; window starting at {start!r} begins "
                f"before the previous window ends at {prev_end!r}"
            )
        prev_end = end
    if span is not None and span > 0 and windows[0][0] >= span:
        # Windows are sorted, so the first starting past the span means
        # they all do and no partition can ever fire.
        raise ValueError(
            f"every partition window (--partition-at) starts at or after "
            f"the trace span ({span!r}s); no partition can fire"
        )


def check_partition_schedule(
    rate: float,
    windows: tuple[tuple[float, float], ...] | None,
) -> None:
    """A link fault model takes explicit windows *or* draws them from a
    rate — silently combining the two would make the schedule ambiguous."""
    if rate < 0:
        raise ValueError(
            f"partition rate must be >= 0 partitions per virtual second, "
            f"got {rate!r}"
        )
    if windows is not None and rate > 0:
        raise ValueError(
            "give either explicit partition windows (--partition-at + "
            "--partition-length) or a partition rate (gaps drawn from the "
            "seeded stream, --chaos-seed), not both"
        )
    if windows is None and rate == 0:
        raise ValueError(
            "a link fault model needs a partition source: explicit windows "
            "(--partition-at + --partition-length) or a partition rate "
            "(seeded via --chaos-seed)"
        )


def check_quarantine(threshold: int) -> None:
    """The quarantine threshold counts integrity failures (0 = defense
    off)."""
    if threshold < 0 or threshold != int(threshold):
        raise ValueError(
            f"quarantine threshold (--quarantine-threshold) must be a "
            f"non-negative integer number of integrity failures, got "
            f"{threshold!r}"
        )
