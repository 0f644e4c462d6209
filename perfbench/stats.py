"""Pure helpers the benchmark's figures are computed with.

Kept free of I/O and of the program under test so that
``test_stats.py`` can pin their behaviour down exactly.
"""

from __future__ import annotations

import math

#: A tail percentile must leave at least this many samples beyond it.
MIN_BEYOND = 10

#: Tail percentiles are rounded down to this grid, so runs of nearly the
#: same size report the same percentile.
TAIL_GRID = 0.5


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of ``values``."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    rank = (len(data) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (rank - low)


def median(values) -> float:
    return percentile(values, 50.0)


def tail_percentile(n: int, min_beyond: int = MIN_BEYOND) -> float:
    """Highest percentile (on a ``TAIL_GRID`` grid) with ``min_beyond`` of ``n`` samples beyond it.

    Raises ``ValueError`` for fewer than ``4 * min_beyond`` samples: the
    tail would sit at or below the 75th percentile.
    """
    if n < 4 * min_beyond:
        raise ValueError(f"{n} samples cannot support a tail with {min_beyond} beyond it")
    # Tolerance: 100 * (1 - 10 / n) is rarely exact in binary floating point.
    return math.floor(100.0 * (1.0 - min_beyond / n) / TAIL_GRID + 1e-9) * TAIL_GRID


#: timings with at least this many samples are summarised per half-run
SPLIT_AT = 200


def summarize(values) -> dict:
    """Median and tail of a timing, taken in order as measured.

    A sample of at least ``SPLIT_AT`` values is cut into its first and
    second half; each half gets its own median and tail (at the highest
    percentile with ten samples beyond it, for the half's size)
    and the two are averaged. A burst of outside load then moves one
    half's figure rather than the whole run's.
    """
    values = list(values)
    parts = [values] if len(values) < SPLIT_AT else [values[: len(values) // 2],
                                                      values[len(values) // 2:]]
    q = tail_percentile(min(len(part) for part in parts))
    return {
        "n": [len(part) for part in parts],
        "p50": sum(median(part) for part in parts) / len(parts),
        "tail_q": q,
        "tail": sum(percentile(part, q) for part in parts) / len(parts),
    }


def due_latency_ms(due: float, done: float) -> float:
    """Open-loop latency: from when the request was due, not when it was sent.

    A generator that fell behind sends late; timing from the due time
    charges that wait to the system that caused it.
    """
    return (done - due) * 1e3


def boundary_distance(q: float, minority_share: float) -> float:
    """Percentile points between ``q`` and the edge of a slow minority mode.

    With a share ``s`` of samples in a slower mode (cache misses), the
    two latency modes meet at percentile ``100 * (1 - s)``; a percentile
    sitting near it flips between modes from run to run.
    """
    return abs(q - 100.0 * (1.0 - minority_share))


def transport_ms(round_trips: dict, handle_spans: list) -> dict:
    """Per request id: client round trip minus server ``ServeApp.handle`` time.

    ``round_trips`` maps request id -> client round-trip milliseconds;
    ``handle_spans`` holds spans (dicts with ``name``, ``start``, ``end``,
    ``rid``) from the server. Requests the server never saw are left out.
    """
    handled = {}
    for span in handle_spans:
        if span["name"] == "http.handle" and span.get("rid") is not None:
            handled[span["rid"]] = (span["end"] - span["start"]) * 1e3
    return {
        rid: rtt - handled[rid] for rid, rtt in round_trips.items() if rid in handled
    }


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list) -> list:
    """Each span's duration minus the part its children cover.

    A child is a span on the same thread that lies inside the parent's
    interval and is the innermost such enclosing span, or a span from
    another thread whose ``serves`` list names the parent's request id
    and which the parent encloses (dispatcher work done on a waiting
    request's behalf). Only spans with ``"cross": True`` are attributed
    across threads, and only to the parent span named ``cross_parent``.

    Returns ``(span, self_seconds)`` pairs in input order.
    """
    by_thread: dict = {}
    for index, span in enumerate(spans):
        by_thread.setdefault(span["thread"], []).append(index)
    children: dict = {index: [] for index in range(len(spans))}
    for indices in by_thread.values():
        # Sort outermost-first so a stack walk finds each span's parent.
        order = sorted(indices, key=lambda i: (spans[i]["start"], -spans[i]["end"]))
        stack: list = []
        for index in order:
            span = spans[index]
            while stack and spans[stack[-1]]["end"] < span["end"]:
                stack.pop()
            if stack:
                children[stack[-1]].append(index)
            stack.append(index)
    # Cross-thread attribution: dispatcher spans serving request rid.
    cross = [i for i, s in enumerate(spans) if s.get("cross")]
    for index, span in enumerate(spans):
        rid = span.get("rid")
        if rid is None:
            continue
        for other in cross:
            work = spans[other]
            if (
                work["thread"] != span["thread"]
                and span["name"] == work.get("cross_parent")
                and rid in work.get("serves", ())
                and span["start"] <= work["start"]
                and work["end"] <= span["end"]
            ):
                children[index].append(other)
    result = []
    for index, span in enumerate(spans):
        covered = _union_length(
            (spans[c]["start"], spans[c]["end"]) for c in children[index]
        )
        result.append((span, (span["end"] - span["start"]) - covered))
    return result
