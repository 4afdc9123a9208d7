"""Brute-force capacity calendar: a list of rows, every answer by sweep.

The independent reference ``test_sharded_property.py`` diffs the calendar
against.  Shares no code with ``src/``: no step function, no shards, no
index — a peak is a sort over the overlapping rows' endpoints.  It never
forgets history, so it speaks for windows at or after the last ``expire``.
"""


def sweep_peak(rows, start, end) -> int:
    """Peak summed bandwidth of ``(kbps, start, end)`` rows over ``[start, end)``."""
    events = []
    for kbps, row_start, row_end in rows:
        if row_start < end and row_end > start:
            events += [(max(row_start, start), kbps), (min(row_end, end), -kbps)]
    level = peak = 0
    for _, delta in sorted(events):  # at one instant, ends sort before starts
        level += delta
        peak = max(peak, level)
    return peak


class ReferenceCalendar:
    def __init__(self, capacity_kbps: int) -> None:
        self.capacity_kbps = capacity_kbps
        self.rows: dict[int, tuple] = {}  # id -> (kbps, start, end, tag)
        self.next_id = 0

    def peak_commitment(self, start, end) -> int:
        return sweep_peak([row[:3] for row in self.rows.values()], start, end)

    def commit(self, kbps, start, end, tag=""):
        self.rows[self.next_id] = (kbps, start, end, tag)
        self.next_id += 1
        return self.next_id - 1

    def try_commit(self, kbps, start, end, limit_kbps, tag=""):
        if self.peak_commitment(start, end) + kbps > limit_kbps:
            return None
        return self.commit(kbps, start, end, tag)

    def release(self, row_id) -> tuple:
        return self.rows.pop(row_id)

    def reclaim(self, row_id, kbps) -> None:
        self.rows[row_id] = (kbps, *self.rows[row_id][1:])

    def expire(self, now) -> int:
        before = len(self.rows)
        self.rows = {i: row for i, row in self.rows.items() if row[2] > now}
        return before - len(self.rows)
