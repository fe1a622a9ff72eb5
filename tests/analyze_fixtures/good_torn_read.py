"""Fixed twin of ``bad_torn_read``: the snapshot copies under the lock.

Same shape as the real ``StageStats.snapshot`` fix —
every read of the guarded dicts happens inside ``with self._lock``.
"""

import threading


class Metrics:
    def __init__(self):
        self._lock = threading.Lock()
        self._stages = {}
        self._totals = {}

    def record(self, stage, seconds):
        with self._lock:
            self._stages[stage] = self._stages.get(stage, 0) + 1
            self._totals[stage] = self._totals.get(stage, 0.0) + seconds

    def snapshot(self):
        with self._lock:
            stages = dict(self._stages)
            totals = dict(self._totals)
        return {name: (count, totals[name]) for name, count in stages.items()}
