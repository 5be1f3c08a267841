"""Per-class FIFO feature queues and the derived class prototypes."""

from __future__ import annotations

import sys
from collections import deque

import numpy as np

from .errors import ConfigurationError, check_array


class PrototypeBank:
    """Fixed-capacity FIFO queue of recent features per class.

    Classes are 0-based ids in [0, num_classes). A prototype is the mean of
    its queue, taken from the queue contents in FIFO order when
    `prototypes()` is called: a push costs no mean, and no incremental
    update can drift.
    """

    def __init__(self, num_classes: int, feature_dim: int, capacity: int = 64):
        sizes = {"num_classes": num_classes, "feature_dim": feature_dim, "capacity": capacity}
        for name, value in sizes.items():
            if value < 1:
                raise ConfigurationError(f"{name}: the bank needs at least 1, got {value}")
        if capacity > sys.maxsize:
            raise ConfigurationError(f"capacity: a queue holds at most {sys.maxsize}, got {capacity}")
        self.num_classes = num_classes
        self.feature_dim = feature_dim
        self.capacity = capacity
        self._queues: list[deque[np.ndarray]] = [deque(maxlen=capacity) for _ in range(num_classes)]

    def push(self, class_ids: np.ndarray, features: np.ndarray) -> None:
        """Append feature row i to queue class_ids[i], in row order, evicting the oldest when full.

        One call takes a whole (n,) / (n, d) batch, as the MoCo queue enqueues
        a batch of keys; a scalar id with a (d,) feature is a batch of one.
        """
        class_ids = np.atleast_1d(check_array("class_ids", class_ids, None, "iu", below=self.num_classes))
        features = np.atleast_2d(check_array("features", features, None, dtype=np.float64))
        check_array("class_ids", class_ids, (None,))
        check_array("features", features, (len(class_ids), self.feature_dim))
        for k, f in zip(class_ids.tolist(), features):
            self._queues[k].append(f.copy())

    def queue_contents(self, class_id: int) -> list[np.ndarray]:
        return [f.copy() for f in self._queues[class_id]]

    def prototypes(self) -> np.ndarray:
        """Current class means as a (num_classes, feature_dim) snapshot."""
        empty = [k for k in range(self.num_classes) if not self._queues[k]]
        if empty:
            raise ConfigurationError(f"unseeded class queues: {empty}")
        return np.stack([np.mean(np.stack(q), axis=0) for q in self._queues])
