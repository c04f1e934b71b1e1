"""RPR303 negative fixture: slot stores into a sized, preallocated array."""

import numpy as np

__all__ = ["SlotWindow"]


class SlotWindow:
    """Completion slots sized once in ``__init__``; stores never grow it."""

    def __init__(self, size):
        self.results = np.empty(size, dtype=object)
        self._remaining = size

    def complete_many(self, slots, values):
        self.results[slots] = values  # fancy-index overwrite of fixed slots
        self._remaining -= len(slots)

    def complete(self, slot, value):
        self.results[slot] = value
