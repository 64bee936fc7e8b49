"""The tournament branch predictor of Table 1.

A local predictor (2048-entry pattern history), a global predictor
(8192-entry gshare) and a 2048-entry chooser, plus a 4096-entry branch
target buffer and a 16-entry return address stack.  The workload generator
produces branch *outcomes*; the predictor decides which of them the core
mispredicts, so the misprediction rate (and therefore the volume of
wrong-path execution each workload produces) is an emergent property of the
branch behaviour encoded in the workload profile.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.params import BranchPredictorConfig
from repro.common.statistics import StatGroup


#: Next value of a 2-bit saturating counter (0..3, taken iff above 1),
#: indexed by its current value, after a taken / not-taken outcome.
_STEP_TAKEN = (1, 2, 3, 3)
_STEP_NOT_TAKEN = (0, 0, 1, 2)


class BranchTargetBuffer:
    """Maps branch PCs to their last seen targets."""

    def __init__(self, entries: int) -> None:
        self.entries = entries
        self._table: Dict[int, int] = {}

    def _index(self, pc: int) -> int:
        return (pc >> 2) % self.entries

    def lookup(self, pc: int) -> Optional[int]:
        return self._table.get(self._index(pc))

    def update(self, pc: int, target: int) -> None:
        self._table[self._index(pc)] = target

    def flush(self) -> None:
        """BTB isolation on domain switches (variant-2 mitigation hook)."""
        self._table.clear()


class ReturnAddressStack:
    """A small circular return-address stack."""

    def __init__(self, entries: int) -> None:
        self.entries = entries
        self._stack: List[int] = []
        self.overflows = 0

    def push(self, return_address: int) -> None:
        if len(self._stack) >= self.entries:
            self._stack.pop(0)
            self.overflows += 1
        self._stack.append(return_address)

    def pop(self) -> Optional[int]:
        if not self._stack:
            return None
        return self._stack.pop()

    def __len__(self) -> int:
        return len(self._stack)


class TournamentPredictor:
    """Local + gshare global predictors arbitrated by a chooser."""

    def __init__(self, config: Optional[BranchPredictorConfig] = None,
                 stats: Optional[StatGroup] = None) -> None:
        self.config = config or BranchPredictorConfig()
        self._local_history: List[int] = [0] * self.config.local_entries
        # Every table entry is a 2-bit saturating counter held as a plain
        # int (see _STEP_TAKEN); all start weakly taken.
        self._local_counters: List[int] = [2] * self.config.local_entries
        self._global_counters: List[int] = [2] * self.config.global_entries
        self._chooser: List[int] = [2] * self.config.chooser_entries
        self._global_history = 0
        self.btb = BranchTargetBuffer(self.config.btb_entries)
        self.ras = ReturnAddressStack(self.config.ras_entries)
        stats = stats or StatGroup("branch_predictor")
        self.stats = stats
        self._predictions = stats.counter("predictions")
        self._mispredictions = stats.counter("mispredictions")
        self._btb_misses = stats.counter("btb_misses")

    # -- index helpers ----------------------------------------------------------
    def _local_index(self, pc: int) -> int:
        return (pc >> 2) % self.config.local_entries

    def _global_index(self, pc: int) -> int:
        return ((pc >> 2) ^ self._global_history) % self.config.global_entries

    def _chooser_index(self, pc: int) -> int:
        return (pc >> 2) % self.config.chooser_entries

    # -- prediction / update ------------------------------------------------------
    def predict(self, pc: int) -> bool:
        """Predict the direction of the branch at ``pc``."""
        self._predictions.increment()
        local_idx = self._local_index(pc)
        pattern = self._local_history[local_idx] % self.config.local_entries
        local_prediction = self._local_counters[pattern] > 1
        global_prediction = self._global_counters[self._global_index(pc)] > 1
        use_global = self._chooser[self._chooser_index(pc)] > 1
        return global_prediction if use_global else local_prediction

    def predict_target(self, pc: int) -> Optional[int]:
        target = self.btb.lookup(pc)
        if target is None:
            self._btb_misses.increment()
        return target

    def update(self, pc: int, taken: bool,
               target: Optional[int] = None) -> bool:
        """Update all structures; returns True if the branch was mispredicted."""
        local_idx = self._local_index(pc)
        pattern = self._local_history[local_idx] % self.config.local_entries
        local_prediction = self._local_counters[pattern] > 1
        global_idx = self._global_index(pc)
        global_prediction = self._global_counters[global_idx] > 1
        chooser_idx = self._chooser_index(pc)
        use_global = self._chooser[chooser_idx] > 1
        prediction = global_prediction if use_global else local_prediction

        mispredicted = prediction != taken
        if taken and target is not None:
            predicted_target = self.btb.lookup(pc)
            if predicted_target != target:
                mispredicted = True
            self.btb.update(pc, target)
        if mispredicted:
            self._mispredictions.increment()

        # Chooser trains toward whichever component was right.
        if local_prediction != global_prediction:
            step = (_STEP_TAKEN if global_prediction == taken
                    else _STEP_NOT_TAKEN)
            self._chooser[chooser_idx] = step[self._chooser[chooser_idx]]
        step = _STEP_TAKEN if taken else _STEP_NOT_TAKEN
        self._local_counters[pattern] = step[self._local_counters[pattern]]
        self._global_counters[global_idx] = step[
            self._global_counters[global_idx]]
        self._local_history[local_idx] = (
            (self._local_history[local_idx] << 1) | int(taken)) & 0x3FF
        self._global_history = (
            (self._global_history << 1) | int(taken)) & 0x1FFF
        return mispredicted

    # -- statistics ------------------------------------------------------------------
    @property
    def predictions(self) -> int:
        return self._predictions.value

    @property
    def mispredictions(self) -> int:
        return self._mispredictions.value

    @property
    def misprediction_rate(self) -> float:
        if not self._predictions.value:
            return 0.0
        return self._mispredictions.value / self._predictions.value
