"""The out-of-order core model and its supporting structures."""

from repro.cpu.branch_predictor import (
    BranchTargetBuffer,
    ReturnAddressStack,
    TournamentPredictor,
)
from repro.cpu.core import CoreResult, OutOfOrderCore
from repro.cpu.instructions import (
    EXECUTION_LATENCY,
    MicroOp,
    OpKind,
    WrongPathAccess,
    summarize_trace,
)
from repro.cpu.interface import MemoryAccessResult, MemorySystem
from repro.cpu.rob import LoadQueue, ReorderBuffer, RetirementWindow, StoreQueue

__all__ = [
    "BranchTargetBuffer",
    "CoreResult",
    "EXECUTION_LATENCY",
    "LoadQueue",
    "MemoryAccessResult",
    "MemorySystem",
    "MicroOp",
    "OpKind",
    "OutOfOrderCore",
    "ReorderBuffer",
    "RetirementWindow",
    "ReturnAddressStack",
    "StoreQueue",
    "TournamentPredictor",
    "WrongPathAccess",
    "summarize_trace",
]
