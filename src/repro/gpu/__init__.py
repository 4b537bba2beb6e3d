"""GPU-side execution and timing models."""

from .engine import GpuExecutionEngine
from .timing import TimingModel, WaveTiming

__all__ = [
    "GpuExecutionEngine",
    "TimingModel",
    "WaveTiming",
]
