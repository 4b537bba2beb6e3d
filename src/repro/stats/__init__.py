"""Statistics collection."""

from .collector import KernelStats, StatsCollector, TraceRecord

__all__ = ["KernelStats", "StatsCollector", "TraceRecord"]
