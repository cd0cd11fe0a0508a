"""Measurement tools: the NetPIPE probe and trace analysis."""

from repro.tools.netpipe import DEFAULT_SIZES, NetpipeSample, run_netpipe, summarize
from repro.tools.trace_analysis import LinearFit, linear_fit

__all__ = [
    "DEFAULT_SIZES",
    "LinearFit",
    "NetpipeSample",
    "linear_fit",
    "run_netpipe",
    "summarize",
]
