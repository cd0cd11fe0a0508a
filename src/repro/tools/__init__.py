"""Measurement tools: the NetPIPE probe, trace analysis, ASCII plots."""

from repro.tools.ascii_plot import ascii_plot
from repro.tools.netpipe import DEFAULT_SIZES, NetpipeSample, run_netpipe, summarize
from repro.tools.trace_analysis import LinearFit, linear_fit

__all__ = [
    "DEFAULT_SIZES",
    "ascii_plot",
    "LinearFit",
    "NetpipeSample",
    "linear_fit",
    "run_netpipe",
    "summarize",
]
