"""Curve fitting, historical data, and table rendering for the harness.

The names below load on first access (PEP 562): the fitting module
pulls in scipy, which the table renderers the CLI imports never need.
"""

from repro._lazy import lazy_exports

#: public name -> defining submodule
_EXPORTS = {
    "ExponentialFit": "fitting",
    "LinearFit": "fitting",
    "NormalCdfFit": "fitting",
    "fit_exponential": "fitting",
    "fit_linear": "fitting",
    "fit_retention_normal": "fitting",
    "Figure1Data": "historical",
    "historical_trends": "historical",
    "generate_report": "report",
    "format_percent": "tables",
    "format_series": "tables",
    "format_table": "tables",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
