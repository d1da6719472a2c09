"""Summaries of operation times: Harrell-Davis quantiles and per-command figures.

The Harrell-Davis estimate is a Beta-weighted mean of all order statistics
instead of one or two of them, so noise on the documents next to the
quantile moves it less (Harrell and Davis, 1982, Biometrika 69(3)). The Beta
weights are taken at the midpoint of each of the n slices of [0, 1] and
normalised.
"""

from math import exp, lgamma, log


def hd_quantile(values, p: float) -> float:
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = lgamma(a + b) - lgamma(a) - lgamma(b)
    weights = [
        exp(log_norm + (a - 1) * log(t) + (b - 1) * log(1 - t))
        for t in ((i + 0.5) / n for i in range(n))
    ]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def quantiles_ms(seconds: list[float]) -> dict:
    return {"doc_ms_p50": hd_quantile(seconds, 0.5) * 1000, "doc_ms_p90": hd_quantile(seconds, 0.9) * 1000}


def command_summary(items: dict, ops: list[list], command: str, column: int = 3) -> dict | None:
    """Items per second and per-document quantiles of one command's operations.

    ``ops`` rows are [pass, command, document, wall seconds, ...]; ``column``
    picks the time to use. None when the command never ran.
    """
    rows = [op for op in ops if op[1] == command]
    if not rows:
        return None
    times = [op[column] for op in rows]
    return {"items_per_s": sum(items[op[2]] for op in rows) / sum(times), **quantiles_ms(times)}
