"""Statistics for the benchmark: medians, quartiles, spreads and per-op
ratios.  Every division goes through ``ratio`` so that an empty
denominator yields 0.0 rather than a NaN that JSON cannot carry."""

import statistics


def median(xs):
    return statistics.median(xs)


def mean(xs):
    return statistics.fmean(xs)


def quartiles(xs):
    """(Q1, Q2, Q3) as ``statistics.quantiles(xs, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def iqr_frac(xs):
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, _, q3 = quartiles(xs)
    return ratio(q3 - q1, median(xs))


def ratio(num, den):
    return num / den if den else 0.0


def per_op(runs, key, ops="ok"):
    """Pooled per-op ratio over several runs: the sum of ``key`` over the
    sum of ``ops``, so long runs weigh as much as the work they did."""
    return ratio(sum(field(r, key) for r in runs), sum(field(r, ops) for r in runs))


def field(record, path):
    """``record["a"]["b"]`` for the dotted path ``"a.b"``."""
    for part in path.split("."):
        record = record[part]
    return record


def mean_abs_rel_err_pct(rows):
    """Mean of |sim - ref| / ref over (sim, ref) pairs, in percent."""
    return 100.0 * mean([abs(sim - ref) / ref for sim, ref in rows])
