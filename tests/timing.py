"""Scaling checks that hold on a loaded machine."""

import gc
import statistics


def median_ratio(timed, large, small, tries=5):
    """The median of ``tries`` ratios timed(large) / timed(small).

    Each pair is timed back to back, so that both sizes see the same load
    on the machine, and a collection runs before each timed call, so that
    the collector's work on earlier garbage lands in neither.  Noise can
    pull single ratios either way; the least of them can hide a
    superlinear cost that the median still shows.  ``timed`` returns
    seconds.
    """
    def clean(size):
        gc.collect()
        return timed(size)

    return statistics.median(clean(large) / clean(small) for _ in range(tries))
