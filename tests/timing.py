"""Scaling checks that hold on a loaded machine."""

import statistics


def best_ratio(timed, large, small, tries=3):
    """The least of ``tries`` ratios timed(large) / timed(small).

    Each pair is timed back to back, so that both sizes see the same load on
    the machine; a burst of load then spoils one ratio, not the result.
    ``timed`` returns seconds.
    """
    return min(timed(large) / timed(small) for _ in range(tries))


def median_ratio(timed, large, small, tries=5):
    """The median of ``tries`` ratios timed(large) / timed(small), each pair
    timed back to back as in best_ratio.

    Noise can pull single ratios either way; the least of them can hide a
    superlinear cost that the median still shows.
    """
    return statistics.median(timed(large) / timed(small) for _ in range(tries))
