"""Scaling checks that hold on a loaded machine."""


def best_ratio(timed, large, small, tries=3):
    """The least of ``tries`` ratios timed(large) / timed(small).

    Each pair is timed back to back, so that both sizes see the same load on
    the machine; a burst of load then spoils one ratio, not the result.
    ``timed`` returns seconds.
    """
    return min(timed(large) / timed(small) for _ in range(tries))
