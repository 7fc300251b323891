"""Reading one series of a histogram, as its exporters do."""


def samples(histogram, **labels) -> tuple[int, float]:
    """``(count, sum)`` of the series with ``labels``; ``(0, 0.0)`` if
    nothing was observed under them."""
    value = histogram.labelled_values().get(tuple(sorted(labels.items())))
    if value is None:
        return 0, 0.0
    return value["count"], value["sum"]
