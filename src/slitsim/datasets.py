"""Packaged measurement data for the damping-series reproduction report."""
from __future__ import annotations

import functools
from importlib import resources

from .experiment import CountsTable
from .fileio import parse_counts_text

# Concurrence values quoted with the acquisition record, per gamma_t,
# as (value, uncertainty).
MEASURED_CONCURRENCE: dict[float, tuple[float, float]] = {
    0.0: (0.862, 0.007),
    0.1: (0.895, 0.008),
    0.3: (0.905, 0.009),
    0.5: (0.942, 0.012),
    0.7: (0.962, 0.014),
    1.0: (0.971, 0.016),
    1.3: (0.958, 0.016),
    1.5: (0.928, 0.021),
    1.7: (0.926, 0.021),
}


def damping_counts_text() -> str:
    """Raw text of the packaged counts file."""
    return resources.files("slitsim").joinpath("data/damping_counts.txt").read_text()


@functools.cache  # the tables are frozen and their counts read-only, so they can be shared
def _damping_tables() -> tuple[CountsTable, ...]:
    return tuple(parse_counts_text(damping_counts_text()))


def damping_counts() -> list[CountsTable]:
    """The nine measured count tables, ordered by gamma_t; the file is parsed once per process."""
    return list(_damping_tables())
