"""Shared fixtures: built-in groups, their tables and surveys, cached per session."""

from __future__ import annotations

import pytest

from cayint.catalog import catalog
from cayint.chartable import character_table
from cayint.classify import normal_set_survey
from cayint.groups import conjugacy_classes

# order <= 24 groups exercised by the exhaustive suites
SMALL_CATALOG = (
    ("Z5", ("cyclic", (5,))),
    ("Z6", ("cyclic", (6,))),
    ("Z12", ("cyclic", (12,))),
    ("S3", ("s3", ())),
    ("D4", ("d4", ())),
    ("Q8", ("q8", ())),
    ("Z2xZ4", ("z2z4", (1, 1))),
    ("Dic12", ("dicyclic12", ())),
    ("A4", ("a4", ())),
    ("S4", ("s4", ())),
    ("Q8xZ3", ("q8z3", ())),
)

MEDIUM_EXTRA = (
    ("D8", ("d8", ())),
    ("A5", ("a5", ())),
    ("S5", ("s5", ())),
)


@pytest.fixture(scope="session")
def groups():
    out = {}
    for label, (name, params) in SMALL_CATALOG + MEDIUM_EXTRA:
        out[label] = catalog(name, *params)
    return out


@pytest.fixture(scope="session")
def partitions(groups):
    return {label: conjugacy_classes(g) for label, g in groups.items()}


@pytest.fixture(scope="session")
def tables(groups, partitions):
    return {
        label: character_table(groups[label], partitions[label])
        for label in groups
    }


@pytest.fixture(scope="session")
def surveys(groups, partitions, tables):
    """The normal-set survey of every group above."""
    return {
        label: normal_set_survey(groups[label], partitions[label], tables[label])
        for label in groups
    }
