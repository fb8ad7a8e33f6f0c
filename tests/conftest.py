from datetime import datetime

import pytest
from hypothesis import strategies as st

from dslake.descriptors import load_descriptors
from dslake.lang.ast import GeoBox
from dslake.registry import KnowledgeRegistry
from dslake.times import UTC
from dslake.cyclone.plugin import register_cyclone_domain

# the query sketch exactly as published, misspellings included; the
# cyclone plugin registers cyclon-path/directon as aliases so this exact
# text must tokenize, parse, and validate
FIG5_SCRIPT = """\
area 48.3416,-24.7851 - 66.1605,32.8710
time 01.01.2011 - 31.12.2011

select cyclon-path
         directon north-east
         out(Params[EndTime])

simulate
  with BSM
  semantic_association yes
  in(startTime: EndTime - 48h)
  out(level[440,414])
"""

# a library whose one object type is atomic: it declares no combiner
STATION_KD = """\
[library stations]
object station atomic
"""

# scripts that validation refuses for their select statements, by why
REFUSED_SCRIPTS = {
    "no-select": "",
    "two-object-types": "select cyclon-path\n  directon north-east\nselect station\n",
    "no-combiner": "select station\n",
}

FIG5_AREA = GeoBox(lat_min=48.3416, lon_min=-24.7851, lat_max=66.1605, lon_max=32.8710)


def utc(year, month, day, hour=0, minute=0):
    return datetime(year, month, day, hour, minute, tzinfo=UTC)


@pytest.fixture()
def registry() -> KnowledgeRegistry:
    return register_cyclone_domain(KnowledgeRegistry())


@pytest.fixture()
def station_registry(registry) -> KnowledgeRegistry:
    """The cyclone registry plus the ``STATION_KD`` library."""
    (library,), _ = load_descriptors(STATION_KD)
    return registry.register_domain_library(library)


@pytest.fixture()
def fig5_script() -> str:
    return FIG5_SCRIPT


def key_value_texts(head: str, keys: list[str], values: list[str], sep: str):
    """Hypothesis strategy for fuzzing a key/value format: ``head`` or nothing,
    then lines that mostly read ``<key><sep><value>``, the key one of
    ``keys`` and the value up to three of ``values`` joined by spaces; now
    and then the separator is missing or a comment, and a key, a value or a
    whole line is arbitrary text."""
    key = st.sampled_from(keys) | st.text(max_size=6)
    value = st.lists(st.sampled_from(values), max_size=3).map(" ".join) | st.text(max_size=8)
    line = st.tuples(key, st.sampled_from([sep, sep, sep, "", "#"]), value).map("".join)
    lines = st.lists(line | st.text(max_size=16), max_size=6).map("\n".join)
    return st.tuples(st.sampled_from(["", head]), lines).map("".join)
