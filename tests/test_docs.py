"""Every INI example in the docs parses as what it documents."""

import re
from pathlib import Path

import pytest

from cstatesim.catalog import loads_catalog
from cstatesim.reporting import loads_sim_config

ROOT = Path(__file__).resolve().parent.parent


def ini_blocks(name):
    return re.findall(r"^```ini\n(.*?)^```", (ROOT / name).read_text(), re.S | re.M)


@pytest.mark.parametrize("name, count", [("docs/formats.md", 2), ("README.md", 1)])
def test_ini_examples_parse(name, count):
    blocks = ini_blocks(name)
    assert len(blocks) == count
    for text in blocks:
        if "[sim]" in text:
            assert loads_sim_config(text).config.cores > 0
        else:
            assert loads_catalog(text)
