"""Both INI readers, catalog and sim config, follow one key rule and one
set of messages: each malformed input below fails the same way in each."""

import pytest

from cstatesim.catalog import loads_catalog
from cstatesim.errors import ParseError
from cstatesim.reporting import loads_sim_config

# reader: (load, a text that reads as the defaults, a float key and an
# int key, each as (section, key))
READERS = {
    "catalog": (loads_catalog, "",
                ("C1", "transition_time_us"), ("C1", "hw_entry_ns")),
    "sim_config": (loads_sim_config, "[sim]\ncores = 1\nduration_s = 0.01\nseed = 3\n\n",
                   ("arrival", "rate_qps"), ("snoop", "service_ns")),
}


def malformed(number, integer):
    """case: (text to append, the whole ParseError message as a regex)."""
    (section, key), (int_section, int_key) = number, integer
    return {
        "unknown_section": ("[bogus]\nx = 1\n", r"unknown section \[bogus\]"),
        "default_section": ("[DEFAULT]\nx = 1\n", r"unknown section \[DEFAULT\]"),
        "unknown_key": (f"[{section}]\nbogus = 1\n", rf"\[{section}\] unknown key 'bogus'"),
        "bad_number": (f"[{section}]\n{key} = abc\n",
                       rf"\[{section}\] bad number for '{key}': 'abc'"),
        "bad_integer": (f"[{int_section}]\n{int_key} = 1.5\n",
                        rf"\[{int_section}\] bad integer for '{int_key}': '1.5'"),
    }


@pytest.mark.parametrize("case", ["unknown_section", "default_section", "unknown_key",
                                  "bad_number", "bad_integer"])
@pytest.mark.parametrize("reader", list(READERS))
def test_malformed_input(reader, case):
    load, base, number, integer = READERS[reader]
    text, message = malformed(number, integer)[case]
    with pytest.raises(ParseError, match=rf"^{message}$"):
        load(base + text)


@pytest.mark.parametrize("reader", list(READERS))
def test_empty_value_keeps_its_base(reader):
    load, base, *keys = READERS[reader]
    for section, key in keys:
        assert load(base + f"[{section}]\n{key} =\n") == load(base)
