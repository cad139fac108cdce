"""The INI rules, tested here and in no other file.

Both INI readers, catalog and sim config, follow one key rule and one
set of messages: each malformed input below fails the same way in each,
loaded as text and run as a file through main (validate --catalog, sim
run --config).  A sim config's own rules (a missing [sim] or key, mode
keys, variant names) are in test_reporting.py, and the menu rule, for
files and the Python API alike, in test_menu.py.
"""

import re

import pytest

from cstatesim.catalog import loads_catalog
from cstatesim.cli import main
from cstatesim.errors import ParseError
from cstatesim.reporting import loads_sim_config

# reader: (load, a text that reads as the defaults, the section that
# text ends in, the command that reads a file, the file in a syntax error)
READERS = {
    "catalog": (loads_catalog, "", None, ["validate", "--catalog"], "catalog file"),
    "sim_config": (loads_sim_config, "[sim]\ncores = 1\nduration_s = 0.01\nseed = 3\n", "sim",
                   ["sim", "run", "--config"], "sim config"),
}

# reader: rule: the names it is tried with, each a section, (section,
# key) or (section, key, value); the first is the case named after the
# rule alone, a later one the case rule:section.key.  An unknown section
# is tried with x = 1 or with its own key and value, and its case name
# ends in =value: the section is refused whatever its values.
NAMES = {
    "catalog": {
        # P-states and turbo power have no section: active power is
        # [C0] power_w.
        "unknown_section": ["bogus", "C9", ("turbo", "c0_power_w", "11"),
                            ("turbo", "c0_power_w", "inf"), ("turbo", "c0_power_w", "1e306"),
                            "pstate:P9", "pstate:P1", ("pstate:P1", "frequency_ghz", "nan"),
                            ("pstate:P1", "frequency_ghz", "inf"), "pstate:Pn"],
        # Nothing reads implied_pstate or clocks.
        "unknown_key": [("C1", "bogus"), ("C6A", "bogus_key"), ("C1", "implied_pstate"),
                        ("C6", "clocks")],
        "bad_number": [("C1", "transition_time_us", "abc")],
        "bad_integer": [("C1", "hw_entry_ns", "1.5")],
    },
    "sim_config": {
        "unknown_section": ["bogus", "servce", "turbo"],
        # delta_transition_ns is the analytic model's knob, and C0 power
        # comes only from the catalog; a variant is only a menu.
        "unknown_key": [("arrival", "bogus"), ("arrival", "rate_qp"), ("sim", "core"),
                        ("perf", "freq_penalti"), ("perf", "delta_transition_ns"),
                        ("sim", "turbo"), ("sim", "turbo_c0_power_w"), ("variant:x", "turbo"),
                        ("variant:x", "turbo_c0_power_w"), ("variant:x", "note")],
        "bad_number": [("arrival", "rate_qps", "abc"), ("service", "mean_us", "1O")],
        "bad_integer": [("snoop", "service_ns", "1.5"), ("sim", "pack_queue_cap", "two")],
    },
}


def under(reader, section, line):
    """Text that puts line in section when appended to reader's base."""
    return line if section == READERS[reader][2] else f"\n[{section}]\n{line}"


def malformed(reader):
    """case: (text to append to reader's base, the whole ParseError
    message as a regex)."""
    what = READERS[reader][4]
    rules = {
        "unknown_section": lambda s, k="x", v="1": (f"\n[{s}]\n{k} = {v}\n",
                                                    f"unknown section [{s}]"),
        "unknown_key": lambda s, k: (under(reader, s, f"{k} = 1\n"), f"[{s}] unknown key '{k}'"),
        "bad_number": lambda s, k, v: (under(reader, s, f"{k} = {v}\n"),
                                       f"[{s}] bad number for '{k}': '{v}'"),
        "bad_integer": lambda s, k, v: (under(reader, s, f"{k} = {v}\n"),
                                        f"[{s}] bad integer for '{k}': '{v}'"),
    }
    cases = {}
    for rule, names in NAMES[reader].items():
        for i, name in enumerate(names):
            name = name if isinstance(name, tuple) else (name,)
            text, message = rules[rule](*name)
            label = ".".join(name[:2]) + (f"={name[2]}" if rule == "unknown_section" and name[1:] else "")
            cases[f"{rule}:{label}" if i else rule] = (text, re.escape(message))
    # configparser would hand [DEFAULT]'s keys to every section.
    section, key, _ = NAMES[reader]["bad_number"][0]
    default = re.escape("unknown section [DEFAULT]")
    cases["default_section"] = ("\n[DEFAULT]\nx = 1\n", default)
    cases["default_known_key"] = (f"\n[DEFAULT]\n{key} = 1\n", default)
    cases["default_beside"] = (f"\n[DEFAULT]\n{key} = 1\n" + under(reader, section, f"{key} = 1\n"),
                               default)
    cases["syntax_error"] = ("\n[oops\nx = 1\n", re.escape(f"bad {what}: ") + r".*'\[oops\\n'")
    return cases


CASES = [(reader, case) for reader in READERS for case in malformed(reader)]


@pytest.mark.parametrize("reader, case", CASES, ids=[f"{r}-{c}" for r, c in CASES])
def test_malformed_input(reader, case):
    load, base, *_ = READERS[reader]
    text, message = malformed(reader)[case]
    with pytest.raises(ParseError) as info:
        load(base + text)
    assert re.fullmatch(message, str(info.value), re.DOTALL)


@pytest.mark.parametrize("reader, case", CASES, ids=[f"{r}-{c}" for r, c in CASES])
def test_malformed_file_through_main(reader, case, tmp_path, capsys):
    _, base, _, command, _ = READERS[reader]
    text, message = malformed(reader)[case]
    path = tmp_path / "malformed.ini"
    path.write_text(base + text)
    assert main(command + [str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(f"error: {message}\n", err, re.DOTALL)


@pytest.mark.parametrize("reader", list(READERS))
def test_empty_value_keeps_its_base(reader):
    load, base, *_ = READERS[reader]
    for section, key, _ in (NAMES[reader]["bad_number"][0], NAMES[reader]["bad_integer"][0]):
        assert load(base + under(reader, section, f"{key} =\n")) == load(base)
