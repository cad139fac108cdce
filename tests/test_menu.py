"""Every idle-state menu, from the Python API or from a sim config file,
is checked by one function, sim._require_menu, as it is built: each
faulty menu below fails with one message from each source, and a file
run through main exits 1 with nothing on stdout, before any load runs.
A variant name is one menu: a second section that names it is refused."""

import pytest

from cstatesim.cli import main
from cstatesim.errors import ParseError, ValidationError
from cstatesim.reporting import loads_sim_config
from cstatesim.sim import ArrivalSpec, SimConfig, VariantSpec

# fault: (the menu as a file writes it, what follows the menu's name in
# the message)
FAULTS = {
    "C9": ("C0, C1, C9", ": unknown state 'C9'"),
    "c6": ("C0, C1, c6", ": unknown state 'c6'"),
    # Names are checked first: a lower-case c0 is not C0.
    "c0": ("c0, C1", ": unknown state 'c0'"),
    "no_C0": ("C1, C6", " must contain C0"),
    "C0_only": ("C0", " needs at least one idle state"),
    # An empty list is an empty menu, not the default one.
    "empty": ("", " must contain C0"),
}


def menu(text):
    return frozenset(s.strip() for s in text.split(",") if s.strip())


# source: (the menu's name in the message, the menu's build)
API = {
    "SimConfig": ("cstates_enabled", lambda text: SimConfig(
        cores=1, duration_s=0.01, seed=3, arrival=ArrivalSpec(), cstates_enabled=menu(text))),
    # A variant refuses its menu before a sweep runs any load.
    "VariantSpec": ("[variant:bad] cstates", lambda text: VariantSpec("bad", menu(text))),
}

BASE = "[sim]\ncores = 1\nduration_s = 0.01\nseed = 3\n"
SIM_MENU = BASE + "cstates_enabled = {}\n"
VARIANT_MENU = BASE + "\n[variant:bad]\ncstates = {}\n"
SWEEP = ["sim", "sweep", "--qps", "1000", "--variants"]

# file: (the menu's name in the message, the file)
FILES = {
    "sim": ("cstates_enabled", SIM_MENU),
    "variant": ("[variant:bad] cstates", VARIANT_MENU),
}

# repeat: a second section for the variant [variant:bad] names, which
# configparser keeps apart and the reader strips to the same name
REPEATS = {
    "space_after_colon": "[variant: bad]",
    "space_before_bracket": "[variant:bad ]",
}

# source: (the file, the command that reads it with --config; {catalog}
# is a file that gives C0's power)
COMMANDS = {
    "sim": ("sim", ["sim", "run"]),
    # The config is refused before a catalog override is read.
    "sim_with_catalog": ("sim", ["sim", "run", "--catalog", "{catalog}"]),
    "variant_selected": ("variant", SWEEP + ["baseline,bad"]),
    # A variant the command line does not select is read all the same.
    "variant_unselected": ("variant", SWEEP + ["baseline"]),
}


@pytest.mark.parametrize("fault", list(FAULTS))
@pytest.mark.parametrize("source", list(API))
def test_api_menu_refused(source, fault):
    what, build = API[source]
    text, problem = FAULTS[fault]
    with pytest.raises(ValidationError) as info:
        build(text)
    assert str(info.value) == what + problem


@pytest.mark.parametrize("fault", list(FAULTS))
@pytest.mark.parametrize("source", list(FILES))
def test_file_menu_refused(source, fault):
    what, template = FILES[source]
    text, problem = FAULTS[fault]
    with pytest.raises(ValidationError) as info:
        loads_sim_config(template.format(text))
    assert str(info.value) == what + problem


@pytest.mark.parametrize("fault", list(FAULTS))
@pytest.mark.parametrize("source", list(COMMANDS))
def test_file_menu_refused_through_main(source, fault, tmp_path, capsys):
    file, command = COMMANDS[source]
    what, template = FILES[file]
    text, problem = FAULTS[fault]
    config, catalog = tmp_path / "menu.ini", tmp_path / "c0.ini"
    config.write_text(template.format(text))
    catalog.write_text("[C0]\npower_w = 11\n")
    argv = [arg.format(catalog=catalog) for arg in command]
    assert main(argv + ["--config", str(config)]) == 1
    assert capsys.readouterr() == ("", f"error: {what}{problem}\n")


def repeated_variant(header):
    """A file whose second variant section repeats the first's name, and its message."""
    text = VARIANT_MENU.format("C0, C1") + f"\n{header}\ncstates = C0, C6\n"
    return text, f"{header} repeats variant 'bad'"


@pytest.mark.parametrize("repeat", list(REPEATS))
def test_repeated_variant_refused(repeat):
    text, message = repeated_variant(REPEATS[repeat])
    with pytest.raises(ParseError) as info:
        loads_sim_config(text)
    assert str(info.value) == message


@pytest.mark.parametrize("repeat", list(REPEATS))
def test_repeated_variant_refused_through_main(repeat, tmp_path, capsys):
    text, message = repeated_variant(REPEATS[repeat])
    config = tmp_path / "repeat.ini"
    config.write_text(text)
    assert main(SWEEP + ["baseline", "--config", str(config)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
