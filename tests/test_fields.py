"""The field contract, tested here and in no other file.

Every spec checks its fields' annotations with one function,
errors.require_fields, as it is built: a Literal field takes one of its
values, an int field an int (never a bool), and a float field a finite
number (never a bool).  Each spec below that calls it is crossed with a
bad value for each such field, read from its annotations, and each case
fails with its one message.  Two files show that a file's value meets
the same check, loaded as text and run as a file through main.
"""

import dataclasses
import math
from typing import Literal, get_args, get_origin, get_type_hints

import pytest

from cstatesim.catalog import CStateSpec, PState, default_catalog, loads_catalog
from cstatesim.cli import main
from cstatesim.errors import ValidationError
from cstatesim.fsm import (
    ACTIVE_STATE,
    CoreDomainState,
    FsmStep,
    FsmTimeline,
    StaggerPlan,
    entry_timeline,
)
from cstatesim.model import PerfModel, ResidencyProfile
from cstatesim.reporting import loads_sim_config
from cstatesim.sim import ArrivalSpec, GovernorPolicy, ServiceSpec, SimConfig, SnoopSpec

# spec: (a valid instance, which each case copies with one bad field;
# what its messages start with)
SPECS = {
    ArrivalSpec: (ArrivalSpec(), ""),
    ServiceSpec: (ServiceSpec(), ""),
    SnoopSpec: (SnoopSpec(), ""),
    GovernorPolicy: (GovernorPolicy(), ""),
    SimConfig: (SimConfig(cores=1, duration_s=0.01, seed=3, arrival=ArrivalSpec()), ""),
    # A catalog has a section per state, so its messages name the state.
    CStateSpec: (default_catalog()["C6A"], "C6A: "),
    PState: (PState("P1", 4000), "P1: "),
    PerfModel: (PerfModel(), ""),
    ResidencyProfile: (ResidencyProfile(1.0, {"C0": 1.0}), ""),
    CoreDomainState: (ACTIVE_STATE, ""),
    StaggerPlan: (StaggerPlan(), ""),
    FsmStep: (FsmStep("wake", ACTIVE_STATE, cycles=1), ""),
    FsmTimeline: (entry_timeline("C6A"), ""),
}

# An int field's bad values, with what the message says it must be.  A
# whole float such as 2.0 is refused too: time is integer nanoseconds,
# and a bool would read as 0 or 1.
BAD_INT = [(2.0, "an integer"), (2.5, "an integer"), (True, "an integer")]
# A float field's.  Infinity is no value either: an infinite snoop rate
# would draw zero gaps, one snoop per nanosecond; NaN compares false
# against every range check.
BAD_FLOAT = [(math.nan, "finite"), (math.inf, "finite"), (True, "a number")]


def cases():
    for spec, (valid, where) in SPECS.items():
        for name, hint in get_type_hints(spec).items():
            if get_origin(hint) is Literal:
                bad = [("bogus", f"one of {get_args(hint)}")]
            else:
                bad = {int: BAD_INT, float: BAD_FLOAT}.get(hint, [])
            for value, must in bad:
                yield pytest.param(valid, name, value,
                                   f"{where}{name} must be {must}, got {value!r}",
                                   id=f"{spec.__name__}-{name}-{value}")


@pytest.mark.parametrize("valid, name, value, message", list(cases()))
def test_bad_field_refused(valid, name, value, message):
    with pytest.raises(ValidationError) as info:
        dataclasses.replace(valid, **{name: value})
    assert str(info.value) == message


def test_float_field_takes_an_int():
    assert ArrivalSpec(rate_qps=100).rate_qps == 100
    assert CStateSpec("C1", 2, 2, 1440, 4, 4).target_residency_us == 2


# file: (load, the command that reads it, the file, its one message)
FILES = {
    "sim_config-process": (
        loads_sim_config, ["sim", "run", "--config"],
        "[sim]\ncores = 1\nduration_s = 0.01\nseed = 3\n\n[arrival]\nprocess = uniform\n",
        "process must be one of ('poisson', 'periodic', 'bursty'), got 'uniform'"),
    # NaN used to pass the range checks and leave the governor's depth
    # order undefined.
    "catalog-target_residency_us": (
        loads_catalog, ["validate", "--catalog"], "[C6]\ntarget_residency_us = nan\n",
        "C6: target_residency_us must be finite, got nan"),
}


@pytest.mark.parametrize("file", list(FILES))
def test_bad_field_in_file_refused(file):
    load, _, text, message = FILES[file]
    with pytest.raises(ValidationError) as info:
        load(text)
    assert str(info.value) == message


@pytest.mark.parametrize("file", list(FILES))
def test_bad_field_in_file_through_main(file, tmp_path, capsys):
    _, command, text, message = FILES[file]
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert main(command + [str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
