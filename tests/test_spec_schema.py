"""The spec reader's one gate: shapes, unknown keys and defaults.

Every spec object passes :func:`repro.serialization._fields` against its
:data:`~repro.serialization.SPEC_SCHEMA` row.  A value of the wrong shape
anywhere in a spec is a :class:`DesignError` naming where it is, so the
CLI exits 2 with an ``error:`` line and ``repro lint`` reports DEP000;
and a spec holding only its required keys builds exactly what the
constructor builds from the same arguments.
"""

import copy
import json
import re

import pytest

from repro.cli import main
from repro.devices.base import Device
from repro.engine.keys import fingerprint
from repro.exceptions import DesignError
from repro.lint.engine import lint_spec
from repro.serialization import (
    SPEC_SCHEMA,
    design_from_spec,
    device_from_spec,
    ensemble_from_spec,
    requirements_from_spec,
    scenario_from_spec,
    technique_from_spec,
    workload_from_spec,
)

LOCATION = {"region": "us", "site": "hq", "building": "b1"}

FULL_DESIGN = {
    "name": "full",
    "recovery_facility": {"type": "shared", "provisioning_time": "9 hr",
                          "discount": 0.2},
    "levels": [
        {
            "technique": {"kind": "primary"},
            "store": {
                "id": "array",
                "kind": "disk_array",
                "name": "primary-array",
                "max_capacity_slots": 64,
                "slot_capacity": "73 GB",
                "max_bandwidth_slots": 64,
                "slot_bandwidth": "25 MB/s",
                "enclosure_bandwidth": "512 MB/s",
                "location": LOCATION,
                "spare": {"type": "dedicated", "provisioning_time": "60 s",
                          "discount": 1.0},
                "cost_model": {"fixed": 1000, "per_gb": 1.0},
            },
        },
        {
            "technique": {
                "kind": "backup",
                "full_accumulation_window": "1 wk",
                "full_propagation_window": "48 hr",
                "retention_count": 4,
                "incremental": {"kind": "cumulative", "count": 6,
                                "accumulation_window": "24 hr",
                                "propagation_window": "12 hr"},
            },
            "store": {"catalog": "enterprise_tape_library",
                      "location": LOCATION},
            "transport": {"catalog": "san_link"},
        },
    ],
}

FULL_WORKLOAD = {
    "name": "w",
    "data_capacity": "100 GB",
    "avg_access_rate": "2 MB/s",
    "avg_update_rate": "1 MB/s",
    "batch_curve": {"1 min": "900 KB/s", "12 hr": "300 KB/s"},
}

FULL_SCENARIO = {"scope": "site", "failed_location": LOCATION}

FULL_REQUIREMENTS = {"unavailability_per_hour": 1000, "loss_per_hour": 1000,
                     "rto": "4 hr"}

FULL_ENSEMBLE = {
    "name": "e",
    "members": [
        {"id": "array", "scenario": {"scope": "building",
                                     "failed_location": LOCATION},
         "rate": "0.5/yr"},
        {"id": "raid", "scenario": "array",
         "kofn": {"n": 8, "k": 6, "unit_rate": "2/yr", "repair_time": "8 hr"}},
    ],
    "correlated": [{"id": "pair", "rate": "0.5/yr", "fraction": 0.25,
                    "base": "array", "correlated": "building"}],
    "cascades": [{"id": "site", "rate": "0.01/yr", "primary": "array",
                  "escalated": "site", "secondary_rate": "0.5/yr"}],
    "generate": {"object_grid": {"count": 100, "total_rate": "12/yr"}},
}

READERS = {
    "design": (design_from_spec, FULL_DESIGN),
    "workload": (workload_from_spec, FULL_WORKLOAD),
    "scenario": (scenario_from_spec, FULL_SCENARIO),
    "requirements": (requirements_from_spec, FULL_REQUIREMENTS),
    "ensemble": (ensemble_from_spec, FULL_ENSEMBLE),
}

#: (spec, path to a nested object or list, the context its error names)
OBJECT_POSITIONS = [
    ("design", (), "design"),
    ("design", ("recovery_facility",), "spare"),
    ("design", ("levels", 1), "level 1"),
    ("design", ("levels", 1, "technique"), "technique"),
    ("design", ("levels", 1, "technique", "incremental"), "incremental"),
    ("design", ("levels", 0, "store"), "level 0 device"),
    ("design", ("levels", 1, "transport"), "level 1 device"),
    ("design", ("levels", 0, "store", "location"), "location"),
    ("design", ("levels", 0, "store", "spare"), "spare"),
    ("design", ("levels", 0, "store", "cost_model"), "cost_model"),
    ("design", ("levels", 1, "store", "location"), "location"),
    ("workload", (), "workload"),
    ("workload", ("batch_curve",), "batch_curve"),
    ("scenario", (), "scenario"),
    ("scenario", ("failed_location",), "location"),
    ("requirements", (), "requirements"),
    ("ensemble", (), "ensemble"),
    ("ensemble", ("members", 0), "ensemble member 0"),
    ("ensemble", ("members", 0, "scenario"), "scenario"),
    ("ensemble", ("members", 0, "scenario", "failed_location"), "location"),
    ("ensemble", ("members", 1, "kofn"), "ensemble member 1 kofn"),
    ("ensemble", ("correlated", 0), "ensemble correlated 0"),
    ("ensemble", ("correlated", 0, "base"), "scenario"),
    ("ensemble", ("cascades", 0), "ensemble cascade 0"),
    ("ensemble", ("cascades", 0, "escalated"), "scenario"),
    ("ensemble", ("generate",), "ensemble generate"),
    ("ensemble", ("generate", "object_grid"), "object_grid"),
]

LIST_POSITIONS = [
    ("design", ("levels",), "design levels"),
    ("ensemble", ("members",), "ensemble members"),
    ("ensemble", ("correlated",), "ensemble correlated"),
    ("ensemble", ("cascades",), "ensemble cascades"),
]

#: Scalars of the wrong type, which the constructors would trip on.
SCALAR_POSITIONS = [
    ("design", ("levels", 0, "store", "max_capacity_slots"), "8", "disk_array"),
    ("design", ("levels", 0, "store", "spare", "type"), "spare-ish", "spare"),
    ("design", ("levels", 1, "technique", "incremental", "kind"), "weekly",
     "incremental"),
    ("design", ("levels", 1, "technique", "retention_count"), "4", "backup"),
    ("scenario", ("scope",), "planet", "scenario"),
    ("requirements", ("loss_per_hour",), "lots", "requirements"),
    ("ensemble", ("members", 1, "kofn", "repair_time"), [8],
     "ensemble member 1 kofn"),
    ("ensemble", ("correlated", 0, "fraction"), "a quarter",
     "ensemble correlated 0"),
    ("ensemble", ("generate", "object_grid", "total_rate"), [12], "object_grid"),
]


def replaced(spec, path, value):
    """A deep copy of ``spec`` with ``value`` at ``path`` (``()`` = root)."""
    if not path:
        return value
    spec = copy.deepcopy(spec)
    target = spec
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return spec


def _case_id(case):
    return "-".join([case[0], *map(str, case[1])]) or case[0]


@pytest.mark.parametrize("name", sorted(READERS))
def test_full_specs_build(name):
    reader, spec = READERS[name]
    assert reader(copy.deepcopy(spec)) is not None


@pytest.mark.parametrize("wrong", [5, [5]], ids=["number", "list"])
@pytest.mark.parametrize("case", OBJECT_POSITIONS, ids=_case_id)
def test_non_object_is_a_named_error(case, wrong):
    name, path, context = case
    reader, spec = READERS[name]
    with pytest.raises(
        DesignError, match=rf"^{re.escape(context)}: expected an object, got "
    ):
        reader(replaced(spec, path, wrong))


@pytest.mark.parametrize(
    "wrong", [5, "x", {"a": 1}], ids=["number", "string", "object"]
)
@pytest.mark.parametrize("case", LIST_POSITIONS, ids=_case_id)
def test_non_list_is_a_named_error(case, wrong):
    name, path, context = case
    reader, spec = READERS[name]
    with pytest.raises(
        DesignError, match=rf"^{re.escape(context)}: expected a list, got "
    ):
        reader(replaced(spec, path, wrong))


@pytest.mark.parametrize(
    "case", SCALAR_POSITIONS, ids=lambda case: _case_id(case)
)
def test_wrong_scalar_is_a_named_error(case):
    name, path, wrong, context = case
    reader, spec = READERS[name]
    with pytest.raises(DesignError, match=rf"^{re.escape(context)}: "):
        reader(replaced(spec, path, wrong))


def test_shipment_rejects_spare():
    with pytest.raises(DesignError, match=r"^shipment: unknown keys \['spare'\]"):
        device_from_spec(
            {"kind": "shipment", "name": "courier", "spare": {"type": "none"}}
        )


def test_null_counts_as_absent():
    link = device_from_spec(
        {"kind": "network_link", "name": "l", "link_bandwidth": "155 Mbps",
         "link_count": None, "location": None}
    )
    assert link.link_count == 1
    with pytest.raises(DesignError, match="missing required key 'name'"):
        device_from_spec({"kind": "vault", "name": None, "max_cartridges": 1,
                          "cartridge_capacity": "1 GB"})


#: Arguments for every required key of each device and technique row.
REQUIRED_ARGS = {
    "disk_array": {"name": "a", "max_capacity_slots": 8,
                   "slot_capacity": "100 GB", "max_bandwidth_slots": 8,
                   "slot_bandwidth": "50 MB/s",
                   "enclosure_bandwidth": "200 MB/s"},
    "tape_library": {"name": "t", "max_cartridges": 100,
                     "cartridge_capacity": "400 GB", "max_drives": 4,
                     "drive_bandwidth": "60 MB/s",
                     "enclosure_bandwidth": "240 MB/s"},
    "vault": {"name": "v", "max_cartridges": 100,
              "cartridge_capacity": "400 GB"},
    "network_link": {"name": "l", "link_bandwidth": "155 Mbps"},
    "shipment": {"name": "s"},
    "primary": {},
    "snapshot": {"accumulation_window": "12 hr", "retention_count": 4},
    "split_mirror": {"accumulation_window": "12 hr", "retention_count": 2},
    "sync_mirror": {},
    "async_mirror": {},
    "batched_async_mirror": {},
    "backup": {"full_accumulation_window": "1 wk",
               "full_propagation_window": "48 hr"},
    "vaulting": {"accumulation_window": "4 wk",
                 "propagation_window": "24 hr", "hold_window": "4 wk",
                 "retention_count": 39},
}

KINDS = [name for name, row in SPEC_SCHEMA.items() if row.build is not None]


def test_every_kind_has_required_args():
    assert sorted(REQUIRED_ARGS) == sorted(KINDS)


@pytest.mark.parametrize("kind", KINDS)
def test_required_only_spec_matches_the_constructor(kind):
    row = SPEC_SCHEMA[kind]
    args = REQUIRED_ARGS[kind]
    assert set(args) == set(row.required) - {"kind"}
    reader = (
        device_from_spec if issubclass(row.build, Device) else technique_from_spec
    )
    built = reader({"kind": kind, **args})
    assert type(built) is row.build
    assert fingerprint(built) == fingerprint(row.build(**args))


# ---------------------------------------------------------------------------
# The CLI: a malformed spec exits 2 with an error line, lint says DEP000.
# ---------------------------------------------------------------------------

RATED = {"name": "e", "members": [{"id": "a", "scenario": "array",
                                   "rate": "1/yr"}]}

MALFORMED_SPECS = {
    "levels": {"design": {"name": "d", "levels": 5}},
    "store": {"design": {"name": "d", "levels": [
        {"technique": {"kind": "primary"}, "store": "primary-array"}]}},
    "location": {"design": {"name": "d", "levels": [
        {"technique": {"kind": "primary"},
         "store": {"catalog": "midrange_disk_array", "location": 5}}]}},
    "scenario": {"scenarios": [5]},
    "scenarios": {"scenarios": 5},
    "workload": {"workload": 5},
    "batch_curve": {"workload": {**FULL_WORKLOAD, "batch_curve": 5}},
    "requirements": {"requirements": 5},
    "ref": {"design": {"name": "d", "levels": [
        {"technique": {"kind": "primary"},
         "store": {"catalog": "midrange_disk_array", "id": "a"}},
        {"technique": {"kind": "primary"}, "store": {"ref": "a", "name": "x"}}]}},
}

MALFORMED_ENSEMBLES = {
    "object_grid": {"name": "e", "generate": {"object_grid": 5}},
    "members": {"name": "e", "members": 5},
    "member_scenario": {"name": "e", "members": [
        {"id": "a", "scenario": 5, "rate": "1/yr"}]},
}


def write_spec(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


def assert_error_exit(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: "), err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", sorted(MALFORMED_SPECS))
def test_evaluate_exits_two_on_malformed_spec(name, tmp_path, capsys):
    path = write_spec(tmp_path, MALFORMED_SPECS[name])
    assert_error_exit(["evaluate", path], capsys)


@pytest.mark.parametrize(
    "spec",
    [{**spec, "ensemble": RATED} for _, spec in sorted(MALFORMED_SPECS.items())
     if "scenarios" not in spec]
    + [{"ensemble": ensemble} for _, ensemble in sorted(MALFORMED_ENSEMBLES.items())],
    ids=[name for name in sorted(MALFORMED_SPECS)
         if "scenarios" not in MALFORMED_SPECS[name]]
    + sorted(MALFORMED_ENSEMBLES),
)
def test_risk_exits_two_on_malformed_spec(spec, tmp_path, capsys):
    path = write_spec(tmp_path, spec)
    assert_error_exit(["risk", path, "--samples", "10"], capsys)


@pytest.mark.parametrize("name", sorted(MALFORMED_SPECS))
def test_lint_reports_dep000_on_malformed_spec(name, tmp_path, capsys):
    path = write_spec(tmp_path, MALFORMED_SPECS[name])
    assert main(["lint", path, "--format", "json"]) == 1
    out = capsys.readouterr().out
    assert "DEP000" in out


@pytest.mark.parametrize("name", sorted(MALFORMED_ENSEMBLES))
def test_lint_reports_dep000_on_malformed_ensemble(name):
    diagnostics = lint_spec({"ensemble": MALFORMED_ENSEMBLES[name]})
    built = [(d.code, d.pointer) for d in diagnostics if d.code == "DEP000"]
    assert built == [("DEP000", "/ensemble")]
    assert diagnostics[1:] == lint_spec({})


@pytest.mark.parametrize("text", ["[1, 2]", "{not json"], ids=["list", "syntax"])
def test_evaluate_exits_two_on_a_spec_that_is_not_an_object(text, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(text)
    assert_error_exit(["evaluate", str(path)], capsys)
