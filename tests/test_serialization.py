"""Dictionary/JSON specs into framework objects."""

import pytest

from repro.devices import DiskArray, NetworkLink, Shipment, TapeLibrary, Vault
from repro.exceptions import DesignError
from repro.scenarios import FailureScope
from repro.serialization import (
    provenance_from_spec,
    provenance_to_dict,
    design_from_spec,
    device_from_spec,
    requirements_from_spec,
    scenario_from_spec,
    technique_from_spec,
    workload_from_spec,
)
from repro.techniques import (
    Backup,
    BatchedAsyncMirror,
    PrimaryCopy,
    RemoteVaulting,
    SplitMirror,
    SyncMirror,
    VirtualSnapshot,
)
from repro.units import GB, HOUR, KB


class TestWorkloadSpecs:
    def test_preset_names(self):
        assert workload_from_spec("cello").data_capacity == 1360 * GB
        assert workload_from_spec("oltp").name == "OLTP database"

    def test_unknown_preset(self):
        with pytest.raises(DesignError):
            workload_from_spec("nonexistent")

    def test_full_dictionary(self):
        workload = workload_from_spec(
            {
                "name": "custom",
                "data_capacity": "10 GB",
                "avg_access_rate": "1 MB/s",
                "avg_update_rate": "100 KB/s",
                "burst_multiplier": 3,
                "batch_curve": {"1 min": "90 KB/s", "1 hr": "40 KB/s"},
                "short_window_rate": "100 KB/s",
            }
        )
        assert workload.data_capacity == 10 * GB
        assert workload.batch_update_rate("1 hr") == 40 * KB

    def test_unknown_key_rejected(self):
        with pytest.raises(DesignError):
            workload_from_spec({"data_capacity": "1 GB", "typo_key": 1})


class TestDeviceSpecs:
    def test_catalog_reference(self):
        device = device_from_spec({"catalog": "midrange_disk_array"})
        assert isinstance(device, DiskArray)

    def test_catalog_with_links(self):
        device = device_from_spec({"catalog": "oc3_links", "link_count": 4})
        assert isinstance(device, NetworkLink)
        assert device.link_count == 4

    def test_link_count_on_wrong_catalog_rejected(self):
        with pytest.raises(DesignError):
            device_from_spec({"catalog": "offsite_vault", "link_count": 2})

    def test_unknown_catalog_rejected(self):
        with pytest.raises(DesignError):
            device_from_spec({"catalog": "quantum_storage"})

    def test_explicit_disk_array(self):
        device = device_from_spec(
            {
                "kind": "disk_array",
                "name": "arr",
                "max_capacity_slots": 10,
                "slot_capacity": "100 GB",
                "max_bandwidth_slots": 10,
                "slot_bandwidth": "50 MB/s",
                "enclosure_bandwidth": "200 MB/s",
                "raid_capacity_factor": 1.25,
                "spare": {"type": "dedicated", "provisioning_time": "60 s",
                          "discount": 1.0},
                "cost_model": {"fixed": 1000, "per_gb": 1.0},
                "location": {"region": "r", "site": "s"},
            }
        )
        assert isinstance(device, DiskArray)
        assert device.raid_capacity_factor == 1.25
        assert device.spare.exists
        assert device.location.region == "r"

    def test_explicit_library_vault_link_shipment(self):
        library = device_from_spec(
            {
                "kind": "tape_library",
                "name": "lib",
                "max_cartridges": 100,
                "cartridge_capacity": "400 GB",
                "max_drives": 4,
                "drive_bandwidth": "60 MB/s",
                "enclosure_bandwidth": "240 MB/s",
            }
        )
        vault = device_from_spec(
            {"kind": "vault", "name": "v", "max_cartridges": 100,
             "cartridge_capacity": "400 GB"}
        )
        link = device_from_spec(
            {"kind": "network_link", "name": "l", "link_bandwidth": "155 Mbps"}
        )
        courier = device_from_spec({"kind": "shipment", "name": "s"})
        assert isinstance(library, TapeLibrary)
        assert isinstance(vault, Vault)
        assert isinstance(link, NetworkLink)
        assert isinstance(courier, Shipment)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DesignError):
            device_from_spec({"kind": "floppy_tower", "name": "x"})

    def test_missing_required_key_rejected(self):
        with pytest.raises(DesignError):
            device_from_spec({"kind": "vault", "name": "v"})


class TestTechniqueSpecs:
    @pytest.mark.parametrize(
        "spec,cls",
        [
            ({"kind": "primary"}, PrimaryCopy),
            (
                {"kind": "snapshot", "accumulation_window": "12 hr",
                 "retention_count": 4},
                VirtualSnapshot,
            ),
            (
                {"kind": "split_mirror", "accumulation_window": "12 hr",
                 "retention_count": 4},
                SplitMirror,
            ),
            ({"kind": "sync_mirror"}, SyncMirror),
            ({"kind": "batched_async_mirror"}, BatchedAsyncMirror),
            (
                {"kind": "backup", "full_accumulation_window": "1 wk",
                 "full_propagation_window": "48 hr", "retention_count": 4},
                Backup,
            ),
            (
                {"kind": "vaulting", "accumulation_window": "4 wk",
                 "propagation_window": "24 hr", "hold_window": "676 hr",
                 "retention_count": 39},
                RemoteVaulting,
            ),
        ],
    )
    def test_kinds(self, spec, cls):
        assert isinstance(technique_from_spec(spec), cls)

    def test_backup_with_incremental(self):
        backup = technique_from_spec(
            {
                "kind": "backup",
                "full_accumulation_window": "48 hr",
                "full_propagation_window": "48 hr",
                "full_hold_window": "1 hr",
                "retention_count": 4,
                "incremental": {
                    "kind": "cumulative",
                    "count": 5,
                    "accumulation_window": "24 hr",
                    "propagation_window": "12 hr",
                    "hold_window": "1 hr",
                },
            }
        )
        assert backup.cycle_count == 5
        assert backup.worst_lag() == pytest.approx(73 * HOUR)

    def test_unknown_kind(self):
        with pytest.raises(DesignError):
            technique_from_spec({"kind": "carrier-pigeon"})


class TestDesignSpecs:
    def test_named_designs(self):
        design = design_from_spec("baseline")
        assert len(design.levels) == 4
        with pytest.raises(DesignError):
            design_from_spec("no-such-design")

    def test_full_design_with_device_refs(self):
        design = design_from_spec(
            {
                "name": "json-design",
                "recovery_facility": {"type": "shared",
                                      "provisioning_time": "9 hr",
                                      "discount": 0.2},
                "levels": [
                    {
                        "technique": {"kind": "primary"},
                        "store": {"catalog": "midrange_disk_array",
                                  "id": "array"},
                    },
                    {
                        "technique": {"kind": "split_mirror",
                                      "accumulation_window": "12 hr",
                                      "retention_count": 4},
                        "store": {"ref": "array"},
                    },
                    {
                        "technique": {"kind": "backup",
                                      "full_accumulation_window": "1 wk",
                                      "full_propagation_window": "48 hr",
                                      "full_hold_window": "1 hr",
                                      "retention_count": 4},
                        "store": {"catalog": "enterprise_tape_library"},
                        "transport": {"catalog": "san_link"},
                    },
                ],
            }
        )
        assert design.name == "json-design"
        assert design.level(1).store is design.level(0).store
        assert design.recovery_facility.discount == 0.2

    def test_feeds_from_builds_branches(self):
        design = design_from_spec(
            {
                "name": "branched",
                "levels": [
                    {
                        "technique": {"kind": "primary"},
                        "store": {"catalog": "midrange_disk_array", "id": "array"},
                    },
                    {
                        "technique": {"kind": "snapshot",
                                      "accumulation_window": "12 hr",
                                      "retention_count": 4},
                        "store": {"ref": "array"},
                    },
                    {
                        "technique": {"kind": "batched_async_mirror"},
                        "store": {"catalog": "midrange_disk_array",
                                  "name": "dr-array",
                                  "location": {"region": "r2", "site": "dr"}},
                        "transport": {"catalog": "oc3_links", "link_count": 2},
                        "feeds_from": 0,
                    },
                ],
            }
        )
        assert design.level(2).parent_index == 0

    def test_unknown_device_ref_rejected(self):
        with pytest.raises(DesignError):
            design_from_spec(
                {
                    "name": "bad",
                    "levels": [
                        {"technique": {"kind": "primary"},
                         "store": {"ref": "ghost"}},
                    ],
                }
            )

    def test_device_ref_with_other_keys_rejected(self):
        with pytest.raises(DesignError, match="unknown keys \\['name'\\]"):
            design_from_spec(
                {
                    "name": "bad",
                    "levels": [
                        {"technique": {"kind": "primary"},
                         "store": {"catalog": "midrange_disk_array", "id": "a"}},
                        {"technique": {"kind": "primary"},
                         "store": {"ref": "a", "name": "other"}},
                    ],
                }
            )

    def test_evaluable_end_to_end(self):
        """A JSON design must run through the whole pipeline."""
        from repro import evaluate
        from repro.scenarios import FailureScenario
        from repro.workload.presets import cello
        from repro.casestudy import case_study_requirements

        design = design_from_spec("weekly vault, daily F")
        result = evaluate(
            design, cello(), FailureScenario.array_failure("primary-array"),
            case_study_requirements(),
        )
        assert result.recent_data_loss == pytest.approx(37 * HOUR)


class TestScenarioAndRequirementSpecs:
    def test_scope_shorthand(self):
        assert scenario_from_spec("array").scope is FailureScope.DISK_ARRAY
        assert scenario_from_spec("object").scope is FailureScope.DATA_OBJECT
        assert scenario_from_spec("site").scope is FailureScope.SITE

    def test_object_defaults(self):
        scenario = scenario_from_spec("object")
        assert scenario.object_size == 1024 * 1024

    def test_full_scenario(self):
        scenario = scenario_from_spec(
            {"scope": "object", "object_size": "5 MB",
             "recovery_target_age": "24 hr"}
        )
        assert scenario.object_size == 5 * 1024 * 1024
        assert scenario.recovery_target_age == 24 * HOUR

    def test_requirements(self):
        reqs = requirements_from_spec(
            {"unavailability_per_hour": 1000, "loss_per_hour": 2000,
             "rto": "4 hr"}
        )
        assert reqs.outage_penalty(HOUR) == pytest.approx(1000)
        assert reqs.rto == 4 * HOUR

    def test_requirements_missing_rate_rejected(self):
        with pytest.raises(DesignError):
            requirements_from_spec({"loss_per_hour": 2000})


class TestProvenanceSpecs:
    def provenance(self):
        from repro import casestudy
        from repro.core.evaluate import evaluate
        from repro.workload.presets import cello

        return evaluate(
            casestudy.baseline_design(),
            cello(),
            casestudy.array_failure_scenario(),
            casestudy.case_study_requirements(),
        ).provenance

    def test_round_trip(self):
        provenance = self.provenance()
        spec = provenance_to_dict(provenance)
        assert provenance_from_spec(spec) == provenance
        # The dictionary survives a JSON round-trip too.
        import json

        assert provenance_from_spec(json.loads(json.dumps(spec))) == provenance

    def test_unknown_keys_ignored_on_load(self):
        # Forward compatibility: a record written by a newer version with
        # extra fields must still load, unlike the strict spec parsers.
        spec = provenance_to_dict(self.provenance())
        spec["added_in_a_future_version"] = {"nested": [1, 2]}
        restored = provenance_from_spec(spec)
        assert restored == self.provenance()

    def test_tuples_restored_from_json_lists(self):
        spec = provenance_to_dict(self.provenance())
        restored = provenance_from_spec(spec)
        assert isinstance(restored.validation_warnings, tuple)
        assert isinstance(restored.decisions, tuple)


class TestCanonicalJson:
    def test_sorted_keys_no_whitespace(self):
        from repro.serialization import canonical_json

        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_key_order_of_input_is_irrelevant(self):
        from repro.serialization import canonical_json

        assert canonical_json({"x": 1, "y": 2}) == canonical_json(
            {"y": 2, "x": 1}
        )


class TestAssessmentRoundTrip:
    def assessment(self):
        from repro import casestudy
        from repro.core.evaluate import evaluate
        from repro.workload.presets import cello

        return evaluate(
            casestudy.baseline_design(),
            cello(),
            casestudy.array_failure_scenario(),
            casestudy.case_study_requirements(),
        )

    def test_round_trip_preserves_outputs(self):
        from repro.serialization import assessment_from_dict, assessment_to_dict

        original = self.assessment()
        restored = assessment_from_dict(assessment_to_dict(original))
        assert restored.summary() == original.summary()
        assert restored.explain() == original.explain()
        assert restored.total_cost == original.total_cost
        assert restored.meets_objectives == original.meets_objectives
        assert restored.recovery.render_timeline() == (
            original.recovery.render_timeline()
        )

    def test_canonical_form_is_stable_through_a_round_trip(self):
        # Serialize, restore, serialize again: the canonical JSON must
        # not change, or cache keys of restored results would drift.
        import json

        from repro.serialization import (
            assessment_from_dict,
            assessment_to_dict,
            canonical_json,
        )

        first = assessment_to_dict(self.assessment())
        second = assessment_to_dict(
            assessment_from_dict(json.loads(json.dumps(first)))
        )
        assert canonical_json(first) == canonical_json(second)
