"""The OpenMetrics/Prometheus text-exposition exporter.

No ``prometheus_client`` in this repo, so conformance is checked two
ways: a golden-file comparison against a hand-audited exposition, and
a small grammar validator covering the slice of the Prometheus text
format the exporter emits (``# TYPE`` lines, ``name{labels} value``
samples, the ``# EOF`` terminator).
"""

import io
import pathlib
import re


from repro.obs.export import openmetrics_text, write_openmetrics
from repro.obs.metrics import MetricsRegistry

GOLDEN = pathlib.Path(__file__).parent / "data" / "openmetrics_golden.txt"

_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|[+-]Inf|NaN)$"
)
_TYPE = re.compile(r"^# TYPE (?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*) (?P<type>counter|gauge)$")
_LABEL = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"$')


def golden_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.inc("evaluate.calls", 3)
    registry.inc("lint.diagnostics.warning")
    registry.set_gauge("utilization.max_capacity", 0.75)
    registry.set_gauge("utilization.max_bandwidth", 1.0)
    registry.set_gauge("weird-name.with dots!", 2.5e9)  # sanitized
    return registry


def parse_exposition(text: str):
    """Validate the exposition line by line; return {metric: type} and
    the parsed samples [(name, labels-dict, value-string)]."""
    lines = text.splitlines()
    assert lines and lines[-1] == "# EOF", "exposition must end with # EOF"
    assert text.endswith("\n"), "exposition must end with a newline"
    types = {}
    samples = []
    for line in lines[:-1]:
        type_match = _TYPE.match(line)
        if type_match:
            assert type_match["name"] not in types, "duplicate # TYPE"
            types[type_match["name"]] = type_match["type"]
            continue
        sample = _SAMPLE.match(line)
        assert sample, f"unparseable sample line: {line!r}"
        labels = {}
        if sample["labels"]:
            for pair in sample["labels"].split(","):
                assert _LABEL.match(pair), f"bad label: {pair!r}"
                key, value = pair.split("=", 1)
                labels[key] = value.strip('"')
        samples.append((sample["name"], labels, sample["value"]))
    return types, samples


class TestGoldenFile:
    def test_matches_committed_golden(self):
        assert openmetrics_text(golden_registry()) == GOLDEN.read_text()

    def test_golden_parses_under_the_text_format(self):
        types, samples = parse_exposition(GOLDEN.read_text())
        assert types["evaluate_calls"] == "counter"
        assert types["utilization_max_capacity"] == "gauge"
        assert types["weird_name_with_dots_"] == "gauge"
        names = {name for name, _labels, _value in samples}
        # Counter samples carry the _total suffix; gauges expose their
        # # TYPE name verbatim.
        assert "evaluate_calls_total" in names
        assert {"utilization_max_capacity", "weird_name_with_dots_"} <= names


class TestExpositionGrammar:
    def test_name_sanitization(self):
        registry = MetricsRegistry()
        registry.inc("9starts.with-digit")
        types, samples = parse_exposition(openmetrics_text(registry))
        assert types == {"_9starts_with_digit": "counter"}
        assert samples[0][0] == "_9starts_with_digit_total"

    def test_special_float_values(self):
        registry = MetricsRegistry()
        registry.set_gauge("g.nan", float("nan"))
        registry.set_gauge("g.inf", float("inf"))
        registry.set_gauge("g.neg", float("-inf"))
        _types, samples = parse_exposition(openmetrics_text(registry))
        by_name = {name: value for name, _labels, value in samples}
        assert by_name["g_nan"] == "NaN"
        assert by_name["g_inf"] == "+Inf"
        assert by_name["g_neg"] == "-Inf"

    def test_empty_registry_is_just_eof(self):
        assert openmetrics_text(MetricsRegistry()) == "# EOF\n"


class TestWriteOpenmetrics:
    def test_to_path_and_file_object(self, tmp_path):
        registry = golden_registry()
        path = str(tmp_path / "metrics.txt")
        count = write_openmetrics(path, registry)
        text = pathlib.Path(path).read_text()
        assert len(text) == count
        buffer = io.StringIO()
        assert write_openmetrics(buffer, registry) == count
        assert buffer.getvalue() == text


class TestCliMetricsOut:
    def test_evaluate_writes_exposition(self, tmp_path):
        from repro.cli import main

        spec = pathlib.Path(__file__).parent.parent / "examples" / "specs"
        spec_file = next(spec.glob("*.json"))
        out = tmp_path / "metrics.prom"
        # Exit 1 means "objectives violated", a legitimate verdict.
        assert main(
            ["evaluate", str(spec_file), "--metrics-out", str(out)]
        ) in (0, 1)
        types, samples = parse_exposition(out.read_text())
        assert types.get("evaluate_calls") == "counter"
        assert any(name == "evaluate_calls_total" for name, _l, _v in samples)
