"""The runtime knob table: one resolution rule for every ``REPRO_*``.

Every entry of :data:`repro.sim.flags.FLAGS` is driven through the same
cases: unset and empty give the default, good environment values parse,
bad ones raise ``ValueError`` starting with ``VAR=value:``, and an
explicit argument wins over the environment (even a malformed one).
The last tests keep the table the only place that reads the
environment and the docs in step with it.
"""

import pathlib
import re

import pytest

from repro.sim.flags import FLAGS, knob_table, resolve

_SWITCH_OFF = {"good": [("", False), ("1", True), ("0", False)],
               "bad": ["true", "yes", "on", "2"],
               "override": (False, False)}

#: Per knob: ``good`` (env value, resolved value) pairs, ``bad`` env
#: values with the error text each must carry, ``override`` (argument,
#: resolved value), and ``bad_override`` (argument, error text).
CASES = {
    "REPRO_TRACE": _SWITCH_OFF,
    "REPRO_SHARDS": {
        "good": [("", 1), ("4", 4), ("1", 1)],
        "bad": [("-3", "at least 1"), ("0", "at least 1"),
                ("2.5", "expected an integer")],
        "override": (2, 2), "bad_override": (0, "at least 1")},
    "REPRO_CLOUD_SHARDS": {
        "good": [("", 0), ("4", 4), ("0", 0)],
        "bad": [("-1", "non-negative"), ("two", "expected an integer")],
        "override": (2, 2), "bad_override": (-1, "non-negative")},
    "REPRO_MAX_WORKERS": {
        "good": [("", None), ("3", 3), ("1", 1)],
        "bad": [("-3", "at least 1"), ("0", "at least 1"),
                ("abc", "expected an integer")],
        "override": (2, 2), "bad_override": (0, "at least 1")},
    "REPRO_WORKER_DEADLINE": {
        "good": [("", None), ("7.5", 7.5), ("30", 30.0)],
        "bad": [("-1", "must be positive"), ("0", "must be positive"),
                ("nan", "must be positive"), ("soon", "expected a number")],
        "override": (2.5, 2.5), "bad_override": (0.0, "must be positive")},
    "REPRO_SERVING": {
        "good": [("", ""), ("1", "1"),
                 ("poisson:200,onoff:80:flash:0.5",
                  "poisson:200,onoff:80:flash:0.5")],
        "bad": [("poisson:abc",
                 "bad tenant 'poisson:abc' in serving spec 'poisson:abc'"),
                ("weibull:10", "unknown arrival kind 'weibull'"),
                ("poisson:200:a:1:junk",
                 "too many fields in tenant 'poisson:200:a:1:junk'"),
                ("poisson:nan", "bad tenant 'poisson:nan'")],
        "override": ("poisson:60", "poisson:60"),
        "bad_override": ("poisson:abc", "bad tenant 'poisson:abc'")},
    "REPRO_PROFILE_OUT": {
        "good": [("", ""), ("profile/smoke", "profile/smoke")],
        "bad": [], "override": ("other", "other")},
}

_SWITCH_ERROR = "expected 0 or 1"


def _bad_cases(name):
    for case in CASES[name]["bad"]:
        yield case if isinstance(case, tuple) else (case, _SWITCH_ERROR)


def test_every_table_entry_has_cases():
    assert set(CASES) == set(FLAGS)


@pytest.mark.parametrize("name", sorted(FLAGS))
class TestResolve:
    def test_unset_gives_default(self, monkeypatch, name):
        monkeypatch.delenv(name, raising=False)
        assert resolve(name) == FLAGS[name].default

    def test_environment_values(self, monkeypatch, name):
        for raw, expected in CASES[name]["good"]:
            monkeypatch.setenv(name, raw)
            value = resolve(name)
            assert value == expected
            assert type(value) is type(expected)

    def test_bad_environment_value_names_the_variable(self, monkeypatch,
                                                      name):
        for raw, text in _bad_cases(name):
            monkeypatch.setenv(name, raw)
            with pytest.raises(ValueError) as error:
                resolve(name)
            assert str(error.value).startswith(f"{name}={raw}: ")
            assert text in str(error.value)

    def test_override_wins(self, monkeypatch, name):
        argument, expected = CASES[name]["override"]
        # Over a malformed environment value where the knob has one.
        raws = [raw for raw, _ in _bad_cases(name)] or ["set"]
        monkeypatch.setenv(name, raws[0])
        assert resolve(name, argument) == expected


@pytest.mark.parametrize("name", sorted(
    name for name, cases in CASES.items() if "bad_override" in cases))
def test_bad_override_is_rejected_without_the_variable(monkeypatch, name):
    monkeypatch.delenv(name, raising=False)
    argument, text = CASES[name]["bad_override"]
    with pytest.raises(ValueError) as error:
        resolve(name, argument)
    assert text in str(error.value)
    assert not str(error.value).startswith(name)


def test_switch_options_follow_their_default():
    options = {flag.env: flag.option for flag in FLAGS.values()}
    assert options["REPRO_TRACE"] == "--trace"
    assert options["REPRO_CLOUD_SHARDS"] == "--cloud-shards"
    assert options["REPRO_MAX_WORKERS"] == "--max-workers"


SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
ROOT = SRC.parents[1]


def test_only_the_table_reads_the_environment():
    reads = re.compile(r"(environ|getenv)\W.*REPRO_")
    offenders = [
        f"{path.relative_to(SRC)}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        if path != SRC / "sim" / "flags.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if reads.search(line)]
    assert offenders == []


@pytest.mark.parametrize("document", ["README.md", "DESIGN.md"])
def test_documented_knobs_are_table_entries(document):
    named = set(re.findall(r"REPRO_[A-Z0-9_]*[A-Z0-9]",
                           (ROOT / document).read_text()))
    assert named, f"{document} names no knob"
    assert named <= set(FLAGS), sorted(named - set(FLAGS))


def test_readme_knob_table_is_rendered_from_the_table():
    readme = (ROOT / "README.md").read_text()
    section = re.search(r"<!-- knob-table:start[^>]*-->\n(.*?)\n"
                        r"<!-- knob-table:end -->", readme, re.S)
    assert section, "README.md has no knob-table markers"
    assert section.group(1) == knob_table(), (
        "README knob table is stale; paste the output of "
        "repro.sim.flags.knob_table() between the markers")
