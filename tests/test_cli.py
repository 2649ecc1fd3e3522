"""Configuration parsing and end-to-end CLI runs."""

import argparse
import contextlib
import hashlib
import inspect
import io
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from zenolock import cli, dephasing, readout
from zenolock import hilbert as h
from zenolock import zeno_multilevel as zm
from zenolock import zeno_two_level as z2
from zenolock.configfile import ConfigError, Key, Section, load_config, parse_config_text
from zenolock.tracefile import read_csv

REPO = Path(__file__).resolve().parents[1]


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


SMALL = """
[dephasing]
replicas = 400
histogram_replicas = 400
time_points = 31

[zeno2]
cycle_times = 0.01
final_time = 0.5

[zeno4]
cycle_times = 0.02
final_time = 0.3
photon_number = 2

[readout]
time_points = 1501
time_max = 2.5
fit_periods = 16

[allan]
"""

# A zeno4 sweep of two cycle times over a pair basis of 16 * 51^2 = 41,616
# states, a shape large enough that a sweep might be handed to threads.
LARGE_SWEEP = """
[zeno4]
cycle_times = 0.001, 0.05
final_time = 1.0
photon_number = 48
"""
COMMANDS = ("dephasing", "zeno2", "zeno4", "readout", "allan")


def fresh_env(**variables):
    """Environment of a fresh interpreter that imports this checkout's zenolock."""
    src = Path(cli.__file__).resolve().parent.parent
    return {**os.environ, **variables, "PYTHONPATH": os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}


def off_main_thread(monkeypatch):
    """Record, for every task of the CLI's parallel_map, whether it ran off the main thread."""
    record = []
    original = cli.parallel_map

    def recording(fn, items, max_workers=None):
        def task(item):
            record.append(threading.current_thread() is not threading.main_thread())
            return fn(item)

        return original(task, items, max_workers)

    monkeypatch.setattr(cli, "parallel_map", recording)
    return record


def bound_probes(declared):
    """Texts at and one step past each declared bound of a numeric key.

    For a minimum: the smallest value it admits and the largest it rejects.
    For a maximum: the smallest value it rejects only, since a size key at
    its cap would allocate that much.
    """
    if declared.kind is int:
        if declared.minimum > -math.inf:
            yield str(declared.minimum)
            yield str(declared.minimum - 1)
        if declared.maximum < math.inf:
            yield str(declared.maximum + 1)
        return
    if declared.positive:
        yield repr(math.nextafter(0.0, 1.0))
        yield "0"
    if declared.below < math.inf:
        yield repr(declared.below)
    if declared.minimum > -math.inf:
        yield repr(float(declared.minimum))
        yield repr(math.nextafter(declared.minimum, -math.inf))
    if declared.maximum < math.inf:
        yield repr(math.nextafter(declared.maximum, math.inf))


def contract_cases():
    """(section, key, value) for every key of every section but the seed."""
    for section, keys in cli.SCHEMA.items():
        for key, declared in keys.items():
            if key == "seed":
                continue
            if declared.kind is str:
                values = ["x"]
            elif declared.kind is int:
                values = ["-1", "0", "1", "2", "3"]
            else:
                values = ["-1", "0", "1e-300", "1e-9", "0.5", "1e9", "1e300", "nan", "banana"]
            values += [value for value in dict.fromkeys(bound_probes(declared))
                       if value not in values]
            for value in values:
                yield section, key, value


# Magnitudes of either sign that every float key is also tried at: the float
# limits, the extremes of the bounds in cli.SCHEMA and ordinary values.
FUZZ_MAGNITUDES = [0.0, 5e-324, 1e-300, 1e-9, 0.01, 0.5, 1.0, 2.0, 3.0, 100.0, 1e9, 1e17, 1e300,
                   1.7976931348623157e308]


def fuzz_values(declared):
    """Texts of ``declared``'s kind near its bounds and at every scale.

    Integers stay within 13 of the lower bound (or of 0), or step one past
    a bound, so that every size key stays small.
    """
    if declared.kind is str:
        return st.sampled_from([*declared.choices, "x"])
    probes = list(bound_probes(declared))
    if declared.kind is int:
        low = int(declared.minimum) if declared.minimum > -math.inf else 0
        return st.one_of(st.integers(low - 1, low + 12).map(str), st.sampled_from(probes or ["0"]))
    numbers = st.one_of(st.sampled_from(FUZZ_MAGNITUDES + [-m for m in FUZZ_MAGNITUDES]),
                        st.floats(allow_nan=False, allow_infinity=False)).map(repr)
    single = st.one_of(numbers, st.sampled_from(probes)) if probes else numbers
    if declared.kind is tuple:
        return st.lists(single, min_size=1, max_size=3).map(", ".join)
    return single


@st.composite
def multi_key_configs(draw):
    """(section, the SMALL config of that section with 1-5 of its keys set at once)."""
    section = draw(st.sampled_from(list(cli.SCHEMA)))
    keys = draw(st.lists(st.sampled_from(list(cli.SCHEMA[section])), min_size=1, max_size=5,
                         unique=True))
    values = {key: draw(fuzz_values(cli.SCHEMA[section][key])) for key in keys}
    key = keys[0]
    return section, small_with(section, key, values.pop(key), **values)


def small_with(section, key, value, **more):
    """The [section] of SMALL with ``key`` set to ``value``, and each key of ``more``."""
    entries = {name: entry.value for name, entry in parse_config_text(SMALL)[section].items()}
    entries.update({key: value, **more})
    return f"[{section}]\n" + "".join(f"{name} = {text}\n" for name, text in entries.items())


class TestConfigParsing:
    def test_sections_and_values(self):
        parsed = parse_config_text("[a]\nx = 1\n# comment\ny = two words\n")
        assert parsed["a"]["x"].value == "1"
        assert parsed["a"]["y"].value == "two words"

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match=":1:"):
            parse_config_text("x = 1\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match=":2:"):
            parse_config_text("[a]\nnonsense\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("[a]\nx = 1\nx = 2\n")

    def test_unknown_key_reported_with_line(self):
        parsed = parse_config_text("[a]\nbogus = 1\n", source="f.cfg")
        with pytest.raises(ConfigError, match="f.cfg:2"):
            Section("a", parsed["a"], {"real": Key("0")}, "f.cfg")

    def test_defaults_file_matches_builtin_defaults(self):
        # the shipped file documents the schema; a run falls back to its defaults
        parsed = parse_config_text((REPO / "configs" / "defaults.cfg").read_text(
            encoding="utf-8"))
        in_file = [(name, [(key, entry.value) for key, entry in entries.items()])
                   for name, entries in parsed.items()]
        assert in_file == [(name, [(key, declared.default) for key, declared in keys.items()])
                           for name, keys in cli.SCHEMA.items()]

    @pytest.mark.parametrize("path", sorted((REPO / "configs").glob("**/*.cfg")),
                             ids=lambda path: path.relative_to(REPO).as_posix())
    def test_checked_in_config_resolves_through_the_schema(self, path):
        # a key the schema renamed or tightened fails here, not in a CI step;
        # the workflow runs every config under configs/ci
        _, sections = load_config(path)
        assert sections
        for name, entries in sections.items():
            section = Section(name, entries, cli.SCHEMA[name], str(path))
            for key in entries:
                section[key]
        if path.parent.name == "ci":
            workflow = (REPO / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
            assert path.relative_to(REPO).as_posix() in workflow

    def test_typed_accessors(self):
        parsed = parse_config_text("[a]\nx = 2.5\nn = 7\nflag = true\nlist = 1, 2\n")
        section = Section("a", parsed["a"],
                          {"x": Key("0"), "n": Key("0", int), "flag": Key("false", str),
                           "list": Key("0", tuple), "unset": Key("0x10", int)}, "f")
        assert section["x"] == 2.5
        assert section["n"] == 7
        assert section["flag"] == "true"
        assert section["list"] == (1.0, 2.0)
        assert section["unset"] == 16

    def test_auto_and_choices(self):
        parsed = parse_config_text("[a]\nt = auto\nfloor = 1\nmode = slow\n")
        section = Section("a", parsed["a"],
                          {"t": Key("1", positive=True, auto=True),
                           "floor": Key("0.5", positive=True, below=1.0, auto=True),
                           "mode": Key("fast", str, choices=("fast", "exact"))}, "f")
        assert section["t"] is None
        with pytest.raises(ConfigError, match=r"^\[a\] floor must be 'auto' or lie strictly "
                                              r"between 0 and 1, got 1.0$"):
            section["floor"]
        with pytest.raises(ConfigError, match=r"^\[a\] mode must be 'fast' or 'exact', "
                                              r"got 'slow'$"):
            section["mode"]

    @pytest.mark.parametrize("lookup, bound, message", [
        ("get_int", {"minimum": 8}, "[a] n must be at least 8, got 7"),
        ("get_int", {"maximum": 6}, "[a] n must be at most 6, got 7"),
        ("get_float", {"positive": True}, "[a] x must be positive, got -2.5"),
        ("get_float_list", {"positive": True}, "[a] list must be positive, got 0.0"),
        ("get_float_list", {"minimum": -1, "maximum": 0.5},
         "[a] list must be at most 0.5, got 1.0"),
    ])
    def test_declared_bounds(self, lookup, bound, message):
        parsed = parse_config_text("[a]\nx = -2.5\nn = 7\nlist = 1, 0\n")
        schema = {"x": Key("0"), "n": Key("0", int), "list": Key("0", tuple)}
        key, kind = {"get_int": ("n", int), "get_float": ("x", float),
                     "get_float_list": ("list", tuple)}[lookup]
        section = Section("a", parsed["a"], {**schema, key: Key("0", kind, **bound)}, "f")
        with pytest.raises(ConfigError) as caught:
            section[key]
        assert str(caught.value) == message
        exact = Section("a", parsed["a"], {**schema, "n": Key("0", int, minimum=7, maximum=7)}, "f")
        assert exact["n"] == 7

    def test_bad_value_diagnostics(self):
        parsed = parse_config_text("[a]\nx = not_a_number\n", source="f.cfg")
        section = Section("a", parsed["a"], {"x": Key("0")}, "f.cfg")
        with pytest.raises(ConfigError, match="f.cfg:2"):
            section["x"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_numbers_rejected(self, value):
        parsed = parse_config_text(f"[a]\nx = {value}\nlist = 1, {value}\n", source="f.cfg")
        section = Section("a", parsed["a"], {"x": Key("0"), "list": Key("0", tuple)}, "f.cfg")
        with pytest.raises(ConfigError, match="^f.cfg:2: field 'x' needs a finite number"):
            section["x"]
        with pytest.raises(ConfigError, match="^f.cfg:3: field 'list' needs a comma"):
            section["list"]


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        code = cli.main(["allan", "--config", str(tmp_path / "nope.cfg"),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG

    def test_malformed_config(self, tmp_path):
        path = write_config(tmp_path, "[allan]\nfwhm = banana\n")
        code = cli.main(["allan", "--config", str(path), "--out",
                         str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG

    def test_unknown_key(self, tmp_path):
        path = write_config(tmp_path, "[allan]\nmystery = 1\n")
        code = cli.main(["allan", "--config", str(path), "--out",
                         str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"[zeno2]\nhalf_difference = 2.0\xff\n")
        code = cli.main(["zeno2", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"zenolock: config error: config file {path} is not valid UTF-8: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_nonpositive_parameter(self, tmp_path):
        path = write_config(tmp_path, "[allan]\nfwhm = -1.0\n")
        code = cli.main(["allan", "--config", str(path), "--out",
                         str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG

    def test_numerical_validity_exit_code(self, tmp_path, monkeypatch):
        # the overflow guard is unit-tested at module level; here only the
        # exit-code mapping is exercised
        from zenolock.readout import CutoffOverflowError

        def exploding(section, out_dir, args, digest):
            raise CutoffOverflowError("population reached the truncation boundary")

        monkeypatch.setitem(cli._HANDLERS, "readout", exploding)
        path = write_config(tmp_path, "[readout]\n")
        code = cli.main(["readout", "--config", str(path), "--out",
                         str(tmp_path / "out")])
        assert code == cli.EXIT_NUMERICAL

    def test_envelope_fit_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        def failing(times, values, center_frequency, sigma_guess):
            raise dephasing.EnvelopeFitError("envelope fit did not converge")

        monkeypatch.setattr(dephasing, "fit_efold_time", failing)
        path = write_config(tmp_path, SMALL)
        code = cli.main(["dephasing", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err == ("zenolock: numerical validity failure: envelope fit did not converge, "
                       "on the independent curve at [dephasing] fwhm = 10.0, time_max = 0.1, "
                       "time_points = 31\n")

    @pytest.mark.parametrize("key, value, curve, shown", [
        ("fwhm", "0.005", "locked", "fwhm = 0.005, time_max = 0.1"),
        ("time_max", "1e-9", "independent", "fwhm = 10.0, time_max = 1e-09")])
    def test_envelope_fit_failure_names_the_keys(self, tmp_path, capsys, key, value, curve,
                                                 shown):
        path = write_config(tmp_path, small_with("dephasing", key, value))
        code = cli.main(["dephasing", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("zenolock: numerical validity failure: envelope ")
        assert err.endswith(f", on the {curve} curve at [dephasing] {shown}, "
                            f"time_points = 31\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("center", ["1e300", "1e18"])
    def test_unresolvable_histogram_names_the_keys(self, tmp_path, capsys, center):
        # every sampled frequency rounds to a few floats, too few for 60 bins
        path = write_config(tmp_path, small_with("dephasing", "center_frequency", center))
        code = cli.main(["dephasing", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            f"zenolock: numerical validity failure: [dephasing] center_frequency = "
            f"{float(center)!r}, fwhm = 10.0: sampled spread is below float resolution for "
            f"histogram_bins = 60\n")

    @pytest.mark.filterwarnings("error")
    def test_non_decaying_ensemble_exit_code(self, tmp_path, capsys):
        # a width this small leaves the mean cosine a plain carrier over the grid
        path = write_config(tmp_path, SMALL.replace("[dephasing]\n", "[dephasing]\nfwhm = 1e-9\n"))
        code = cli.main(["dephasing", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "numerical validity failure: envelope" in err
        assert not (tmp_path / "out" / "manifest.txt").exists()

    def test_weakly_decaying_ensemble_exit_code(self, tmp_path, capsys):
        # the envelope fit resolves a to about 1e-14 while its steps' rounding
        # noise stays above the 4 eps a of its first stop test
        path = write_config(tmp_path, small_with("dephasing", "fwhm", "0.2"))
        code = cli.main(["dephasing", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["zeno2", "zeno4"])
    def test_survival_underflow_exit_code(self, tmp_path, capsys, command):
        # the survival falls below the float range by cycle 74125 (zeno2) or
        # 74250 (zeno4); it is written as it rounds, down to 0.0, and flagged
        path = write_config(tmp_path, f"[{command}]\ncycle_times = 0.05\nfinal_time = 5000\n")
        code = cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_OK
        assert capsys.readouterr().err == ""
        rows = read_csv(tmp_path / "out" / f"{command}_cycle_0.05.csv").rows
        assert np.all(np.isfinite(rows))
        assert rows[-1, 1] == 0.0 and rows[1, 1] > 0.0
        manifest = (tmp_path / "out" / "manifest.txt").read_text().splitlines()
        assert "survival_underflow = true" in manifest

    @pytest.mark.parametrize("command", ["zeno2", "zeno4"])
    def test_survival_of_exactly_zero_exit_code(self, tmp_path, capsys, command):
        # the cycle count overflows int64 and the first recorded gap's power
        # of the map is exactly zero; no survival column is written before
        # the state is checked
        path = write_config(tmp_path, f"[{command}]\nfinal_time = 1e300\n")
        code = cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("zenolock: numerical validity failure: survival is exactly zero "
                              "by cycle ")
        assert err.endswith(f", at [{command}] cycle_times = 0.001\n")

    @pytest.mark.parametrize("command", ["zeno2", "zeno4"])
    def test_unresolvable_cycle_error_exit_code(self, tmp_path, capsys, command):
        # a per-cycle error of 4e-18 sits below the cycle map's rounding, and
        # one that underflows to zero is no zero split; the message names the
        # cycle time
        for cycle, error in (("1e-9", "4.000e-18"), ("1e-300", "0.000e+00"),
                             ("1e-320", "0.000e+00")):
            path = write_config(tmp_path, f"[{command}]\ncycle_times = {cycle}\n")
            code = cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")])
            assert code == cli.EXIT_NUMERICAL
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert f"numerical validity failure: closed-form per-cycle error {error}" in err
            assert err.endswith(f", at [{command}] cycle_times = {float(cycle)!r}\n")
            assert not (tmp_path / "out" / "manifest.txt").exists()

    def test_truncation_boundary_names_the_cycle_time(self, tmp_path, capsys, monkeypatch):
        original = z2.run_protocol

        def truncated(config, max_trace_points):
            trace = original(config, max_trace_points=max_trace_points)
            return trace.replace(max_mode_tail=2e-8) if config.cycle_time == 0.05 else trace

        monkeypatch.setattr(z2, "run_protocol", truncated)
        path = write_config(tmp_path, "[zeno2]\nfinal_time = 1.0\n")
        code = cli.main(["zeno2", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "zenolock: numerical validity failure: mode truncation boundary populated "
            "(2.000e-08), at [zeno2] cycle_times = 0.05\n")

    @pytest.mark.parametrize("points", [0, -3])
    @pytest.mark.parametrize("command", ["zeno2", "zeno4"])
    def test_trace_points_below_one_is_config_error(self, tmp_path, capsys, command, points):
        path = write_config(tmp_path, f"[{command}]\ntrace_points = {points}\n")
        code = cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "trace_points must be at least 1" in err

    @pytest.mark.parametrize("key, value", [
        ("measure_ratio", "-1"), ("measure_ratio", "0"), ("survival_floor", "0"),
        ("survival_floor", "1"), ("survival_floor", "-0.5"), ("photon_number", "-1"),
        # far above the basis-dimension cap: rejected before anything is allocated
        ("photon_number", "1000000"), ("final_time", "0"), ("final_time", "-1"),
        ("cycle_times", "0"),
        # a final time shorter than one cycle: zeno2's auto final time
        # log(1/floor) / (Delta^2 cycle) and zeno4's 100 both fall below it
        ("cycle_times", "1e3"), ("final_time", "0.0005"),
        # tau_m = cycle / (1 + ratio) rounds to the whole cycle
        ("measure_ratio", "1e-300"),
    ])
    @pytest.mark.parametrize("command", ["zeno2", "zeno4"])
    def test_out_of_range_zeno_key_is_config_error(self, tmp_path, capsys, command,
                                                   key, value):
        path = write_config(tmp_path, f"[{command}]\n{key} = {value}\n")
        code = cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"[{command}] {key} must" in err

    @pytest.mark.parametrize("key, value", [("time_points", 1), ("time_points", 0),
                                            ("histogram_replicas", 1)])
    def test_too_few_dephasing_samples_is_config_error(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path, f"[dephasing]\n{key} = {value}\n")
        code = cli.main(["dephasing", "--config", str(path), "--out",
                         str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"[dephasing] {key} must be at least 2" in err
        assert not (tmp_path / "out" / "manifest.txt").exists()

    # one step past each dephasing size cap, with the other keys at SMALL's
    # (400 replicas and histogram replicas, 31 time points) or the defaults
    # (100 atoms, 9 histogram atoms); never at a cap, which would allocate it
    @pytest.mark.parametrize("key, value, more, keys", [
        ("replicas", cli._MAX_ENTRIES // 100 + 1, {}, "replicas x atom_count"),
        ("atom_count", cli._MAX_ENTRIES // 400 + 1, {}, "replicas x atom_count"),
        ("time_points", cli._MAX_ENTRIES // 400 + 1, {}, "time_points x replicas"),
        ("atom_count", cli._MAX_ENTRIES // 2 + 1, {"replicas": 1, "time_points": 4},
         "sqrt(time_points) x atom_count"),
        ("histogram_replicas", cli._MAX_ENTRIES // 9 + 1, {},
         "histogram_replicas x histogram_atom_count"),
        ("histogram_atom_count", cli._MAX_ENTRIES // 400 + 1, {},
         "histogram_replicas x histogram_atom_count"),
        ("histogram_bins", cli._MAX_ENTRIES + 1, {}, "histogram_bins"),
    ])
    def test_dephasing_size_cap_is_config_error(self, tmp_path, capsys, key, value, more,
                                                keys):
        path = write_config(tmp_path, small_with("dephasing", key, value, **more))
        code = cli.main(["dephasing", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"zenolock: config error: [dephasing] {keys} must be at most "
                              f"{cli._MAX_ENTRIES}, got ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out" / "manifest.txt").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("dephasing", "time_max", "0"), ("dephasing", "time_max", "-0.1"),
        ("dephasing", "histogram_bins", "0"), ("readout", "emission_cutoff", "0"),
        ("readout", "time_points", "3"), ("readout", "time_points", "1"),
        ("readout", "time_points", "0"), ("readout", "fit_periods", "0"),
        ("readout", "fit_periods", "-2"), ("readout", "time_max", "0"),
        # far above the basis-dimension and readout-grid caps: rejected before
        # anything is allocated
        ("readout", "emission_cutoff", "1000000"), ("readout", "time_points", "1000000000"),
        ("allan", "atom_counts", "2.5"), ("allan", "atom_counts", "0"),
        ("allan", "fwhm", "0"), ("allan", "carrier", "0"), ("allan", "cycle_time", "-1"),
        ("allan", "averaging_times", "0"),
        ("dephasing", "atom_count", "0"), ("dephasing", "replicas", "0"),
        ("dephasing", "histogram_atom_count", "0"), ("dephasing", "fwhm", "0"),
        ("readout", "detuning", "0"),
        # an emitted photon of frequency transition_1 - detuning <= 0
        ("readout", "transition_1", "0"), ("readout", "transition_1", "10"),
    ])
    def test_out_of_range_key_is_config_error(self, tmp_path, capsys, section, key, value):
        path = write_config(tmp_path, f"[{section}]\n{key} = {value}\n")
        code = cli.main([section, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"[{section}] {key} must" in err
        assert not (tmp_path / "out" / "manifest.txt").exists()

    # one step past each readout size cap: the readout grid (the schema's
    # maximum), and the quadratures of the sweep (100 phases x 167,773 points,
    # 134 MB), which no other check bounds
    @pytest.mark.parametrize("text, message", [
        ("time_points = 524289\n", "time_points must be at most 524288, got 524289"),
        ("clock_phases = " + ", ".join(["0.5"] * 100) + "\ntime_points = 167773\n",
         "clock_phases x time_points must be at most 16777216, got 100 x 167773"),
    ], ids=["grid", "quadratures"])
    def test_readout_size_cap_is_config_error(self, tmp_path, capsys, text, message):
        path = write_config(tmp_path, "[readout]\n" + text)
        tracemalloc.start()
        try:
            code = cli.main(["readout", "--config", str(path), "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"zenolock: config error: [readout] {message}\n"
        # rejected before the readout grid (1.3 MB at 167,773 points) is built
        assert peak < 1_000_000
        assert not (tmp_path / "out" / "manifest.txt").exists()

    def test_readout_phase_cap_is_config_error(self, tmp_path, capsys, monkeypatch):
        # one phase past the cap, rejected before the readout grid or any chain state
        def unreachable(*args, **kwargs):
            raise AssertionError("built past the clock_phases cap")

        monkeypatch.setattr(cli.readout, "readout_config", unreachable)
        monkeypatch.setattr(cli.readout, "readout_chain", unreachable)
        path = write_config(tmp_path, "[readout]\nclock_phases = "
                            + ", ".join(["0.5"] * 65537) + "\ntime_points = 4\n")
        code = cli.main(["readout", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == ("zenolock: config error: [readout] clock_phases must "
                                           "hold at most 65536 phases, got 65537\n")
        assert not (tmp_path / "out" / "manifest.txt").exists()

    def test_readout_grid_does_not_grow_with_the_cutoff(self, tmp_path):
        # 10,000 points at the largest cutoff: a former bound on a grid over the
        # whole emission basis (2048 states) rejected anything above 8192
        path = write_config(tmp_path, "[readout]\nemission_cutoff = 127\ntime_points = 10000\n")
        code = cli.main(["readout", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_OK
        assert len((tmp_path / "out" / "readout_trace_1.csv").read_text().splitlines()) > 10000

    # admitted values whose derived quantities underflow: the measurement
    # interval cycle / (measure_ratio + 1) rounds to 0, or the readout grid
    # collapses into repeated samples
    @pytest.mark.parametrize("section, text, keys", [
        ("zeno2", "cycle_times = 5e-324", ("cycle_times", "measure_ratio")),
        ("zeno4", "cycle_times = 5e-324", ("cycle_times", "measure_ratio")),
        ("readout", "time_max = 5e-324", ("time_max", "time_points")),
        ("readout", "time_max = 1e-320", ("time_max", "time_points")),
    ])
    def test_underflowing_value_is_config_error(self, tmp_path, capsys, section, text, keys):
        path = write_config(tmp_path, f"[{section}]\n{text}\n")
        code = cli.main([section, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert all(f"[{section}] {key}" in err for key in keys), err
        assert not (tmp_path / "out" / "manifest.txt").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("zeno4", "final_time", "inf"), ("zeno4", "final_time", "nan"),
        ("zeno4", "final_time", "banana"), ("zeno2", "final_time", "inf"),
        ("zeno2", "survival_floor", "nan"), ("zeno2", "cycle_times", "0.01, inf"),
        ("dephasing", "fwhm", "nan"), ("allan", "fwhm", "inf"),
    ])
    def test_non_finite_or_unparsed_number_is_config_error(self, tmp_path, capsys,
                                                           section, key, value):
        path = write_config(tmp_path, f"[{section}]\n{key} = {value}\n")
        code = cli.main([section, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{path}:2: field {key!r} needs" in err
        assert "Traceback" not in err

    def test_zero_clock_frequency_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, "[readout]\ntransition_1 = 110\n")
        code = cli.main(["readout", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "transition_1" in err and "transition_2" in err

    @pytest.mark.filterwarnings("error")
    def test_resonant_intermediate_exit_code(self, tmp_path, capsys):
        # a valid detuning this small puts an intermediate level on resonance
        path = write_config(tmp_path, "[readout]\ndetuning = 1e-9\n")
        code = cli.main(["readout", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err == ("zenolock: numerical validity failure: adiabatic elimination hit "
                       "a resonant intermediate\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("section, key, value", list(contract_cases()))
    def test_every_key_ends_in_a_contract_exit(self, tmp_path, capsys, section, key, value):
        path = write_config(tmp_path, small_with(section, key, value))
        code = cli.main([section, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_OUT_OF_REGIME,
                        cli.EXIT_NUMERICAL)
        err = capsys.readouterr().err
        if code != cli.EXIT_OK:
            assert err.count("\n") == 1 and err.endswith("\n")
            assert "Traceback" not in err
        # values print as plain numbers, and an overflow names what overflowed
        assert "np.float64(" not in err and "(34, '" not in err
        assert "encountered in" not in err
        if code == cli.EXIT_CONFIG:
            assert f"[{section}] {key}" in err or f"field {key!r}" in err

    @seed(20261020)
    @settings(max_examples=250, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(multi_key_configs())
    def test_several_keys_end_in_a_contract_exit(self, tmp_path, capsys, case):
        section, text = case
        path = write_config(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([section, "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_OUT_OF_REGIME,
                        cli.EXIT_NUMERICAL), err
        assert "Traceback" not in err
        if code != cli.EXIT_OK:
            assert err.count("\n") == 1 and err.endswith("\n"), err
        if code == cli.EXIT_CONFIG:
            assert f"[{section}]" in err, err
        if code == cli.EXIT_NUMERICAL:
            assert err.startswith("zenolock: numerical validity failure: "), err
            # an overflow names its key, not numpy's or Python's own wording
            assert not any(raw in err for raw in ("encountered in", "(34, '", "math range error",
                                                  "np.float64(")), err

    @pytest.mark.parametrize("frequency, code", [("1e17", cli.EXIT_NUMERICAL),
                                                 ("1e7", cli.EXIT_OK)])
    def test_unresolved_drift_phase_is_a_numerical_failure(self, tmp_path, capsys,
                                                           frequency, code):
        # at 1e17 the diagonal energies near 1.6e18 carry an ulp of 256, so the
        # drift phases exp(-i E tau) are rounding noise and p_success read 0.955
        # where the closed form reads 1; at 1e7 they are resolved to 3e-10 rad
        path = write_config(tmp_path, f"[zeno2]\ncavity_frequency = {frequency}\n"
                                      "cycle_times = 0.01\nfinal_time = 1.0\n")
        assert cli.main(["zeno2", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        if code == cli.EXIT_NUMERICAL:
            assert err == ("zenolock: numerical validity failure: free-drift phase of the "
                           "largest energy 1.650e+18 over the free interval 9.950e-03 carries "
                           "a rounding error of 3.646e+00 rad, above 1e-08 rad, "
                           "at [zeno2] cycle_times = 0.01\n")
        else:
            assert err == ""

    @pytest.mark.parametrize("section, key", [("zeno2", "half_difference"),
                                              ("zeno4", "delta_1"), ("zeno4", "delta_2")])
    def test_overflowing_decay_rate_names_the_key(self, tmp_path, capsys, section, key):
        path = write_config(tmp_path, f"[{section}]\n{key} = 1e300\n")
        code = cli.main([section, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            f"zenolock: numerical validity failure: [{section}] {key} = 1e+300 overflows "
            f"the closed-form decay rate\n")

    @pytest.mark.parametrize("section, key, quantity", [
        ("dephasing", "fwhm", "the envelope exponent (2 pi sigma t)^2 / 2"),
        ("dephasing", "time_max", "the envelope exponent (2 pi sigma t)^2 / 2"),
        ("readout", "drive_amplitude", "the second-order light shifts"),
        ("readout", "coupling", "the second-order light shifts"),
    ])
    def test_numpy_overflow_names_the_key(self, tmp_path, capsys, section, key, quantity):
        path = write_config(tmp_path, small_with(section, key, "1e300"))
        code = cli.main([section, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            f"zenolock: numerical validity failure: [{section}] {key} = 1e+300 overflows "
            f"{quantity}\n")

    @pytest.mark.parametrize("key, value", [("center_frequency", "1e308"),
                                            ("center_frequency", "-1e308"),
                                            ("fwhm", "1e308"), ("time_max", "1e308")])
    def test_dephasing_overflow_at_the_float_limit_names_the_key(self, tmp_path, capsys,
                                                                 key, value):
        # the replica mean, the draw scaling or the scaled grid overflows
        path = write_config(tmp_path, small_with("dephasing", key, value))
        code = cli.main(["dephasing", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert f"[dephasing] {key} = {float(value)!r} overflows" in err
        assert "encountered in" not in err

    @pytest.mark.parametrize("section, key, value", [
        ("zeno2", "cavity_frequency", "1e308"), ("zeno2", "cavity_frequency", "-1e308"),
        ("zeno2", "common_offset", "1e308"), ("zeno2", "common_offset", "-1e308"),
        ("zeno4", "transition_1", "1e308"), ("zeno4", "transition_1", "-1e308"),
        ("zeno4", "transition_2", "1e308"), ("zeno4", "transition_2", "-1e308"),
        ("readout", "transition_2", "1e308"), ("readout", "transition_2", "-1e308"),
        ("readout", "time_max", "1e308"), ("readout", "detuning", "-1e308"),
        ("readout", "transition_1", "1e308"), ("allan", "carrier", "1e308"),
    ])
    def test_overflow_at_the_float_limit_names_the_key(self, tmp_path, capsys,
                                                       section, key, value):
        # the pair Hamiltonian, the light shifts, the clock phase or the
        # readout phase factors, or the Allan deviation overflows
        path = write_config(tmp_path, small_with(section, key, value))
        code = cli.main([section, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert f"[{section}] {key} = {float(value)!r} overflows" in err
        assert "encountered in" not in err

    @pytest.mark.parametrize("cycle_time, averaging, shown", [
        ("1e308", "0.5", "1e+308 / 0.5"), ("2", "1, 1e-308", "2.0 / 1e-308")])
    def test_allan_time_ratio_overflow_names_both_keys(self, tmp_path, capsys,
                                                       cycle_time, averaging, shown):
        path = write_config(tmp_path, f"[allan]\ncycle_time = {cycle_time}\n"
                                      f"averaging_times = {averaging}\n")
        code = cli.main(["allan", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            f"zenolock: numerical validity failure: [allan] cycle_time / averaging_times = "
            f"{shown} overflows\n")

    @pytest.mark.parametrize("key, outcome", [("fwhm", "underflows"),
                                              ("cycle_time", "underflows"),
                                              ("carrier", "overflows")])
    def test_allan_smallest_value_names_the_key(self, tmp_path, capsys, key, outcome):
        # sigma_y underflows to zero (fwhm, cycle_time) or overflows (carrier)
        path = write_config(tmp_path, f"[allan]\n{key} = 5e-324\n")
        code = cli.main(["allan", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            f"zenolock: numerical validity failure: [allan] {key} = 5e-324 {outcome} "
            f"the Allan deviation\n")

    def test_untuned_emission_mode_exit_code(self, tmp_path, capsys):
        # five tuning builds leave the mode 47.9 off the light-shifted resonance
        path = write_config(tmp_path, "[readout]\ncoupling = 20\ndrive_amplitude = 8\n")
        code = cli.main(["readout", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "zenolock: numerical validity failure: the emission mode stays 47.9 off the "
            "Raman resonance, against an effective coupling of 1.15, at [readout] "
            "coupling = 20.0, drive_amplitude = 8.0, detuning = 10.0\n")
        assert not (tmp_path / "out" / "manifest.txt").exists()

    def test_nonpositive_beat_frequency_names_the_keys(self, tmp_path, capsys):
        # the light shifts carry the beat frequency 110.2 (drive 1) through
        # zero between drives 66 and 67; the phase fit needs it positive
        path = write_config(tmp_path, "[readout]\ndrive_amplitude = 70\n")
        code = cli.main(["readout", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "zenolock: numerical validity failure: the light-shifted beat frequency -12.48 "
            "is not positive, at [readout] coupling = 2.0, drive_amplitude = 70.0, "
            "detuning = 10.0\n")
        assert not (tmp_path / "out" / "manifest.txt").exists()

    @pytest.mark.parametrize("value", ["1e300", "-1e300", "1.4148475504056882e16",
                                       "-1.4148475504056882e16"])
    def test_unresolvable_clock_phase_is_config_error(self, tmp_path, capsys, value):
        # one ulp beyond the 2^51 turns up to which the reduction is exact
        path = write_config(tmp_path, f"[readout]\nclock_phases = 0.0, {value}\n")
        code = cli.main(["readout", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "[readout] clock_phases must be at" in err

    def test_out_of_regime_with_strict(self, tmp_path):
        text = "[zeno2]\nhalf_difference = 30.0\ncycle_times = 0.1\nfinal_time = 0.5\n"
        path = write_config(tmp_path, text)
        relaxed = cli.main(["zeno2", "--config", str(path), "--out",
                            str(tmp_path / "out1")])
        strict = cli.main(["zeno2", "--config", str(path), "--out",
                           str(tmp_path / "out2"), "--strict"])
        assert relaxed == cli.EXIT_OK
        assert strict == cli.EXIT_OUT_OF_REGIME
        manifest = (tmp_path / "out2" / "manifest.txt").read_text()
        assert "out_of_regime = true" in manifest
        assert "survival_underflow = false" in manifest

    def test_readout_phase_error_flag_band_is_contiguous(self, tmp_path):
        # at detuning 10 the largest phase error grows from 0.0078 rad at drive 1
        # through the bound between drives 6 (0.035 rad) and 7 (0.069 rad); past
        # drive 66 the light-shifted beat frequency is negative (exit 4)
        drives = (0.25, 0.5, 1, 2, 4, 5, 6, 7, 8, 10, 15, 20, 30, 40, 50, 60, 66)
        flagged = []
        for drive in drives:
            path = write_config(tmp_path, f"[readout]\ndrive_amplitude = {drive}\n")
            out = tmp_path / str(drive)
            code = cli.main(["readout", "--config", str(path), "--out", str(out), "--strict"])
            lines = (out / "manifest.txt").read_text().splitlines()
            error = float(next(line for line in lines if line.startswith("max_phase_error = "))
                          .split(" = ")[1])
            out_of_regime = error > cli._MAX_PHASE_ERROR
            assert code == (cli.EXIT_OUT_OF_REGIME if out_of_regime else cli.EXIT_OK)
            assert f"out_of_regime = {str(out_of_regime).lower()}" in lines
            flagged.append(out_of_regime)
        first = flagged.index(True)
        assert flagged == [False] * first + [True] * (len(drives) - first)
        assert drives[first] == 7

    @pytest.mark.parametrize("config", ["configs/defaults.cfg", "configs/ci/blas-ragged.cfg",
                                        "configs/ci/readout-perturbative.cfg",
                                        "perfbench/clock_chain.cfg", "demo-04"])
    def test_readout_configs_stay_in_regime(self, tmp_path, config):
        if config == "demo-04":
            # the clock phases of the elapsed-time sweep in demos/04_clock_readout.py
            frequency = readout.readout_config().clock_frequency
            phases = ", ".join(repr(float(frequency * t)) for t in np.linspace(0.0, 0.28, 8))
            path = write_config(tmp_path, f"[readout]\nclock_phases = {phases}\n")
        else:
            path = REPO / config
        out = tmp_path / "out"
        assert cli.main(["readout", "--config", str(path), "--out", str(out),
                         "--strict"]) == cli.EXIT_OK
        assert "out_of_regime = false" in (out / "manifest.txt").read_text().splitlines()


class TestRuns:
    def test_zeno2_outputs(self, tmp_path):
        path = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        assert cli.main(["zeno2", "--config", str(path), "--out", str(out)]) == 0
        record = read_csv(out / "zeno2_cycle_0.01.csv")
        assert record.columns == ("t", "p_success", "p_error_per_cycle", "analytic_p_s")
        assert np.all(np.diff(record.rows[:, 1]) <= 1e-12)
        np.testing.assert_allclose(record.rows[:, 1][1:], record.rows[:, 3][1:],
                                   rtol=0.02)
        manifest = (out / "manifest.txt").read_text()
        assert "subcommand = zeno2" in manifest
        assert "config_sha256" in manifest

    def test_emitted_csv_round_trips_exactly(self, tmp_path):
        from zenolock.tracefile import write_csv

        path = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        assert cli.main(["zeno2", "--config", str(path), "--out", str(out)]) == 0
        emitted = out / "zeno2_cycle_0.01.csv"
        rewritten = tmp_path / "rewritten.csv"
        write_csv(read_csv(emitted), rewritten)
        assert rewritten.read_bytes() == emitted.read_bytes()

    def test_zeno2_csv_rows_are_the_trace_table(self, tmp_path, monkeypatch):
        # both cycle times end in a trailing partial cycle; 0.01 records a
        # ragged last gap
        traces = []
        original = z2.run_protocol

        def recording(config, max_trace_points):
            traces.append(original(config, max_trace_points=max_trace_points))
            return traces[-1]

        monkeypatch.setattr(z2, "run_protocol", recording)
        path = write_config(tmp_path, "[zeno2]\ncycle_times = 0.01, 0.05\n"
                                      "final_time = 0.507\ntrace_points = 7\n")
        out = tmp_path / "out"
        assert cli.main(["zeno2", "--config", str(path), "--out", str(out)]) == 0
        assert len(traces) == 2
        for tag, trace in zip(("0.01", "0.05"), traces):
            rows = read_csv(out / f"zeno2_cycle_{tag}.csv").rows
            assert rows.shape == trace.table.shape
            assert rows.tobytes() == trace.table.tobytes()

    def test_zeno4_matches_zeno2_closed_form(self, tmp_path):
        text = """
[zeno2]
cycle_times = 0.01
final_time = 0.5

[zeno4]
cycle_times = 0.01
final_time = 0.5
photon_number = 2
"""
        path = write_config(tmp_path, text)
        out2 = tmp_path / "o2"
        out4 = tmp_path / "o4"
        assert cli.main(["zeno2", "--config", str(path), "--out", str(out2)]) == 0
        assert cli.main(["zeno4", "--config", str(path), "--out", str(out4)]) == 0
        two = read_csv(out2 / "zeno2_cycle_0.01.csv")
        four = read_csv(out4 / "zeno4_cycle_0.01.csv")
        # equal splittings: identical closed-form columns on the shared grid
        t2 = np.interp(four.rows[:, 0], two.rows[:, 0], two.rows[:, 3])
        np.testing.assert_allclose(four.rows[:, 3], t2, rtol=1e-6)
        # the final pair has no weight on a configuration mixing the two manifolds
        manifest = (out4 / "manifest.txt").read_text().splitlines()
        assert "cross_manifold_population_0.01 = 0.0" in manifest

    def test_dephasing_outputs(self, tmp_path):
        path = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        assert cli.main(["dephasing", "--config", str(path), "--out", str(out)]) == 0
        independent = read_csv(out / "dephasing_independent.csv")
        assert independent.columns == ("t", "analytic", "mc_mean", "mc_se")
        hist = read_csv(out / "bandwidth_histograms.csv")
        widths = np.diff(hist.rows[:, 0])
        integral = np.sum(hist.rows[:-1, 1] * widths)
        assert integral == pytest.approx(1.0, rel=0.05)

    def test_readout_outputs(self, tmp_path):
        path = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        assert cli.main(["readout", "--config", str(path), "--out", str(out)]) == 0
        manifest = (out / "manifest.txt").read_text()
        assert "extracted_phase_0" in manifest
        trace0 = read_csv(out / "readout_trace_0.csv")
        trace1 = read_csv(out / "readout_trace_1.csv")
        amp = np.max(np.abs(trace0.rows[:, 1]))
        assert np.max(np.abs(trace0.rows[:, 1] + trace1.rows[:, 1])) < 0.02 * amp

    def test_readout_reduces_clock_phase_modulo_two_pi(self, tmp_path):
        # each target beside its residue modulo the exact 2 pi (from a 40-digit
        # pi); modulo the double 2 * math.pi, 1e15 would leave 2.1486798353953063
        pairs = ((1e15, 2.1096981170701126), (123456789.123, 1.5530726387217066),
                 (-1e15, 4.173487190109474))
        phases = ", ".join(repr(value) for pair in pairs for value in pair)
        path = write_config(tmp_path, SMALL.replace("[readout]",
                                                    f"[readout]\nclock_phases = {phases}"))
        out = tmp_path / "out"
        assert cli.main(["readout", "--config", str(path), "--out", str(out)]) == 0
        results = dict(line.split(" = ") for line in
                       (out / "manifest.txt").read_text().splitlines() if " = " in line)
        for index in range(0, 2 * len(pairs), 2):
            assert results[f"extracted_phase_{index}"] == results[f"extracted_phase_{index + 1}"]
            np.testing.assert_array_equal(read_csv(out / f"readout_trace_{index}.csv").rows,
                                          read_csv(out / f"readout_trace_{index + 1}.csv").rows)

    @pytest.mark.parametrize("settings, count, low, high", [
        ("", 2, 0.0, 0.01),  # the default config
        ("drive_amplitude = 20", 2, 1.0, math.pi),  # adiabatic elimination fails
        ("clock_phases = 0.0, 1.0, 2.0, 3.141592653589793, 4.5, -1e15", 6, 0.0, 0.01),
    ], ids=["defaults", "strong-drive", "five-phases-and-a-large-one"])
    def test_readout_reports_each_phase_error(self, tmp_path, settings, count, low, high):
        path = write_config(tmp_path, f"[readout]\n{settings}\n")
        out = tmp_path / "out"
        assert cli.main(["readout", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
        results = dict(line.split(" = ") for line in
                       (out / "manifest.txt").read_text().splitlines() if " = " in line)
        errors = []
        for index in range(count):
            target = Fraction(results[f"clock_phase_target_{index}"])
            extracted = Fraction(results[f"extracted_phase_{index}"])
            error = float(results[f"phase_error_{index}"])
            assert -math.pi < error <= math.pi
            # extracted - target - error is a whole number of turns of the exact 2 pi
            turns = float((extracted - target - Fraction(error)) / (2 * Fraction(math.pi)))
            assert abs(turns - round(turns)) < 1e-12
            errors.append(abs(error))
        assert float(results["max_phase_error"]) == max(errors)
        assert low < max(errors) < high

    def test_degenerate_fit_has_no_phase_error(self, tmp_path):
        path = write_config(tmp_path, "[readout]\ndrive_amplitude = 0\n")
        out = tmp_path / "out"
        assert cli.main(["readout", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
        manifest = (out / "manifest.txt").read_text().splitlines()
        for key in ("phase_error_0", "phase_error_1", "max_phase_error"):
            assert f"{key} = degenerate" in manifest
        assert "degenerate_fit = true" in manifest

    @pytest.mark.parametrize("extracted, target, error", [
        (0.5, 0.25, 0.25),
        (math.pi, 0.0, math.pi),  # the upper end stays
        (-3.0, 3.5, 2 * math.pi - 6.5),  # one turn added
        (-3.0, 2 * math.pi - 0.25, -2.75),  # the residue is close to 2 pi
        (-0.1, 4 * math.pi, -0.1),
        # FieldTrace admits a fitted phase up to pi + 1e-15: one turn taken off
        (math.pi + 1e-15, 0.0, math.pi + 1e-15 - 2 * math.pi),
        (-math.pi + 1e-15, math.pi / 2, math.pi / 2 + 1e-15),
    ])
    def test_phase_error_wraps_into_half_open_turn(self, extracted, target, error):
        wrapped = cli._phase_error(extracted, target)
        assert -math.pi < wrapped <= math.pi
        assert wrapped == pytest.approx(error, abs=1e-12)

    def test_clock_phase_residue_up_to_the_bound(self):
        # against the residue modulo the exact 2 pi from a 64-digit pi
        pi = Fraction(Decimal("3.141592653589793238462643383279502884197169399375105820974944592"))
        bound = cli._MAX_CLOCK_PHASE
        rng = np.random.default_rng(11)
        targets = [bound, -bound, math.nextafter(bound, 0.0), 1e15, -1e15, 2.0**50 * math.pi]
        targets += list(rng.uniform(-1.0, 1.0, 64) * bound)
        for target in targets:
            error = abs(cli._clock_phase_residue(target) - float(Fraction(target) % (2 * pi)))
            assert min(error, 2.0 * math.pi - error) <= 2e-15, target

    def test_readout_zero_drive_flags_degenerate(self, tmp_path):
        text = SMALL + "\n"
        path = write_config(tmp_path, text.replace("[readout]",
                                                   "[readout]\ndrive_amplitude = 0.0"))
        out = tmp_path / "out"
        assert cli.main(["readout", "--config", str(path), "--out", str(out)]) == 0
        manifest = (out / "manifest.txt").read_text()
        assert "degenerate_fit = true" in manifest

    def test_zeno2_zero_split_preset_is_flat(self, tmp_path):
        text = "[zeno2]\nhalf_difference = 0.0\ncycle_times = 0.01\nfinal_time = 0.5\n"
        path = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["zeno2", "--config", str(path), "--out", str(out)]) == 0
        record = read_csv(out / "zeno2_cycle_0.01.csv")
        np.testing.assert_allclose(record.rows[:, 1], 1.0, atol=1e-10)

    def test_allan_pair_narrowing_factor(self, tmp_path):
        path = write_config(tmp_path, "[allan]\natom_counts = 2\n")
        out = tmp_path / "out"
        assert cli.main(["allan", "--config", str(path), "--out", str(out)]) == 0
        record = read_csv(out / "allan.csv")
        ratios = record.rows[:, 4]
        np.testing.assert_allclose(ratios, math.sqrt(2.0), rtol=1e-12)

    def test_allan_table(self, tmp_path, capsys):
        path = write_config(tmp_path, "[allan]\n")
        out = tmp_path / "out"
        assert cli.main(["allan", "--config", str(path), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "sigma_y" in stdout
        record = read_csv(out / "allan.csv")
        reference = (1.0 / (1e9 * math.sqrt(100.0))) * math.sqrt(1.0 / 100.0)
        match = record.rows[(record.rows[:, 0] == 100.0)
                            & (record.rows[:, 1] == 100.0)]
        assert match[0, 2] == reference

    def test_manifest_floats_are_plain(self, tmp_path):
        # numpy scalar reprs must not leak into manifests
        path = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        assert cli.main(["dephasing", "--config", str(path), "--out", str(out)]) == 0
        manifest = (out / "manifest.txt").read_text()
        assert "np.float" not in manifest
        assert "efold_ratio = " in manifest

    def test_plots_written(self, tmp_path):
        path = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        assert cli.main(["zeno2", "--config", str(path), "--out", str(out),
                         "--plots"]) == 0
        svg = (out / "zeno2_survival.svg").read_text()
        assert svg.startswith("<svg")


def subparser_oracle() -> argparse.ArgumentParser:
    """The command line as five subparsers with the same five options, as it was built before."""
    parser = argparse.ArgumentParser(prog="zenolock")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True)
        cmd.add_argument("--out", required=True)
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--plots", action="store_true")
        cmd.add_argument("--strict", action="store_true")
    return parser


# The argparse parser that cli.parse_args replaced, unchanged: the oracle it is held to.
def build_parser() -> argparse.ArgumentParser:
    """One parser: every subcommand takes the same five options."""
    parser = argparse.ArgumentParser(
        prog="zenolock",
        description="Quantum-Zeno phase-locking simulator for atomic clocks.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="commands:\n"
               "  dephasing  ensemble coherence curves and bandwidth histograms\n"
               "  zeno2      two-level pair survival curves\n"
               "  zeno4      four-level pair survival curves\n"
               "  readout    emitted-field traces and phase fits\n"
               "  allan      closed-form Allan deviation table")
    parser.add_argument("command", choices=tuple(cli._HANDLERS), help="what to run")
    parser.add_argument("--config", required=True, help="run configuration file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the configured random seed")
    parser.add_argument("--plots", action="store_true", help="also write SVG plots")
    parser.add_argument("--strict", action="store_true",
                        help="exit nonzero when parameters are out of regime")
    return parser


def parse_outcome(parse, argv):
    """``vars`` of the namespace ``parse(argv)`` returns, or the code it exits with.

    A usage error (exit 2) must print the usage first on stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return vars(parse(argv))
    except SystemExit as exit_info:
        if exit_info.code == cli.EXIT_CONFIG:
            assert err.getvalue().startswith("usage: zenolock"), err.getvalue()
        return exit_info.code


# Command lines over the CLI's grammar: the commands and an unknown one, every
# option bare, followed by a value and in --x=v form, -h, an unknown option and
# stray values, in any order and repeated.  Each line holds a command, --config
# and --out nine times in ten, so that many lines parse.
ARGV_VALUES = st.sampled_from(["run.cfg", "out", "7", "-3", "1.5", "x", "-x", ""])


def option_forms(option, bare=True):
    forms = [st.tuples(st.just(option), ARGV_VALUES),
             ARGV_VALUES.map(lambda value: (f"{option}={value}",))]
    return st.one_of(st.just((option,)), *forms) if bare else st.one_of(*forms)


ARGV_CHUNKS = st.one_of(
    st.sampled_from([(command,) for command in (*COMMANDS, "bogus", "-h")]),
    ARGV_VALUES.map(lambda value: (value,)),
    *(option_forms(option)
      for option in ("--config", "--out", "--seed", "--plots", "--strict", "--help", "--threads")))


@st.composite
def command_lines(draw):
    chunks = draw(st.lists(ARGV_CHUNKS, max_size=4))
    for required in (st.sampled_from([(command,) for command in COMMANDS]),
                     option_forms("--config", bare=False), option_forms("--out", bare=False)):
        if draw(st.integers(0, 9)):
            chunks.append(draw(required))
    return [token for chunk in draw(st.permutations(chunks)) for token in chunk]


class TestParser:
    @pytest.mark.parametrize("argv", [["--help"], *([command, "--help"] for command in COMMANDS)],
                             ids=["top", *COMMANDS])
    def test_help_lists_the_commands(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert all(command in out for command in COMMANDS)

    @pytest.mark.parametrize("argv", [
        [],
        ["bogus", "--config", "run.cfg", "--out", "out"],
        ["zeno2", "--out", "out"],
        ["zeno2", "--config", "run.cfg"],
        ["zeno2", "--config", "run.cfg", "--out", "out", "--seed", "1.5"],
        ["zeno2", "--config", "run.cfg", "--out", "out", "--seed", "x"],
        ["zeno2", "--config", "run.cfg", "--out", "out", "--threads", "2"],
    ], ids=["no-command", "unknown-command", "no-config", "no-out", "float-seed", "text-seed",
            "unknown-option"])
    def test_usage_error_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("usage: zenolock")

    @pytest.mark.parametrize("options", [
        [], ["--seed", "7"], ["--plots", "--strict"], ["--strict", "--seed", "-3", "--plots"]])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_same_namespace_as_subparsers(self, command, options):
        argv = [command, "--config", "run.cfg", "--out", "out", *options]
        assert vars(cli.parse_args(argv)) == vars(subparser_oracle().parse_args(argv))

    @seed(20261020)
    @settings(max_examples=800, deadline=None, database=None)
    @given(command_lines())
    def test_same_outcome_as_argparse(self, argv):
        assert parse_outcome(cli.parse_args, argv) == parse_outcome(
            lambda argv: build_parser().parse_args(argv), argv)

    @pytest.mark.parametrize("value", ["-3", "-1.5", "-.5", "-5.", "-", "-x", "-3x", "--5"])
    @pytest.mark.parametrize("option", ["--config", "--seed"])
    def test_number_like_values_as_argparse_reads_them(self, option, value):
        # "-" and negative numbers (-3, -1.5, -.5, not -5.) are values, not options
        for argv in ([option, value, "zeno2", "--out", "out"], ["zeno2", "--out", "out", value],
                     [value, option, "7", "--out", "out"]):
            if option == "--seed":
                argv = [*argv, "--config", "run.cfg"]
            assert parse_outcome(cli.parse_args, argv) == parse_outcome(
                lambda argv: build_parser().parse_args(argv), argv)

    @pytest.mark.parametrize("argv", [
        ["zeno2", "--conf", "run.cfg", "--out", "out"],
        ["--config", "run.cfg", "--out", "out", "--", "zeno2"],
    ], ids=["abbreviated", "separator"])
    def test_documented_differences_from_argparse(self, argv):
        # argparse reads each of these as a complete command line
        assert isinstance(parse_outcome(lambda argv: build_parser().parse_args(argv), argv), dict)
        assert parse_outcome(cli.parse_args, argv) == cli.EXIT_CONFIG


class TestSchema:
    @pytest.mark.parametrize("command", list(cli.SCHEMA))
    def test_handler_reads_every_declared_key(self, tmp_path, monkeypatch, command):
        # a key the handler never reads would be accepted and then ignored
        read = set()
        lookup = Section.__getitem__

        def recording(self, key):
            read.add(key)
            return lookup(self, key)

        monkeypatch.setattr(Section, "__getitem__", recording)
        path = write_config(tmp_path, SMALL)
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert read == set(cli.SCHEMA[command])


    @pytest.mark.parametrize("function, section, renamed, unconfigured", [
        (readout.readout_config, "readout", {}, ()),
        (z2.config_for_cycle_time, "zeno2", {}, ()),
        # the CLI runs the four-level pair with both ground levels at zero
        (zm.four_level_config_from_deltas, "zeno4", {}, ("ground_1", "ground_2")),
        (dephasing.bandwidth_histogram, "dephasing", {"bins": "histogram_bins"}, ()),
    ], ids=lambda value: getattr(value, "__name__", None))
    def test_library_defaults_match_the_schema(self, function, section, renamed,
                                               unconfigured):
        defaults = Section(section, {}, cli.SCHEMA[section], "defaults")
        pinned = {name: parameter.default
                  for name, parameter in inspect.signature(function).parameters.items()
                  if parameter.default is not inspect.Parameter.empty
                  and name not in unconfigured}
        assert pinned
        assert {name: defaults[renamed.get(name, name)] for name in pinned} == pinned


class TestNoDenseOperator:
    @pytest.mark.parametrize("command, config", [
        *((command, "configs/defaults.cfg") for command in cli._HANDLERS),
        ("readout", "perfbench/clock_chain.cfg"),
    ])
    def test_run_builds_no_dense_operator(self, tmp_path, monkeypatch, command, config):
        # every Hamiltonian of a run is assembled by conserved sector
        dimensions = []
        original = h.OperatorMatrix.__init__

        def recording(self, basis, *args, **kwargs):
            dimensions.append(basis.dimension)
            original(self, basis, *args, **kwargs)

        monkeypatch.setattr(h.OperatorMatrix, "__init__", recording)
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(REPO / config), "--out", str(out)]) == 0
        assert dimensions == []


class TestDeterminism:
    @pytest.mark.parametrize("command, text", [
        *(pytest.param(command, SMALL, id=command)
          for command in ("dephasing", "zeno2", "zeno4", "readout")),
        pytest.param("zeno4", LARGE_SWEEP, id="zeno4-large-sweep")])
    def test_byte_identical_across_thread_counts(self, tmp_path, monkeypatch, command, text):
        # ZENOLOCK_THREADS, which once sized a thread pool, is left set to show
        # that it changes nothing
        path = write_config(tmp_path, text)
        off_main = off_main_thread(monkeypatch)
        outputs = {}
        threaded = {}
        for label, threads in (("one", "1"), ("many", "8")):
            monkeypatch.setenv("ZENOLOCK_THREADS", threads)
            off_main.clear()
            out = tmp_path / f"{command}_{label}"
            assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
            outputs[label] = {p.name: p.read_bytes() for p in out.iterdir()
                              if p.suffix == ".csv"}
            threaded[label] = any(off_main)
        assert outputs["one"]
        assert outputs["one"] == outputs["many"]
        # every task of a sweep runs on the calling thread
        assert threaded == {"one": False, "many": False}

    def test_large_sweep_in_fresh_processes_loads_no_pool(self, tmp_path):
        # a fresh process loads no thread pool, and writes the same CSVs
        # whatever ZENOLOCK_THREADS says
        path = write_config(tmp_path, LARGE_SWEEP)
        run = ("import sys, zenolock.cli; code = zenolock.cli.main(sys.argv[1:]); "
               "print('concurrent.futures' in sys.modules); sys.exit(code)")
        outputs, loaded = {}, {}
        for threads in ("1", "2"):
            out = tmp_path / threads
            result = subprocess.run(
                [sys.executable, "-c", run, "zeno4", "--config", str(path), "--out", str(out)],
                env=fresh_env(ZENOLOCK_THREADS=threads), capture_output=True, text=True,
                timeout=300)
            assert result.returncode == 0, result.stderr
            loaded[threads] = result.stdout.strip()
            outputs[threads] = {p.name: p.read_bytes() for p in out.glob("*.csv")}
        assert loaded == {"1": "False", "2": "False"}
        assert len(outputs["1"]) == 2
        assert outputs["1"] == outputs["2"]

    def test_identical_manifests_for_identical_runs(self, tmp_path):
        path = write_config(tmp_path, SMALL)
        out = tmp_path / "same"
        assert cli.main(["zeno2", "--config", str(path), "--out", str(out)]) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert cli.main(["zeno2", "--config", str(path), "--out", str(out)]) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second  # including manifest.txt

    def test_seed_override_changes_samples(self, tmp_path):
        path = write_config(tmp_path, SMALL)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli.main(["dephasing", "--config", str(path), "--out", str(out_a)]) == 0
        assert cli.main(["dephasing", "--config", str(path), "--out", str(out_b),
                         "--seed", "42"]) == 0
        a = read_csv(out_a / "dephasing_independent.csv")
        b = read_csv(out_b / "dephasing_independent.csv")
        assert not np.array_equal(a.rows[:, 2], b.rows[:, 2])


# Runs in a fresh interpreter whose import system refuses every scipy module.
WITHOUT_SCIPY = """
import importlib.abc
import sys


class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
try:
    import scipy
except ImportError:
    pass
else:
    sys.exit("scipy was not blocked")
import zenolock.cli
assert "scipy" not in sys.modules
config, out = sys.argv[1:]
for command in ("dephasing", "zeno2"):
    code = zenolock.cli.main([command, "--config", config, "--out", f"{out}/{command}"])
    assert code == 0, (command, code)
assert not [name for name in sys.modules if name.split(".")[0] == "scipy"]
"""


class TestStartup:
    @staticmethod
    def _unloaded_after_cli_import(module, argv=None):
        """Check in a fresh interpreter, after ``cli.main(argv)`` if ``argv`` is given."""
        run = "" if argv is None else f"assert zenolock.cli.main({argv!r}) == 0; "
        result = subprocess.run(
            [sys.executable, "-c",
             f"import sys, zenolock.cli; {run}assert {module!r} not in sys.modules"],
            env=fresh_env(), capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr

    def test_cli_import_leaves_numpy_random_unloaded(self):
        # only a dephasing run draws, so the other subcommands do not pay for
        # loading numpy.random
        self._unloaded_after_cli_import("numpy.random")

    def test_cli_import_leaves_svgplot_unloaded(self):
        # no run without --plots pays for loading the plotter
        self._unloaded_after_cli_import("zenolock.svgplot")

    def test_cli_import_leaves_the_thread_pool_unloaded(self):
        self._unloaded_after_cli_import("concurrent.futures")

    def test_default_zeno2_run_leaves_the_thread_pool_unloaded(self, tmp_path):
        # the default sweep's two cycle times run on the calling thread
        self._unloaded_after_cli_import("concurrent.futures", [
            "zeno2", "--config", str(REPO / "configs" / "defaults.cfg"),
            "--out", str(tmp_path / "out")])

    def test_cli_import_leaves_dataclasses_unloaded(self, tmp_path):
        # the records of src/ are plain classes: a frozen dataclass took about
        # 1.1 ms per class per process to generate, and dataclasses imports inspect
        self._unloaded_after_cli_import("dataclasses")
        self._unloaded_after_cli_import("dataclasses", [
            "zeno2", "--config", str(REPO / "configs" / "defaults.cfg"),
            "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("command", [None, "zeno2", "zeno4", "readout"])
    def test_openssl_stays_unloaded(self, tmp_path, command):
        # the config digest is CPython's builtin sha256: hashlib loads OpenSSL's
        # _hashlib, 3.6 MB of RSS and about 4 ms a process (a dephasing run
        # still loads it, through numpy.random)
        argv = None if command is None else [
            command, "--config", str(REPO / "configs" / "defaults.cfg"),
            "--out", str(tmp_path / "out")]
        self._unloaded_after_cli_import("_hashlib", argv)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_sector_assembly_leaves_numpy_ma_unloaded(self, tmp_path, command):
        # np.unique without counts checks np.ma.is_masked on numpy 2, as do
        # np.setdiff1d and np.union1d, and that import cost a zeno2 run about
        # 10 ms and 0.5 MB of RSS
        self._unloaded_after_cli_import("numpy.ma", [
            command, "--config", str(REPO / "configs" / "defaults.cfg"),
            "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("module", ["argparse", "gettext", "locale"])
    def test_argparse_stays_unloaded(self, tmp_path, module):
        # the command line is read without argparse: importing it cost 1.8-3.4 ms
        # a process, and its first message lookup imports gettext's locale
        self._unloaded_after_cli_import(module)
        self._unloaded_after_cli_import(module, [
            "zeno2", "--config", str(REPO / "configs" / "defaults.cfg"),
            "--out", str(tmp_path / "out")])

    def test_module_entry_point_reads_sys_argv(self):
        def run(*argv):
            return subprocess.run([sys.executable, "-m", "zenolock.cli", *argv], cwd=REPO,
                                  env=fresh_env(), capture_output=True, text=True, timeout=300)

        shown = run("--help")
        assert shown.returncode == cli.EXIT_OK, shown.stderr
        assert all(f"\n  {command} " in shown.stdout for command in COMMANDS)
        refused = run("zeno2", "--config", "configs/defaults.cfg")
        assert refused.returncode == cli.EXIT_CONFIG
        assert refused.stderr.startswith("usage: zenolock") and "--out" in refused.stderr


# A zenolock run with CPython's builtin sha256 modules blocked, so that the
# config digest falls back to hashlib (OpenSSL).
HASHLIB_FALLBACK = """
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
import zenolock.cli
assert zenolock.cli.main(sys.argv[1:]) == 0
assert "_hashlib" in sys.modules
"""


class TestConfigDigest:
    @staticmethod
    def _manifest(out):
        return [line for line in (out / "manifest.txt").read_text().splitlines()
                if not line.startswith("output_directory = ")]

    def test_manifest_holds_the_sha256_of_the_config(self, tmp_path):
        path = write_config(tmp_path, SMALL)
        assert cli.main(["zeno2", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        expected = hashlib.sha256(path.read_bytes()).hexdigest()
        assert f"config_sha256 = {expected}" in self._manifest(tmp_path / "out")

    def test_hashlib_fallback_writes_the_same_manifest(self, tmp_path):
        path = write_config(tmp_path, SMALL)
        argv = ["zeno2", "--config", str(path)]
        assert cli.main([*argv, "--out", str(tmp_path / "builtin")]) == 0
        result = subprocess.run(
            [sys.executable, "-c", HASHLIB_FALLBACK, *argv, "--out", str(tmp_path / "fallback")],
            env=fresh_env(), capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        assert self._manifest(tmp_path / "fallback") == self._manifest(tmp_path / "builtin")


class TestWithoutScipy:
    def test_cli_imports_and_runs_without_scipy(self, tmp_path):
        path = write_config(tmp_path, SMALL)
        result = subprocess.run(
            [sys.executable, "-c", WITHOUT_SCIPY, str(path), str(tmp_path / "out")],
            env=fresh_env(), capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "out" / "dephasing" / "manifest.txt").exists()
        assert (tmp_path / "out" / "zeno2" / "manifest.txt").exists()
