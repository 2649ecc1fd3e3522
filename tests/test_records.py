"""The contract of every record class of zenolock.

Each record is immutable, prints its class and fields, and rejects invalid
fields with the same ValueError whether it is constructed or replaced.
"""

import itertools

import numpy as np
import pytest

from zenolock import configfile, readout, tracefile
from zenolock import dephasing as dp
from zenolock import hilbert as h
from zenolock import zeno_multilevel as zm
from zenolock import zeno_two_level as z2


def _survival_trace():
    return z2.SurvivalTrace(_survival_table(0.5), None, False, 0.0)


def _survival_table(*p_success):
    """Rows at t = 0, 1, ... with ``p_success`` after the starting 1.0."""
    p_success = np.array([1.0, *p_success])
    times = np.arange(float(len(p_success)))
    return np.column_stack([times, p_success, np.zeros_like(times), np.exp(-times)])


_LEVEL_SCHEME_INVALID = [
    (dict(free_interval=0.0), "free_interval must be positive"),
    (dict(measure_interval=-1e-3), "measure_interval must be non-negative"),
    (dict(final_time=1e-3), "final_time must cover at least one cycle"),
    (dict(photon_number=-1), "photon_number must be non-negative"),
    (dict(coupling=0.0), "coupling must be positive when photons"),
    (dict(photon_number=20), "fock_cutoffs must be at least photon_number"),
]

# record factory -> [(changed fields, the ValueError message they raise)]
RECORDS = {
    "ConfigEntry": (lambda: configfile.ConfigEntry("1", 3), []),
    "Key": (lambda: configfile.Key("0", int, minimum=1), []),
    "EnsembleConfig": (lambda: dp.EnsembleConfig(100, 100.0, 10.0, 7, 0.1, 41, 200), [
        (dict(atom_count=0), "atom_count must be >= 1"),
        (dict(replicas=0), "replicas must be >= 1"),
        (dict(fwhm=0.0), "fwhm must be positive"),
        (dict(time_max=float("nan")), "time_max must be positive"),
        (dict(time_points=1), "time_points must be >= 2"),
    ]),
    "AllanParams": (lambda: dp.AllanParams(1.0, 1e9, 10, 1.0, 25.0), [
        (dict(fwhm=0.0), "fwhm must be positive"),
        (dict(carrier=-1.0), "carrier must be positive"),
        (dict(cycle_time=0.0), "cycle_time must be positive"),
        (dict(averaging_time=-2.0), "averaging_time must be positive"),
        (dict(atom_count=0), "atom_count must be >= 1"),
    ]),
    "HistogramData": (lambda: dp.HistogramData(np.arange(3.0), np.ones(2), 1.0), []),
    "BandwidthHistograms": (lambda: dp.BandwidthHistograms(
        dp.HistogramData(np.arange(3.0), np.ones(2), 3.0),
        dp.HistogramData(np.arange(3.0), np.ones(2), 1.0)), []),
    "Atom": (lambda: h.Atom(2), [(dict(levels=5), "atom must have 2, 3 or 4 levels")]),
    "Mode": (lambda: h.Mode(1), [(dict(cutoff=0), "mode cutoff must be >= 1")]),
    "ReadoutConfig": (lambda: readout.readout_config(time_points=5), [
        (dict(detuning=0.0), "the drive detuning must be nonzero"),
        (dict(emission_mode_cutoff=0), "emission_mode_cutoff must be >= 1"),
        (dict(fit_periods=0.0), "fit_periods must be positive"),
        (dict(readout_times=(0.0, 1.0, 1.0)), "readout_times must be strictly increasing"),
    ]),
    "FieldTrace": (lambda: readout.FieldTrace(np.arange(2.0), np.zeros(2), 0.5, 1.0), [
        (dict(fitted_phase=-np.pi), r"fitted phase must lie in \(-pi, pi\]"),
    ]),
    "TraceRecord": (lambda: tracefile.TraceRecord("t", ("t", "v"), np.arange(4.0).reshape(2, 2),
                                                  {"k": "v"}), [
        (dict(rows=np.zeros(2)), "rows must be a 2-d array"),
        (dict(columns=("t",)), "2 row entries for 1 column labels"),
        (dict(columns=("t", "a,b")), "contains a separator"),
        (dict(rows=np.eye(2)), "time column must be non-decreasing"),
        (dict(provenance={"k": "two\nlines"}), "provenance entries must be single-line"),
    ]),
    "TwoLevelEnergies": (lambda: z2.TwoLevelEnergies(0.0, 1.0), []),
    "ThreeLevelEnergies": (lambda: zm.ThreeLevelEnergies(0.0, 1.0, 2.0), []),
    "FourLevelEnergies": (lambda: zm.FourLevelEnergies(0.0, 0.0, 1.0, 2.0), []),
    "TwoLevelConfig": (lambda: z2.config_for_cycle_time(0.01, 0.5), _LEVEL_SCHEME_INVALID),
    "FourLevelConfig": (lambda: zm.four_level_config_from_deltas(
        1.0, 0.5, cycle_time=0.02, final_time=0.2, photon_number=2), _LEVEL_SCHEME_INVALID),
    "SurvivalTrace": (_survival_trace, [
        (dict(table=_survival_table(1.5)), r"success probabilities outside \[0, 1\]"),
        (dict(table=_survival_table(0.5, 0.75)), "success probability must be non-increasing"),
    ]),
}


def _fields(record) -> dict:
    names = record._fields if isinstance(record, tuple) else type(record).__slots__
    return {name: getattr(record, name) for name in names}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_immutable_and_printable(name):
    record = RECORDS[name][0]()
    fields = _fields(record)
    first = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, first, fields[first])
    with pytest.raises(AttributeError):
        delattr(record, first)
    assert all(getattr(record, field) is value for field, value in fields.items())
    text = repr(record)
    assert text.startswith(f"{type(record).__name__}(")
    assert all(f"{field}=" in text for field in fields)


@pytest.mark.parametrize("name, change, message", [
    (name, change, message) for name, (_, invalid) in sorted(RECORDS.items())
    for change, message in invalid])
def test_invalid_fields_raise_on_construction_and_replace(name, change, message):
    record = RECORDS[name][0]()
    with pytest.raises(ValueError, match=message):
        type(record)(**{**_fields(record), **change})
    with pytest.raises(ValueError, match=message):
        record.replace(**change)


def test_survival_columns_are_read_only_views_of_the_table():
    trace = _survival_trace()
    assert not trace.table.flags.writeable
    for index, name in enumerate(("times", "p_success", "p_error_per_cycle", "analytic_p_s")):
        column = getattr(trace, name)
        assert column.base is trace.table and not column.flags.writeable
        np.testing.assert_array_equal(column, trace.table[:, index])


@pytest.mark.parametrize("name", sorted(name for name, (make, _) in RECORDS.items()
                                        if not isinstance(make(), tuple)))
def test_replace_keeps_the_class_and_every_field(name):
    record = RECORDS[name][0]()
    replaced = record.replace()
    assert type(replaced) is type(record) and replaced is not record
    assert repr(replaced) == repr(record)


@pytest.mark.parametrize("name", sorted(name for name, (make, _) in RECORDS.items()
                                        if not isinstance(make(), tuple)))
def test_replaced_record_is_equal_and_hashes_alike(name):
    record = RECORDS[name][0]()
    replaced = record.replace()
    assert replaced == record and not replaced != record
    if type(record).__hash__ is not None:
        assert hash(replaced) == hash(record)


def test_readout_config_compares_its_grid_by_value():
    config = readout.readout_config(time_points=5)
    same = readout.readout_config(time_points=5)
    assert config.readout_times is not same.readout_times
    assert config == same and hash(config) == hash(same)
    assert config != readout.readout_config(time_points=6)
    assert config != readout.readout_config(time_points=5, time_max=4.0)
    # every sample of a long grid prints, as the floats it holds
    text = repr(readout.readout_config())
    assert "..." not in text
    assert repr(readout.readout_config().readout_times.tolist()) in text


@pytest.mark.parametrize("n", [2, 3, 4])
def test_atom_and_mode_of_one_size_differ(n):
    assert h.Atom(n) == h.Atom(n) and hash(h.Atom(n)) == hash(h.Atom(n))
    assert h.Atom(n) != h.Mode(n)
    assert hash(h.Atom(n)) != hash(h.Mode(n))


def _built_bases():
    """The product bases the protocols and the readout emission build, and three bare ones."""
    configs = [z2.config_for_cycle_time(0.01, 0.5, photon_number=2),
               zm.three_level_config(photon_number=2),
               zm.four_level_config_from_deltas(1.0, 0.5, cycle_time=0.02, final_time=0.2,
                                                photon_number=2)]
    return ([z2.pair_basis(config) for config in configs]
            + [readout.emission_basis(readout.readout_config())]
            + [h.build_basis([h.Atom(4), h.Atom(4)]), h.build_basis([h.Atom(2)]),
               h.build_basis([h.Mode(1)])])


def test_product_basis_equality_and_hash():
    bases = _built_bases()
    for basis in bases:
        rebuilt = h.ProductBasis([type(sub)(*_fields(sub).values()) for sub in basis.subsystems])
        assert rebuilt == basis and hash(rebuilt) == hash(basis)
    for first, second in itertools.combinations(bases, 2):
        assert first != second
        assert hash(first) != hash(second)
