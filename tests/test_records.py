"""The record contract: every lave record behaves as the frozen dataclass its
base says, though its methods come from lave._record and not from code that
dataclasses generates. A record is declared by its base alone, so records
declared in this module keep the contract too."""

import dataclasses
import inspect
from dataclasses import FrozenInstanceError, asdict, field, fields, is_dataclass, replace

import numpy as np
import pytest

import lave
import lave.cli
from lave._record import Record, ValueRecord
from lave.calibration import CalibrationSpec
from lave.cli import RunConfig
from lave.estimator import EstimatorConfig
from lave.garch import GarchParams
from lave.simulation import ChangePointSpec, ExperimentCell

MODULES = (
    lave.calibration, lave.estimator, lave.evaluation, lave.garch, lave.series, lave.simulation,
    lave.transform, lave.cli,
)

# valid arguments for each record, and for a record with a __post_init__
# arguments it rejects
EXAMPLES = {
    "ReturnSeries": ({"values": [0.1, -0.2, 0.3], "origin_label": "EURUSD"}, {"values": []}),
    "TransformedSeries": ({"values": [0.1, 0.2], "gamma": 0.5}, {"gamma": 0.0}),
    "PowerParams": (
        {"gamma": 0.5, "c_gamma": 0.8, "d_gamma": 0.4, "s_gamma": 0.5, "a_gamma": 1.0},
        {"s_gamma": 0.6},
    ),
    "VolEstimate": (
        {"theta_hat": 0.8, "sigma_hat": 1.0, "interval_len": 40, "v_tilde": 0.1},
        {"interval_len": 0},
    ),
    "LaplaceCurve": ({"u_grid": [0.5, 1.0], "ratio": [1.1, 1.2]}, {"u_grid": [0.0, 1.0]}),
    "IntervalGrid": (
        {"m0": 10, "tau": 35, "interval_lengths": (10, 20, 30)}, {"interval_lengths": (10, 25)},
    ),
    "HomogeneityTest": ({"statistic": 1.5, "threshold": 2.0, "reject": False}, None),
    "TestRecord": (
        {"candidate_len": 20, "test_len": 10, "statistic": 1.5, "threshold": 2.0}, None,
    ),
    "SelectionResult": (
        {
            "chosen_len": 20, "theta_hat": 0.8, "v_tilde": 0.1, "rejected_at": 30,
            "test_trace": (lave.estimator.TestRecord(20, 10, 1.5, 2.0),),
        },
        None,
    ),
    "EstimatorConfig": (
        {"gamma": 0.5, "m0": 10, "lam": 2.7, "t0": None, "max_len": 60}, {"lam": 0.0},
    ),
    "EstimatePath": (
        {
            "taus": np.arange(20, 23), "theta_hat": np.full(3, 0.8),
            "sigma_hat": np.ones(3), "interval_len": np.full(3, 20),
            "rejected_at": np.zeros(3, dtype=int), "config": EstimatorConfig(0.5, 10, 2.7),
        },
        None,
    ),
    "CalibrationSpec": (
        {"gamma": 0.5, "M": 80, "m0": 10, "target_alpha": 0.05, "replications": 200, "seed": 3},
        {"M": 15},
    ),
    "CalibrationResult": (
        {
            "lam": 2.7, "achieved_rate": 0.05, "replications": 200, "ci_halfwidth": 0.03,
            "spec": CalibrationSpec(0.5, 80),
        },
        None,
    ),
    "ChangePointSpec": ({"segments": ((80, 1.0), (80, 3.0)), "seed": 1}, {"segments": ((0, 1.0),)}),
    "TruthDiagnostics": ({"delta": 0.2, "v": 0.1, "ratio": 2.0}, None),
    "ExperimentCell": ({"gamma": 0.5, "lam": 2.7, "m_label": 80, "error": 0.3}, None),
    "CurveTable": (
        {
            name: np.linspace(1.0, 2.0, 3)
            for name in (
                "taus", "sigma_true", "sigma_median", "sigma_q25", "sigma_q75", "len_median",
                "len_q25", "len_q75",
            )
        },
        None,
    ),
    "ExperimentResult": (
        {
            "design": ChangePointSpec(((80, 1.0),)), "replications": 10, "seed": 0,
            "t_start": 20, "cells": (ExperimentCell(0.5, 2.7, 80, 0.3),), "curves": {},
        },
        None,
    ),
    "SummaryStats": (
        {"n": 100, "mean": 0.0, "variance": 1.0, "skewness": 0.1, "kurtosis": 3.2}, None,
    ),
    "ForecastComparison": (
        {
            "lave_score": 1.0, "garch_score": 1.1, "ratio": 0.9, "t0": 20, "p": 0.5,
            "forecasts": ((20, 1.0, 1.1),), "garch_fallback_times": (),
        },
        None,
    ),
    "GarchParams": ({"omega": 0.1, "alpha": 0.05, "beta": 0.9}, {"omega": 0.0}),
    "RollingForecast": ({"forecasts": ((350, 1.2),), "fallback_times": (), "window": 350}, None),
    "RunConfig": ({"command": "estimate", "lam": "table:80", "seed": 3}, None),
}
# subclasses of Record, not of ValueRecord: these compare and hash by identity
BY_IDENTITY = {
    "ReturnSeries", "TransformedSeries", "LaplaceCurve", "SelectionResult", "EstimatePath",
    "CalibrationResult", "CurveTable", "ExperimentResult", "RollingForecast",
}
RECORDS = {
    name: obj
    for module in MODULES
    for name, obj in vars(module).items()
    if isinstance(obj, type) and is_dataclass(obj) and obj.__module__ == module.__name__
}


def test_every_record_has_an_example():
    assert sorted(RECORDS) == sorted(EXAMPLES)
    assert len(RECORDS) == 23 and len(BY_IDENTITY) == 9


class Point(ValueRecord):
    """A record declared by subclassing alone, as every lave record is."""

    x: float
    y: float = 0.0
    tags: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not np.isfinite(self.x):
            raise ValueError("x must be finite")


class Trail(Record):
    steps: tuple
    origin: str = ""


# records declared in this module: each with valid and rejected arguments
DECLARED_HERE = {"Point": (Point, {"x": 1.0, "tags": ("a",)}, {"x": float("inf")})}


@pytest.fixture(params=[*sorted(EXAMPLES), *DECLARED_HERE])
def record(request):
    if request.param in DECLARED_HERE:
        return DECLARED_HERE[request.param]
    cls = RECORDS[request.param]
    kwargs, invalid = EXAMPLES[request.param]
    return cls, kwargs, invalid


def test_methods_are_not_generated(record):
    cls, _, _ = record
    # each of these would be a separately compiled function
    generated = {"__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__"}
    assert not generated & set(vars(cls))


def test_fields_are_frozen(record):
    cls, kwargs, _ = record
    rec = cls(**kwargs)
    for name in kwargs:
        with pytest.raises(FrozenInstanceError):
            setattr(rec, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(rec, name)
    with pytest.raises(FrozenInstanceError):
        rec.not_a_field = 1


def test_eq_and_hash_follow_the_declared_flag(record):
    cls, kwargs, _ = record
    rec, same = cls(**kwargs), cls(**kwargs)
    assert rec == rec and rec != object()
    if cls.__name__ in BY_IDENTITY:
        assert rec != same
        assert hash(rec) == object.__hash__(rec)
    else:
        assert rec == same and hash(rec) == hash(same)
        assert len({rec, same}) == 1


def test_repr_matches_a_stdlib_frozen_dataclass(record):
    cls, kwargs, _ = record
    rec = cls(**kwargs)
    twin = dataclasses.make_dataclass(cls.__name__, [f.name for f in fields(cls)], frozen=True)
    values = {f.name: getattr(rec, f.name) for f in fields(cls)}
    assert repr(rec) == repr(twin(**values))


def test_fields_replace_and_asdict(record):
    cls, kwargs, _ = record
    rec = cls(**kwargs)
    names = [f.name for f in fields(rec)]
    assert set(kwargs) <= set(names)
    assert list(asdict(rec)) == names
    again = replace(rec)
    assert type(again) is cls and repr(again) == repr(rec)
    # positional arguments bind in field order
    assert repr(cls(*(getattr(rec, name) for name in names))) == repr(rec)


def test_bad_arguments_raise_type_error(record):
    cls, kwargs, _ = record
    rec = cls(**kwargs)
    values = [getattr(rec, f.name) for f in fields(cls)]
    first = fields(cls)[0].name
    # the messages match a stdlib dataclass's as well
    with pytest.raises(TypeError, match="positional arguments but"):
        cls(*values, values[-1])
    with pytest.raises(TypeError, match=f"missing .*'{first}'"):
        cls(**{k: v for k, v in kwargs.items() if k != first})
    with pytest.raises(TypeError, match=f"multiple values for .*'{first}'"):
        cls(values[0], **kwargs)
    with pytest.raises(TypeError, match="unexpected .*'not_a_field'"):
        cls(**kwargs, not_a_field=1)


def test_post_init_still_validates(record):
    cls, kwargs, invalid = record
    assert (invalid is not None) == ("__post_init__" in vars(cls))
    if invalid is not None:
        with pytest.raises(ValueError):
            cls(**{**kwargs, **invalid})


def test_run_config_reads_the_seed_when_built(monkeypatch):
    monkeypatch.setenv("LAVE_SEED", "5")
    assert RunConfig("estimate").seed == 5
    monkeypatch.setenv("LAVE_SEED", "6")
    assert RunConfig("estimate").seed == 6
    assert RunConfig("estimate", seed=2).seed == 2


def test_signature_matches_a_stdlib_dataclass(record):
    cls, _, _ = record
    twin = dataclasses.make_dataclass(
        cls.__name__,
        [
            (f.name, f.type, field(default=f.default, default_factory=f.default_factory))
            for f in fields(cls)
        ],
        frozen=True,
    )
    # what help() shows; a generated __init__ adds "-> None"
    assert str(inspect.signature(cls)) == str(inspect.signature(twin)).replace(" -> None", "")


def test_garch_params_signature_names_its_fields():
    assert str(inspect.signature(GarchParams)) == "(omega: 'float', alpha: 'float', beta: 'float')"


def test_a_record_declared_here_compares_by_identity():
    rec, same = Trail((1, 2)), Trail((1, 2))
    assert is_dataclass(Trail) and [f.name for f in fields(Trail)] == ["steps", "origin"]
    assert not {"__init__", "__repr__", "__eq__", "__hash__"} & set(vars(Trail))
    assert rec == rec and rec != same and hash(rec) == object.__hash__(rec)
    assert repr(rec) == "Trail(steps=(1, 2), origin='')"
    with pytest.raises(FrozenInstanceError):
        rec.steps = ()
    # a record without a docstring is documented by its signature, as by dataclasses
    assert Trail.__doc__ == "Trail(steps: tuple, origin: str = '')"


def test_the_bases_are_not_dataclasses():
    assert not is_dataclass(Record) and not is_dataclass(ValueRecord)
