"""One rule for every setting: each config dataclass types its own fields by
their annotations, the config boundary reports a failure as a ConfigError, and
the library entry points that take a number obey the same rule. The config
dataclasses are discovered, not listed, so a new one that is not checked fails
here."""

import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import ktsecret
from ktsecret import numerics, pipeline
from ktsecret.pipeline import ConfigError
from ktsecret.encoding import adjoint, make_radial_mask
from ktsecret.kinetics import patlak_fit
from ktsecret.phantom import PhantomSpec, corrupt, synthesize
from ktsecret.recon import dc_solve

NAN, INF, HUGE = float("nan"), float("inf"), 10**400  # HUGE is a valid JSON integer
SETTING_TYPES = {"int", "float", "tuple"}
REQUIRED = {"NetConfig": {"frames": 8}}  # fields without a default


def _config_dataclasses() -> dict:
    """Every dataclass defined in a ktsecret module whose fields are all annotated int, float or tuple."""
    found = {}
    for info in pkgutil.iter_modules(ktsecret.__path__):
        module = importlib.import_module(f"ktsecret.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and obj.__module__ == module.__name__ and dataclasses.is_dataclass(obj)
                    and all(f.type in SETTING_TYPES for f in dataclasses.fields(obj))):
                found[obj.__name__] = obj
    return found


CONFIGS = _config_dataclasses()


def _bad_values(field) -> dict:
    """label -> a value the field must refuse."""
    bad = {"True": True, "'1'": "1"}
    if field.type == "int":
        bad["2.5"] = 2.5
    elif field.type == "float":
        bad.update({"nan": NAN, "inf": INF, "-inf": -INF, "10**400": HUGE})
    else:
        bad.update({"list": list(field.default), "1-tuple": field.default[:1]})
    return bad


CASES = [pytest.param(cls, f.name, value, id=f"{name}.{f.name}={label}")
         for name, cls in sorted(CONFIGS.items()) for f in dataclasses.fields(cls)
         for label, value in _bad_values(f).items()]


def test_the_five_config_dataclasses_are_found():
    assert sorted(CONFIGS) == ["CsConfig", "ModlConfig", "NetConfig", "PhantomSpec", "SecretConfig"]


@pytest.mark.parametrize("cls, name, value", CASES)
def test_a_config_field_refuses_a_value_of_another_type(cls, name, value):
    kwargs = {**REQUIRED.get(cls.__name__, {}), name: value}
    with pytest.raises(ValueError, match=f"^{name} must be "):
        cls(**kwargs)
    # fixed values reach the dataclass as they are; its ValueError becomes a ConfigError
    with pytest.raises(ConfigError, match=f"^config: {name} must be "):
        pipeline._build(cls, {}, "config", **kwargs)
    if not isinstance(value, list):  # a config gives a tuple as a list
        with pytest.raises(ConfigError, match=f"^config: {name} must be "):
            pipeline._build(cls, {name: value}, "config", **REQUIRED.get(cls.__name__, {}))


def test_config_fields_take_numpy_reals_and_integers_where_floats_are_due():
    spec = PhantomSpec(dt=np.float32(2.0), noise_sigma=0, ktrans_range=(np.float16(0.1), 1),
                       vp_range=(np.int64(0), np.float64(0.1)))
    assert spec.dt == 2.0 and spec.ktrans_range == (np.float16(0.1), 1)
    for cls in (CONFIGS["CsConfig"], CONFIGS["SecretConfig"], CONFIGS["ModlConfig"]):
        floats = [f.name for f in dataclasses.fields(cls) if f.type == "float"]
        cls(**{name: np.float32(1e-3) for name in floats})
        cls(**{name: 10**300 for name in floats})


def test_is_real_and_is_int_take_any_value_without_raising():
    assert numerics.is_real(0, 2.5, -1e308, 10**308, np.float32(1e-3), np.float16(3), np.int8(-2),
                            np.uint64(2**64 - 1))
    for value in (True, np.True_, "1", None, [1.0], (1.0,), 1j, np.complex128(1), NAN, INF, -INF, HUGE, -HUGE,
                  np.float32(INF), np.longdouble("1e400")):
        assert not numerics.is_real(value), value
    assert numerics.is_int(0, -3, HUGE, np.int64(2), np.uint8(1))
    for value in (True, np.True_, 2.0, np.float64(2), "2", None):
        assert not numerics.is_int(value), value


@pytest.fixture(scope="module")
def measurement():
    truth = synthesize(PhantomSpec(h=16, w=16, t=8, seed=1))
    mask = make_radial_mask(8, 16, 16, 4.0, seed=0)
    return truth, mask, corrupt(truth, mask, 0.0, seed=0)


ENTRY_POINTS = {
    "make_radial_mask": lambda truth, mask, d, v: make_radial_mask(8, 16, 16, v, seed=0),
    "corrupt": lambda truth, mask, d, v: corrupt(truth, mask, v, seed=0),
    "patlak_fit": lambda truth, mask, d, v: patlak_fit(truth.ref_images, truth.aif_signal, v, truth.tissue_roi),
    "dc_solve": lambda truth, mask, d, v: dc_solve(adjoint(d), d, v),
}


@pytest.mark.parametrize("value", [True, "x", HUGE], ids=["True", "'x'", "10**400"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_library_entry_points_refuse_a_value_that_is_not_a_finite_real(measurement, entry, value):
    with pytest.raises(ValueError):
        ENTRY_POINTS[entry](*measurement, value)

