"""Value semantics of the package's immutable records.

Every public record class is constructed by position and by keyword, with
its defaults; refuses each invalid input with its own message; refuses
assignment and deletion; compares and hashes by value, and only against its
own class; prints the repr a frozen dataclass prints; and survives pickle,
copy.copy and copy.deepcopy.
"""

from __future__ import annotations

import copy
import math
import pickle

import pytest

import vacbrownian as vb
from vacbrownian import oracle
from vacbrownian.dispersion import QUANTITIES

UNIT = vb.unit_preset()

# (class, positional arguments, the same as keywords, repr)
RECORDS = [
    (vb.ParticleSpec, (1.0, 2.0, "unit"), {"e": 1.0, "m": 2.0, "name": "unit"},
     "ParticleSpec(e=1.0, m=2.0, name='unit')"),
    (vb.EvalPoint, (3.0, 1.0, UNIT), {"t": 3.0, "z": 1.0, "particle": UNIT},
     "EvalPoint(t=3.0, z=1.0, particle=ParticleSpec(e=1.0, m=1.0, name='unit'))"),
    (vb.RegulatorSpec, (0.5,), {"eps0": 0.5}, "RegulatorSpec(eps0=0.5)"),
    (vb.PacketSpec, (1.0, 0.5), {"dz0": 1.0, "dpz": 0.5}, "PacketSpec(dz0=1.0, dpz=0.5)"),
    (vb.DispersionResult, (1.5, "x", "velocity", True, False, False),
     {"value": 1.5, "component": "x", "kind": "velocity", "validity_ok": True,
      "radiation_ok": False, "near_lightcone": False},
     "DispersionResult(value=1.5, component='x', kind='velocity', validity_ok=True, "
     "radiation_ok=False, near_lightcone=False)"),
    (vb.RegimeReport, ("unit", 1.0, 3.0, 8.5, 12.5, 0.25, 5e-05, None, 0.125, False, True),
     {"particle": "unit", "z": 1.0, "t": 3.0, "t_validity": 8.5, "t_radiation": 12.5,
      "dv2_rad": 0.25, "t_eff_kelvin": 5e-05, "ratio_x": None, "ratio_z": 0.125,
      "validity_ok": False, "radiation_ok": True},
     "RegimeReport(particle='unit', z=1.0, t=3.0, t_validity=8.5, t_radiation=12.5, "
     "dv2_rad=0.25, t_eff_kelvin=5e-05, ratio_x=None, ratio_z=0.125, validity_ok=False, "
     "radiation_ok=True)"),
    (oracle.VerifyRow, ("vel_disp_normal", 2.5, 1.0, 1.0000000000001, 1e-13, 1e-14, True),
     {"quantity": "vel_disp_normal", "t_over_z": 2.5, "closed": 1.0, "oracle": 1.0000000000001,
      "rel_err": 1e-13, "eps_estimate": 1e-14, "passed": True},
     "VerifyRow(quantity='vel_disp_normal', t_over_z=2.5, closed=1.0, oracle=1.0000000000001, "
     "rel_err=1e-13, eps_estimate=1e-14, passed=True)"),
]
IDS = [record[0].__name__ for record in RECORDS]
DUPLICATES = (lambda record: pickle.loads(pickle.dumps(record)), copy.copy, copy.deepcopy)


def quantity_args(quantity: vb.Quantity) -> tuple:
    return (quantity.id, quantity.kind, quantity.component, quantity.bracket,
            quantity.series_coeff, quantity.a, quantity.b, quantity.d, quantity.asym_terms)


@pytest.mark.parametrize("cls, args, kwargs, text", RECORDS, ids=IDS)
class TestRecord:
    def test_position_and_keyword_agree(self, cls, args, kwargs, text):
        by_position, by_keyword = cls(*args), cls(**kwargs)
        assert by_position == by_keyword
        for name, value in kwargs.items():
            assert getattr(by_position, name) is value

    def test_repr_is_the_dataclass_repr(self, cls, args, kwargs, text):
        assert repr(cls(*args)) == text

    def test_assignment_and_deletion_refused(self, cls, args, kwargs, text):
        record = cls(*args)
        for name in kwargs:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.not_a_field = 1.0
        assert record == cls(*args)

    def test_equality_and_hash_by_value(self, cls, args, kwargs, text):
        a, b = cls(*args), cls(*args)
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != args and a != tuple(kwargs.values())

        class Other(cls):
            pass

        assert a != Other(*args) and Other(*args) != a

    def test_unequal_when_one_field_differs(self, cls, args, kwargs, text):
        changed = dict(kwargs)
        name = next(n for n, v in kwargs.items() if isinstance(v, float))
        changed[name] = kwargs[name] * 2.0
        assert cls(**changed) != cls(**kwargs)

    @pytest.mark.parametrize("duplicate", DUPLICATES, ids=["pickle", "copy", "deepcopy"])
    def test_round_trip(self, cls, args, kwargs, text, duplicate):
        record = cls(*args)
        twin = duplicate(record)
        assert type(twin) is cls
        assert twin == record and hash(twin) == hash(record) and repr(twin) == text


class TestDefaults:
    def test_particle_name_defaults_to_custom(self):
        assert vb.ParticleSpec(1.0, 2.0) == vb.ParticleSpec(e=1.0, m=2.0, name="custom")

    def test_point_particle_defaults_to_the_electron(self):
        point = vb.EvalPoint(3.0, 1.0)
        assert point.particle == vb.electron_preset()
        assert point == vb.EvalPoint(t=3.0, z=1.0, particle=vb.electron_preset())


class TestValidation:
    @pytest.mark.parametrize("e, m, message", [
        (math.nan, 1.0, "particle charge and mass must be finite"),
        (1.0, math.inf, "particle charge and mass must be finite"),
        (1.0, 0.0, "particle mass must be positive"),
        (1.0, -1.0, "particle mass must be positive"),
        (0.0, 1.0, "particle charge must be nonzero"),
        (1e200, 1.0, "particle charge and mass squared must stay within the float range"),
        (1.0, 1e-200, "particle charge and mass squared must stay within the float range"),
    ])
    def test_particle(self, e, m, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            vb.ParticleSpec(e, m)

    @pytest.mark.parametrize("t, z, message", [
        (math.nan, math.inf, "z must be finite"),
        (1.0, math.nan, "z must be finite"),
        (math.inf, 1.0, "t must be finite"),
        (0.0, 1.0, "t must be positive"),
        (-1.0, -1.0, "t must be positive"),
        (1.0, 0.0, "z must be positive"),
        (1.0, -1.0, "z must be positive"),
        (1e300, 1e-300, "t/z must be finite"),
    ])
    def test_point(self, t, z, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            vb.EvalPoint(t, z, UNIT)

    @pytest.mark.parametrize("eps0", [0.0, -1.0, math.nan])
    def test_regulator(self, eps0):
        with pytest.raises(ValueError, match="^eps0 must be positive$"):
            vb.RegulatorSpec(eps0)

    @pytest.mark.parametrize("dz0, dpz, message", [
        (0.0, 1.0, "packet widths must be positive"),
        (1.0, -1.0, "packet widths must be positive"),
        (math.nan, 1.0, "packet widths must be positive"),
        (1.0, 0.25, r"uncertainty product dz0\*dpz must be >= 1/2"),
    ])
    def test_packet(self, dz0, dpz, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            vb.PacketSpec(dz0, dpz)


class TestEvalPointTerms:
    """The terms the closed forms share are kept on the point, outside its value."""

    def test_evaluated_point_keeps_its_value_semantics(self):
        point, fresh = vb.EvalPoint(3.0, 1.0, UNIT), vb.EvalPoint(3.0, 1.0, UNIT)
        before = hash(point)
        value = QUANTITIES["pos_disp_normal"].value(point)
        assert point == fresh and hash(point) == before
        assert repr(point) == repr(fresh)
        for duplicate in DUPLICATES:
            twin = duplicate(point)
            assert twin == point and QUANTITIES["pos_disp_normal"].value(twin) == value


class TestQuantity:
    """`Quantity` holds its bracket and series as functions, so it is not pickled."""

    @pytest.mark.parametrize("quantity", list(QUANTITIES.values()), ids=list(QUANTITIES))
    def test_record_semantics(self, quantity):
        args = quantity_args(quantity)
        names = ["id", "kind", "component", "bracket", "series_coeff", "a", "b", "d", "asym_terms"]
        twin = vb.Quantity(*args)
        assert twin == quantity and hash(twin) == hash(quantity)
        assert twin == vb.Quantity(**dict(zip(names, args)))
        assert repr(quantity) == "Quantity(" + ", ".join(
            f"{name}={value!r}" for name, value in zip(names, args)) + ")"
        assert quantity != args
        with pytest.raises(AttributeError):
            quantity.a = 1.0
        with pytest.raises(AttributeError):
            del quantity.id
        for duplicate in (copy.copy, copy.deepcopy):
            assert duplicate(quantity) == quantity

    def test_unequal_when_one_field_differs(self):
        quantity = QUANTITIES["vel_disp_normal"]
        args = quantity_args(quantity)
        assert vb.Quantity(*args[:5], 1.0, *args[6:]) != quantity
