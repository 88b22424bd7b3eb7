"""Golden oracle outputs: every value, estimate, rung and refusal, bit for bit.

``tests/golden/oracle.jsonl`` holds one recorded oracle call per line: the
call, and either the ``repr`` of its value, error estimate and rungs or the
type and message of the exception it raised.  Each is replayed in-process
and must reproduce exactly.  The points reach from the proper-integral
band (t/z < 2) into the far band (t/z up to 1e6), where the contour integrals
cancel and any change to the interval partition or to the order of a sum
moves the last bits, or turns a value into a refusal.

After an intended output change, re-record with::

    PYTHONPATH=src python tests/test_golden_oracle.py

which takes no arguments and prints one line for each record that moved.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

from vacbrownian.dispersion import EvalPoint
from vacbrownian.errors import VacBrownianError
from vacbrownian.oracle import (
    direct_time_integral,
    dispersion_oracle,
    reduced_time_integral,
)
from vacbrownian.units_constants import electron_preset, unit_preset

GOLDEN = Path(__file__).parent / "golden" / "oracle.jsonl"

PARTICLES = {"unit": unit_preset, "electron": electron_preset}
KERNELS = {
    "cos": math.cos,
    "gauss": lambda u: math.exp(-u * u),
    # refused: round-off from cancellation, NaN on half the range, NaN everywhere,
    # and an interval too narrow to halve next to an inverse square-root singularity
    "cancel": lambda u: (1.0 - math.cos(1e-3 * u)) / 1e-6,
    "nan_tail": lambda u: math.nan if u > 0.5 else 1.0,
    "nan": lambda u: math.nan,
    "inv_sqrt": lambda u: abs(u - 1 / 3) ** -0.5 if u != 1 / 3 else 0.0,
}
RATIOS = (0.1, 1.5, 1.99, 2.2, 2.5, 10.0, 1e2, 1e3, 1e4, 3e4, 1e5, 1e6)

# Each call is a JSON object naming the function and its arguments.
CALLS: list[dict] = [
    {"function": "dispersion_oracle", "kind": kind, "component": component,
     "particle": particle, "z": z, "t_over_z": ratio}
    for particle, z in (("unit", 1.0), ("electron", 1e-6))
    for kind in ("velocity", "position")
    for component in ("x", "z")
    for ratio in RATIOS
] + [
    {"function": "reduced_time_integral", "kernel": "gauss", "t": 2.5, "kind": "velocity"},
    {"function": "reduced_time_integral", "kernel": "cos", "t": 7.0, "kind": "position"},
    {"function": "direct_time_integral", "kernel": "cos", "t": 1.3, "kind": "velocity"},
    {"function": "direct_time_integral", "kernel": "gauss", "t": 2.5, "kind": "position"},
] + [
    {"function": function, "kernel": kernel, "t": 1.0, "kind": kind}
    for function, kind in (("reduced_time_integral", "velocity"),
                           ("direct_time_integral", "velocity"),
                           ("direct_time_integral", "position"))
    for kernel in ("cancel", "nan_tail", "nan", "inv_sqrt")
]


def run(call: dict) -> dict:
    """One oracle call: the repr of each output, or the exception it raised."""
    try:
        if call["function"] == "dispersion_oracle":
            p = EvalPoint(t=call["t_over_z"] * call["z"], z=call["z"],
                          particle=PARTICLES[call["particle"]]())
            result = dispersion_oracle(call["kind"], call["component"], p)
            outputs = {"value": repr(result.value),
                       "error_estimate": repr(result.error_estimate),
                       "rungs": repr(result.rungs)}
        else:
            integral = {"reduced_time_integral": reduced_time_integral,
                        "direct_time_integral": direct_time_integral}[call["function"]]
            outputs = {"value": repr(integral(KERNELS[call["kernel"]], call["t"],
                                              call["kind"]))}
    except VacBrownianError as exc:
        outputs = {"raises": type(exc).__name__, "message": str(exc)}
    return {"call": call, **outputs}


def _recorded() -> list[dict]:
    with GOLDEN.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


RECORDED = _recorded() if GOLDEN.exists() else []


def _id(record: dict) -> str:
    call = record["call"]
    if call["function"] == "dispersion_oracle":
        return f"{call['particle']}-{call['kind']}-{call['component']}-{call['t_over_z']!r}"
    return f"{call['function']}-{call['kind']}-{call['kernel']}"


@pytest.mark.parametrize("record", RECORDED, ids=[_id(r) for r in RECORDED])
def test_oracle_output_is_bit_identical(record):
    assert run(record["call"]) == record


def test_golden_set_is_current_and_complete():
    assert [r["call"] for r in RECORDED] == CALLS
    # values, and refusals by the integrator and by the no-significant-digit check
    assert {r.get("raises") for r in RECORDED} == {
        None, "QuadratureConvergenceError", "ExtrapolationError"}


def rerecord() -> None:
    """Rewrite the golden file from CALLS; print each record that moved."""
    before = {json.dumps(r["call"]): r for r in RECORDED}
    records = [run(call) for call in CALLS]
    GOLDEN.parent.mkdir(exist_ok=True)
    with GOLDEN.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    for record in records:
        old = before.pop(json.dumps(record["call"]), None)
        if old != record:
            print(f"{_id(record)}: {'new' if old is None else 'moved'}")
    for old in before.values():
        print(f"{_id(old)}: dropped")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        print("usage: PYTHONPATH=src python tests/test_golden_oracle.py\n"
              "re-records tests/golden/oracle.jsonl; takes no arguments", file=sys.stderr)
        sys.exit(2)
    rerecord()
