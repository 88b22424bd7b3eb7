"""Acceptance gate: one runnable test per shipped guarantee.

Each test prints a single CRITERION line before asserting, so the run
log reads as a checklist.  Targets marked "reference value" are
external numbers this library is expected to reproduce; every other
expected value is an exact expression or an independently integrated
oracle result.  The criterion 1 reference values are the externally
quoted effective temperature in eV, converted to kelvin with the
CODATA 2018 Boltzmann constant.
"""

from __future__ import annotations

import math

from numpy.testing import assert_allclose

from vacbrownian.correlators import corr_normal, corr_transverse, mean_e_squared
from vacbrownian.dispersion import (
    QUANTITY_IDS,
    EvalPoint,
    pos_disp_normal,
    pos_disp_normal_asym,
    pos_disp_transverse,
    pos_disp_transverse_asym,
    small_t_series,
    vel_disp_normal,
    vel_disp_normal_asym,
    vel_disp_transverse,
    vel_disp_transverse_asym,
)
from vacbrownian.cli_io import main
from vacbrownian.oracle import (
    direct_time_integral,
    reduced_time_integral,
    verify_grid,
)
from vacbrownian.regimes import (
    effective_temperature,
    effective_temperature_natural,
    fluctuation_to_quantum_ratio,
    larmor_power,
    radiated_velocity_sq,
    radiation_time_limit,
    validity_time_limit,
)
from vacbrownian.units_constants import ALPHA, electron_preset, unit_preset

UNIT = unit_preset()
ELECTRON = electron_preset()

CLOSED = {
    "vel_disp_transverse": vel_disp_transverse,
    "vel_disp_normal": vel_disp_normal,
    "pos_disp_transverse": pos_disp_transverse,
    "pos_disp_normal": pos_disp_normal,
}
ASYM = {
    "vel_disp_transverse": vel_disp_transverse_asym,
    "vel_disp_normal": vel_disp_normal_asym,
    "pos_disp_transverse": pos_disp_transverse_asym,
    "pos_disp_normal": pos_disp_normal_asym,
}


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail and not ok else ""
    print(f"CRITERION {number} ({name}): {verdict}{suffix}")


def test_criterion_01_effective_temperature_reference_values():
    # reference values: k_B T = alpha (hbar c)^2 / (pi m_e c^2 z^2) is quoted
    # as 1.770e-10 eV at z = 1 um and 1.770e-2 eV at z = 1 Angstrom; divided
    # by the CODATA 2018 k_B = 8.617333262e-5 eV/K (1/k_B = 11604.5 K/eV)
    # these are 2.054e-6 K and 2.054e2 K, quoted here to three figures
    ref_um, ref_ang = 2.05e-6, 2.05e2
    t_um = effective_temperature(ELECTRON, 1e-6)
    t_ang = effective_temperature(ELECTRON, 1e-10)
    dev_um = abs(t_um / ref_um - 1.0)
    dev_ang = abs(t_ang / ref_ang - 1.0)
    ok = dev_um <= 0.01 and dev_ang <= 0.01
    report(1, "effective temperature reference values", ok,
           f"got {t_um:.4e} K and {t_ang:.4e} K, "
           f"deviations {dev_um:.1%} and {dev_ang:.1%}")
    assert ok, (f"effective temperature {t_um:.4e} K at 1 um / {t_ang:.4e} K "
                f"at 1 A misses the {ref_um:.2e} / {ref_ang:.2e} K reference "
                f"values by {dev_um:.1%} / {dev_ang:.1%} (tolerance 1%)")


def test_criterion_02_normal_ratio_coefficient():
    # reference coefficient sqrt(alpha/2pi) quoted as 3.4e-2
    z, t = 1e-8, 1e-6
    ratio = fluctuation_to_quantum_ratio("z", ELECTRON, z, t)
    coeff = ratio * z / math.sqrt(t / ELECTRON.m)
    dev = abs(coeff / 3.4e-2 - 1.0)
    ok = dev <= 0.03
    report(2, "normal-ratio coefficient", ok, f"coeff {coeff:.6e}, dev {dev:.2%}")
    assert ok
    assert_allclose(coeff, math.sqrt(ALPHA / (2.0 * math.pi)), rtol=1e-12)


def test_criterion_03_oracle_agreement_proper_regime():
    rows = verify_grid(UNIT, 1.0, grid="pre-lightcone", tolerance=1e-6)
    worst = max(row.rel_err for row in rows)
    ok = all(row.passed for row in rows) and len(rows) == 20
    report(3, "oracle agreement before the lightcone", ok,
           f"worst relative error {worst:.3e}")
    assert ok, f"worst relative error {worst:.3e} exceeds 1e-6"


def test_criterion_04_oracle_agreement_crossing_regime():
    rows = verify_grid(UNIT, 1.0, grid="post-lightcone", tolerance=1e-4)
    worst = max(row.rel_err for row in rows)
    recorded = all(row.eps_estimate >= 0.0 for row in rows)
    ok = all(row.passed for row in rows) and len(rows) == 16 and recorded
    report(4, "oracle agreement beyond the lightcone", ok,
           f"worst relative error {worst:.3e}")
    assert ok, f"worst relative error {worst:.3e} exceeds 1e-4"


def test_criterion_05_asymptote_convergence():
    # pos_disp_transverse_asym keeps only the leading log of the bracket
    # -(1/3) ln x + 1/18 + w/5 + O(w^2), x = t/2z, w = 1/x^2; its relative
    # gap closes like 1/(6 ln x), so at t/z = 100 the gap is measured
    # against the dropped constant 1/18 in units of B = e^2 / (pi^2 m^2)
    ratios = (20.0, 50.0, 100.0, 500.0)
    b_pos = UNIT.e**2 / (math.pi**2 * UNIT.m**2)
    failures = []
    for qid in QUANTITY_IDS:
        devs = []
        for r in ratios:
            p = EvalPoint(t=r, z=1.0, particle=UNIT)
            closed = CLOSED[qid](p).value
            approx = ASYM[qid](p).value
            devs.append(abs(approx - closed) / abs(closed))
            if r == 100.0:
                gap = (closed - approx) / b_pos
        monotone = all(b < a for a, b in zip(devs, devs[1:]))
        if not monotone:
            failures.append(f"{qid}: deviations not monotone {devs}")
        if qid == "pos_disp_transverse":
            at_100 = abs(gap * 18.0 - 1.0)
            if at_100 >= 0.01:
                failures.append(f"{qid}: gap {gap:.6f} B misses 1/18 by "
                                f"{at_100:.2%} at t/z = 100")
        else:
            at_100 = devs[ratios.index(100.0)]
            if at_100 >= 0.01:
                failures.append(f"{qid}: deviation {at_100:.2%} at t/z = 100")
    ok = not failures
    report(5, "asymptote convergence", ok, "; ".join(failures))
    assert ok, "; ".join(failures)


def test_criterion_06_sign_and_growth_structure():
    problems = []
    # 20-point grid dodging the lightcone
    grid = [0.1 * 1000.0 ** (i / 19.0) for i in range(20)]
    for r in grid:
        if vel_disp_normal(EvalPoint(t=r, z=1.0, particle=UNIT)).value <= 0.0:
            problems.append(f"normal velocity dispersion not positive at {r:.3g}")
    for r in (10.0, 20.0, 50.0, 100.0, 1000.0):
        p = EvalPoint(t=r, z=1.0, particle=UNIT)
        if vel_disp_transverse(p).value >= 0.0:
            problems.append(f"transverse velocity dispersion not negative at {r}")
        if pos_disp_transverse(p).value >= 0.0:
            problems.append(f"transverse position dispersion not negative at {r}")
    growth = (pos_disp_normal(EvalPoint(t=2000.0, z=1.0, particle=UNIT)).value
              / pos_disp_normal(EvalPoint(t=1000.0, z=1.0, particle=UNIT)).value)
    if abs(growth / 4.0 - 1.0) > 0.02:
        problems.append(f"late-time doubling ratio {growth:.5f} is not 4 within 2%")
    ok = not problems
    report(6, "sign and growth structure", ok, "; ".join(problems))
    assert ok, "; ".join(problems)


def test_criterion_07_internal_identities():
    problems = []
    # coincidence limit of the kernels sums to the mean squared field
    for z in (1.0, 3.7e-5):
        total = 2.0 * corr_transverse(0.0, z) + corr_normal(0.0, z)
        if abs(total / mean_e_squared(z) - 1.0) > 1e-12:
            problems.append(f"coincidence identity off at z = {z}")
    # radiated kick expressed through the mean squared field
    for spec in (UNIT, ELECTRON):
        z, t = 1e-6, 3e-6
        direct = radiated_velocity_sq(spec, z, t)
        via_field = spec.e ** 4 * mean_e_squared(z) * t / (3.0 * math.pi * spec.m ** 3)
        via_power = 2.0 * larmor_power(spec, z) * t / spec.m
        if abs(direct / via_field - 1.0) > 1e-12:
            problems.append(f"field-route radiation identity off for {spec.name}")
        if abs(direct / via_power - 1.0) > 1e-12:
            problems.append(f"power-route radiation identity off for {spec.name}")
    # equipartition: k_B T equals m times the late-time velocity plateau
    for spec, z in ((UNIT, 1.0), (ELECTRON, 1e-6)):
        plateau = vel_disp_normal_asym(
            EvalPoint(t=1e8 * z, z=z, particle=spec)).value
        if abs(spec.m * plateau / effective_temperature_natural(spec, z) - 1.0) > 1e-12:
            problems.append(f"equipartition identity off for {spec.name}")
    # stationarity weights against the unreduced double integral
    t = 1.7
    for kind in ("velocity", "position"):
        for kernel in (lambda u: 1.0, abs, lambda u: u * u):
            reduced = reduced_time_integral(kernel, t, kind)
            direct2d = direct_time_integral(kernel, t, kind)
            if abs(direct2d / reduced - 1.0) > 1e-10:
                problems.append(f"weight identity off for {kind}")
    ok = not problems
    report(7, "internal identities", ok, "; ".join(problems))
    assert ok, "; ".join(problems)


def test_criterion_08_regime_ordering():
    problems = []
    expected = math.sqrt(2.0) / ELECTRON.e
    for i in range(10):
        z = 10.0 ** (-10.0 + 7.0 * i / 9.0)  # 1 Angstrom up to 1 mm
        ratio = radiation_time_limit(ELECTRON, z) / validity_time_limit(ELECTRON, z)
        if not ratio > 1.0:
            problems.append(f"radiation bound not above validity bound at z = {z:.1e}")
        if abs(ratio / expected - 1.0) > 1e-12:
            problems.append(f"bound ratio drifts at z = {z:.1e}")
    if abs(expected / 4.67 - 1.0) > 0.01:
        problems.append(f"bound ratio {expected:.4f} is not 4.67 within 1%")
    ok = not problems
    report(8, "regime ordering", ok, "; ".join(problems))
    assert ok, "; ".join(problems)


def test_criterion_09_short_time_consistency():
    problems = []
    p = EvalPoint(t=1e-3, z=1.0, particle=UNIT)
    for qid in QUANTITY_IDS:
        closed = CLOSED[qid](p).value
        series = small_t_series(qid, p).value
        rel = abs(series / closed - 1.0)
        if rel > 1e-10:
            problems.append(f"{qid}: series off by {rel:.2e}")
    lo = vel_disp_normal(EvalPoint(t=1e-4, z=1.0, particle=UNIT)).value
    hi = vel_disp_normal(EvalPoint(t=1e-2, z=1.0, particle=UNIT)).value
    slope = (math.log(hi) - math.log(lo)) / (math.log(1e-2) - math.log(1e-4))
    if abs(slope - 2.0) > 0.01:
        problems.append(f"short-time slope {slope:.4f} is not 2.00 +- 0.01")
    ok = not problems
    report(9, "short-time consistency", ok, "; ".join(problems))
    assert ok, "; ".join(problems)


def test_criterion_10_deterministic_outputs(tmp_path, capsys):
    sweep_args = ["sweep", "--particle", "unit", "--var", "t_over_z",
                  "--min", "0.1", "--max", "100", "--count", "40",
                  "--quantity", "pos_disp_normal",
                  "--quantity", "vel_disp_transverse"]
    verify_args = ["verify", "--grid", "full"]
    outputs = []
    for stem in ("a", "b"):
        sweep_path = tmp_path / f"sweep-{stem}.csv"
        verify_path = tmp_path / f"verify-{stem}.csv"
        assert main(sweep_args + ["--output", str(sweep_path)]) == 0
        assert main(verify_args + ["--output", str(verify_path)]) == 0
        outputs.append((sweep_path.read_bytes(), verify_path.read_bytes()))
    capsys.readouterr()
    ok = outputs[0] == outputs[1]
    report(10, "deterministic outputs", ok)
    assert ok, "repeated sweep/verify runs differ byte for byte"
