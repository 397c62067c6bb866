"""Physical parameters, unit conventions, and validation shared by all modules.

Geometry is fixed once and for all: both oscillators sit on the x axis,
oscillator A at x = 0 and oscillator B at x = separation_l, and both dipoles
point along x.  Every dot product in the engine therefore collapses to its
x component (k.d = k_x d, k.R = k_x L).

Natural units: hbar = c = eps0 = 1.  All frequencies are angular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

HBAR = 1.0
C = 1.0
EPS0 = 1.0

# Soft-limit thresholds for the two smallness assumptions the closed forms
# rely on.  Crossing them degrades accuracy gradually, so they warn, not fail.
DIPOLE_RATIO_WARN = 0.05  # dipole_d / separation_l
DETUNING_RATIO_WARN = 0.1  # delta_e / (hbar * omega_a)


class ValidationError(ValueError):
    """A physical parameter is outside the domain where results mean anything."""


def derive_dipole(mass_m: float, omega_a: float) -> float:
    """Ground-to-first-excited transition length of a harmonic oscillator.

    Equals sqrt(hbar / (2 m omega)); strictly decreasing in both arguments.
    """
    if not (math.isfinite(mass_m) and math.isfinite(omega_a)):
        raise ValidationError("mass and frequency must be finite")
    if mass_m <= 0 or omega_a <= 0:
        raise ValidationError(
            f"mass and frequency must be positive (got m={mass_m}, omega={omega_a})"
        )
    return math.sqrt(HBAR / (2.0 * mass_m * omega_a))


@dataclass(frozen=True)
class SystemParams:
    """Immutable physical configuration of the two-oscillator system.

    dipole_d may be given directly (tests want d << L independent of the
    mass); when omitted it is derived from (mass_m, omega_a).
    """

    omega_a: float = 1.0
    omega_b: float = 1.01
    separation_l: float = 2.0
    dipole_d: float | None = None
    mass_m: float = 1250.0  # derived dipole length 0.02 = separation_l/100
    charge_q: float = 1.0
    hbar: ClassVar[float] = HBAR
    c: ClassVar[float] = C
    eps0: ClassVar[float] = EPS0

    def __post_init__(self) -> None:
        if self.dipole_d is None:
            object.__setattr__(self, "dipole_d", derive_dipole(self.mass_m, self.omega_a))

    @property
    def delta_e(self) -> float:
        """Energy splitting hbar*(omega_b - omega_a); the amplitude scales as 1/delta_e."""
        return self.hbar * (self.omega_b - self.omega_a)

    @property
    def omega_l(self) -> float:
        """Light-crossing frequency c / separation_l."""
        return self.c / self.separation_l

    def implied_mass(self, omega: float) -> float:
        """Mass that gives this oscillator the shared dipole length at frequency omega.

        Both oscillators carry the same d, so their masses differ:
        m = hbar / (2 d^2 omega).  One that is zero or not finite raises
        ValidationError: d^2 or m is a scale beyond floating-point range.
        """
        try:
            mass = self.hbar / (2.0 * self.dipole_d**2 * omega)
        except (ZeroDivisionError, OverflowError):
            mass = 0.0
        if not 0.0 < mass < math.inf:
            raise ValidationError(f"implied mass hbar/(2 d^2 omega) at dipole_d = {self.dipole_d} "
                                  "is a scale beyond floating-point range")
        return mass


def validate(params: SystemParams) -> list[tuple[str, str]]:
    """Check the parameter invariants.

    Returns a (possibly empty) list of (severity, message) diagnostics for
    soft violations.  Raises ValidationError for values that make the
    calculation meaningless: non-finite inputs, non-positive scales, or a
    vanishing splitting (the amplitude diverges as 1/delta_e).

    Pure: identical inputs give identical diagnostics.
    """
    p = params
    numbers = {name: getattr(p, name) for name in PARAM_KEYS}
    for name, value in numbers.items():
        if not math.isfinite(value):
            raise ValidationError(f"{name} = {value} is not finite")
    for name, value in numbers.items():
        if name != "charge_q" and value <= 0:  # a charge of either sign is physical
            raise ValidationError(f"{name} = {value} must be positive")
    if p.delta_e == 0:
        raise ValidationError(
            "epsilon undefined: omega_b == omega_a makes the amplitude scale as 1/0"
        )
    if p.delta_e < 0:
        raise ValidationError(
            f"omega_b = {p.omega_b} must exceed omega_a = {p.omega_a}"
        )

    diagnostics: list[tuple[str, str]] = []
    ratio_dl = p.dipole_d / p.separation_l
    if ratio_dl > DIPOLE_RATIO_WARN:
        diagnostics.append(
            ("warning", f"d/L = {ratio_dl:.3g} outside the d << L regime")
        )
    ratio_de = p.delta_e / (p.hbar * p.omega_a)
    if ratio_de > DETUNING_RATIO_WARN:
        diagnostics.append(
            ("warning", f"delta_e/(hbar*omega_a) = {ratio_de:.3g} outside the small-splitting regime")
        )
    return diagnostics


# ---------------------------------------------------------------------------
# Config file handling (flat key = value)
# ---------------------------------------------------------------------------

# Full key schema.  Quadrature keys are owned by the quadrature module but the
# schema lives here so unknown keys are rejected in one place.
PARAM_KEYS = {
    "omega_a": float,
    "omega_b": float,
    "separation_l": float,
    "dipole_d": float,
    "mass_m": float,
    "charge_q": float,
}
QUADRATURE_KEYS = {
    "radial_nodes": int,
    "kmax_over_invd": float,
    "rel_tol": float,
}
KNOWN_KEYS = {**PARAM_KEYS, **QUADRATURE_KEYS}


def parse_config_text(text: str) -> dict[str, float | int]:
    """Parse a flat key = value config.  '#' starts a comment; unknown keys error."""
    values: dict[str, float | int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in KNOWN_KEYS:
            raise ValidationError(f"config line {lineno}: unknown key {key!r}")
        caster = KNOWN_KEYS[key]
        try:
            values[key] = caster(value.strip())
        except ValueError as exc:
            raise ValidationError(f"config line {lineno}: bad value for {key}: {exc}") from None
    return values


def load_config(path: str) -> dict[str, float | int]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def params_from_mapping(mapping: dict[str, float | int]) -> SystemParams:
    """Build SystemParams from parsed config values (quadrature keys ignored)."""
    kwargs = {k: v for k, v in mapping.items() if k in PARAM_KEYS}
    return SystemParams(**kwargs)
