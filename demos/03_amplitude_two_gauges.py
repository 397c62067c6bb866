"""Compute the entanglement amplitude along both gauge routes and expand the
ratio in the level splitting.

Run with no arguments for the default operating point, or override it:

    python demos/03_amplitude_two_gauges.py --separation 3.0 --dipole 0.01
"""

import argparse

from gaugepair.core import SystemParams, validate
from gaugepair.quadrature import (
    QuadratureConfig,
    coulomb_closed_form,
    epsilon_coulomb,
    epsilon_lorentz,
    series_coefficients,
)


def build_params(argv=None) -> SystemParams:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--omega-a", type=float, default=1.0)
    ap.add_argument("--omega-b", type=float, default=1.01)
    ap.add_argument("--separation", type=float, default=2.0)
    ap.add_argument("--dipole", type=float, default=0.02)
    args = ap.parse_args(argv)
    params = SystemParams(
        omega_a=args.omega_a,
        omega_b=args.omega_b,
        separation_l=args.separation,
        dipole_d=args.dipole,
    )
    for severity, message in validate(params):
        print(f"[{severity}] {message}")
    return params


def main(argv=None) -> None:
    params = build_params(argv)
    config = QuadratureConfig()

    eps_c = epsilon_coulomb(params, config)
    closed = coulomb_closed_form(params)
    print("static (instantaneous-interaction) route")
    print(f"  quadrature   {eps_c.value:.9e}  (+- {eps_c.error_estimate:.1e})")
    print(f"  closed form  {closed:.9e}  (leading order in dipole/separation)")
    print(f"  deviation    {abs(eps_c.value - closed) / closed:.2%}")

    eps_l = epsilon_lorentz(params, config)
    print()
    print("covariant (virtual-photon-exchange) route")
    print(f"  quadrature   {eps_l.value:.9e}  (+- {eps_l.error_estimate:.1e})")
    print(f"  on-shell residue estimate {eps_l.residue_imag:.3e}  (reported, never added)")
    print()
    print(f"ratio covariant/static = {eps_l.value / eps_c.value:.9f}")

    coeffs = series_coefficients(params, config)
    x = params.delta_e / (params.hbar * params.omega_l)
    y = params.delta_e / (params.hbar * params.omega_a)
    print()
    c0, c1, c2 = coeffs.c0.value, coeffs.c1.value, coeffs.c2.value
    print("splitting series of the ratio: (c0 + c1*(de/hw_l) + c2*(de/hw_a)^2) / c0")
    print("(the c are normalized to the closed form, the ratio to eps_C = c0 * closed form)")
    print(f"  c0 = {c0:+.7f}")
    print(f"  c1 = {c1:+.7f}   (x = {x:.4f})")
    print(f"  c2 = {c2:+.7f}   (y = {y:.4f})")
    print(f"  reconstructed ratio {(c0 + c1 * x + c2 * y**2) / c0:.9f}")
    print()
    print("c1 and c2 depend on omega_a L / c; their often-quoted values -1/2pi and")
    print("+1/2 are the small- and large-argument limits, not universal constants.")


if __name__ == "__main__":
    main()
