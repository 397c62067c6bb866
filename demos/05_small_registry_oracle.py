"""Exact diagonalization on a tiny mode registry as an oracle for the
second-order perturbative amplitude.

The interaction Hamiltonian is self-adjoint under the indefinite metric, so
the metric-weighted matrix eta H is Hermitian even though the bare matrix is
not.  The oracle measures the Frobenius norm of its anti-Hermitian part,
which bounds |Im| of every eigenvalue (Bendixson), so a near-zero norm also
means a real metric-weighted spectrum.  The difference between the
perturbative and exact amplitudes must shrink as the fourth power of the
charge -- odd orders cannot return to the zero-photon sector.  The exact
amplitude is read from a partition of the truncated Hamiltonian onto the
start and target states.  Every vertex moves one photon, so each sweep
eliminates the photon-number sectors from the top down (a division for the
top sector, a small solve for each one below) and no eigenvector is picked;
the value does not move with the BLAS thread count.  A kept state that
costs what the start state costs is refused as a resonance.
"""

from dataclasses import replace

from gaugepair.core import SystemParams
from gaugepair.fock import make_registry
from gaugepair.perturbation import (
    discrete_second_order,
    exact_diagonalization_oracle,
    oracle_scaling_exponent,
)

PARAMS = SystemParams()
REGISTRY = make_registry(((1.7, 0.0, 0.0), (-1.7, 0.0, 0.0)), n_max=2, p_max=2)


def main() -> None:
    res = exact_diagonalization_oracle(PARAMS, REGISTRY)
    eps_pt = discrete_second_order(PARAMS, REGISTRY)

    print(f"basis dimension {res.dimension} "
          f"(2 oscillators x {len(REGISTRY)} modes, truncated)")
    print(f"metric-weighted H: anti-Hermitian norm = {res.metric_asymmetry:.2e}")
    print()
    print(f"second-order amplitude   {eps_pt:+.12e}")
    print(f"exact (diagonalization)  {res.epsilon_exact.real:+.12e}")
    print(f"difference               {abs(eps_pt - res.epsilon_exact):.3e}")

    exponent, samples = oracle_scaling_exponent(PARAMS, REGISTRY)
    print()
    print("residual vs charge (each halving should divide the gap by ~16)")
    print(f"{'charge':>8} {'|pt - exact|':>14}")
    for q, gap in samples:
        print(f"{q:>8.2f} {gap:>14.3e}")
    print(f"fitted exponent: {exponent:.3f}  (expected 4)")

    weak = replace(PARAMS, charge_q=PARAMS.charge_q / 8.0)
    res_weak = exact_diagonalization_oracle(weak, REGISTRY)
    pt_weak = discrete_second_order(weak, REGISTRY)
    print()
    print(f"at charge/8 the two routes agree to "
          f"{abs(pt_weak - res_weak.epsilon_exact) / abs(res_weak.epsilon_exact):.1e} relative")


if __name__ == "__main__":
    main()
