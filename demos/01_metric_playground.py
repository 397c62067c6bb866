"""Walk through the indefinite-metric photon sector on a single wave vector.

Scalar quanta carry negative norm under the physical inner product while
every ordinary amplitude stays positive; the subsidiary condition then picks
out the states where longitudinal and scalar excitations cancel.  This script
prints each identity next to the value the ladder algebra actually produces.
"""

from gaugepair.fock import (
    StateVector,
    apply_scalar_sector_identity,
    check_subsidiary,
    indefinite_inner,
    make_registry,
    physical_pair_raise,
)

K = (1.3, 0.0, 0.0)


def main() -> None:
    registry = make_registry((K,), n_max=2, p_max=4)
    long_idx, scal_idx = registry.pair_at(K)

    print("scalar-mode norms under the two inner products")
    print(f"{'n':>3} {'ordinary':>10} {'indefinite':>11} {'expected':>9}")
    state = StateVector.vacuum(registry)
    for n in range(registry.p_max + 1):
        ordinary = state.ordinary_inner(state).real
        indefinite = indefinite_inner(state, state).real
        print(f"{n:>3} {ordinary:>10.6f} {indefinite:>+11.6f} {(-1.0) ** n:>+9.0f}")
        if n < registry.p_max:
            raised = state.create(scal_idx)
            state = raised * (1.0 / raised.ordinary_norm())

    vac = StateVector.vacuum(registry)
    lowered = apply_scalar_sector_identity(vac, scal_idx)
    coeff = next(amp for _, amp in lowered.terms())
    print()
    print("lowering after a physical (metric-adjoint) raise on the vacuum:")
    print(f"  scalar mode       -> {coeff.real:+.0f} |vacuum>   (the sector's defining sign)")
    lowered_l = apply_scalar_sector_identity(vac, long_idx)
    coeff_l = next(amp for _, amp in lowered_l.terms())
    print(f"  longitudinal mode -> {coeff_l.real:+.0f} |vacuum>   (ordinary bosonic)")

    print()
    print("subsidiary condition on the physical photon pair")
    pair = physical_pair_raise(vac, K)
    print("  ordinary amplitudes of the pair state:")
    for occ, amp in sorted(pair.terms(), key=lambda t: t[0].photons):
        print(f"    photons {dict(occ.photons)}: {amp.real:+.0f}")
    print(f"  residual of the gauge condition: {check_subsidiary(pair, K):.3e}  (must be 0)")

    bad = physical_pair_raise(StateVector.vacuum(registry.corrupted()), K)
    print()
    print("negative control: flip the scalar metric sign and raise the same pair")
    print(f"  residual becomes {check_subsidiary(bad, K):.3f}  (the corruption is loud, not subtle)")


if __name__ == "__main__":
    main()
