"""Semigroup evolution by diagonalization: P_t = H e_t H^{-1}.

The multiplication semigroup e_t shifts the second fixture parameter,
e_t h_{eps,beta} = h_{eps,beta+t}, so the composition through H is exactly
checkable.  Contraction, positivity, and the adjoint duality against the
conjugate pair are the structural laws.  evolve never applies the unbounded
H or H^{-1} to data: it splits e_t into a smooth periodic part and a
sawtooth, so the conjugate pair, whose H grows where this pair's decays,
evolves on the same grid.
"""

import numpy as np

from spectral_ssmp.exponents import WienerHopfPair
from spectral_ssmp.families import make_bernstein
from spectral_ssmp.semigroup import EvolutionPlan, evolve, mult_semigroup
from spectral_ssmp.transform import (
    GridSpec,
    apply_multiplier,
    gaussian_fixture,
    h_fixture,
    inner_e,
)

# exponentially asymmetric multipliers want a Nyquist frequency matched to
# their dynamic range; n = 512 on this window keeps everything conditioned
spec = GridSpec(-20.0, 40.0, 512)
pair = WienerHopfPair(make_bernstein("gamma-ratio-plus", alpha_tilde=0.7),
                      make_bernstein("gamma-ratio-minus", alpha=0.3, rho=1.0))
plan = EvolutionPlan(pair, spec)

f = apply_multiplier(plan.m, h_fixture(spec, 1.0, 1.0))
out = evolve(plan, 0.5, f)
ref = apply_multiplier(plan.m, h_fixture(spec, 1.0, 1.5))
print("composition law evolve(t, H h_1) = H h_{1+t}: max diff =",
      f"{np.max(np.abs(out.values - ref.values)):.2e}")

g = h_fixture(spec, 1.0, 2.0)
print(f"contraction: ||P_1 f|| / ||f|| = {evolve(plan, 1.0, g).norm_e() / g.norm_e():.6f}")

pos = evolve(plan, 1.0, h_fixture(spec, 0.5, 1.0))
print(f"positivity: min interior value = {np.min(pos.values.real[2:-2]):.2e}")

conj_plan = EvolutionPlan(WienerHopfPair(pair.phi_minus, pair.phi_plus), spec)
ga = gaussian_fixture(spec, 1.0)
lhs = inner_e(evolve(plan, 0.5, g), ga)
rhs = inner_e(g, evolve(conj_plan, 0.5, ga))
print(f"adjoint duality <P_t f, g> vs <f, P_t[conj] g>: rel diff = "
      f"{abs(lhs - rhs) / abs(lhs):.2e}")

e_t = mult_semigroup(0.5, h_fixture(spec, 1.0, 1.0))
print("diagonal model shifts the fixture: max diff =",
      f"{np.max(np.abs(e_t.values - h_fixture(spec, 1.0, 1.5).values)):.2e}")
