"""Two realizations of the generator, and the similarity identity.

The pseudo-differential form applies the symbol -e^{-x} psi(xi) through
the transform; the integro-differential form works directly with the
quadruplet.  Their agreement on smooth inputs, and the intertwining
residual A[psi] Lambda = Lambda A[psi0], are the operator-level checks
behind the semigroup construction.
"""

import numpy as np

from spectral_ssmp.exponents import (
    Exponent,
    LevyQuadruplet,
    SignedMeasure,
    WienerHopfPair,
)
from spectral_ssmp.families import make_bernstein
from spectral_ssmp.semigroup import generator_ido, generator_pdo, ws_residual
from spectral_ssmp.transform import GridFunction, GridSpec

spec = GridSpec(-10.0, 30.0, 4096)
fn = lambda x: np.exp(-x ** 2)
f = GridFunction(spec, fn(spec.x))
interior = slice(2, -2)

print("PDO vs IDO on e^{-x^2}:")
for name, q in (("gaussian part", LevyQuadruplet(sigma2=1.0)),
                ("drift part", LevyQuadruplet(b=1.5)),
                ("unit atom", LevyQuadruplet(
                    mu=SignedMeasure(atoms=((1.0, 0.5),))))):
    a_pdo = generator_pdo(Exponent(quadruplet=q), f)
    a_ido = generator_ido(q, fn, spec)
    sup = np.max(np.abs(a_pdo.values[interior] - a_ido.values[interior]))
    print(f"  {name:14s}: sup difference {sup:.2e}")

print("\nweak-similarity residual over Gaussian test functions:")
wide = GridSpec()
pid = make_bernstein("drift", d=1.0)
for name, pair in (
        ("(id, id)", WienerHopfPair(pid, pid)),
        ("(id, u+1)", WienerHopfPair(pid, make_bernstein("affine", d=1.0,
                                                         c=1.0))),
        ("gamma (0.7, 0.3, 1)", WienerHopfPair(
            make_bernstein("gamma-ratio-plus", alpha_tilde=0.7),
            make_bernstein("gamma-ratio-minus", alpha=0.3, rho=1.0)))):
    r = ws_residual(pair, wide)
    print(f"  {name:20s}: {r:.2e}")
