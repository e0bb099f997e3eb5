"""Certifying the entropy-balance algebra on manufactured fields.

Every step of the weighted-entropy and velocity-moment derivations is an
algebraic identity once time derivatives are eliminated through the
equations of motion.  On band-limited fields with spectral derivatives a
true identity leaves only round-off; a broken hypothesis leaves an O(1)
residual.  This script certifies both directions:

* the four equality chains collapse to the round-off floor and keep
  collapsing under grid refinement;
* tampering with the structural relation g = rho h' - h leaves a
  grid-independent residual, so the relation is genuinely used;
* the velocity-moment inequality chain has nonnegative slack at each link.
"""

from bdns import TamperedLaw, ViscosityLaw, manufactured_field, run_all_identities

LINEAR = ViscosityLaw(terms=((1.0, 1.0),))
MIXED = ViscosityLaw(terms=((1.0, 1.0), (1.0, 2.0)))
GRIDS = [32, 64, 128]


def show(rep):
    print(f"  {rep.identity}: verdict {'PASS' if rep.verdict else 'FAIL'}")
    for name, series in rep.residuals.items():
        print(f"    residual {name:<18}", " ".join(f"{r:.2e}" for r in series))
    for name, series in rep.slacks.items():
        print(f"    slack    {name:<18}", " ".join(f"{s:+.2e}" for s in series))


for dim in (1, 2):
    mf = manufactured_field(dim, seed=7 + dim)
    print("=" * 70)
    print(f"{dim}D manufactured field, grids {GRIDS}")
    print("=" * 70)
    for law, name in ((LINEAR, "h = rho"), (MIXED, "h = rho + rho^2")):
        print(f"[{name}]")
        for rep in run_all_identities(mf, law, 2.0, GRIDS, delta=0.05,
                                      nu=0.9 if law is LINEAR else 0.3):
            show(rep)
    print()

print("=" * 70)
print("Negative control: force g = 1 alongside h = rho")
print("=" * 70)
bad = TamperedLaw(LINEAR, 1.0)
reports = run_all_identities(manufactured_field(1, seed=8), bad, 2.0, GRIDS, nu=0.9)
show(next(rep for rep in reports if rep.identity == "bd_combination"))
print("The chain residual refuses to converge: the structural relation is")
print("load-bearing, not decorative.")
