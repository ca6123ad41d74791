# Shift averages: the macroscopic mean of a local observable.
#
# Averaging a fixed seed over all cyclic shifts of a volume produces a
# sequence whose commutator with any fixed local probe decays like 1/N:
# at most (seed hull + probe hull) of the N shifted copies can touch the
# probe, and each carries a 1/N weight.  This script traces the measured
# commutator norm against that envelope.

import spintail as st

seed = st.from_site_factors({1: st.pauli(1), 2: st.pauli(1)})  # two-site seed
probe = st.pauli_at(3, 1)
seq = st.GammaSeq.from_seed(seed)

schedule = list(range(4, 15))
report = st.gamma_bound_check(seq, probe, schedule)

print("shift-averaged two-site seed vs probe at site 1")
print(f"{'N':>4}  {'measured':>12}  {'envelope 2(W0+Wp)/N':>20}")
for point in report.points:
    print(f"{point.n:>4}  {point.value:>12.6f}  {point.bound:>20.6f}")
print(f"fitted decay exponent: {report.fitted_exponent:+.4f}  (expected -1)")
print(f"bound violations: {list(report.bound_violations) or 'none'}")
print(f"classification: {report.classification}")

# The same machinery, probe by probe, is the membership test for the
# asymptotically-commuting algebra: every shift average passes.
results = st.commutant_membership(seq, None, schedule)
print("\nmembership against the default probe set:")
for res in results:
    trace = "exactly zero" if all(p.value == 0 for p in res.report.points) else (
        f"~ {res.report.points[-1].value * res.report.points[-1].n:.2f}/N"
    )
    print(f"  {res.label:>20}: {res.report.classification:<22} ({trace})")
