"""Walk through the staged tuning procedure stage by stage.

Tunes the level filter on a simulated series and prints the trace: the
theta-only stage, the level stage (inert until relaxation turns on), the
relaxation stage and the final polish, then contrasts the result with a
GARCH(1,1) fit on the same observations.  That fit searches only g1:
for each g1 the constant K and the reaction a1 are solved exactly by
least squares, and each trace line is one Nelder-Mead refinement of g1
started from one of the 8 best points of an 11-point grid.
"""

from voltrack import FuncSpec, Scenario, fit_garch, generate_path, tune_filter1

scenario = Scenario(
    mu_spec=FuncSpec("constant", (0.05,)),
    v_spec=FuncSpec("constant", (0.09,)),
)
xs = generate_path(scenario, 2000, seed=5).xs

print("staged tuning of the level filter")
print("-" * 60)
report = tune_filter1(xs)
for stage in report.trace:
    pieces = ", ".join(f"{k}={v:.6g}" for k, v in stage.params.items())
    print(f"{stage.name:<8} S_n={stage.sn:.8f}  ({pieces})")

first, last = report.trace[0].sn, report.trace[-1].sn
print(f"\nimprovement over the theta-only stage: {100 * (first - last) / first:.3f}%")
print(f"evaluations recorded: {len(report.evaluations)}")

print()
print("GARCH(1,1) fit on the same series: 8 refinements of g1, K and a1 solved")
print("-" * 60)
garch = fit_garch(xs)
for stage in garch.trace:
    pieces = ", ".join(f"{k}={v:.4g}" for k, v in stage.params.items())
    print(f"{stage.name:<8} S_n={stage.sn:.8f}  ({pieces})")
best = garch.best_params
print(
    f"\nbest GARCH: K={best.k_const:.6g} g1={best.g_coeffs[0]:.6g} "
    f"a1={best.a_coeffs[0]:.6g}  S_n={garch.best_sn:.8f}"
)
print(f"GARCH evaluations recorded: {len(garch.evaluations)}")
print(f"level filter best S_n: {report.best_sn:.8f}")
