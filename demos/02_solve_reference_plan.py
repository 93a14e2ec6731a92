"""
Solving for one weight vector
=============================

The allocator maximizes a weighted sum of two normalized objectives:
log end-to-end reliability (higher is better) and end-to-end latency
(lower is better).  At equal weights the optimum usually mixes modes:
cheap tasks run once on a fast device, fragile tasks get replicas.
"""

import ehcalloc as e

topology = e.reference_topology()
workflow = e.inspection_workflow()
policy = e.default_policy()
weights = e.ObjectiveWeights(w_rel=0.5, w_lat=0.5)

plan, ctx = e.solve_allocation(topology, workflow, policy, weights)

print(f"status      {plan.status}")
print(f"objective   g = {plan.g:.6f}")
print(f"reliability {plan.reliability:.6f}   (log {plan.f_rel:.6f})")
print(f"latency     {plan.f_lat:.3f} s")
print(f"explored    {plan.solver_nodes} nodes in {plan.wall_time_s:.3f} s")

# ---------------------------------------------------------------------
# The per-task table shows which device runs each task, which devices
# hold its replicas, and what each choice costs.
print(f"\n{'task':<6}{'mode':<6}{'primary':<9}{'replicas':<10}"
      f"{'latency_s':>12}{'reliability':>14}")
for t in plan.tasks:
    print(f"{t['task']:<6}{t['mode']:<6}{t['primary']:<9}"
          f"{','.join(t['replicas']) or '-':<10}"
          f"{t['latency_s']:>12.6f}{t['reliability']:>14.9f}")

# ---------------------------------------------------------------------
# Budgets: the edge device runs on a battery, so its energy column is
# the one to watch.  The cloud reports usage but has no cap.
print(f"\n{'device':<8}{'memory_used':>14}{'storage_used':>14}"
      f"{'energy_used_j':>15}{'energy_cap_j':>14}")
for d in plan.devices:
    cap = d["energy_budget_j"]
    print(f"{d['device']:<8}{d['memory_bytes']:>14.3e}"
          f"{d['storage_bytes']:>14.3e}{d['energy_j']:>15.2f}"
          f"{cap if cap is not None else float('inf'):>14.2f}")

# ---------------------------------------------------------------------
# An independent fault-injection simulation should agree with the
# reliability the model reports, within sampling noise.
picks = ctx.model.catalog.picks(ctx.solution.assignment)
p_hat, stderr = e.monte_carlo_reliability(ctx.reg, picks, samples=100_000,
                                          seed=0)
print(f"\nsimulated reliability {p_hat:.6f} +/- {stderr:.6f}"
      f"   (model says {plan.reliability:.6f})")
