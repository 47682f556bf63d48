(** Constrained average-cost CTMDP solving by price.

    The paper's joint LP ({!Lp_formulation.solve_joint}) couples its
    per-subsystem blocks through one shared occupancy row.  Such a
    problem is solved here by one scalar price on that row and policy
    iteration per block, with the LP as the fallback and the reference
    the [price] verify oracle checks against; {!Kswitching} bounds the
    answer's randomization to one state. *)

val deterministic_solved : Ctmdp.t -> int array -> Lp_formulation.solved
(** [deterministic_solved m choice] is the answer record of the
    deterministic policy [choice]: its occupation measure from one
    stationary solve of the induced chain ({!Policy.evaluate}), its gain
    and its usage (extra 0), with no duals, [lp_iterations = 0] and the
    solve's π in [stationary] — exactly the record {!solve_price} returns
    for a block it answers with that policy. *)

val solve_price :
  ?max_iter:int ->
  ?bound:float ->
  Ctmdp.t array ->
  Lp_formulation.joint_outcome option
  * Bufsize_resilience.Resilience.diagnostic
  * Policy_iteration.line array option
(** [solve_price ~bound blocks] minimizes the summed gain of independent
    CTMDP blocks subject to one shared bound on the time-average sum of
    their extra 0 — the problem {!Lp_formulation.solve_joint} solves with
    one [Le] shared row — without the LP:

    + {e slack test}: one policy iteration per block at price 0; when the
      summed usage is within [bound] (or there is no bound) that is the
      answer, at price 0;
    + {e breakpoint search}: otherwise a cutting-plane search on the
      concave, piecewise-linear dual
      [D(p) = sum_i min_pi (g_i + p u_i) - p bound], started from the
      price-0 policies and the least-usage policies (policy iteration on
      the extra alone, which also detects an infeasible bound).  Each
      round runs one policy iteration per block at the price where the
      two bracketing lines cross, warm-started from the block's previous
      {!Policy_iteration.line} — a block whose incumbent is still optimal
      costs one improvement sweep and no factorization — and the search
      stops when the new policy meets the lines' value within 1e-12
      relative.  Gains and usages on the search are the lines' [g_c] and
      [g_u]; no priced copy of a block is made;
    + {e one-state mix}: on the walk from one bracketing policy tuple to
      the other, one (block, state) switch at a time in a fixed order, a
      bisection finds a switch where usage crosses the bound; the
      occupation measures of the two tuples around it, which must both
      price within 1e-9 relative of the dual value, are mixed to meet
      the bound exactly, so the answer randomizes in at most one state
      (Feinberg's K-switching bound for K = 1).

    Occupation measures ({!Policy.evaluate}) are computed for the
    returned tuples only: every block of the answer, and the one block
    of the other tuple that the mix combines.  Each deterministic block
    of the answer carries its π ([stationary]); the mixed block, whose
    policy randomizes, carries none.  Each block keeps one
    {!Policy_iteration.workspace} for the whole search, its slack test,
    rounds and walk.

    The third component holds the slack test's price-0 lines, block by
    block, whenever the slack test completed — also when the bound then
    binds, is infeasible, or a later step gives up and the LP answers;
    [None] when the chain left the price step before the slack test
    finished.  Line [i] is what {!Policy_iteration.solve} at weights
    [(1., 0.)] from the first action returns on block [i], so
    {!deterministic_solved} of its choice is bitwise the unconstrained
    answer [solve_price [| block i |]] would give: callers that need the
    unconstrained optimum next to the constrained one reuse it instead of
    solving again.

    The answer is the record the joint LP returns, with
    [shared_duals = [| -p* |]] in the LP's sign convention ([[||]]
    without a bound) and [joint_iterations] the number of search rounds.
    An infeasible bound is [Joint_infeasible].  The solve runs as a
    {!Bufsize_resilience.Resilience.escalate} chain under the ambient
    budget ({!Bufsize_resilience.Resilience.current_budget}), which is
    also checked between rounds.  When policy
    iteration does not converge within [max_iter] (default 1000), meets a
    multichain policy (a singular dense evaluation, here or on the mix's
    walk), the search hits
    64 rounds or the mix fails, the chain falls back to
    {!Lp_formulation.solve_joint_diag} on the same blocks and the
    diagnostic names the reason.  Every block must have exactly one
    extra.  Counters: [constrained.price_rounds],
    [constrained.lp_fallbacks]; span: [ctmdp.price]. *)
