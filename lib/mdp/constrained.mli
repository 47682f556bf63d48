(** Constrained average-cost CTMDP solving — the paper's method wrapped in
    one call, with diagnostics.

    Combines {!Lp_formulation} (the only solver able to handle the
    constraints), {!Kswitching} (structure of the optimal policy), and a
    sanity cross-check of the reported gain against a re-evaluation of the
    extracted policy.

    Also provides a Lagrangian alternative: dualize the constraints and
    solve the resulting unconstrained CTMDPs by policy iteration, adjusting
    the multiplier by bisection.  Only the unit tests call it; no
    sizing or ablation path does. *)

type result = {
  solved : Lp_formulation.solved;
  switching : Kswitching.analysis;
  policy_gain_check : float;
      (** gain of the extracted policy re-evaluated through its CTMC;
          should match [solved.gain] up to numerical error for unichain
          models *)
}

type outcome =
  | Feasible of result
  | Infeasible
  | Unbounded

val solve :
  ?max_iter:int -> bounds:Lp_formulation.bound array -> Ctmdp.t -> outcome

val solve_diag :
  ?max_iter:int ->
  ?budget:Bufsize_resilience.Resilience.budget ->
  bounds:Lp_formulation.bound array ->
  Ctmdp.t ->
  outcome option * Bufsize_resilience.Resilience.diagnostic
(** {!solve} through the LP escalation chain, reporting how the solve was
    obtained (engine fallbacks, anti-cycling, budget exhaustion) as a
    structured diagnostic. *)

val solve_lagrangian :
  ?bisection_steps:int ->
  ?price_hi:float ->
  budget:float ->
  extra:int ->
  Ctmdp.t ->
  (Policy_iteration.result * float) option
(** [solve_lagrangian ~budget ~extra m] minimizes cost subject to
    [E extra <= budget] by bisecting on the resource price: for price [y],
    policy iteration solves the unconstrained CTMDP with costs
    [c + y * r_extra].  Returns the policy-iteration result at the final
    price together with that price, or [None] when even price 0 satisfies
    the budget (the constraint is slack: the unconstrained optimum is
    returned inside [Some] in that case too — [None] only when policy
    iteration fails to converge). *)
