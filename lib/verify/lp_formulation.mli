(** Linear-programming formulation of average-cost (constrained) CTMDPs.

    Feinberg's occupation-measure LP (reference [1] of the paper): variables
    [x(s,a) >= 0] represent the long-run fraction of time spent in state [s]
    while using action [a].  The LP is

    {v
      minimize    sum c(s,a) x(s,a)
      subject to  sum_a x(s',a) q_exit(s',a) = sum_{s,a} rate(s->s'|a) x(s,a)
                  sum x(s,a) = 1
                  sum r_k(s,a) x(s,a)  (<=|=|>=)  bound_k     (k = 1..K)
      x >= 0
    v}

    One balance row is redundant and dropped.  An optimal basic solution
    induces an optimal stationary policy that randomizes in at most K
    states — the K-switching policy (see {!Kswitching}).

    [solve_joint] assembles the block LP of several independent CTMDPs
    (one balance+normalization block each) coupled only through shared
    resource rows — the paper's "all the equations shall be solved in one
    go and not sequentially for each subsystem".

    Production solves the same problem by price
    ({!Bufsize_mdp.Constrained.solve_price}); this LP is the reference the
    [price], [mdp-gain] and [simplex-cross] oracles and the tests check it
    against. *)

type bound = {
  sense : Lp.sense;
  value : float;
}

type solved = {
  gain : float;  (** optimal long-run average cost *)
  occupation : float array array;  (** x(s,a) *)
  policy : Dense_policy.t;  (** conditional probabilities of [occupation] *)
  extras : float array;  (** achieved time-average of each extra *)
  extra_duals : float array;  (** multipliers of the resource rows *)
  lp_iterations : int;
}

type outcome =
  | Optimal of solved
  | Infeasible
  | Unbounded

val solve :
  ?extra_bounds:bound array ->
  ?max_iter:int ->
  Bufsize_mdp.Ctmdp.t ->
  outcome
(** Build and solve the LP for one CTMDP.
    @raise Simplex.Pivot_cap when the simplex reaches
    [max_iter] pivots. *)

val model : ?extra_bounds:bound array -> Bufsize_mdp.Ctmdp.t -> Lp.t
(** The LP {!solve} builds for one CTMDP (its objective is the gain), for
    solving with a reference engine. *)

val solve_diag :
  ?extra_bounds:bound array ->
  ?max_iter:int ->
  ?budget:Bufsize_resilience.Resilience.budget ->
  Bufsize_mdp.Ctmdp.t ->
  outcome option * Bufsize_resilience.Resilience.diagnostic
(** {!solve} through {!Lp.solve_diag}: same model, same
    clean path, plus the pivot-rule escalation chain and a structured
    diagnostic instead of silent fallbacks. *)

type joint_solved = {
  total_gain : float;
  components : solved array;  (** per-component results, same order *)
  shared_extras : float array;  (** achieved totals across components *)
  shared_duals : float array;
  joint_iterations : int;
}

type joint_outcome =
  | Joint_optimal of joint_solved
  | Joint_infeasible
  | Joint_unbounded

val solve_joint :
  ?shared_bounds:bound array ->
  ?max_iter:int ->
  Bufsize_mdp.Ctmdp.t array ->
  joint_outcome
(** One block LP over all components.  All components must agree on
    [num_extras]; [shared_bounds] constrain the {e sums} of each extra
    across components.  @raise Invalid_argument on mismatched extras. *)

val solve_joint_diag :
  ?shared_bounds:bound array ->
  ?max_iter:int ->
  ?budget:Bufsize_resilience.Resilience.budget ->
  Bufsize_mdp.Ctmdp.t array ->
  joint_outcome option * Bufsize_resilience.Resilience.diagnostic
(** {!solve_joint} with the pivot-rule escalation chain and a structured
    diagnostic. *)
