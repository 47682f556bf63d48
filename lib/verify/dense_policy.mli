(** Dense randomized policies: one probability row per state.

    The occupation-measure LP's answer is such a policy (the conditional
    probabilities of its x(s,a)); production's answers are K-switching
    policies ({!Bufsize_mdp.Policy.t}), which {!of_policy} spells out in
    this form so that the harness can evaluate both the same way. *)

type t

val randomized : Bufsize_mdp.Ctmdp.t -> float array array -> t
(** [randomized m probs] with [probs.(s).(a)] the probability of action [a]
    in state [s]; rows must be distributions over the state's actions.
    @raise Invalid_argument on shape or normalization errors (tolerance
    [1e-6]; rows are renormalized exactly). *)

val of_policy : Bufsize_mdp.Ctmdp.t -> Bufsize_mdp.Policy.t -> t
(** The rows of a K-switching policy: probability 1 on [choice], and in
    the mixed state [weight] on its action and [1 - weight] on [choice]. *)

val of_occupation : Bufsize_mdp.Ctmdp.t -> float array array -> t
(** Recover a policy from an occupation measure [x(s,a)]: conditional
    probabilities where the state has positive mass, first action
    elsewhere (transient states — any choice is average-cost neutral). *)

val action_probs : t -> int -> float array

type evaluation = {
  gain : float;  (** long-run average cost rate *)
  extras : float array;  (** long-run average of each extra resource *)
  occupation : float array array;  (** x(s,a) = pi(s) * prob(a|s) *)
  state_distribution : Bufsize_numeric.Vec.t;
}

val evaluate : Bufsize_mdp.Ctmdp.t -> t -> evaluation
(** Long-run averages under the policy (unichain assumed: uses the
    stationary distribution of the chain that averages the transition
    rates under the policy). *)
