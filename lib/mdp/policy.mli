(** Stationary policies for CTMDPs and their evaluation.

    A stationary (possibly randomized) policy assigns to each state a
    probability distribution over its admissible actions.  Applying a
    policy to a CTMDP yields a plain CTMC whose stationary distribution
    gives the long-run average cost (the gain) and the time-average of any
    extra resource. *)

type t
(** A validated policy for a specific CTMDP shape. *)

val deterministic : Ctmdp.t -> int array -> t
(** [deterministic m choice] selects action [choice.(s)] in state [s].
    @raise Invalid_argument on out-of-range actions. *)

val randomized : Ctmdp.t -> float array array -> t
(** [randomized m probs] with [probs.(s).(a)] the probability of action [a]
    in state [s]; rows must be distributions over the state's actions.
    @raise Invalid_argument on shape or normalization errors (tolerance
    [1e-6]; rows are renormalized exactly). *)

val uniform : Ctmdp.t -> t
(** Equal probability on every admissible action (a convenient baseline). *)

val prob : t -> int -> int -> float
(** [prob p s a] — probability of action [a] in state [s]. *)

val action_probs : t -> int -> float array

val chooses : t -> int array -> bool
(** [chooses p choice]: [p] takes action [choice.(s)] with probability
    exactly 1 in every state [s] — [p] is the deterministic policy
    [choice]. *)

val is_deterministic : ?tol:float -> t -> bool

val randomized_states : ?tol:float -> t -> int list
(** States where more than one action has probability above [tol]
    (default [1e-9]) — the "switching" states of a K-switching policy. *)

val induced_ctmc : Ctmdp.t -> t -> Bufsize_prob.Ctmc.t
(** The CTMC obtained by averaging transition rates under the policy,
    built from the model's flat arrays straight into the rate matrix
    ({!Bufsize_prob.Ctmc.of_rate_matrix}). *)

val stationary : Ctmdp.t -> t -> Bufsize_numeric.Vec.t
(** Stationary distribution of {!induced_ctmc}. *)

type evaluation = {
  gain : float;  (** long-run average cost rate *)
  extras : float array;  (** long-run average of each extra resource *)
  occupation : float array array;  (** x(s,a) = pi(s) * prob(a|s) *)
  state_distribution : Bufsize_numeric.Vec.t;
}

val evaluate : Ctmdp.t -> t -> evaluation
(** Long-run averages under the policy (unichain assumed: uses the
    stationary distribution selected by the linear solve). *)

val of_occupation : Ctmdp.t -> float array array -> t
(** Recover a policy from an occupation measure [x(s,a)]: conditional
    probabilities where the state has positive mass, first action
    elsewhere (transient states — any choice is average-cost neutral). *)

val sample_action : Bufsize_prob.Rng.t -> t -> int -> int
(** Draw an action in state [s] according to the policy. *)
