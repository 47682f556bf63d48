(** K-switching policies for CTMDPs.

    Feinberg's theorem (reference [1] of the paper): a unichain CTMDP
    with K average-cost constraints has an optimal stationary policy that
    is deterministic except in at most K states, where it mixes two
    actions.  Sizing has one shared constraint, so its answers are a
    choice vector and at most one mixed state — the policy the paper
    turns into buffer-space requirements.  Applying a policy to a CTMDP
    yields a plain CTMC. *)

type mix = {
  state : int;
  action : int;  (** played in [state] with probability [weight] *)
  weight : float;  (** in (0, 1); [choice.(state)] takes the rest *)
}

type t = { choice : int array; mix : mix option }
(** In [mix.state] the policy plays [mix.action] with probability
    [mix.weight] and [choice.(mix.state)] otherwise; everywhere else it
    plays [choice]. *)

val induced_ctmc : Ctmdp.t -> t -> Bufsize_prob.Ctmc.t
(** The CTMC obtained by averaging transition rates under the policy,
    built from the model's flat arrays straight into the rate matrix
    ({!Bufsize_prob.Ctmc.of_rate_matrix}). *)

val stationary : Ctmdp.t -> t -> Bufsize_numeric.Vec.t
(** Stationary distribution of {!induced_ctmc}. *)

val sample_action : Bufsize_prob.Rng.t -> t -> int -> int
(** [sample_action rng p s] draws the action of state [s] from one
    {!Bufsize_prob.Rng.float}, every state: in the mixed state the
    lower-numbered of its two actions takes the low end of the draw, as
    {!Bufsize_prob.Rng.discrete} maps a draw onto a probability row. *)
