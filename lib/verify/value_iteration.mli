(** Discounted-cost value iteration via uniformization.

    An extension beyond the paper's average-cost setting: the CTMDP with
    continuous discount rate [alpha] is reduced to an equivalent discrete
    MDP by uniformization with constant [big_lambda]: discount factor
    [beta = big_lambda / (alpha + big_lambda)] and per-step cost
    [c / (alpha + big_lambda)].  Standard value iteration follows, with a
    span-seminorm stopping rule.  No sizing path runs it: it is the
    [mdp-gain] verify oracle's independent check (the greedy policy of a
    small-discount solve is average optimal up to O(alpha)). *)

type result = {
  values : Bufsize_numeric.Vec.t;  (** discounted value per state *)
  choice : int array;  (** greedy action per state *)
  iterations : int;
  converged : bool;
  span : float;  (** final span of the value update *)
}

val solve :
  ?max_iter:int -> ?tol:float -> alpha:float -> Bufsize_mdp.Ctmdp.t -> result
(** [solve ~alpha m] with discount rate [alpha > 0].  [tol] (default
    [1e-9]) is the span target; [max_iter] defaults to [100_000].
    @raise Invalid_argument if [alpha <= 0]. *)
