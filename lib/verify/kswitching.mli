(** K-switching structure of constrained-optimal policies.

    Feinberg's theorem (reference [1] of the paper): for a unichain CTMDP
    with K average-cost constraints, there exists an optimal stationary
    policy that randomizes between at most two actions in at most K states
    and is deterministic elsewhere — a "K-(randomized) switching policy".
    The paper uses this structure to turn LP state-action probabilities
    into buffer-space requirements.

    This module counts the randomized states of an occupation measure (or
    dense policy) — the reference LP's answers — and holds a price-path
    answer, which carries its mix explicitly, to the same count. *)

val analyze : ?tol:float -> Bufsize_mdp.Ctmdp.t -> Dense_policy.t -> int
(** [analyze m p] is the number of states where more than one action has
    probability above [tol] (default [1e-6]). *)

val of_occupation : ?tol:float -> ?mass_tol:float -> float array array -> int
(** Like {!analyze}, but working directly on the occupation measure:
    states whose total occupation mass is below [mass_tol] (default
    [1e-9]) are skipped — the conditional action probabilities of
    an (almost) never-visited state are numerical noise, not policy
    randomization. *)

val check_answer : Bufsize_mdp.Ctmdp.t -> Bufsize_mdp.Constrained.solved -> (int, string) result
(** A price-path answer block held to the reference: the dense form of
    its policy ({!Dense_policy.of_policy}), evaluated through its own
    chain ({!Dense_policy.evaluate}), must reproduce the block's gain and
    usage within 1e-9 relative, and {!of_occupation} [~mass_tol:1e-7] of
    that evaluation's occupation measure must find at most one
    randomized state.  [Ok] is that count. *)
