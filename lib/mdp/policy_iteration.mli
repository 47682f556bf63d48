(** Average-cost policy iteration for unichain CTMDPs, at a price.

    Works directly in continuous time: for a stationary deterministic
    policy [phi] and a rate [r] (the cost, or extra 0), the gain [g] and
    bias [h] solve

    {v  r_phi - g 1 + Q_phi h = 0,   h(s0) = 0  v}

    The system is linear in [r], so a policy's evaluation is one
    {!line}: at price [p] its gain is [g_c + p g_u] and its bias
    [h_c + p h_u].  Policy iteration at weights [(w_c, w_u)] minimizes
    the gain of [w_c c + w_u u]; its improvement step replaces [phi(s)]
    by the action minimizing [w_c c(s,a) + w_u u(s,a) + sum_j q(j|s,a) h(j)]
    with [h = w_c h_c + w_u h_u].  It is the per-block solver of the
    price-directed constrained solve ({!Constrained.solve_price}) and an
    independent cross-check of the reference LP formulation (they must
    agree on the gain). *)

type line = {
  choice : int array;  (** the deterministic action choice *)
  g_c : float;  (** gain of the cost *)
  g_u : float;  (** gain of extra 0: the time-average usage (0 without extras) *)
  h_c : Bufsize_numeric.Vec.t;  (** bias of the cost, 0 at state 0 *)
  h_u : Bufsize_numeric.Vec.t;  (** bias of extra 0, 0 at state 0 *)
}
(** A deterministic policy's evaluation as an affine function of the
    price on extra 0. *)

type result = {
  line : line;  (** the line of the policy the iteration stopped at *)
  gain : float;  (** [w_c g_c + w_u g_u] at the solve's weights *)
  iterations : int;
  converged : bool;
}

type workspace
(** Storage for the dense evaluations of one model: the factorization of
    its (n+1)-unknown system, refactorized in place by each evaluation,
    and the solve vectors.  A search that evaluates many policies of one
    block (the price search of {!Constrained.solve_price}) allocates one
    workspace per block and passes it to every {!solve} and
    {!evaluate_line} of that block.  A workspace is used by one evaluation
    at a time; each returned {!line} owns its vectors. *)

val workspace : Ctmdp.t -> workspace
(** [workspace m] serves every model with [m]'s number of states.  Up to
    512 states it allocates the [(n+1)^2] factorization storage, plainly
    (no factorization is run); above, nothing. *)

val evaluate_line : ?workspace:workspace -> Ctmdp.t -> int array -> line
(** The line of a deterministic policy.  Up to 512 states: one LU
    factorization of the (n+1)-unknown evaluation system, written
    column-major into [workspace] (default: a fresh one) by
    {!Bufsize_numeric.Lu.refactorize_columns}, solved for the cost and
    for the usage.  Above: one stationary solve of the induced chain and
    the uniformized Poisson-equation sweep on each rate.
    @raise Bufsize_numeric.Lu.Singular if a dense evaluation meets a
    policy that is not unichain (the system is singular).
    @raise Invalid_argument if [workspace] was made for another number of
    states. *)

val evaluate_deterministic : Ctmdp.t -> int array -> float * Bufsize_numeric.Vec.t
(** [(g_c, h_c)] of the dense evaluation, whatever the size.
    @raise Bufsize_numeric.Lu.Singular as {!evaluate_line}. *)

val solve :
  ?max_iter:int ->
  ?tol:float ->
  ?weights:float * float ->
  ?warm:line ->
  ?workspace:workspace ->
  Ctmdp.t ->
  result
(** Policy iteration at [weights] (default [(1., 0.)], the cost alone;
    [(1., p)] is price [p], [(0., 1.)] the least usage), from [warm] — a
    line of this model, whose policy is not evaluated again, so a warm
    line that is already optimal at [weights] costs no factorization —
    or else from the first action everywhere.  [tol] (default [1e-9]) is
    the improvement threshold guarding against cycling on ties;
    [max_iter] (default [1000]) caps the evaluations.  Each dense
    evaluation refactorizes [workspace] (default: a fresh one) in place.
    The improvement sweep values each action once per state, the
    incumbent included.  Counters:
    [policy_iteration.factorizations] (dense evaluations),
    [policy_iteration.improvements] (improvement sweeps) and
    [policy_iteration.poisson_sweeps]; span: [policy_iteration.evaluate].
    @raise Bufsize_numeric.Lu.Singular as {!evaluate_line}.
    @raise Invalid_argument as {!evaluate_line}, or if [warm] has another
    length or chooses an action the model does not have. *)
