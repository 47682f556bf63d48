(** Average-cost policy iteration for unichain CTMDPs.

    Works directly in continuous time: for a stationary deterministic
    policy [phi], the gain [g] and bias [h] solve

    {v  c_phi - g 1 + Q_phi h = 0,   h(s0) = 0  v}

    and the improvement step replaces [phi(s)] by the action minimizing
    [c(s,a) + sum_j q(j|s,a) h(j)].  Unconstrained only — it is the
    per-block solver of the price-directed constrained solve
    ({!Constrained.solve_price}) and an independent cross-check of the LP
    formulation (they must agree on the gain). *)

type result = {
  policy : Policy.t;
  choice : int array;  (** the deterministic action choice *)
  gain : float;
  bias : Bufsize_numeric.Vec.t;
  iterations : int;
  converged : bool;
}

val evaluate_deterministic : Ctmdp.t -> int array -> float * Bufsize_numeric.Vec.t
(** Gain and bias of a deterministic policy (bias normalized at state 0)
    by dense elimination of the (n+1)-unknown evaluation system.
    @raise Bufsize_numeric.Lu.Singular if the induced chain is not
    unichain (the evaluation system is singular). *)

val evaluate_deterministic_iterative :
  ?tol:float ->
  ?max_iter:int ->
  ?init_bias:Bufsize_numeric.Vec.t ->
  Ctmdp.t ->
  int array ->
  float * Bufsize_numeric.Vec.t
(** Same result through the sparse pipeline: stationary distribution of
    the induced chain for the gain, uniformized Poisson-equation sweeps
    for the bias.  O(nnz) per sweep, no dense allocation; used
    automatically by {!solve} above a few hundred states.  [init_bias]
    seeds the sweep with a previous policy's bias vector (re-pinned at
    [h(0) = 0]); the fixed point — and hence the result at convergence —
    is unchanged, a nearby seed only shrinks the sweep count.  Malformed
    seeds (wrong size, non-finite) are ignored. *)

val evaluate_deterministic_iterative_report :
  ?tol:float ->
  ?max_iter:int ->
  ?init_bias:Bufsize_numeric.Vec.t ->
  Ctmdp.t ->
  int array ->
  float * Bufsize_numeric.Vec.t * int * bool
(** {!evaluate_deterministic_iterative} plus the sweep count and whether
    the residual target was reached — convergence evidence for the
    resilience layer. *)

val evaluate : Ctmdp.t -> int array -> float * Bufsize_numeric.Vec.t
(** Size-dispatching policy evaluation: dense elimination below a few
    hundred states (degrading to the iterative path when the dense system
    is singular, i.e. the policy is multichain), iterative above. *)

val solve :
  ?max_iter:int -> ?tol:float -> ?strict:bool -> ?initial:int array -> Ctmdp.t -> result
(** Policy iteration from [initial] (default: first action everywhere).
    [tol] (default [1e-9]) is the improvement threshold guarding against
    cycling on ties; [max_iter] defaults to [1000].  With [strict]
    (default [false]) a multichain policy met on the way is an error:
    the singular dense evaluation raises
    [Bufsize_numeric.Lu.Singular] instead of degrading to the iterative
    evaluation. *)
