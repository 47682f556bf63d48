(** Stationary distributions of CTMC generators by restarted GMRES.

    Solves the singular consistent system [Q' pi = 0], [sum pi = 1]
    through a caller-supplied transposed product, so the same routine
    serves a CSR generator ({!Sparse.mul_vec_t_into}) and a Kronecker
    descriptor ({!Kronecker.mul_vec_t_into}) without forming anything
    beyond 12 vectors of length [n].

    Each GMRES(10) cycle (modified Gram-Schmidt, Givens
    rotations) solves for a correction [d] with [Q' d = -Q' pi]; the
    iterate [pi + d] is renormalized and its true residual is computed
    with one explicit product.  The cycle ends early once the rotated
    residual estimate (a 2-norm, so a bound on the max-norm) is at or
    below [lambda * tol].

    A cycle that cuts the true residual's 2-norm by less than 10%, or
    that produces a non-finite value, has stalled: it hands the rest of
    the budget to the uniformized sweep [pi <- pi + Q' pi / lambda]
    from the best iterate (counted on the [stationary.fallbacks]
    counter).  No spans are
    opened here: callers wrap the call in their own. *)

type report = {
  iterations : int;
      (** operator applications in Krylov steps plus fallback sweeps;
          the residual check after each cycle (at most one more
          application per 10 steps) and the initial one are not
          counted *)
  restarts : int;  (** GMRES cycles whose iterate was accepted *)
  residual : float;  (** [|Q' pi|_inf] of the last checked iterate *)
  fallback : bool;  (** the uniformized sweep took over *)
  converged : bool;  (** [residual <= lambda * tol] *)
}

val stationary :
  apply:(Vec.t -> Vec.t -> unit) ->
  lambda:float ->
  tol:float ->
  max_iter:int ->
  ?init:Vec.t ->
  int ->
  Vec.t * report
(** [stationary ~apply ~lambda ~tol ~max_iter ?init n] where
    [apply x y] writes [Q' x] into [y] ([x] and [y] never alias) and
    [lambda] is the uniformization rate.  Starts from a copy of [init]
    when it is a valid distribution of length [n] (finite, nonnegative,
    summing to 1 within 1e-6), else from uniform; returns
    before any counted application when the seed already meets the
    stop rule [|Q' pi|_inf <= lambda * tol].  The returned vector has
    its negatives clamped to 0 and is renormalized. *)

val attrs : report option -> (string * string) list
(** Span attributes for a finished solve: [iterations], [restarts],
    [residual] and [fallback]; empty before the solve returns. *)
