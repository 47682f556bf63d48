(** The monolithic (unsplit) model of two bridged buses — quadratic, and
    the reproduction of the paper's negative result.

    Without an inserted bridge buffer, a cross-bus transfer holds {e both}
    buses: under the standard marginal-independence closure the stationary
    balance equations of each bus contain {e products} of the two buses'
    unknowns (one quadratic coupling per loaded bridge direction, the
    paper's "number of quadratic terms depend on how many points in the
    bus topology ... buses are connected to each other").

    The paper reports that Matlab 6.1's nonlinear solver failed on this
    system; {!attempt} reproduces the phenomenon by running damped Newton
    from a battery of generic starting points and reporting how many runs
    converge to a valid (probability-vector) solution.  {!solve_split}
    solves the same architecture after buffer insertion — two decoupled
    linear birth-death systems — which always succeeds. *)

type spec = {
  kx : int;  (** bus X queue capacity (states 0..kx) *)
  ky : int;  (** bus Y queue capacity *)
  lambda_x : float;  (** local arrival rate at bus X *)
  lambda_y : float;  (** local arrival rate at bus Y *)
  cross_fraction : float;  (** fraction of X's traffic that crosses to Y *)
  mu_x : float;
  mu_y : float;
}

val validate : spec -> unit
(** @raise Invalid_argument naming the field when a capacity is below
    1, a rate is not finite and positive, or [cross_fraction] is not in
    [0, 1] (NaN included).  Every solver here calls it first. *)

val dim : spec -> int
(** Number of unknowns: [(kx+1) + (ky+1)]. *)

val quadratic_term_count : spec -> int
(** Number of distinct quadratic monomials in the balance system. *)

val residual : spec -> Bufsize_numeric.Vec.t -> Bufsize_numeric.Vec.t
(** The nonlinear system F(x, y) = 0: birth-death balance rows for both
    buses with the quadratic coupling, plus two normalization rows. *)

type attempt_report = {
  starts : int;
  converged_valid : int;  (** converged to a probability-vector solution *)
  converged_invalid : int;  (** converged, but outside the simplex *)
  failed : int;  (** Newton did not converge (or hit a singular Jacobian) *)
  best_residual : float;
}

val attempt :
  ?starts:int -> ?seed:int -> ?max_iter:int -> ?damped:bool -> spec -> attempt_report
(** Newton from [starts] (default 20) starting points: the uniform
    distribution plus random points around the simplex.  [damped] defaults
    to [false] — the plain Newton steps of a generic solver, which is what
    the paper's Matlab 6.1 experiment exercised; pass [~damped:true] to see
    how a modern globalized iteration fares (it does noticeably better,
    which we report honestly in the bench). *)

type split_solution = {
  x_dist : Bufsize_numeric.Vec.t;  (** bus X stationary occupancy *)
  y_dist : Bufsize_numeric.Vec.t;
  bridge_dist : Bufsize_numeric.Vec.t;  (** inserted bridge buffer occupancy *)
  x_loss : float;
  y_loss : float;
  bridge_loss : float;
}

val solve_split : ?bridge_capacity:int -> spec -> split_solution
(** The linear solution after buffer insertion: bus X is an M/M/1/K with
    full service rate; the cross throughput feeds the inserted bridge
    buffer (capacity [bridge_capacity], default [ky]); bus Y serves its
    local traffic and the bridge buffer.  Every step is a birth-death or
    small CTMC stationary solve — linear algebra only. *)

val pp_attempt : Format.formatter -> attempt_report -> unit
