(** The un-split bridged-bus model as a Stochastic Automata Network —
    the scale path past {!Monolithic}'s materialized joint CTMC.

    Three automata — producer bus X (queue [0..kx]), the inserted
    bridge buffer ([0..bridge_capacity]), and consumer bus Y's local
    queue ([0..ky]) — are coupled by one synchronizing event (a
    cross-bus transfer departs X and lands in the bridge, dropped when
    the bridge is full) and two functionally-rated service events (bus
    Y drains its local queue and the bridge with processor sharing:
    each side gets [mu_y/2] while the other is busy, [mu_y] alone).
    The joint generator is a Kronecker descriptor, so solving at
    [10^6+] joint states needs only O(n) vectors — the generator is
    never materialized.

    Marginally, X is exactly the M/M/1/K of the split solution; the
    split's remaining error is its Poisson-at-average-rate closure of
    the cross stream, and {!compare_split} measures that gap. *)

type solution = {
  spec : Monolithic.spec;
  bridge_capacity : int;
  states : int;  (** joint state count *)
  sweeps : int;
      (** operator applications of the stationary solve: GMRES steps
          plus any uniformized fallback sweeps *)
  converged : bool;
  residual : float;  (** [|pi Q|_inf] of the returned vector *)
  x_dist : Bufsize_numeric.Vec.t;  (** exact joint marginals *)
  bridge_dist : Bufsize_numeric.Vec.t;
  y_dist : Bufsize_numeric.Vec.t;
  x_loss : float;
  bridge_loss : float;  (** [f mu_x P(X busy, bridge full)] — a joint
                            probability the split cannot express *)
  y_loss : float;
  x_delay : float;  (** mean sojourn times via Little's law *)
  bridge_delay : float;
  y_delay : float;
}

val model : ?bridge_capacity:int -> Monolithic.spec -> Bufsize_prob.San.t
(** The SAN; [bridge_capacity] defaults to [ky] like
    {!Monolithic.solve_split}.
    @raise Invalid_argument on a spec {!Monolithic.validate} rejects or
    a negative bridge capacity. *)

val split_seed : ?bridge_capacity:int -> Monolithic.spec -> Bufsize_numeric.Vec.t
(** Product of the split solution's marginals — the warm start that
    hands the joint iteration a distribution already correct up to the
    cross-stream correlation. *)

val solve :
  ?tol:float ->
  ?max_sweeps:int ->
  ?warm_start:bool ->
  ?bridge_capacity:int ->
  Monolithic.spec ->
  solution
(** Stationary solve of the joint model through the Kronecker SpMV.
    [warm_start] (default [true]) seeds from {!split_seed}; [tol] and
    [max_sweeps] default to the {!Bufsize_prob.San} iteration
    defaults. *)

type gap_report = {
  joint : solution;
  split : Monolithic.split_solution;
  split_bridge_delay : float;
  split_y_delay : float;
  x_loss_gap_pct : float;  (** 100 (split - joint) / joint *)
  bridge_loss_gap_pct : float;
  y_loss_gap_pct : float;
  bridge_delay_gap_pct : float;
  y_delay_gap_pct : float;
}

val compare_split :
  ?tol:float ->
  ?max_sweeps:int ->
  ?warm_start:bool ->
  ?bridge_capacity:int ->
  Monolithic.spec ->
  gap_report
(** Solve both ways and report the split approximation's loss/delay
    error against the exact joint solution.  The split is solved once:
    the warm start is built from the answer the report carries. *)

val pp_solution : Format.formatter -> solution -> unit
val pp_gap : Format.formatter -> gap_report -> unit
