(** Seeded random model generators for differential verification.

    Every generator is a pure function of a {!Bufsize_prob.Rng.t}, so the
    same seed reproduces the same instance on every machine — the property
    the [bufsize verify] fuzz harness and the qcheck properties both rely
    on.  Size knobs keep instances small enough that the exact solvers
    (LU-based policy evaluation, dense simplex) stay authoritative.

    Generators guarantee model validity by construction:
    - architectures have a connected bus graph (spanning tree of bridges),
      at least two processors, at least one flow per processor (so every
      subsystem has a loaded client), and are rescaled so no bus exceeds
      the utilization knob;
    - CTMDPs give every action a transition along the cycle
      [s -> s + 1 mod n], so every stationary deterministic policy induces
      an irreducible chain (the unichain property policy iteration needs);
    - LPs are plain records ({!lp_case}) so oracles can shrink them
      structurally. *)

module Rng := Bufsize_prob.Rng

(** {1 SoC architectures} *)

type arch_knobs = {
  max_buses : int;  (** >= 1 *)
  max_procs_per_bus : int;  (** >= 1 *)
  max_extra_bridges : int;  (** beyond the connecting spanning tree *)
  max_flows_per_proc : int;  (** every processor emits at least one flow *)
  min_service : float;
  max_service : float;
  min_rate : float;
  max_rate : float;
  max_utilization : float;
      (** flows are rescaled so every bus keeps rho below this *)
}

val default_arch_knobs : arch_knobs

val arch :
  ?knobs:arch_knobs -> Rng.t -> Bufsize_soc.Topology.t * Bufsize_soc.Traffic.t
(** A random bridged architecture with routed traffic. *)

val arch_text : ?knobs:arch_knobs -> Rng.t -> string
(** {!arch} rendered through {!Bufsize_soc.Spec_parser.to_string} — the
    round-trippable repro form. *)

(** {1 NoC grid architectures} *)

type topo_knobs = {
  max_grid_dim : int;  (** >= 2; rows and cols use 2..[max_grid_dim] *)
  max_flows_per_ni : int;  (** every network interface emits at least one *)
  grid_min_service : float;
  grid_max_service : float;
  grid_min_rate : float;
  grid_max_rate : float;
  grid_max_utilization : float;
      (** flows are rescaled so every router keeps rho below this, transit
          load included *)
}

val default_topo_knobs : topo_knobs

val topo_arch :
  ?knobs:topo_knobs -> Rng.t -> Bufsize_soc.Topology.t * Bufsize_soc.Traffic.t
(** A random mesh or torus grid with one network-interface processor per
    cell, a random nonempty subset of routers marked shared-pool
    ({!Bufsize_soc.Topology.mark_shared}), and random inter-NI flows —
    the [topo] oracle's instance family.  Round-trips through
    {!Bufsize_soc.Spec_parser} like {!arch} does. *)

(** {1 Standalone CTMDPs} *)

type ctmdp_knobs = {
  max_states : int;  (** >= 2 *)
  max_actions : int;  (** per state, >= 1 *)
  max_fanout : int;  (** extra random transitions per action *)
  min_trans_rate : float;
  max_trans_rate : float;
  max_cost : float;
  max_extra : float;  (** resource rates are uniform in [0, max_extra] *)
}

val default_ctmdp_knobs : ctmdp_knobs

type ctmdp_case = {
  num_states : int;
  actions : (string * (int * float) list * float * float) list array;
      (** per state: (label, transitions, cost, extra-0 rate) *)
}
(** A CTMDP as plain data, so oracles can shrink it structurally and dump
    it textually. *)

val ctmdp_case : ?knobs:ctmdp_knobs -> Rng.t -> ctmdp_case

val ctmdp_of_case : ctmdp_case -> Bufsize_mdp.Ctmdp.t
(** @raise Invalid_argument if the case data violates CTMDP validity
    (cannot happen for generated or shrunk cases). *)

val ctmdp_case_to_string : ctmdp_case -> string

val ctmdp : ?knobs:ctmdp_knobs -> Rng.t -> Bufsize_mdp.Ctmdp.t
(** [ctmdp_of_case (ctmdp_case rng)]. *)

(** {1 Linear programs} *)

type lp_knobs = {
  max_vars : int;  (** >= 1 *)
  max_rows : int;  (** beyond the bounding box rows *)
  max_terms : int;  (** nonzeros per extra row *)
  free_var_freq : int;  (** one in [n] variables is free; 0 = never *)
  max_coeff : float;
}

val default_lp_knobs : lp_knobs

type lp_case = {
  maximize : bool;
  lbs : float array;  (** per-variable lower bound; [neg_infinity] = free *)
  obj : float array;
  rows : ((int * float) list * Lp.sense * float) list;
}

val lp_case : ?knobs:lp_knobs -> Rng.t -> lp_case
(** Random LP over nonnegative (occasionally free or shifted) variables.
    Every variable gets a box row, so instances are usually bounded and
    feasible, but infeasible and unbounded instances do occur — engines
    must agree on the classification either way. *)

val lp_of_case : lp_case -> Lp.t

val lp_case_to_string : lp_case -> string

(** {1 Queues and bridged pairs} *)

type mm1k_case = { lambda : float; mu : float; k : int; sim_seed : int }
(** An M/M/1/K instance plus the seed of its simulation cross-check. *)

val mm1k_case : Rng.t -> mm1k_case
(** Utilization in [0.2, 1.2] (overload allowed — loss systems are stable),
    [k] in [1, 8]. *)

val monolithic_spec : Rng.t -> Bufsize_soc.Monolithic.spec
(** A tiny bridged pair: capacities in [1, 4], utilization kept below 0.85
    on both buses, [cross_fraction] in [0, 0.25] with a point mass at 0
    (the decoupled boundary where split and monolithic models must agree
    exactly). *)

val monolithic_to_string : Bufsize_soc.Monolithic.spec -> string

(** {1 Repro parsing}

    Inverses of the [*_to_string] printers, used by
    [bufsize verify --replay] to reconstruct a case from a dumped repro.
    All parsers skip blank and ['#'] comment lines and read every number
    through {!float_token}: a non-finite one is an [Error] naming its
    line. *)

val float_token : string -> float option
(** A finite float, or [None] for [nan], [inf] and non-numbers.  An LP
    repro declares an unbounded-below variable only with a [free] line. *)

val lp_case_of_string : string -> (lp_case, string) result
val ctmdp_case_of_string : string -> (ctmdp_case, string) result
val monolithic_of_string : string -> (Bufsize_soc.Monolithic.spec, string) result

(** {1 SAN / Kronecker descriptors} *)

type san_knobs = {
  max_automata : int;  (** >= 2; instances use 2..[max_automata] *)
  max_size : int;  (** local states per automaton, >= 2 *)
  max_extra_local : int;  (** local transitions beyond the cycle *)
  max_events : int;  (** synchronizing events, possibly 0 *)
  min_rate : float;
  max_rate : float;
}

val default_san_knobs : san_knobs

type san_case = {
  automata : Bufsize_prob.San.automaton list;
  events : Bufsize_prob.San.event list;
}
(** A SAN as plain data for structural shrinking and textual dumps. *)

val san_case : ?knobs:san_knobs -> Rng.t -> san_case
(** Random SAN whose every automaton carries a local cycle
    [s -> s + 1 mod size] with positive rates, so the joint chain is
    irreducible by construction; events mix routing participants
    (possibly with self loops) and functional-rate scalings on
    non-participants.  Joint state spaces stay small enough for the
    materialized cross-check (< 100 states at default knobs). *)

val san_of_case : san_case -> Bufsize_prob.San.t
(** @raise Invalid_argument if the case data violates SAN validity
    (cannot happen for generated or shrunk cases). *)

val san_case_to_string : san_case -> string
val san_case_of_string : string -> (san_case, string) result
