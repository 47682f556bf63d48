(** CTMDP model of one split subsystem (a bus and its buffered clients).

    State = vector of client buffer occupancies, discretized to a small
    number of {e model levels} per client; action = which nonempty client
    the bus serves (arbitration); transitions = Poisson arrivals per client
    and exponential service at the bus rate; cost rate = weighted loss rate
    (arrival streams of full clients); extra resource 0 = total occupied
    levels (the buffer space in use, which constrained sizing bounds in
    time average).

    The state space is the mixed-radix product of per-client levels;
    {!choose_levels} keeps it under a configurable cap by giving busier
    clients finer discretizations. *)

type client_model = {
  client : Traffic.client;
  arrival_rate : float;
  levels : int;  (** occupancy range 0..levels; [levels >= 1] for loaded clients *)
  weight : float;  (** loss-importance weight in the cost *)
}

type t

val choose_levels :
  ?base:int -> ?max_states:int -> ?max_levels:int -> (Traffic.client * float) list -> int array
(** Per-client level counts for the {e loaded} clients (rate > 0), in the
    order they appear.  Every loaded client gets at least [base] (default 1)
    levels; extra levels go greedily to the client with the highest
    arrival-rate-per-level until the product of [(levels+1)] would exceed
    [max_states] (default 256) or the client reaches [max_levels] (default
    6 — unbounded per-client level counts would skew the downstream word
    demands quadratically toward the hottest client).  Zero-rate clients
    get 0 levels.  The cap is best-effort: with many loaded clients the
    product of the mandatory single levels alone may exceed [max_states]. *)

val build :
  ?weights:(Traffic.client -> float) ->
  ?levels:int array ->
  ?max_states:int ->
  Splitting.subsystem ->
  t
(** Builds the CTMDP.  [levels] overrides {!choose_levels} (must align with
    the subsystem's client list and give 0 levels exactly to zero-rate
    clients).  [weights] default to [fun _ -> 1.].
    @raise Invalid_argument on malformed level vectors or a subsystem whose
    clients are all unloaded. *)

val subsystem : t -> Splitting.subsystem

val clients : t -> client_model array
(** All clients, including unloaded ones (with [levels = 0]). *)

val loaded_clients : t -> client_model array
(** The clients actually represented in the CTMDP state. *)

val ctmdp : t -> Bufsize_mdp.Ctmdp.t

val num_states : t -> int

val encode : t -> int array -> int
(** Mixed-radix encoding of a loaded-client occupancy vector.
    @raise Invalid_argument out of range. *)

val decode : t -> int -> int array

val occupancy_distribution : t -> Bufsize_numeric.Vec.t -> float array array
(** [occupancy_distribution m pi] gives, for each loaded client (in
    {!loaded_clients} order), the marginal distribution of its occupancy
    level under the stationary distribution [pi] of a policy — the
    quantity the paper translates into buffer space requirements.  [pi]
    is the one the policy's answer carries ([stationary] of
    {!Bufsize_mdp.Constrained.solved}); nothing is solved here. *)

val total_levels : t -> int
(** Sum of level counts over loaded clients (capacity represented by the
    model). *)

(** DAMQ-style shared-pool CTMDP of one subsystem.

    Instead of statically partitioning the bus buffer between clients,
    all clients draw from one pool of [capacity] levels; state = the
    occupancy vector [k] with [sum k <= capacity], and {e allocate on
    arrival} becomes part of the action: each action pairs the serve
    choice with an admission set (which arrival streams may claim a free
    slot right now).  Admission alternatives per state are admit-all,
    admit-all-but-one (reserve one slot against a stream), and — when
    [static_levels] is given — the static partition's rule "admit [i] iff
    [k.(i) < levels.(i)]", which makes every static-partition policy
    representable here and hence the shared optimum never worse than the
    static one at equal capacity.  Cost rate = weighted rate of rejected
    arrivals; extra resource 0 = total pool occupancy. *)
module Shared : sig
  type t

  val build :
    ?weights:(Traffic.client -> float) ->
    ?static_levels:int array ->
    ?max_states:int ->
    capacity:int ->
    Splitting.subsystem ->
    t
  (** [static_levels], when given, aligns with the subsystem's full client
      list (like {!val:build}'s [levels]).  [max_states] (default 10000)
      is a guard against runaway state spaces.
      @raise Invalid_argument on bad capacity, mismatched [static_levels],
      an all-unloaded subsystem, or a state space over the guard. *)

  val subsystem : t -> Splitting.subsystem
  val clients : t -> client_model array
  val loaded_clients : t -> client_model array
  val ctmdp : t -> Bufsize_mdp.Ctmdp.t
  val num_states : t -> int

  val capacity : t -> int

  val state : t -> int -> int array
  (** Occupancy vector (over loaded clients) of a state index. *)

  val pool_distribution : t -> Bufsize_numeric.Vec.t -> float array
  (** Distribution of the total pool occupancy [0..capacity] under the
      stationary distribution of a policy. *)

  val expected_total : t -> Bufsize_numeric.Vec.t -> float
  (** Mean of {!pool_distribution}. *)

  val pp : Format.formatter -> t -> unit
end

val pp : Format.formatter -> t -> unit
