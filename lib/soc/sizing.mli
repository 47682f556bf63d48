(** End-to-end CTMDP buffer sizing — the paper's methodology in one call.

    Pipeline: split the architecture at bridges ({!Splitting}), build one
    CTMDP per subsystem ({!Bus_model}), solve all subsystems jointly under
    a shared time-average buffer-occupancy budget — the paper's joint LP,
    solved by one scalar price and per-subsystem policy iteration
    ({!Bufsize_mdp.Constrained.solve_price}), whose answer is a K-switching
    policy with its stationary distribution — translate those stationary
    occupancy distributions into per-client buffer requirements (occupancy
    quantile), and apportion the integer word budget ({!Buffer_alloc}).

    Model levels are an abstraction of buffer words: with total budget [W]
    words and [L] total model levels, one level stands for [g = W/L] words
    (the granularity).  The shared constraint bounds the expected
    occupied space at [occupancy_fraction * W] words. *)

type solver = Joint | Separate
(** [Joint] solves all subsystems under one shared bound (the paper's "in
    one go"; one price for all); [Separate] solves each subsystem under a
    proportionally divided share of the bound (the sequential strawman,
    kept for the ablation; one price per subsystem). *)

type sharing = Static | Damq
(** How buses marked shared ({!Topology.mark_shared} / the spec's
    [shared_buffer] stanza) are treated.  [Static] — the paper's static
    partition everywhere.  [Damq] — after the static solve, every shared
    bus is re-solved as a DAMQ shared pool of equal capacity
    ({!Bus_model.Shared}) under the occupancy the static solution
    achieved; the allocation stays the static one (its per-client words
    form the runtime pool), only [predicted_loss_rate] reflects the
    dynamic sharing.  Never worse: the static partition's admission rule
    is one of the pool's actions. *)

type config = {
  budget : int;  (** total buffer words to distribute *)
  occupancy_fraction : float;  (** kappa in (0, 1]: time-average bound *)
  quantile : float;  (** occupancy quantile for requirements, e.g. 0.95 *)
  max_states : int;  (** per-subsystem CTMDP state cap *)
  solver : solver;
  sharing : sharing;
  client_weight : Traffic.client -> float;
      (** loss-importance weight per client in the CTMDP cost — the
          paper's closing remark ("allowing some losses to be more
          important than the others") as a first-class knob; default 1.
          Weights must be positive. *)
}

val default_config : budget:int -> config
(** kappa = 0.6, quantile = 0.95, max_states = 96, Joint, Static.  Larger state
    caps buy model fidelity at steeply growing solve cost; the
    ABL-LEVELS ablation shows allocations saturating well below 100 states
    per subsystem. *)

type subsystem_solution = {
  model : Bus_model.t;
  solved : Bufsize_mdp.Constrained.solved;
      (** the subsystem's K-switching policy, gain, usage and π *)
  occupancy : float array array;
      (** stationary occupancy marginals per loaded client *)
  requirements : (Topology.bus_id * Traffic.client * float) list;
      (** real-valued word requirements per loaded client *)
}

type result = {
  config : config;
  split : Splitting.t;
  solutions : subsystem_solution array;
  allocation : Buffer_alloc.t;
  predicted_loss_rate : float;
      (** the joint optimum's gain: model-predicted total loss rate *)
  words_per_level : float;  (** the granularity g *)
  budget_bound_active : bool;
      (** false when the occupancy bound was infeasible, or the bounded
          solve gave up, and the solve fell back to the unconstrained
          optimum (the [unconstrained] fallback in [health]) *)
  bound_price : float;
      (** the occupancy bound's price in loss rate per model level: 0 when
          the bound is slack or was dropped, positive when it binds (under
          [Separate], the largest subsystem price) *)
  health : Bufsize_resilience.Resilience.health;
      (** per-subsystem solver diagnostics: one entry per constrained solve
          (the joint solve, or each subsystem under [Separate]) plus one
          per-subsystem occupancy-marginal check.  All-[Ok] on the clean
          path; any fallback taken anywhere in the pipeline appears here
          as [Degraded] with its reason — this is what the CLI's
          [--health] flag prints.  On a cache hit the solve diagnostics
          are the cached solve's, with [wall_ms] 0 and no span. *)
  cache_hit : bool;
      (** the solve was replayed from the sizing cache ({!cache_stats}) *)
}

val run :
  ?measured_rates:(Topology.bus_id -> Traffic.client -> float option) ->
  config ->
  Traffic.t ->
  result
(** Runs on the calling domain: the per-subsystem stages are
    sub-millisecond, less than a domain dispatch costs.  Each
    subsystem's occupancy marginals come from the π its answer carries
    ([stationary] of {!Bufsize_mdp.Constrained.solved}); nothing is
    solved again for them.

    [measured_rates] optionally overrides the analytically routed client
    arrival rates with profiled ones (e.g. per-buffer arrival counts from a
    simulation of the previous allocation — the paper's "better profiling"
    suggestion; see [Bufsize.profiled_sizing]).  [None] keeps the routed
    rate; overrides must be positive to keep a loaded client loaded.
    @raise Invalid_argument up front, as {!Buffer_alloc.check_budget},
    when the budget is below the number of client buffers.
    @raise Failure if some subsystem solve fails even without the
    occupancy bound (cannot happen for well-formed models). *)

type sharing_entry = {
  cmp_bus : Topology.bus_id;
  cmp_bus_name : string;
  cmp_clients : int;  (** loaded clients of the bus *)
  cmp_capacity : int;  (** pool capacity compared at, in model levels *)
  static_loss : float;  (** unconstrained optimum of the static partition *)
  damq_loss : float;  (** shared-pool optimum at equal capacity *)
  separate_loss : float;  (** decoupled per-client M/M/1/levels baseline *)
  static_delay : float;
  damq_delay : float;
  separate_delay : float;
      (** delays are mean model-levels in system over accepted throughput
          (Little's law); exact when every client weight is 1 *)
}

type sharing_report = {
  entries : sharing_entry list;
  skipped : (string * string) list;
      (** buses whose shared pool exceeded the state guard or whose solve
          failed: (bus name, reason) *)
  total_static_loss : float;
  total_damq_loss : float;
  total_separate_loss : float;
}

val compare_sharing : config -> Traffic.t -> result * sharing_report
(** {!run}, plus a per-bus comparison of the three buffer organizations —
    static partition (the paper), DAMQ shared pool of equal capacity, and
    the decoupled per-client M/M/1 baseline — over the buses marked
    shared (all buses when none is marked).  [total_damq_loss <=
    total_static_loss] always: the static partition's admission rule is
    representable in the shared-pool CTMDP.

    The comparison solves nothing that {!run} already solved.  Both
    unconstrained optima it reports are the price-0 lines of [run]'s own
    slack tests ({!Bufsize_mdp.Constrained.solve_price}): a subsystem's
    line from the joint (or separate) solve, and, under [Damq], a shared
    router's pool and its line from the bounded pool solve.  Where [run]
    answered with the line's own policy, that answer (and its occupancy)
    is reused; otherwise the line becomes an answer by
    {!Bufsize_mdp.Constrained.deterministic_solved} (one stationary
    solve, whose π gives the occupancy).  Either way it is bitwise the
    answer a fresh unconstrained solve would give.  A pool is built and
    solved here only where [run] made none — under [Static], on a router
    not marked shared, or when [run]'s slack test did not complete (the
    static block likewise). *)

val pp_sharing_report : Format.formatter -> sharing_report -> unit

val requirements_of_solution : result -> (Topology.bus_id * Traffic.client * float) list
(** All subsystems' requirements concatenated. *)

val cache_stats : unit -> int * int
(** [(hits, misses)] of the sizing-level solve cache.  {!run} memoizes its
    expensive middle — CTMDP construction, the constrained solve(s), the
    occupancy post-processing and, under [Damq], the shared
    routers' pool solves — in a process-wide exact-key
    {!Bufsize_numeric.Solve_cache} keyed on a lossless print of the
    post-profile subsystems, the routers marked shared (under [Damq]) and
    every numeric config field (with [client_weight] evaluated per
    client).  A hit replays exactly what a recompute would produce, the
    price-0 lines {!compare_sharing} reuses included; allocation and the
    occupancy health check are recomputed fresh.  Only clean solves are
    stored: every constrained solve and every pool solve [Ok].  Disable
    process-wide with {!Bufsize_numeric.Solve_cache.set_enabled}. *)

val pp_summary : Format.formatter -> result -> unit
