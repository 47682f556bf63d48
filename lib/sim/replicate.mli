(** Multi-replication simulation driver.

    Runs a simulation spec several times with independent RNG streams
    (derived seeds) and aggregates per-processor losses and totals with
    confidence intervals — the paper's "we repeated these experiments for
    10 iterations". *)

type aggregate = {
  replications : int;
  per_proc_lost : Bufsize_numeric.Stats.t array;
  per_proc_offered : Bufsize_numeric.Stats.t array;
  per_proc_latency : Bufsize_numeric.Stats.t array;
      (** per-replication mean end-to-end latency of each processor's
          delivered requests (replications with no delivery contribute
          nothing) *)
  total_lost : Bufsize_numeric.Stats.t;
  total_offered : Bufsize_numeric.Stats.t;
  loss_fraction : Bufsize_numeric.Stats.t;
  mean_sojourn : Bufsize_numeric.Stats.t;
      (** mean buffer sojourn per replication (timeout calibration) *)
}

val run : ?replications:int -> Sim_run.spec -> aggregate
(** Default 10 replications; replication [i] uses seed
    [Rng.derive_seed spec.seed i] — a splitmix-style hash of the pair, so
    nearby user seeds cannot alias each other's replication streams (the
    old additive [seed + 1000 * i] scheme collided for seeds less than
    [1000 * replications] apart).

    Replications are independent simulations.  [run] spawns
    [min replications (domains ()) - 1] domains for the call, runs
    replications on them and on the caller's domain, and joins them
    before it returns; the first exception of any replication is
    re-raised after the join.  Reports are folded into the accumulators
    in replication order on the caller's domain, so the aggregate is
    bitwise identical for every domain count.  [sim.replication] spans
    stay parented under the caller's open span. *)

val domains : unit -> int
(** The domains {!run} uses, at most one per replication:
    [BUFSIZE_NUM_DOMAINS] when set, as given, otherwise
    [Domain.recommended_domain_count ()].
    @raise Invalid_argument naming the variable when it is set to
    anything but a positive integer. *)

val mean_per_proc_lost : aggregate -> float array

val pp : Format.formatter -> aggregate -> unit
