(** [Bufsize] — CTMDP buffer insertion and optimal buffer sizing for SoC
    communication architectures.

    Reproduction of Kallakuri, Doboli & Feinberg, {e Buffer Insertion for
    Bridges and Optimal Buffer Sizing for Communication Sub-System of
    Systems-on-Chip} (DATE 2005).

    This facade re-exports the underlying libraries and implements the
    paper's experimental loop: size the buffers with the CTMDP method, then
    re-simulate under (a) the constant/uniform sizing, (b) the CTMDP
    sizing, and (c) the timeout policy, and compare per-processor and total
    losses.

    {1 Quick start}

    {[
      let topo, traffic = Bufsize.Netproc.create () in
      let outcome =
        Bufsize.size_and_evaluate
          (Bufsize.experiment ~budget:160 traffic)
      in
      Format.printf "%a@." Bufsize.pp_outcome outcome
    ]} *)

(** {1 Re-exported layers} *)

module Obs = Bufsize_obs.Obs
(** Hierarchical spans, the metrics registry, and the Chrome-trace /
    JSONL exporters ([BUFSIZE_TRACE], [BUFSIZE_METRICS]).  Telemetry is
    observational only: results are bitwise identical with tracing on or
    off. *)

module Resilience = Bufsize_resilience.Resilience
(** Structured solver diagnostics, escalation chains and wall-clock
    budgets (the daemon's per-request deadlines) shared by every
    numeric entry point; {!Sizing.result.health} aggregates them per subsystem. *)

module Json = Bufsize_json.Json
(** Strict JSON parser/encoder shared by the daemon protocol, the
    telemetry exporters' self-checks, and [size --json]. *)

module Serve = Bufsize_serve.Serve
(** The sizing daemon ([bufsize serve] / [bufsize request]): a
    Unix-domain-socket NDJSON server with admission control, per-request
    deadlines, crash isolation, and graceful shutdown. *)

module Numeric = Bufsize_numeric
module Prob = Bufsize_prob
module Mdp = Bufsize_mdp

module Topology = Bufsize_soc.Topology
module Traffic = Bufsize_soc.Traffic
module Splitting = Bufsize_soc.Splitting
module Bus_model = Bufsize_soc.Bus_model
module Buffer_alloc = Bufsize_soc.Buffer_alloc
module Sizing = Bufsize_soc.Sizing
module Monolithic = Bufsize_soc.Monolithic

module San_bridge = Bufsize_soc.San_bridge
(** Exact monolithic (un-split) solve of the bridged two-bus model as a
    stochastic automata network: the joint generator stays in
    sum-of-Kronecker form ({!Numeric.Kronecker}), so the state space
    scales multiplicatively while memory stays additive. *)

module Dot = Bufsize_soc.Dot
module Spec_parser = Bufsize_soc.Spec_parser
module Fig1 = Bufsize_soc.Fig1
module Netproc = Bufsize_soc.Netproc
module Amba = Bufsize_soc.Amba

module Catalogue = Bufsize_soc.Catalogue
(** The built-in architectures by name ([--arch], the daemon's ["arch"]). *)

module Arbiter = Bufsize_sim.Arbiter
module Metrics = Bufsize_sim.Metrics
module Sim_run = Bufsize_sim.Sim_run
module Replicate = Bufsize_sim.Replicate

(** {1 The paper's experiment} *)

type experiment = {
  traffic : Traffic.t;
  sizing_config : Sizing.config;
  arbiter : Arbiter.t;  (** arbitration used in every simulated variant *)
  horizon : float;
  warmup : float;
  replications : int;
  seed : int;
  timeout_factor : float;
      (** timeout threshold = factor x per-buffer average sojourn; the
          paper's threshold rule ("the average time spent by a request in
          a buffer") underdetermines the drop rate — at factor 1 a large
          fraction of every exponential-tailed wait exceeds its own mean *)
}

val experiment :
  ?horizon:float ->
  ?warmup:float ->
  ?replications:int ->
  ?seed:int ->
  ?arbiter:Arbiter.t ->
  ?timeout_factor:float ->
  ?config:Sizing.config ->
  budget:int ->
  Traffic.t ->
  experiment
(** Defaults: horizon 2000, warmup 100, 10 replications (the paper's
    count), seed 1, longest-queue arbitration, timeout factor 3,
    [Sizing.default_config]. *)

type variant = {
  label : string;
  allocation : Buffer_alloc.t;
  timeout : Sim_run.timeout_policy option;
  aggregate : Replicate.aggregate;
}

type outcome = {
  exp_config : experiment;
  sizing : Sizing.result;
  before : variant;  (** uniform ("constant") sizing *)
  after : variant;  (** CTMDP-derived sizing *)
  timeout_variant : variant;
      (** uniform sizing with the timeout drop policy; each buffer's
          threshold is its own average request sojourn measured on a
          baseline calibration run (the paper's "average time spent by a
          request in a buffer") *)
  improvement_vs_before : float;
      (** relative reduction of mean total loss, after vs before *)
  improvement_vs_timeout : float;
}

val size_and_evaluate : experiment -> outcome
(** Runs the full loop: uniform baseline replications, CTMDP sizing, post
    sizing replications, timeout-policy replications.  Sizing runs on the
    calling domain; each set of replications runs on up to
    {!Replicate.domains} domains that {!Replicate.run} spawns and joins,
    and the outcome is bitwise identical for every domain count. *)

val profiled_sizing :
  ?rounds:int -> experiment -> Sizing.result * float list
(** Profile-driven re-sizing — the paper's suggestion that results "could
    be improved with better profiling".  Round 0 sizes with the
    analytically routed rates; each further round simulates the previous
    allocation once, measures every buffer's actual arrival rate (which
    includes upstream loss thinning), and re-sizes with those profiled
    rates.  Returns the final sizing and the simulated total loss of each
    round's allocation (so convergence is observable).  [rounds] defaults
    to 3. *)

val stochastic_arbiter : Sizing.result -> Arbiter.t
(** The K-switching CTMDP policy as a simulator arbitration policy: per
    bus, queue lengths are discretized to the model's levels and an action
    is sampled from the optimal (possibly randomized) policy.  Buses
    without a model fall back to longest-queue. *)

val per_proc_mean_losses : variant -> float array

val pp_outcome : Format.formatter -> outcome -> unit
(** Paper-style summary: per-processor losses for the three variants plus
    aggregate improvements. *)
