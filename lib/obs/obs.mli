(** End-to-end telemetry for the solve & simulate pipeline: hierarchical
    spans with monotonic-clock timing, a registry of named counters and
    histograms, and Chrome-trace / JSONL / console exporters.

    Everything is off by default.  The disabled fast path of {!span} and
    the metric mutators is a single atomic load and branch, and does not
    allocate.  Metrics are written once per solve, run, replication or
    request, so each is one cell: a counter one atomic, a histogram one
    record under its own mutex.  No numeric result may ever depend on
    whether telemetry is enabled: the layer only observes. *)

(* ------------------------------------------------------------ enabling *)

val spans_enabled : unit -> bool
val metrics_enabled : unit -> bool

val enable_spans : unit -> unit
(** Also resets the trace epoch so exported timestamps start near 0. *)

val enable_metrics : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Clear every recorded span and zero every metric.  Call only
    when no other domain is recording (between runs, in tests, between
    benchmark repetitions). *)

(* ------------------------------------------------------------- spans *)

val span : ?attrs:(unit -> (string * string) list) -> name:string -> (unit -> 'a) -> 'a
(** [span ~name f] runs [f ()] inside a span.  When tracing is disabled
    this is [f ()] after one atomic load — no allocation.  When enabled,
    the span records its monotonic start/duration, the enclosing span as
    parent, the current domain as track, and the minor words allocated
    while it was open.  [attrs] is evaluated once, at span close, so
    attribute values can read counters accumulated during the span.
    Exceptions close the span and propagate. *)

val span_with_id : ?attrs:(unit -> (string * string) list) -> name:string -> (int -> 'a) -> 'a
(** Like {!span} but passes the span id to the body (0 when disabled) so
    callers can cross-reference the span from other records — the
    resilience layer stores it in its diagnostics. *)

val current_context : unit -> int
(** Id of the innermost open span on this domain (or the propagated
    parent context), 0 when none or disabled.  Capture it before handing
    work to another domain and restore it there with {!with_context}. *)

val with_context : int -> (unit -> 'a) -> 'a
(** [with_context parent f] runs [f] with spans parented under [parent]
    when no local span is open — [Bufsize_sim.Replicate.run] uses it to
    parent the spans of the domains it spawns under its caller's span. *)

type span_record = {
  sid : int;
  sparent : int;  (* 0 = root *)
  sname : string;
  strack : int;  (* domain id *)
  sstart_ns : int64;  (* monotonic, absolute *)
  sdur_ns : int64;
  salloc_minor_w : float;  (* minor words allocated while open *)
  sattrs : (string * string) list;
}

val recorded_spans : unit -> span_record list
(** All completed spans across every domain, sorted by start time. *)

val dropped_spans : unit -> int
(** Spans discarded because a domain hit its buffer cap. *)

val span_high_water : unit -> int
(** Largest per-domain span-buffer occupancy seen since the last
    {!reset} — how close any domain came to the drop threshold. *)

val span_states : unit -> int
(** Span-buffer records held: one per live domain that has recorded a
    span, plus one that keeps the spans of every domain that has ended
    (under the same per-domain cap; spans past it count in
    {!dropped_spans}).  A process that forks and joins domains again and
    again holds a bounded number of records. *)

(** {1 Per-request capture}

    A capture collects the span subtree of one computation without
    touching the global span buffers and without requiring tracing to be
    enabled process-wide — the sizing daemon uses it to attach a
    request's own spans to its reply.  A capture is domain-local: it
    collects the spans that close on the domain that opened it, and no
    other domain's.  Captures nest with global tracing (spans are then
    delivered to both destinations) and with each other (innermost
    sink wins). *)

val with_capture : ?max_spans:int -> (unit -> 'a) -> 'a * span_record list * int
(** [with_capture f] runs [f] with span recording forced on and a fresh
    sink installed on the calling domain; returns [f ()]'s value, the
    spans closed under the sink (start-time order), and how many were
    discarded beyond [max_spans] (default 4096).  Spans on other
    domains are not collected (and, when global tracing is off, not
    recorded at all), even those of a domain [f] spawns. *)

(* ------------------------------------------------------------ metrics *)

type counter
type histogram

val counter : string -> counter
(** Register (or look up) a named monotonic counter.  Idempotent. *)

val histogram : string -> histogram
(** A histogram over the default decade buckets ({!bucket_bounds}). *)

val histogram_with_bounds : string -> float array -> histogram
(** A histogram with caller-chosen strictly increasing bucket upper
    bounds (one extra overflow bucket is added).  Idempotent for equal
    bounds; @raise Invalid_argument on a bounds mismatch or an empty or
    non-increasing array. *)

val incr : counter -> unit
val add : counter -> int -> unit
val observe : histogram -> float -> unit

val observe_always : histogram -> float -> unit
(** Record regardless of the global metrics switch — for subsystems
    (the serve layer's latency histograms) whose own introspection must
    work without enabling process-wide instrumentation. *)

val counter_value : counter -> int
(** Reads are always allowed, even when disabled. *)

type histogram_snapshot = {
  h_count : int;
  h_sum : float;
  h_min : float;  (* +inf when empty *)
  h_max : float;  (* -inf when empty *)
  h_bounds : float array;  (* bucket upper bounds of this histogram *)
  h_buckets : int array;  (* length = Array.length h_bounds + 1 *)
}

val histogram_value : histogram -> histogram_snapshot
(** One consistent reading: the buckets sum to the count. *)

val quantile : histogram_snapshot -> float -> float
(** [quantile s q] estimates the [q]-quantile (rank ceil(q*count)) from
    the bucket counts: the estimate always falls inside the bucket that
    contains the true order statistic, linearly interpolated by rank and
    tightened by the observed min/max.  NaN when empty. *)

val bucket_bounds : float array
(** Upper bounds of the default decade buckets (last bucket catches the
    rest). *)

val latency_ms_bounds : float array
(** A 1-2-5 log series from 0.05 ms to 10 s — the fixed log-bucket
    layout for request-latency histograms. *)

type metric_value = Counter of string * int | Histogram of string * histogram_snapshot

val metrics_snapshot : unit -> metric_value list
(** Every registered metric, in registration order, plus a synthesized
    [obs.spans.dropped] counter. *)

(* ---------------------------------------------------------- exporters *)

val write_chrome_trace : string -> unit
(** Chrome [trace_event] JSON (complete "X" events, one track per
    domain), loadable in chrome://tracing and Perfetto. *)

val write_jsonl : string -> unit
(** One JSON object per line: spans, metrics, a GC snapshot, and a
    dropped-span count. *)

val metrics_tree : ?gc:Gc.stat -> metric_value list -> Bufsize_json.Json.t
(** The metrics object of a snapshot: counters, histograms (with p50/p95/p99 and bucket layout) and a GC snapshot
    ([gc]).  The default snapshot is [Gc.quick_stat] with its word counts
    brought up to date without a collection: on OCaml 5 [quick_stat] adds
    the running domain's allocation only at a minor collection, so a run
    that never collects would read 0 words.  [heap_words] is [null] when
    the snapshot reads 0: [quick_stat] samples the heap size only at a
    collection, a live major heap is never empty, and reading it live
    ([Gc.stat]) would force a major cycle.  The JSONL [gc] line of
    {!write_jsonl} reads the same counts. *)

val metrics_json : unit -> string
(** {!metrics_tree} of {!metrics_snapshot}, encoded. *)

val metrics_prometheus : unit -> string
(** Prometheus text exposition (format 0.0.4) of every registered
    metric: counters as [name_total], histograms as cumulative [le]-buckets plus [_sum]/[_count].  Names
    are sanitized to [[a-zA-Z0-9_:]]. *)

val pp_summary : Format.formatter -> unit -> unit
(** Console summary: metric table, per-name span aggregation, and the
    span-buffer health line (dropped count, per-domain high-water). *)

(* ---------------------------------------------------- env integration *)

val trace_env_var : string  (* BUFSIZE_TRACE *)
val metrics_env_var : string  (* BUFSIZE_METRICS *)

val init_from_env : unit -> unit
(** Entry points (CLI, bench) call this once at startup:
    [BUFSIZE_TRACE=<path>] enables spans + metrics and writes the Chrome
    trace to [<path>] at exit; [BUFSIZE_METRICS=1|summary] enables
    metrics and prints the console summary to stderr at exit, while any
    other non-empty value is a path that receives the JSONL dump. *)

(* ------------------------------------------------------------- ring *)

(** A bounded ring of recent records — the storage behind the serve
    layer's flight recorder: one slot array and a push count under one
    mutex, safe to push and read from any domain. *)
module Ring : sig
  type 'a t

  val create : capacity:int -> 'a t
  (** @raise Invalid_argument when [capacity < 1]. *)

  val push : 'a t -> 'a -> unit
  (** Record [v], overwriting the oldest record when the ring is full. *)

  val pushed : 'a t -> int
  (** Total records ever pushed (not the retained count). *)

  val tail : 'a t -> 'a list
  (** Exactly the newest [min pushed capacity] records, oldest first. *)
end
