(** Sizing-as-a-service: a long-running Unix-domain-socket daemon.

    The server speaks newline-delimited JSON: one request object per
    line, one reply object per line, ids echoed verbatim.  Requests fan
    out to worker domains over a bounded queue; the accept/read loop
    never blocks on a solve.  The robustness envelope is first-class:

    - {b admission control} — when the queue is full the request is
      rejected immediately with a typed [overloaded] error carrying a
      retry-after hint, instead of queueing unboundedly;
    - {b deadline propagation} — a request's [deadline_ms] becomes the
      ambient {!Bufsize_resilience.Resilience} budget of its worker, so
      every solver it reaches cuts off server-side and degrades instead
      of hanging;
    - {b crash isolation} — an exception in a handler poisons only its
      own request (typed [internal_error] reply), never the accept loop;
    - {b graceful shutdown} — {!stop} drains queued and in-flight
      requests, writes their replies, closes connections and unlinks the
      socket.

    {2 Protocol}

    Request: [{"id":1,"op":"size","arch":"netproc","budget":160,
    "max_states":64,"deadline_ms":5000}].  [id] is echoed verbatim (any
    JSON value; [null] when absent); [op] selects an op; absent
    [deadline_ms] uses the server default, [deadline_ms <= 0] is an
    already-expired deadline.  Every dispatched request is also assigned
    a server-side monotone request id, which appears in telemetry
    replies, flight-recorder records and [--log-requests] lines.

    Every op takes [id], [op], [deadline_ms] and [telemetry], and each
    takes its own fields on top: [size] [arch] (a
    {!Bufsize_soc.Catalogue} name) or [spec], [budget], [max_states];
    [simulate] those and [policy], [horizon], [seed]; [kron] [kx], [ky],
    [bridge], [lambda_x], [lambda_y], [cross], [mu_x], [mu_y]; [metrics]
    [prometheus]; [ping], [stats] and [flight] none.  Any other field is
    answered [bad_request] naming it and listing the op's fields, like an
    unknown op: the request is neither queued nor counted.

    Reply: [{"id":1,"op":"size","status":"ok",...}] with [status] one of
    ["ok"], ["degraded"] (usable answer plus a ["reason"]), or ["error"]
    with an ["error"] object [{"kind":k,"message":m,"retry_after_ms":r}]
    where [kind] is ["bad_request"], ["oversized"], ["overloaded"] or
    ["internal_error"].

    {2 Introspection}

    A request with ["telemetry": true] gets a trailing ["telemetry"]
    member on its reply: the server-assigned request id, queue-wait and
    service milliseconds, the request's own span subtree (captured
    per-request — no server-side trace file, no global tracing), the
    solver diagnostics the handler attached (engine, iterations,
    residual, fallbacks), and cache hit/miss deltas.  Stripping the
    ["telemetry"] member restores the plain reply byte-for-byte —
    telemetry only observes.

    {2 The op table}

    Inline ops, answered by the IO loop even while every worker is busy:
    [ping] (liveness + op list), [stats] (queue state and per-op
    accepted/completed/failed counters, conserving accepted = completed +
    failed + in_flight) and [flight] (the flight recorder's newest
    records).  Worker ops: [size], [simulate], [kron] and [metrics] (the
    Obs registry with the per-op latency histograms, as JSON or, with
    ["prometheus": true], as Prometheus text in a ["text"] member).  That
    set is fixed here.  {!start} builds one record per op (fields,
    handler, [stats] counters, and the [serve.latency_ms.<op>] histogram,
    registered at the op's first completion) and nothing changes the
    table while the server runs, so dispatch takes no lock.

    {2 Flight recorder}

    A ring ({!Bufsize_obs.Obs.Ring}) remembers exactly the last
    [flight_cap] completed request records (id, op, outcome,
    queue/service latencies, telemetry span id, diagnostic note).  The
    ring is dumped as JSONL to [<socket>.flight.jsonl] on any
    [internal_error] reply and by {!dump_flight} (the CLI calls it on
    SIGUSR1), and is served live by the [flight] op.  A [--log-requests]
    line is the same flight record, written at completion. *)

module Json := Bufsize_json.Json

(** {1 Configuration} *)

type config = {
  socket_path : string;
  queue_depth : int;  (** waiting requests beyond which [overloaded] fires *)
  workers : int;  (** worker domains; >= 1 *)
  default_deadline_ms : float;  (** for requests without [deadline_ms]; <= 0 = unlimited *)
  max_request_bytes : int;  (** longer request lines get a typed [oversized] reply *)
  flight_cap : int;  (** flight-recorder capacity (completed requests remembered) *)
  log_requests : bool;  (** each completed request's flight record as a JSONL line on stderr *)
}

val default_config : config
(** Socket [<tmpdir>/bufsize.sock], queue 64, [min 4 (cores - 1)]
    workers (at least 1), no default deadline, 1 MiB requests, flight
    capacity 256, request log off. *)

val temp_socket_path : unit -> string
(** A fresh unique socket path in the temp directory — for in-process
    servers in tests and oracles. *)

(** {1 Handlers} *)

type error_kind = Bad_request | Oversized | Overloaded | Internal_error

type reply =
  | Reply_ok of (string * Json.t) list
  | Reply_degraded of string * (string * Json.t) list
      (** best-known answer plus the degradation reason *)
  | Reply_error of { kind : error_kind; message : string; retry_after_ms : float option }

type handler = Json.t -> reply
(** Runs on a worker domain with the request's deadline already
    installed as the ambient solve budget
    ({!Bufsize_resilience.Resilience.current_budget}); exceptions become
    [internal_error] replies (or [degraded] when the deadline expired
    mid-flight). *)

val register_op : string -> handler -> unit
(** Add a worker op that takes only the fields every op takes, replacing
    any earlier op of that name — how tests add fake ops.  It takes
    effect at the next {!start}: a running server keeps its table.
    @raise Invalid_argument for [ping], [stats] or [flight]. *)

val op_fields : string -> string list option
(** The fields op [name] takes in the next {!start}'s table, or [None]
    for an unknown op — how [bufsize request] sends only those. *)

(** {1 Server lifecycle} *)

type t

val start : ?config:config -> unit -> t
(** Bind the socket (replacing a stale file), spawn the worker domains
    and the IO domain.  The socket is connectable when [start] returns.
    [config] defaults to {!default_config}.
    @raise Invalid_argument when [workers], [queue_depth],
    [max_request_bytes] or [flight_cap] is below 1 (nothing is bound).
    @raise Unix.Unix_error when the socket cannot be bound. *)

val stop : t -> unit
(** Graceful shutdown: stop accepting, drain queued and in-flight
    requests (their replies are written), join all domains, close every
    connection and unlink the socket.  Idempotent. *)

val socket_path : t -> string

val dump_flight : t -> string
(** Write the flight recorder's current records (oldest first, one JSON
    object per line) to [socket_path ^ ".flight.jsonl"], replacing any
    previous dump, and return the path written.  Called automatically on
    every [internal_error] reply; the CLI wires it to SIGUSR1. *)

(** {1 Client} *)

val request :
  ?attempts:int ->
  ?base_delay_ms:float ->
  ?max_delay_ms:float ->
  ?seed:int ->
  socket:string ->
  Json.t ->
  (Json.t, string) result
(** One request over a fresh connection per try: connect, send, read
    exactly one reply line, close.  [attempts] (default 1) counts total
    tries: a connection failure or a typed [overloaded] reply is retried
    with jittered exponential backoff (full jitter: a uniform fraction of
    the current cap), honoring the server's [retry_after_ms] hint as a
    floor.  [base_delay_ms] defaults to 25, [max_delay_ms] to 2000;
    [seed] makes the jitter deterministic for tests.  An [overloaded]
    reply to the last try is returned as it is; [Error] on a connection
    failure on the last try, a dropped connection, or an unparsable
    reply. *)

(** {1 Shared serialization}

    The daemon's [size] reply and the CLI's [size --json] output go
    through the same serializer, so "daemon answers bitwise-identical to
    the CLI" is checkable with string equality: floats print with %.17g
    (lossless round-trip). *)

val sizing_core_json : Bufsize_soc.Traffic.t -> Bufsize_soc.Sizing.result -> Json.t
(** The deterministic core of a sizing result: allocation entries (bus /
    client / words in the allocation's canonical order), total words,
    predicted loss rate, words per level, and whether the budget bound
    was active.  Health is deliberately excluded — it carries wall-clock
    times. *)

val solver_stats_json : Bufsize_soc.Sizing.result -> Json.t
(** Whether this result was a sizing-cache hit (["cache"]: ["hit"] or
    ["miss"]) and the process-wide sizing-cache counters — the
    [solver_stats] object of [size] replies and the CLI's
    [--health-json]. *)
