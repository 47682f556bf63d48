(** Fixed-size domain work pool for coarse-grained data parallelism.

    Simulation replications share no state, and each runs for seconds.
    (The per-subsystem sizing stages are independent too, but each is
    sub-millisecond — less than a dispatch costs — so sizing runs on its
    caller's domain.)  This pool runs such independent array jobs across
    OCaml 5 domains while keeping results bitwise-deterministic: item [i]'s
    result always lands in slot [i], and the work function receives exactly
    the same inputs regardless of how many domains execute.

    Design notes:
    - A pool of size [k] uses [k - 1] persistent worker domains plus the
      calling domain; workers sleep on a condition variable between jobs,
      so a pool is cheap to keep around and reuse.
    - A pool of size 1 spawns no domains and [map_array] degenerates to
      [Array.map] — the reproducible sequential baseline.
    - Jobs are claimed from a shared atomic counter (work stealing by
      index), so uneven item costs balance automatically.
    - Nested or concurrent [map_array] calls on a busy pool fall back to
      sequential execution on the caller's domain instead of deadlocking.
    - The first exception raised by any item is re-raised on the caller's
      domain after all in-flight items finish; remaining unstarted items
      are skipped. *)

type t

val create : ?oversubscribe:bool -> int -> t
(** [create k] builds a pool of [k] domains total ([k - 1] spawned
    workers).  [k] is capped at [Domain.recommended_domain_count ()] —
    more domains than cores is pure overhead under the stop-the-world
    minor GC (the recorded 4-domain slowdown) — unless
    [oversubscribe:true] lifts the cap (tests exercising real
    multi-domain execution need this on small machines).  @raise Invalid_argument if [k < 1]. *)

val size : t -> int
(** Total domains the pool uses, including the caller's. *)

val shutdown : t -> unit
(** Join the worker domains.  The pool must be idle; after shutdown,
    [map_array] on it runs sequentially.  Idempotent. *)

val default_size : unit -> int
(** The [BUFSIZE_NUM_DOMAINS] environment override when set (must be a
    positive integer), otherwise [Domain.recommended_domain_count ()]. *)

val default : unit -> t
(** The lazily created process-wide pool of [default_size ()] domains.
    {!Bufsize_sim.Replicate.run} uses it when no explicit pool is
    given. *)

val map_array : ?pool:t -> ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array f a] is [Array.map f a] with the items evaluated on the
    pool's domains (the [default] pool when none is supplied).  Result
    ordering is that of the input array regardless of execution order.
    [f] must be safe to run concurrently with itself on distinct items.

    [chunk] sets how many consecutive items a domain claims per steal.
    Default: [max 1 (n / (8 * size pool))] — about eight steals per
    domain, coarse enough that the shared claim counter stops being a
    contention point on fine-grained items, fine enough that uneven item
    costs still balance.  Chunking never changes results: item [i]'s output lands in
    slot [i] regardless of block boundaries. *)

val mapi_array : ?pool:t -> ?chunk:int -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** Indexed variant of {!map_array}. *)
