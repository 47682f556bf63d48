(** Exact-key solve caching.

    A [Solve_cache.t] is a small mutex-guarded LRU map from a {e canonical
    key} (an injective encoding of everything the cached computation
    depends on) to a previously computed result.  The table is keyed by
    the key string itself ([Hashtbl.hash] reads all of it, and lookup
    compares whole keys), so two different problems can never share an
    entry.

    A key is an opaque byte string, not text.  The sizing cache's key is
    binary: every float is its IEEE bit pattern
    ([Int64.bits_of_float], 8 bytes), every int 8 little-endian bytes,
    every variant a one-byte tag, and every string and list preceded by
    its length.  Such a key is injective by construction (two keys are
    equal only when every input is bit-identical, so [-0.] and [0.], or
    two floats one ulp apart, never share an entry) and costs no number
    formatting to build.

    Because a hit requires the keys to be byte-identical, a
    cached result is exactly what recomputing would produce (all solvers
    in this library are deterministic functions of their inputs) — caching
    is therefore bitwise-transparent to every artifact.  The cache behind
    [Sizing.run] is an instance of this module.

    Caching is enabled by default; {!set_enabled} flips all caches at
    once (the warm-cold verify oracle compares both modes).

    Instances are safe to share across domains. *)

type 'a t

val create : ?capacity:int -> string -> 'a t
(** [create name] registers a cache.  [capacity] (default 64) bounds the
    number of retained entries; the least-recently-used entry is evicted
    beyond it.  [name] scopes the hit/miss telemetry counters
    ([cache.<name>.hits] / [cache.<name>.misses] in the
    {!Bufsize_obs.Obs} metrics registry). *)

val find : 'a t -> string -> 'a option
(** Lookup by canonical key; refreshes the entry's recency on a hit.
    Always [None] (and counts nothing) when caching is disabled. *)

val add : 'a t -> string -> 'a -> unit
(** Insert (or refresh) an entry, evicting the least recently used entry
    when the cache is full.  No-op when caching is disabled. *)

val clear : 'a t -> unit
(** Drop all entries (hit/miss counters are kept). *)

val hits : 'a t -> int

val misses : 'a t -> int

val length : 'a t -> int
(** Entries currently held; never exceeds the capacity. *)

val enabled : unit -> bool
(** Whether caching is globally enabled right now. *)

val set_enabled : bool -> unit
(** Set the global switch (all caches at once). *)

val clear_all : unit -> unit
(** {!clear} every cache created so far — tests and the warm-cold oracle
    use this to separate cold from warm solves in one process. *)
