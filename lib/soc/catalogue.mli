(** The built-in architectures by name: the one list the CLI's [--arch],
    the daemon's ["arch"] field and the bench resolve names through. *)

val names : string list
(** ["fig1"; "netproc"; "amba"; "small"], in that order. *)

val find : string -> (Topology.t * Traffic.t, string) result
(** The named architecture at its default rates, or [Error] with the
    message naming the unknown name and listing {!names}. *)

val small : unit -> Topology.t * Traffic.t
(** A fast two-bus demo: two processors on each of [west] and [east],
    joined by the bridge [br], and four flows. *)
