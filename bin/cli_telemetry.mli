(** The telemetry flags and exit handling shared by the [bufsize] and
    [bufsize-verify] executables. *)

type t
(** The parsed [--trace], [--metrics] and [--metrics-json] flags. *)

val term : t Cmdliner.Term.t

val setup : t -> unit
(** Install the SIGINT/SIGTERM exit handlers, enable the requested
    collection and register its exporters with [at_exit]. Call it first
    in a subcommand's body. *)

val install_exit_on_signals : unit -> unit
(** Turn SIGINT and SIGTERM into [exit], so [at_exit] exporters run. *)
