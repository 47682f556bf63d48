(** Text format for architectures and traffic.

    A small line-oriented description language so the CLI can size
    user-defined SoCs without writing OCaml:

    {v
    # comments and blank lines are ignored
    bus    core rate 20.0          # a bus with service rate (default 1.0)
    bus    io
    proc   cpu on core             # a processor homed on a bus
    proc   dma on io
    bridge br0 core io             # a bridge between two buses
    mesh   noc rows 2 cols 3 rate 4.0   # a 2x3 router mesh (cells noc_r0c0 ...)
    torus  ring rows 1 cols 4      # like mesh, plus wrap-around links
    shared_buffer noc_r0c1         # DAMQ-style shared pool on that bus
    proc   ni0 on noc_r0c0         # processors may attach to grid cells
    flow   cpu -> dma rate 1.5     # a Poisson request flow
    v}

    A [mesh]/[torus] stanza declares a whole grid of buses named
    [<grid>_r<r>c<c>] joined by nearest-neighbour bridges (named
    [<grid>_h_r<r>c<c>] / [<grid>_v_r<r>c<c>]); the deterministic naming
    is what keeps {!to_string} lossless.  [shared_buffer] marks a bus as
    using one dynamically shared buffer pool across its clients instead
    of the paper's static partition.

    Identifiers are non-empty words without whitespace; keywords are
    lowercase.  Errors are reported with their line numbers.

    The parser is exposed to untrusted input (daemon requests, user
    files), so resource use is bounded by hard caps, each producing a
    line-numbered error rather than an allocation storm: 1 MiB of input,
    4096 bytes per line, 4096 statements, 256 bytes per token, and 4096
    cells per [mesh]/[torus] grid. *)

val parse : string -> (Topology.t * Traffic.t, string) result
(** Parse a description from a string.  At least one flow is required
    (a traffic-less architecture has nothing to size). *)

val parse_file : string -> (Topology.t * Traffic.t, string) result
(** Like {!parse}, reading the given file.  I/O errors are reported in
    the [Error] case. *)

val to_string : Topology.t -> Traffic.t -> string
(** Render an architecture back into the text format ({!parse} of the
    result reconstructs an equivalent architecture). *)

val tokenize : string -> string list
(** The words of one line: maximal runs of bytes other than space and
    tab, in order (exposed for tests). *)
