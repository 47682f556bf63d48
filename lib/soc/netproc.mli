(** The network-processor testbench (the paper's experimental platform).

    The paper evaluates on "a network processor" with 17 processors but
    publishes neither its topology nor its traffic; this module provides a
    deterministic synthetic stand-in with the same scale: 17 processors on
    5 buses (two ingress port clusters, a packet-processing core, an
    accelerator cluster, an egress cluster) joined by 4 bridges, with
    heterogeneous Poisson flows driving every bus to utilization ~0.8-0.9
    so that small buffers lose requests, as in the paper's Figure 3.

    Processor ids 0..16 correspond to the paper's processors 1..17. *)

val num_processors : int
(** 17. *)

val create : ?rate_scale:float -> unit -> Topology.t * Traffic.t
(** [rate_scale] scales every flow.  The default (1.12) is calibrated so
    that the Figure 3 experiment lands in the paper's loss regime; use
    smaller values for lighter load. *)

