(** Buffer insertion at bridges and splitting into linear subsystems.

    The paper's core structural move (its Figure 2): a monolithic CTMDP of
    a bridged architecture has quadratic balance/cost terms (one coupling
    per loaded bridge direction), which generic nonlinear solvers fail on.
    Inserting a buffer at every loaded bridge direction decouples the
    buses: each bus together with its buffered clients becomes an
    independent {e linear} subsystem, and all subsystem LPs are solved
    jointly (see {!Sizing}). *)

type subsystem = {
  index : int;
  bus : Topology.bus_id;
  bus_name : string;
  service_rate : float;
  clients : (Traffic.client * float) list;
      (** clients and their aggregate arrival rates, deterministic order *)
}

type t = {
  subsystems : subsystem array;
  inserted_buffers : (Topology.bridge_id * Topology.bus_id) list;
      (** one inserted buffer per loaded bridge direction (feeding the
          given bus) — the paper's "buffers inserted" annotations *)
  coupling_points : int;
      (** number of quadratic couplings the monolithic formulation would
          have had (= number of inserted buffers) *)
}

val split : Traffic.t -> t
(** One subsystem per bus that carries any client.  Buses with no
    processors and no routed load are dropped. *)

val edge_flows : Traffic.t -> ((Topology.bridge_id * Topology.bus_id) * float) list
(** Transit rate of every loaded directed bridge edge, computed by folding
    each flow along its routed hop sequence; sorted by (bridge, bus).
    Agrees with the bridge-client rates {!split} derives from
    {!Traffic.clients_of_bus} — the [topo] verify oracle cross-checks the
    two computations. *)

val is_linear_without_split : Traffic.t -> bool
(** True iff no flow crosses a bridge, i.e. the monolithic model is
    already linear and splitting is a no-op. *)

val total_clients : t -> int

val pp : Format.formatter -> Topology.t -> t -> unit
