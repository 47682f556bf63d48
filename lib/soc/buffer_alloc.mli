(** Buffer-space allocations and the baseline sizing policies.

    An allocation assigns an integer number of buffer words (the paper's
    "units") to every client buffer of the architecture — processor
    outgoing buffers and inserted bridge buffers — summing to the total
    budget.  The paper compares the CTMDP-derived allocation against the
    "constant" (uniform) sizing and mentions the naive division "depending
    on traffic ratios"; both baselines live here, the CTMDP-derived one is
    produced by {!Sizing}. *)

type entry = {
  bus : Topology.bus_id;
  client : Traffic.client;
  words : int;
}

type t = {
  entries : entry array;  (** deterministic order: bus-major, client order *)
  total : int;
}

val make : (Topology.bus_id * Traffic.client * int) list -> t
(** @raise Invalid_argument on negative word counts or duplicate clients. *)

val lookup : t -> Topology.bus_id -> Traffic.client -> int
(** Words allocated to a client buffer; 0 when the client is absent. *)

val total : t -> int

val num_buffers : t -> int

val check_budget : Traffic.t -> budget:int -> unit
(** @raise Invalid_argument naming both numbers when [budget] is below the
    number of client buffers: every buffer needs at least one word. *)

val uniform : Traffic.t -> budget:int -> t
(** The "constant buffer sizing policy": the budget is split as evenly as
    possible over all client buffers (every buffer gets at least 1 word;
    @raise Invalid_argument as {!check_budget} if the budget cannot cover
    that). *)

val traffic_proportional : Traffic.t -> budget:int -> t
(** Split proportionally to client arrival rates (the "simple division of
    the space depending on traffic ratios" the paper contrasts with),
    with a 1-word floor per buffer; @raise Invalid_argument as
    {!check_budget}. *)

val of_requirements :
  Traffic.t -> budget:int -> (Topology.bus_id * Traffic.client * float) list -> t
(** Allocation proportional to real-valued requirements (e.g. occupancy
    quantiles from the CTMDP policy), largest-remainder rounded, 1-word
    floor per client buffer.  Clients of the traffic spec that are absent
    from the requirement list are treated as requirement 0. *)

val scale_budget : t -> budget:int -> t
(** Re-apportion an existing allocation's proportions to a new budget. *)

val pp : Topology.t -> Format.formatter -> t -> unit
