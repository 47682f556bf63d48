(** Finite continuous-time Markov decision processes.

    A CTMDP has a finite state set [0..num_states-1]; in each state the
    controller picks one of finitely many actions; an action determines
    exponential transition rates to other states, an instantaneous cost
    rate, and a vector of K extra "resource" rates (here: occupied buffer
    space) that constrained formulations bound in time average.

    This is the model class of Feinberg's constrained average-reward CTMDP
    LP (reference [1] of the paper) and everything downstream — the LP
    formulation, policy iteration, and the K-switching analysis — consumes
    values of this type. *)

type action = {
  label : string;
  transitions : (int * float) list;  (** (target state, rate), rate > 0 *)
  cost : float;  (** instantaneous cost rate c(s,a) *)
  extras : float array;  (** K extra resource rates r_k(s,a) *)
}

type t

val create :
  ?state_labels:string array ->
  num_extras:int ->
  action array array ->
  t
(** [create ~num_extras actions] builds and validates a CTMDP where
    [actions.(s)] lists the admissible actions of state [s].
    @raise Invalid_argument if a state has no action, a transition leaves
    the state space, a rate is nonpositive, a self-loop is present, or an
    [extras] vector has length other than [num_extras]. *)

val num_states : t -> int

val num_extras : t -> int

val num_actions : t -> int -> int
(** Actions admissible in a state. *)

val action : t -> int -> int -> action
(** [action t s a] is the [a]-th action of state [s]. *)

val actions : t -> int -> action array

val exit_rates : t -> int -> float array
(** [exit_rates t s] holds {!exit_rate} of each action of state [s],
    computed once by {!create}; the array is [t]'s own, not a copy. *)

val state_label : t -> int -> string

val total_state_actions : t -> int
(** Total number of (state, action) pairs — the LP's variable count. *)

val exit_rate : action -> float
(** Sum of the action's transition rates. *)

val max_exit_rate : t -> float
(** Over all state-action pairs; the uniformization constant base. *)

val cost_bounds : t -> float * float
(** Minimum and maximum cost rate over all pairs. *)

val map_costs : t -> (int -> int -> action -> float) -> t
(** [map_costs t f] replaces each cost with [f s a action]. *)

val is_unichain_heuristic : t -> bool
(** True when the union graph over all actions is strongly connected —
    a sufficient (not necessary) condition for the unichain property that
    policy iteration needs. *)

val pp_summary : Format.formatter -> t -> unit
