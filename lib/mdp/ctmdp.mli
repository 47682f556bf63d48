(** Finite continuous-time Markov decision processes.

    A CTMDP has a finite state set [0..num_states-1]; in each state the
    controller picks one of finitely many actions; an action determines
    exponential transition rates to other states, an instantaneous cost
    rate, and a vector of K extra "resource" rates (here: occupied buffer
    space) that constrained formulations bound in time average.

    This is the model class of Feinberg's constrained average-reward CTMDP
    LP (reference [1] of the paper) and everything downstream — policy
    iteration, the price-directed solver, the K-switching analysis and
    the reference LP of the verify harness — consumes values of this
    type.

    The model is stored flat, CSR-style.  Actions are numbered globally,
    state by state: state [s] owns actions [first_action.(s)] to
    [first_action.(s+1) - 1], and the [a]-th action of [s] is global action
    [first_action.(s) + a].  Action [i] owns transitions
    [first_transition.(i)] to [first_transition.(i+1) - 1] of [dst] and
    [rate], in the order {!create} received them.  Readers index the
    arrays directly; they are the model's own, not copies. *)

type t = private {
  num_states : int;
  num_extras : int;
  first_action : int array;  (** length [num_states + 1] *)
  first_transition : int array;  (** length [number of actions + 1] *)
  dst : int array;  (** target state of each transition *)
  rate : float array;  (** rate of each transition, > 0 *)
  cost : float array;  (** cost rate c(s,a) of each action *)
  extras : float array;
      (** extra k of action [i] at [i * num_extras + k]: the K resource
          rates r_k(s,a) *)
  exit : float array;  (** each action's rates summed in transition order *)
  label : string array;  (** each action's label *)
  state_label : int -> string;  (** made on demand *)
}

type builder
(** Where {!create}'s [fill] adds the actions of one state. *)

val create : ?state_label:(int -> string) -> num_extras:int -> int -> (builder -> int -> unit) -> t
(** [create ~num_extras n fill] builds and validates an [n]-state CTMDP:
    [fill b s] is called for [s = 0 .. n-1] in order and adds state [s]'s
    actions with {!add_action}, each followed by its transitions
    ({!add_transition}).  [state_label] (default [string_of_int]) names a
    state when a report asks for it.
    @raise Invalid_argument if there is no state, a state has no action, a
    transition leaves the state space, a rate is nonpositive, a self-loop
    is present, or an [extras] vector has length other than
    [num_extras]. *)

val add_action : builder -> label:string -> cost:float -> extras:float array -> unit
(** Starts the next action of the state being filled.  [extras] is
    copied. *)

val add_transition : builder -> int -> float -> unit
(** [add_transition b j r] adds a transition at rate [r] to state [j] to
    the action last started.
    @raise Invalid_argument before the state's first action. *)

val num_states : t -> int

val num_extras : t -> int

val num_actions : t -> int -> int
(** Actions admissible in a state. *)

val total_state_actions : t -> int
(** Total number of (state, action) pairs — the LP's variable count, and
    the number of global actions. *)

val extra : t -> int -> int -> float
(** [extra t i k] is extra [k] of global action [i]. *)

val usage : t -> int -> float
(** Extra 0 of global action [i]; 0 on a model without extras. *)

val action_label : t -> int -> int -> string
(** [action_label t s a] is the label of the [a]-th action of state [s]. *)

val max_exit_rate : t -> float
(** Over all state-action pairs; the uniformization constant base. *)

val cost_bounds : t -> float * float
(** Minimum and maximum cost rate over all pairs. *)

val map_costs : t -> (int -> float) -> t
(** [map_costs t f] replaces the cost of each global action [i] with
    [f i]; everything else is shared with [t]. *)

val reached_under_every_policy : t -> int -> bool
(** [reached_under_every_policy m s0] is true when state [s0] is reached
    from every state under every policy.  States join layers: [s0] is
    layer 0, and a state joins the next layer when {e every} one of its
    actions has a transition into an earlier layer; the check holds when
    every state joins.  Then each action moves toward [s0] with positive
    probability, every closed class of every policy contains [s0], and
    so every policy is unichain — the hypothesis of Feinberg's LP and of
    policy iteration.  The converse fails: a unichain model can have no
    such state.  One pass over the transitions per layer.
    @raise Invalid_argument if [s0] is not a state. *)

val pp_summary : Format.formatter -> t -> unit
