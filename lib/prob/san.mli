(** Stochastic Automata Networks — compositional CTMCs whose generator
    is a {!Bufsize_numeric.Kronecker} descriptor, never materialized.

    A SAN is a set of small local automata plus two coupling
    mechanisms, following the classical Plateau descriptor (see the
    Deshmukh–Sahula SoC formulation this module reproduces):

    - {b synchronizing events}: an event fires at a base rate, moving
      every participating automaton along its routing matrix at once;
      a participant with no routing row for its current state disables
      the event.
    - {b functional rates}: a per-state multiplier on another
      automaton scales an event's rate (e.g. a shared bus serving each
      of two queues at half rate only while the other is busy).

    The compiled generator is
    [sum_a I (x) Q_a (x) I  +  sum_e rate_e ((x) R_ea - (x) D_ea)]
    with [D_ea = diag(R_ea 1)], which keeps every row sum exactly zero
    and every off-diagonal nonnegative by construction.  Stationary
    solves run the same restarted GMRES as {!Ctmc}
    ({!Bufsize_numeric.Krylov}, including [?init] warm seeding) through
    the Kronecker transposed SpMV, so joint spaces of 10^6+ states stay
    in O(n) memory: 12 work vectors plus the shuffle
    scratch. *)

type automaton = {
  name : string;
  size : int;  (** local state count, >= 1 *)
  local : (int * int * float) list;
      (** local [(from, to, rate)] transitions, rate >= 0, no self
          loops *)
}

type event = {
  label : string;
  rate : float;  (** base firing rate, >= 0 *)
  routing : (int * (int * int * float) list) list;
      (** participants: automaton index -> [(from, to, weight)] rows,
          weights >= 0.  Self loops allowed (e.g. drop-when-full). *)
  scaling : (int * float array) list;
      (** functional rates: automaton index -> per-state multiplier
          (length [size], entries >= 0).  An automaton may not appear
          in both [routing] and [scaling] of the same event. *)
}

type t
(** A validated SAN with its compiled descriptor. *)

val create : automaton list -> event list -> t
(** @raise Invalid_argument on malformed automata or events (bad
    indices, negative rates/weights, duplicate participants,
    wrong-length scaling vectors). *)

val automata : t -> automaton array
val events : t -> event list
val num_states : t -> int

val descriptor : t -> Bufsize_numeric.Kronecker.t
(** The compiled sum-of-Kronecker generator. *)

val encode : t -> int array -> int
val decode : t -> int -> int array

val uniformization_rate : t -> float
(** [2 * max_i exit_i], computed exactly from the descriptor diagonal
    — the same constant {!Ctmc} iteration uses to scale its stop rule
    and its fallback sweep. *)

val stationary_report :
  ?tol:float ->
  ?max_iter:int ->
  ?init:Bufsize_numeric.Vec.t ->
  t ->
  Bufsize_numeric.Vec.t * int * bool
(** Restarted GMRES on [Q' pi = 0] through the Kronecker transposed
    SpMV, stopping once [|pi Q|_inf <= Lambda * tol] with
    [Lambda = uniformization_rate]; a stalled restart cycle hands the
    rest of the budget to the uniformized sweep
    [pi <- pi + (Q' pi)/Lambda] (see {!Bufsize_numeric.Krylov}).
    Defaults match {!Ctmc.stationary_iterative_report} ([tol = 1e-13],
    [max_iter = 200_000] operator applications); [init] is accepted
    only when it is a valid distribution of the right size, exactly like
    the {!Ctmc} warm seed.  Returns [(pi, sweeps, converged)] where
    [sweeps] counts operator applications: GMRES steps plus fallback
    sweeps.
    @raise Invalid_argument when [tol] is not finite and positive or
    [max_iter < 1].
    Instrumented with an [Obs] span ["san.stationary"]
    (states, iterations, restarts, final residual, fallback flag), the
    [san.sweeps] counter and a [san.residual] histogram. *)

val stationary : ?tol:float -> ?max_iter:int -> ?init:Bufsize_numeric.Vec.t -> t -> Bufsize_numeric.Vec.t

val stationary_residual : t -> Bufsize_numeric.Vec.t -> float
(** [|pi Q|_inf] through the descriptor — O(n) memory. *)

val marginal : t -> automaton:int -> Bufsize_numeric.Vec.t -> Bufsize_numeric.Vec.t
(** Marginal distribution of one automaton under a joint vector. *)

val expected : t -> (int array -> float) -> Bufsize_numeric.Vec.t -> float
(** [expected t f pi = sum_s pi_s f(decode s)] — joint functionals
    (correlations the marginals cannot see); decodes with a reused
    buffer, O(n * modes). *)

val to_ctmc : t -> Ctmc.t
(** Materialize the descriptor into a validated {!Ctmc} — the
    small-instance cross-check path (O(joint nnz) memory). *)
