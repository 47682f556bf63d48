(** Linear-program model layer.

    A small modelling API on top of {!Simplex}: named variables with lower
    bounds, [<=]/[=]/[>=] rows, minimize or maximize.  The model is lowered
    to standard form (slack and surplus variables, bound shifting, free
    variables split into positive and negative parts) and the solution is
    mapped back onto the user's variables.

    This is the layer the CTMDP occupation-measure formulation is written
    against ({!Lp_formulation}). *)

type t
(** A mutable LP under construction. *)

type var = private int
(** Variable handle, valid only for the model that created it. *)

type sense = Le | Eq | Ge

type direction = Minimize | Maximize

val create : ?name:string -> direction -> t
(** Fresh empty model. *)

val name : t -> string

val direction : t -> direction

val add_var : ?name:string -> ?lb:float -> t -> var
(** New variable with lower bound [lb] (default [0.]).
    [lb = neg_infinity] declares a free variable. *)

val add_vars : ?prefix:string -> t -> int -> var array
(** [add_vars t k] adds [k] nonnegative variables at once. *)

val var_name : t -> var -> string

val num_vars : t -> int

val num_constraints : t -> int

val num_terms : t -> int
(** Total nonzero coefficients across all constraint rows. *)

val set_objective : t -> (float * var) list -> unit
(** Linear objective; later coefficients for the same variable accumulate. *)

val add_constraint : ?name:string -> t -> (float * var) list -> sense -> float -> unit
(** [add_constraint t terms sense rhs] adds [sum terms (sense) rhs].
    Duplicate variables inside [terms] accumulate. *)

val add_constraint_a : ?name:string -> t -> (float * var) array -> sense -> float -> unit
(** Array flavour of {!add_constraint} — callers that assemble rows in
    arrays (e.g. CTMDP block emitters) avoid building an intermediate
    list per row. *)

type solution = {
  objective : float;
  values : float array;  (** indexed by variable *)
  duals : float array;  (** indexed by constraint, in insertion order *)
  iterations : int;
}

type outcome =
  | Optimal of solution
  | Infeasible
  | Unbounded

val value : solution -> var -> float

val solve :
  ?eps:float ->
  ?max_iter:int ->
  ?bland_after:int ->
  ?lex:bool ->
  t ->
  outcome
(** Lower to standard form ({!to_standard}) and solve with the dense
    tableau ({!Simplex.solve}).  [bland_after] and [lex] are its
    anti-cycling knobs, used by the escalation chain in {!solve_diag}.
    @raise Simplex.Pivot_cap when the run reaches [max_iter] pivots. *)

val feasibility_residual : t -> float array -> float
(** Worst violation of the user-level constraints by [values] (indexed by
    variable): [max] over rows of the signed gap appropriate to each row's
    sense.  Zero on a feasible point; reported as the diagnostic residual
    by {!solve_diag}. *)

val relative_feasibility_residual : t -> float array -> float
(** Like {!feasibility_residual} but with each row's gap divided by the
    row's largest coefficient magnitude, so violations of badly scaled
    rows (satisfied only within the solver's absolute tolerance) remain
    visible.  {!solve_diag} demotes a claimed optimum to [Degraded] when
    this exceeds [1e-6]. *)

val outcome_finite : outcome -> bool
(** [true] unless the outcome claims optimality with a NaN/Inf objective,
    value, or dual. *)

val solve_diag :
  ?eps:float ->
  ?max_iter:int ->
  ?budget:Bufsize_resilience.Resilience.budget ->
  t ->
  outcome option * Bufsize_resilience.Resilience.diagnostic
(** Resilient {!solve}: runs the escalation chain
    [dense-tableau] (Dantzig's rule) -> [bland] (Bland's rule from pivot
    one) -> [lex-perturbation] (lexicographic-style perturbation), each
    step bounded by [budget] (default
    {!Bufsize_resilience.Resilience.current_budget}).  The first step is
    exactly {!solve}, so the clean path is reported [Ok]; any fallback demotes
    the diagnostic to [Degraded]; exhausting the chain (or the budget with
    nothing usable) yields [None, Failed].  A step is rejected — never
    surfaced — when it raises, when it reaches the [max_iter] pivot cap
    (the reason names the cap), or when it claims an optimum containing
    NaN/Inf. *)

val to_standard : t -> Simplex.standard
(** The lowered dense standard form. *)

val outcome_of_standard : t -> Simplex.result -> outcome
(** Map a result for [to_standard t] back onto [t]'s variables and rows:
    {!solve} is [outcome_of_standard t (Simplex.solve (to_standard t))],
    and a reference engine on the same standard form reports through it
    too. *)

val pp_outcome : Format.formatter -> outcome -> unit
