(** Linear-program model layer.

    A small modelling API on top of {!Simplex}: named variables with lower
    bounds, [<=]/[=]/[>=] rows, minimize or maximize.  The model is lowered
    to standard form (slack and surplus variables, bound shifting, free
    variables split into positive and negative parts) and the solution is
    mapped back onto the user's variables.

    This is the layer the CTMDP occupation-measure formulation is written
    against ({!Bufsize_mdp.Lp_formulation}). *)

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

val constraint_matrix : t -> Sparse.t
(** The raw user-level constraint matrix (rows x vars, duplicate terms
    accumulated) as CSR — no slack columns, bound shifts or objective. *)

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

type engine = Dense | Revised

val solve :
  ?eps:float ->
  ?max_iter:int ->
  ?engine:engine ->
  ?bland_after:int ->
  ?lex:bool ->
  t ->
  outcome
(** Lower to standard form and solve.  [engine] selects the dense tableau
    ({!Simplex.solve} — battle-tested, O(m*(n+m)) memory) or the sparse
    revised simplex ({!Simplex_revised.solve_sparse} — lowered via
    {!to_standard_sparse}, never materializing a dense tableau).  When
    [engine] is omitted the model chooses: dense below ~400 rows (all
    published artifact runs stay on it, bit-for-bit), revised above.
    [bland_after] and [lex] are forwarded to the dense tableau only
    (anti-cycling knobs used by the escalation chain in {!solve_diag}). *)

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
  ?engine:engine ->
  ?budget:Bufsize_resilience.Resilience.budget ->
  t ->
  outcome option * Bufsize_resilience.Resilience.diagnostic
(** Resilient {!solve}: runs the escalation chain
    auto engine -> other engine -> Bland from pivot one -> lexicographic
    perturbation, each step bounded by [budget] (default
    {!Bufsize_resilience.Resilience.of_env}).  The first step is exactly
    {!solve}, so the clean path is bit-for-bit unchanged and reported
    [Ok]; any fallback demotes the diagnostic to [Degraded]; exhausting
    the chain (or the budget with nothing usable) yields [None, Failed].
    A step is rejected — never surfaced — when it raises or claims an
    optimum containing NaN/Inf.

    An exact-key result cache ({!Solve_cache}) keyed on {!canonical} sits
    in front of the chain: a hit returns the stored result of the
    identical unbudgeted solve, bypassing the chain entirely
    (bitwise-transparent by construction). *)

val canonical : ?tag:string -> t -> string
(** Lossless binary key of the model (direction, nonzero lower bounds,
    objective, rows; names excluded).  Floats are their raw IEEE bits and
    every section is length-prefixed, so models differing by one ulp or a
    zero's sign get distinct keys.  Equal keys imply bitwise-identical
    standard forms, hence bitwise-identical solver behaviour — the
    exact-key cache in {!solve_diag} relies on this.  [tag] folds solver
    parameters into the key. *)

val cache_stats : unit -> int * int
(** [(hits, misses)] of the {!solve_diag} result cache. *)

val to_standard : t -> Simplex.standard
(** The lowered dense standard form (exposed for tests and benchmarks). *)

val to_standard_sparse : t -> Simplex_revised.sparse_standard
(** The lowered standard form as sparse columns.  Coefficients are
    accumulated in the same order as {!to_standard}, so the two lowerings
    agree bitwise entry-for-entry. *)

val pp_outcome : Format.formatter -> outcome -> unit
