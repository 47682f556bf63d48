(** Finite continuous-time Markov chains.

    A CTMC is represented by its generator matrix [Q]: off-diagonal entries
    are nonnegative transition rates, each diagonal entry is minus its row
    sum.  The stationary distribution solves [pi Q = 0], [sum pi = 1]; it is
    the analytic backbone of policy evaluation and of the translation from
    CTMDP policies to buffer occupancy distributions.

    The generator is stored sparse (CSR) — buffer-occupancy chains have
    O(1) neighbours per state.  {!stationary} is one validated escalation
    chain: GTH elimination (subtraction-free), then dense LU, then GMRES
    up to a few hundred states; restarted GMRES
    ({!Bufsize_numeric.Krylov}) via transposed SpMV alone beyond that, so
    no O(n^2) matrix is ever allocated on the large-instance path. *)

type t
(** A validated generator. *)

val of_rates : int -> (int * int * float) list -> t
(** [of_rates n rates] builds an [n]-state generator from
    [(from, to, rate)] triples (accumulating duplicates; diagonal computed).
    @raise Invalid_argument on negative rates, self loops, or out-of-range
    states. *)

val of_rate_matrix : Bufsize_numeric.Sparse.t -> t
(** [of_rate_matrix r] is the chain whose off-diagonal rates are [r]
    (square, no diagonal entry, no negative entry): each exit rate is the
    row's sum in column order, and its negation is inserted as the
    row's diagonal entry.  {!of_rates} is [of_rate_matrix] of
    {!Bufsize_numeric.Sparse.of_triplets}.
    @raise Invalid_argument otherwise. *)

val of_generator : Bufsize_numeric.Mat.t -> t
(** Validates an explicit generator matrix: square, nonnegative
    off-diagonal, rows summing to (numerically) zero. *)

val of_sparse_generator : Bufsize_numeric.Sparse.t -> t
(** Same validation as {!of_generator}, from CSR — the scalable entry
    point (never densifies). *)

val dim : t -> int

val generator : t -> Bufsize_numeric.Mat.t
(** A dense copy of the generator matrix (small chains / tests only —
    allocates O(n^2)). *)

val sparse_generator : t -> Bufsize_numeric.Sparse.t
(** The generator as stored, diagonal included.  O(1). *)

val rate : t -> int -> int -> float
(** [rate t i j] with [i <> j] is the transition rate. *)

val exit_rate : t -> int -> float
(** Total rate out of a state ([-Q_ii]). *)

val stationary : t -> Bufsize_numeric.Vec.t
(** Stationary distribution: the answer of {!stationary_diag}, clean or
    degraded (a reducible chain yields a stationary distribution of one
    closed class, an unconverged GMRES its best iterate).
    @raise Failure with the diagnostic's reason when the chain has no
    answer (every step rejected, or the ambient budget ran out first). *)

val stationary_dense : t -> Bufsize_numeric.Vec.t
(** The direct LU solve on the dense balance equations, at any size
    (allocates O(n^2)) — the second step of {!stationary_diag} below the
    dense threshold, and a cross-check. *)

val stationary_gth :
  t ->
  (Bufsize_numeric.Vec.t, [ `Reducible_class of int list ]) result
(** Subtraction-free GTH state elimination;
    [Error (`Reducible_class states)] when the chain is not irreducible
    enough for the elimination order, naming the communicating class of
    the state whose elimination pivot vanished ({!stationary_diag} then
    falls back to {!stationary_dense}).  Allocates O(n^2) work space. *)

val communicating_class : t -> int -> int list
(** The communicating class of a state: every state it both reaches and
    is reached by along positive rates, itself included.  Sorted. *)

val stationary_iterative :
  ?tol:float ->
  ?max_iter:int ->
  ?init:Bufsize_numeric.Vec.t ->
  t ->
  Bufsize_numeric.Vec.t
(** Restarted GMRES ({!Bufsize_numeric.Krylov.stationary}) on
    [Q' pi = 0] through transposed SpMV — O(nnz) per operator
    application plus 12 work vectors, no dense
    allocation.  It stops once [|pi Q|_inf <= Lambda * tol] with
    [Lambda = 2 max_i exit_i] ([tol] defaults to [1e-13]); [max_iter]
    (default [200_000]) caps operator applications, and a stalled
    restart cycle hands the rest of that budget to the uniformized
    sweep [pi <- pi + pi Q / Lambda].  [init] seeds the solve with a
    previous stationary vector (sweep warm start: nearby chains converge
    in a fraction of the iterations, a seed already at the fixed point
    in none); it is used only when it is a valid distribution of the
    right size, so a stale or malformed seed silently falls back to the
    uniform start. *)

val stationary_iterative_report :
  ?tol:float ->
  ?max_iter:int ->
  ?init:Bufsize_numeric.Vec.t ->
  t ->
  Bufsize_numeric.Vec.t * int * bool
(** {!stationary_iterative} plus the iteration count (operator
    applications, as counted by {!Bufsize_numeric.Krylov.report}) and
    whether [tol] was reached within [max_iter] — the convergence
    evidence the resilience layer needs to distinguish Ok from Degraded.
    Runs inside an [Obs] span ["ctmc.stationary_iterative"] carrying the
    states, iterations, restarts, final residual and fallback flag. *)

val distribution_valid : Bufsize_numeric.Vec.t -> bool
(** Finite, nonnegative, and summing to 1 within [1e-6] — the acceptance
    test applied to every candidate stationary vector in
    {!stationary_diag}. *)

val stationary_residual : t -> Bufsize_numeric.Vec.t -> float
(** [|pi Q|_inf], the balance-equation residual (O(nnz)). *)

val stationary_diag :
  t -> Bufsize_numeric.Vec.t option * Bufsize_resilience.Resilience.diagnostic
(** The escalation chain behind {!stationary}, with its diagnostic: GTH
    -> dense LU -> GMRES iteration up to 512 states, GMRES alone above
    (no step allocates an n x n matrix there).  Reducible chains are
    rejected by GTH with the offending closed class in the reason string;
    an unconverged iteration is kept as a [Partial] best-known answer;
    every candidate must pass {!distribution_valid} to surface.  Runs
    under {!Bufsize_resilience.Resilience.current_budget}; each step is a
    [ctmc.stationary:<step>] span. *)

val is_irreducible : t -> bool
(** Graph check: every state reaches every other along positive rates. *)

val uniformization_rate : t -> float
(** Smallest valid uniformization constant, [max_i exit_rate + epsilon]. *)
