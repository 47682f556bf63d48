(** Finite continuous-time Markov chains.

    A CTMC is represented by its generator matrix [Q]: off-diagonal entries
    are nonnegative transition rates, each diagonal entry is minus its row
    sum.  The stationary distribution solves [pi Q = 0], [sum pi = 1]; it is
    the analytic backbone of policy evaluation and of the translation from
    CTMDP policies to buffer occupancy distributions.

    The generator is stored sparse (CSR) — buffer-occupancy chains have
    O(1) neighbours per state.  Stationary solves dispatch on size: GTH
    elimination (subtraction-free, with an LU fallback for reducible
    chains) up to a few hundred states, restarted GMRES
    ({!Bufsize_numeric.Krylov}) via transposed SpMV beyond that, so no
    O(n^2) matrix is ever allocated on the large-instance path. *)

type t
(** A validated generator. *)

val of_rates : int -> (int * int * float) list -> t
(** [of_rates n rates] builds an [n]-state generator from
    [(from, to, rate)] triples (accumulating duplicates; diagonal computed).
    @raise Invalid_argument on negative rates, self loops, or out-of-range
    states. *)

val patch_rates : t -> (int * int * float) list -> t option
(** [patch_rates t rates] rebuilds the chain from new rate triples while
    reusing the existing sparsity pattern (fresh values array; shared
    [row_ptr]/[col_idx]) — the incremental path for sweeps that change
    only the numbers.  A successful patch is bitwise-identical to
    [of_rates (dim t) rates]: duplicates accumulate in list order and the
    exit rates re-sum in ascending-column order, exactly as the rebuild
    would.  Returns [None] — and the caller must rebuild — whenever the
    pattern shifts: a rate at a position [t] does not have, a previously
    present position accumulating to zero, an exit rate appearing or
    vanishing, or an invalid triple (out of range, self loop, negative). *)

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
(** Stationary distribution.  Small chains use GTH elimination (falling
    back to the LU balance-equation solve when the chain is reducible —
    the result is then a stationary distribution of one closed class as
    selected by the linear solve, and a singular LU system degrades
    further to {!stationary_iterative}); large chains use
    {!stationary_iterative}.  Use {!stationary_diag} when the caller needs
    to know which path was taken. *)

val stationary_dense : t -> Bufsize_numeric.Vec.t
(** The direct LU solve on the dense balance equations, at any size
    (allocates O(n^2)) — the historical semantics, kept as the reducible
    fallback and for cross-checks. *)

val stationary_gth :
  t ->
  (Bufsize_numeric.Vec.t, [ `Reducible_class of int list ]) result
(** Subtraction-free GTH state elimination;
    [Error (`Reducible_class states)] when the chain is not irreducible
    enough for the elimination order, naming the communicating class of
    the state whose elimination pivot vanished (callers typically fall
    back to {!stationary_dense}).  Allocates O(n^2) work space. *)

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
  ?budget:Bufsize_resilience.Resilience.budget ->
  ?init:Bufsize_numeric.Vec.t ->
  t ->
  Bufsize_numeric.Vec.t option * Bufsize_resilience.Resilience.diagnostic
(** Resilient stationary solve with an explicit escalation chain:
    GTH -> dense LU -> GMRES iteration below the dense threshold
    (preserving {!stationary}'s clean path as the [Ok] first step),
    iteration first above it.  Reducible chains are rejected by GTH with
    the offending closed class in the reason string; an unconverged
    iteration is kept as a [Partial] best-known answer; every candidate
    must pass {!distribution_valid} to surface.  [budget] defaults to
    {!Bufsize_resilience.Resilience.current_budget}. *)

val is_irreducible : t -> bool
(** Graph check: every state reaches every other along positive rates. *)

val uniformization_rate : t -> float
(** Smallest valid uniformization constant, [max_i exit_rate + epsilon]. *)

val uniformize : ?rate:float -> t -> Bufsize_numeric.Mat.t
(** Discrete-time transition matrix [P = I + Q/rate]; [rate] defaults to
    {!uniformization_rate}. *)

val transient : t -> Bufsize_numeric.Vec.t -> float -> Bufsize_numeric.Vec.t
(** [transient t pi0 horizon] is the distribution at time [horizon] from
    initial distribution [pi0], via uniformization with adaptive Poisson
    truncation. *)

val expected_value : t -> Bufsize_numeric.Vec.t -> (int -> float) -> float
(** [expected_value t pi f] is [sum_i pi_i f(i)]. *)
