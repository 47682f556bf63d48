(** Two-phase primal simplex on standard-form linear programs.

    Standard form here means: minimize [c'x] subject to [A x = b], [x >= 0].
    Rows with negative right-hand side are flipped internally, so callers
    only need equality form.  Phase 1 introduces one artificial variable per
    row; phase 2 blocks artificial columns from re-entering the basis.

    Pivoting uses Dantzig's rule and falls back to Bland's rule (which is
    provably cycle-free) after [bland_after] iterations, so the solver
    terminates on degenerate problems such as CTMDP occupation-measure LPs.
    Pivot elimination skips the pivot row's zero columns, the dominant
    saving on sparse tableaus; periodic refactorizations refresh the
    tableau through sparse-aware LU solves (see DESIGN.md §3.1).

    Dual values are read off the artificial columns of the final tableau and
    exposed in {!solution}; the buffer-budget row's dual is the "price of
    buffer space" used by the Lagrangian decomposition ablation. *)

type standard = {
  nrows : int;
  ncols : int;
  a : float array;  (** row-major [nrows * ncols] constraint matrix *)
  b : float array;  (** right-hand side, length [nrows] *)
  c : float array;  (** cost vector, length [ncols] *)
}

type solution = {
  x : float array;  (** primal optimum, length [ncols] *)
  objective : float;
  duals : float array;  (** one multiplier per row (sign: y'b = objective) *)
  basis : int array;  (** basic column per row *)
  iterations : int;
}

type result =
  | Optimal of solution
  | Infeasible
  | Unbounded

val solve :
  ?eps:float ->
  ?max_iter:int ->
  ?bland_after:int ->
  ?lex:bool ->
  standard ->
  result
(** [solve std] runs two-phase simplex.  [eps] (default [1e-9]) is the
    numerical tolerance for reduced costs and pivots; [max_iter] (default
    [200_000]) bounds total pivots; [bland_after] (default [20_000]) is the
    pivot count after which Bland's rule replaces Dantzig's.  [lex]
    (default [false]) replaces the uniform anti-degeneracy right-hand-side
    perturbation with a lexicographic-style geometric one — strictly
    decreasing per-row magnitudes, so ties between degenerate rows are
    broken in a fixed row order; the escalation chain's last resort on
    cycling-prone instances.
    @raise Invalid_argument on inconsistent dimensions. *)

val solution_finite : solution -> bool
(** No NaN/Inf anywhere in the claimed solution (objective, primal point,
    duals) — the invariant the resilience layer checks before accepting. *)

val feasibility_error : standard -> float array -> float
(** [feasibility_error std x] is [|Ax - b|_inf]; a-posteriori check used by
    the test-suite. *)
