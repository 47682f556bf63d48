(** Sparse revised simplex — the reference engine the production LP
    solver ({!Simplex}, the dense tableau) is checked
    against.  The [simplex-cross] and [mdp-gain] oracles and the
    engine-agreement tests solve the same {!Lp.to_standard}
    output with both engines and compare.

    Same problem class and result types as the dense engine (standard
    form: minimize [c'x] s.t. [A x = b], [x >= 0]), but instead of
    carrying the full [m x (n+m)] tableau it maintains only:

    - the sparse columns of [A];
    - an LU factorization of the current basis, extended between
      refactorizations by product-form {e eta} updates (FTRAN/BTRAN);
    - the dense basic solution vector.

    Per-pivot cost drops from [O(m (n+m))] dense row operations to
    [O(m k + nnz)] (eta application plus sparse pricing).

    Shares the dense engine's anti-degeneracy strategy: perturbed
    right-hand side during pivoting, a Harris-flavoured ratio test, and an
    exact LU refinement against the true data at the end (with an
    unperturbed retry when the perturbation manufactures infeasibility).
    A run that reaches [max_iter] pivots raises
    {!Simplex.Pivot_cap}, as the dense engine does. *)

type sparse_standard = {
  snrows : int;
  sncols : int;
  scols : (int * float) array array;
      (** structural columns; [(row, value)] pairs with strictly
          increasing rows *)
  sb : float array;
  sc : float array;
}
(** Standard form held column-wise and sparse — the native input of this
    engine.  {!solve} on a dense {!Simplex.standard}
    converts to this once up front. *)

val solve_sparse :
  ?eps:float ->
  ?max_iter:int ->
  ?refactor_every:int ->
  sparse_standard ->
  Simplex.result
(** Solve from the sparse columns directly.  Identical pivot trajectory to
    {!solve} on the equivalent dense input.  Each rerun (unperturbed, or
    with a short eta file after numerical drift) counts once on the
    [simplex.retries] metric the dense engine also uses. *)

val sparse_of_standard : Simplex.standard -> sparse_standard
(** Column extraction from a dense standard form (zeros dropped). *)

val solve :
  ?eps:float ->
  ?max_iter:int ->
  ?refactor_every:int ->
  Simplex.standard ->
  Simplex.result
(** [solve std] with [eps] (default [1e-9]) the reduced-cost tolerance,
    [max_iter] (default [200_000]) the pivot bound of each run, and
    [refactor_every] (default [64]) the eta-file length triggering basis
    refactorization. *)

val solve_lp : Lp.t -> Lp.outcome
(** [solve_lp lp] solves [Lp.to_standard lp] with this engine and maps
    the answer back onto the model's variables — the reference
    counterpart of {!Lp.solve}. *)
