(** LU decomposition with partial pivoting, and the linear solves built on
    top of it.

    Used throughout the library: stationary distributions of CTMCs, the
    policy-evaluation equations of average-cost policy iteration, and Newton
    steps for the monolithic nonlinear formulation. *)

type factorization
(** Opaque PA = LU factorization of a square matrix. *)

exception Singular of int
(** Raised (with the offending elimination step) when the matrix is
    numerically singular. *)

val factorize : ?pivot_tol:float -> Mat.t -> factorization
(** [factorize m] computes PA = LU with partial pivoting.  A pivot whose
    magnitude is below [pivot_tol] (default [1e-12]) raises {!Singular}.
    @raise Invalid_argument if [m] is not square. *)

val refactorize : ?pivot_tol:float -> factorization -> Mat.t -> (unit, int) result
(** [refactorize f m] rebuilds [f] in place from [m], reusing the storage of
    an earlier same-sized factorization (the revised simplex refactorizes its
    basis hundreds of times per solve; this avoids reallocating each time).
    The result is bitwise-identical to [factorize m] — both run the same
    elimination loop.  [Error k] names the elimination step whose pivot fell
    below [pivot_tol]; after an error [f] holds a partial elimination and
    must not be used for solves until a later [refactorize] succeeds.
    @raise Invalid_argument if [m] is not square or its size differs from
    [dim f]. *)

val dim : factorization -> int
(** Order of the factorized matrix. *)

val solve_into : factorization -> idx:int array -> Vec.t -> Vec.t -> unit
(** [solve_into f ~idx b x] solves [A x = b] into the caller's [x], using
    [idx] (length at least [dim f]) as scratch.  Both triangular solves
    skip the terms whose multiplier is exactly zero and sum the rest in
    ascending index order, so every nonzero entry of [x] is bitwise equal
    to the dense substitution's; an exact zero may differ in sign.  Cost
    is proportional to the nonzeros met, not to [n^2], on sparse
    right-hand sides.
    @raise Invalid_argument on a length mismatch or if [b == x]. *)

val solve_factorized : factorization -> Vec.t -> Vec.t
(** Solves [A x = b] given the factorization of [A]; an allocating
    {!solve_into}. *)

val try_factorize :
  ?pivot_tol:float -> Mat.t -> (factorization, int) result
(** Exception-free {!factorize}: [Error k] names the elimination step whose
    pivot fell below [pivot_tol], so callers can report the defect as data
    instead of unwinding. *)

val solve : ?pivot_tol:float -> Mat.t -> Vec.t -> Vec.t
(** [solve a b] factorizes and solves in one step. *)

val try_solve :
  ?pivot_tol:float -> Mat.t -> Vec.t -> (Vec.t, int) result
(** Exception-free {!solve}; [Error k] as in {!try_factorize}. *)

val solve_transposed : factorization -> Vec.t -> Vec.t
(** [solve_transposed f b] solves [A' x = b] using the factorization of
    [A] (PA = LU gives A' = U' L' P, two triangular solves and the inverse
    permutation).  This is the BTRAN operation of the revised simplex. *)

val det : factorization -> float
(** Determinant of the factorized matrix. *)

val inverse : ?pivot_tol:float -> Mat.t -> Mat.t
(** Full inverse; prefer {!solve} when only a solve is needed. *)

val residual_norm : Mat.t -> Vec.t -> Vec.t -> float
(** [residual_norm a x b] is |Ax - b|_inf; cheap a-posteriori check. *)
