(** Compressed sparse row (CSR) matrices — the numeric backbone of the
    sparse-first solve pipeline.

    CTMDP generators, induced CTMC generators, and lowered LP constraint
    matrices are all structurally sparse (a handful of arrival/service
    neighbours per buffer-occupancy state), so the hot paths carry a CSR
    triple [(row_ptr, col_idx, values)] instead of an O(n^2) dense
    {!Mat.t}.  Entries within a row are stored with strictly increasing
    column indices; duplicate triplets are accumulated at construction.

    The dense {!Mat} layer remains the cross-check and small-instance
    fallback ({!to_dense} / {!of_dense} convert losslessly). *)

type t = private {
  rows : int;
  cols : int;
  row_ptr : int array;  (** length [rows + 1]; row [i] occupies
                            [row_ptr.(i) .. row_ptr.(i+1) - 1] *)
  col_idx : int array;  (** length [nnz], strictly increasing per row *)
  values : float array;  (** length [nnz] *)
}

val of_triplets : rows:int -> cols:int -> (int * int * float) list -> t
(** [of_triplets ~rows ~cols entries] accumulates duplicate [(i, j, v)]
    entries (in list order, so float accumulation is reproducible) and
    drops entries whose accumulated value is exactly [0.]: a counting
    pass and a fill, then {!of_row_entries}.
    @raise Invalid_argument on out-of-range indices or negative dims. *)

val of_dense : Mat.t -> t
(** Structural zeros are dropped. *)

val to_dense : t -> Mat.t

val of_row_entries :
  rows:int -> cols:int -> row_ptr:int array -> col_idx:int array -> values:float array -> t
(** [of_row_entries ~rows ~cols ~row_ptr ~col_idx ~values] with row [i]'s
    entries at positions [row_ptr.(i) .. row_ptr.(i+1) - 1] of [col_idx]
    and [values], in any column order: each row is sorted stably by
    column, duplicates accumulate in their array order and entries whose
    accumulated value is exactly [0.] are dropped, in place — the caller
    hands the three arrays over.  {!of_triplets} is its counting pass and
    fill.
    @raise Invalid_argument on inconsistent lengths or an out-of-range
    column. *)

val nnz : t -> int

val get : t -> int -> int -> float
(** Binary search within the row; [0.] for structural zeros. *)

val row_nnz : t -> int -> int

val iter_row : t -> int -> (int -> float -> unit) -> unit
(** [iter_row a i f] applies [f col value] over row [i] in increasing
    column order. *)

val iter : t -> (int -> int -> float -> unit) -> unit
(** All entries, row-major. *)

val mul_vec : t -> Vec.t -> Vec.t
(** SpMV: [A x]. *)

val mul_vec_t : t -> Vec.t -> Vec.t
(** Transposed SpMV: [A' x], computed without materializing [A']. *)

val mul_vec_into : t -> Vec.t -> Vec.t -> unit
(** [mul_vec_into a x y] writes [A x] into [y] (no allocation). *)

val mul_vec_t_into : t -> Vec.t -> Vec.t -> unit
(** [mul_vec_t_into a x y] writes [A' x] into [y] (no allocation). *)

val scale : float -> t -> t
(** [scale a m] is [a * m] (fresh values array, shared structure copied). *)

val with_values : t -> float array -> t
(** [with_values a v] is [a] with its values replaced by [v] (same
    [row_ptr]/[col_idx], shared not copied) — the incremental-update
    primitive: rebuild only the numbers when the sparsity pattern is
    known unchanged.
    @raise Invalid_argument unless [Array.length v = nnz a]. *)

val index : t -> int -> int -> int option
(** [index a i j] is the position of entry [(i, j)] inside the flat
    [values] array, or [None] for a structural zero.  Binary search within
    the row, like {!get}. *)

val transpose : t -> t
(** CSR of [A']; entries stay sorted per row. *)

val row_sums : t -> float array

val approx_equal : ?tol:float -> t -> t -> bool
(** Entry-wise comparison through the dense semantics (structural zeros
    compare equal to stored zeros). *)

val pp : Format.formatter -> t -> unit
