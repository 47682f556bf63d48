(** Sum-of-Kronecker-products operators over CSR factors — the
    compositional backbone that lets the solver treat a product state
    space without ever materializing the joint matrix.

    An operator is [sum_k c_k (A_k1 (x) ... (x) A_kN)] where every
    factor [A_ki] is either a small {!Sparse} matrix over the [i]-th
    local state space or the implicit identity.  SAN / Kronecker-CTMC
    generators (Plateau-style descriptors) take exactly this shape: one
    term per local generator and two terms per synchronizing event.

    Matrix-vector products use the shuffle-permutation algorithm: each
    term is applied one mode at a time as [(I_l (x) A_ki (x) I_r) v],
    so a term over joint dimension [n = prod n_i] costs
    [n * sum_i nnz(A_ki)/n_i] flops instead of the [prod nnz(A_ki)] of
    the materialized product.  Identity factors are skipped outright.
    One gather kernel serves both directions: every output entry sums
    its factor row's products in storage order, and a term's
    last non-identity mode adds [c_k * sum] straight into the result.
    The transposed product gathers over each factor's transpose, stored
    by {!create}; its rows list their entries in increasing original-row
    order, so [A' x] adds the same products in the same order as a
    column scatter over [A_ki] would, bit for bit. *)

type factor =
  | Identity  (** implicit identity over that mode — never stored *)
  | Factor of Sparse.t  (** square [n_i x n_i] CSR factor *)

type term = {
  coeff : float;
  factors : factor array;  (** length [N], one per mode *)
}

type t

val create : dims:int array -> term list -> t
(** [create ~dims terms] validates that every [Factor] is square with
    the size of its mode and that the joint dimension [prod dims] fits
    in [int] without overflow, and stores each factor's transpose
    ({!Sparse.transpose}, [n_i x n_i]) for {!mul_vec_t_into}.
    @raise Invalid_argument on empty/negative dims, shape mismatches,
    non-finite coefficients, or joint-dimension overflow. *)

val dims : t -> int array
(** Copy of the per-mode sizes. *)

val num_states : t -> int
(** Joint dimension [prod dims]. *)

val terms : t -> term list
(** The terms in application order (factor arrays are shared, not
    copied — treat them as read-only). *)

val encode : t -> int array -> int
(** Mixed-radix encoding of a local-state tuple into a joint index;
    mode [0] is the most significant digit.
    @raise Invalid_argument on wrong arity or out-of-range digits. *)

val decode : t -> int -> int array
(** Inverse of {!encode}. @raise Invalid_argument if out of range. *)

val decode_into : t -> int -> int array -> unit
(** Allocation-free {!decode} into a caller-owned buffer. *)

type scratch
(** Two joint-dimension work vectors: a term's modes before its last
    ping-pong between them, and the last uses the free one for a row of
    sums.  Reuse one across repeated products to keep the hot loop
    allocation-free. *)

val scratch : t -> scratch

val mul_vec_into : ?scratch:scratch -> t -> Vec.t -> Vec.t -> unit
(** [mul_vec_into t x y] writes [A x] into [y].  [x], [y] and the
    scratch buffers must not alias. *)

val mul_vec : t -> Vec.t -> Vec.t

val mul_vec_t_into : ?scratch:scratch -> t -> Vec.t -> Vec.t -> unit
(** [mul_vec_t_into t x y] writes [A' x] into [y] with the same kernel
    as {!mul_vec_into}, run on the transposed factors {!create} stored. *)

val mul_vec_t : t -> Vec.t -> Vec.t

val diagonal : t -> Vec.t
(** The joint diagonal, exploiting [diag((x) A_i) = (x) diag(A_i)]:
    costs [O(n * terms)], no materialization.  For a generator
    descriptor this is minus the exit-rate vector, which is how the
    SAN solver picks its uniformization rate. *)

val materialize : t -> Sparse.t
(** The joint matrix as explicit CSR — cross-check path for small
    joint dimensions only; cost is [sum_k prod_i nnz(A_ki)] entries
    (identities contribute their full diagonal). *)
