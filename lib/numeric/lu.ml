type factorization = {
  lu : Mat.t;  (* L below diagonal (unit diag implied), U on/above *)
  perm : int array;  (* row permutation applied to the input *)
  mutable sign : float;  (* parity of the permutation, for det *)
}

exception Singular of int

(* In-place Doolittle elimination with partial pivoting over [lu]/[perm];
   returns the permutation sign.  Both [factorize] and [refactorize] run
   exactly this loop, so a factorization rebuilt into reused storage is
   bitwise-identical to a fresh one.  No closures: it runs on every simplex
   refactorization. *)
let eliminate ~pivot_tol lu perm =
  let n = lu.Mat.rows and a = lu.Mat.data in
  let sign = ref 1. in
  for k = 0 to n - 1 do
    let kbase = k * n in
    (* partial pivoting: pick the largest |entry| in column k at/below row k *)
    let pivot_row = ref k in
    let best = ref (Float.abs (Array.unsafe_get a (kbase + k))) in
    for i = k + 1 to n - 1 do
      let v = Float.abs (Array.unsafe_get a ((i * n) + k)) in
      if v > !best then begin
        pivot_row := i;
        best := v
      end
    done;
    if !pivot_row <> k then begin
      Mat.swap_rows lu k !pivot_row;
      let tmp = perm.(k) in
      perm.(k) <- perm.(!pivot_row);
      perm.(!pivot_row) <- tmp;
      sign := -. !sign
    end;
    let pivot = Array.unsafe_get a (kbase + k) in
    if Float.abs pivot < pivot_tol then raise (Singular k);
    for i = k + 1 to n - 1 do
      let ibase = i * n in
      let factor = Array.unsafe_get a (ibase + k) /. pivot in
      Array.unsafe_set a (ibase + k) factor;
      if factor <> 0. then
        for j = k + 1 to n - 1 do
          Array.unsafe_set a (ibase + j)
            (Array.unsafe_get a (ibase + j) -. (factor *. Array.unsafe_get a (kbase + j)))
        done
    done
  done;
  !sign

let factorize ?(pivot_tol = 1e-12) m =
  if m.Mat.rows <> m.Mat.cols then invalid_arg "Lu.factorize: matrix not square";
  let n = m.Mat.rows in
  let lu = Mat.copy m in
  let perm = Array.init n (fun i -> i) in
  let sign = eliminate ~pivot_tol lu perm in
  { lu; perm; sign }

let dim f = f.lu.Mat.rows

(* Re-run the elimination into [f]'s existing storage for a new same-sized
   matrix: the warm-start path refactorizes hundreds of simplex bases per
   solve and reuses one allocation for all of them.  On a singular pivot
   the storage holds a partial elimination and [Error k] tells the caller
   to fall back; the factorization must not be used for solves until a
   subsequent refactorization succeeds. *)
let refactorize ?(pivot_tol = 1e-12) f m =
  if m.Mat.rows <> m.Mat.cols then invalid_arg "Lu.refactorize: matrix not square";
  let n = dim f in
  if m.Mat.rows <> n then invalid_arg "Lu.refactorize: dimension mismatch";
  Array.blit m.Mat.data 0 f.lu.Mat.data 0 (n * n);
  for i = 0 to n - 1 do
    f.perm.(i) <- i
  done;
  match eliminate ~pivot_tol f.lu f.perm with
  | sign ->
      f.sign <- sign;
      Stdlib.Ok ()
  | exception Singular k -> Stdlib.Error k

(* The triangular solves are the hot loop of the simplex refactorization
   (one right-hand side per tableau column), hence the unsafe flat-array
   accesses.  Both substitutions sum only over the entries already found
   to be nonzero, whose indices [idx] collects as they appear: a term whose
   multiplier is exactly zero contributes nothing, and the tableau columns
   are sparse.  The kept terms are summed in the same ascending order as
   the dense loops, so every nonzero result is bitwise the dense one; only
   the sign of an exact zero may differ. *)
let solve_into { lu; perm; _ } ~idx b x =
  let n = lu.Mat.rows in
  if Array.length b <> n || Array.length x <> n || Array.length idx < n || (n > 0 && b == x) then
    invalid_arg "Lu.solve_into: dimension mismatch or b == x";
  let data = lu.Mat.data in
  (* forward substitution: L y = P b, y held in x; idx ascending *)
  let nnz = ref 0 in
  for i = 0 to n - 1 do
    let base = i * n in
    let acc = ref (Array.unsafe_get b (Array.unsafe_get perm i)) in
    for k = 0 to !nnz - 1 do
      let j = Array.unsafe_get idx k in
      acc := !acc -. (Array.unsafe_get data (base + j) *. Array.unsafe_get x j)
    done;
    Array.unsafe_set x i !acc;
    if !acc <> 0. then begin
      Array.unsafe_set idx !nnz i;
      incr nnz
    end
  done;
  (* back substitution: U x = y; idx descending, so read it backwards *)
  nnz := 0;
  for i = n - 1 downto 0 do
    let base = i * n in
    let acc = ref (Array.unsafe_get x i) in
    for k = !nnz - 1 downto 0 do
      let j = Array.unsafe_get idx k in
      acc := !acc -. (Array.unsafe_get data (base + j) *. Array.unsafe_get x j)
    done;
    let v = !acc /. Array.unsafe_get data (base + i) in
    Array.unsafe_set x i v;
    if v <> 0. then begin
      Array.unsafe_set idx !nnz i;
      incr nnz
    end
  done

let solve_factorized f b =
  let n = dim f in
  if Array.length b <> n then invalid_arg "Lu.solve_factorized: dimension mismatch";
  let x = Array.make n 0. in
  solve_into f ~idx:(Array.make n 0) b x;
  x

(* Exception-free entry point: [Error k] names the elimination column whose
   pivot vanished, so callers can report the defect instead of unwinding. *)
let try_factorize ?pivot_tol m =
  match factorize ?pivot_tol m with
  | f -> Stdlib.Ok f
  | exception Singular k -> Stdlib.Error k

let solve ?pivot_tol a b = solve_factorized (factorize ?pivot_tol a) b

let try_solve ?pivot_tol a b =
  Result.map (fun f -> solve_factorized f b) (try_factorize ?pivot_tol a)

(* A' x = b with PA = LU: solve U' z = b (forward, diagonal from U), then
   L' w = z (backward, unit diagonal), then undo the permutation. *)
let solve_transposed { lu; perm; _ } b =
  let n = lu.Mat.rows in
  if Array.length b <> n then invalid_arg "Lu.solve_transposed: dimension mismatch";
  let data = lu.Mat.data in
  let z = Array.copy b in
  for i = 0 to n - 1 do
    let acc = ref (Array.unsafe_get z i) in
    for j = 0 to i - 1 do
      acc := !acc -. (Array.unsafe_get data ((j * n) + i) *. Array.unsafe_get z j)
    done;
    Array.unsafe_set z i (!acc /. Array.unsafe_get data ((i * n) + i))
  done;
  for i = n - 1 downto 0 do
    let acc = ref (Array.unsafe_get z i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (Array.unsafe_get data ((j * n) + i) *. Array.unsafe_get z j)
    done;
    Array.unsafe_set z i !acc
  done;
  let x = Array.make n 0. in
  for i = 0 to n - 1 do
    x.(perm.(i)) <- z.(i)
  done;
  x

let det { lu; sign; _ } =
  let acc = ref sign in
  for i = 0 to lu.Mat.rows - 1 do
    acc := !acc *. Mat.get lu i i
  done;
  !acc

let inverse ?pivot_tol m =
  let n = m.Mat.rows in
  let f = factorize ?pivot_tol m in
  let inv = Mat.zeros n n in
  for j = 0 to n - 1 do
    let e = Array.init n (fun i -> if i = j then 1. else 0.) in
    let x = solve_factorized f e in
    for i = 0 to n - 1 do
      Mat.set inv i j x.(i)
    done
  done;
  inv

let residual_norm a x b = Vec.norm_inf (Vec.sub (Mat.mul_vec a x) b)
