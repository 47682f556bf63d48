(* Column-major storage: entry (i, j) sits at [j * n + i].  L is stored
   strictly below the diagonal (unit diagonal implied), U on and above. *)
type factorization = {
  n : int;
  lu : float array;
  perm : int array;  (* row permutation applied to the input *)
  mutable sign : float;  (* parity of the permutation, for det *)
  rows : int array;  (* elimination scratch: rows with a nonzero multiplier *)
}

exception Singular of int

(* In-place Doolittle elimination with partial pivoting, column by column;
   returns the permutation sign.  Every entry receives the operations of
   the row-oriented loop (pivot search, row swap, multiplier, then
   [a_ij - l_ik * u_kj] for each row with a nonzero multiplier) in the
   same order, so the factors are bitwise the row-oriented ones.  The one
   liberty: a column whose pivot-row entry [u_kj] is zero is not updated.
   Its updates are [a_ij - l_ik * 0], which leave every entry as it is
   unless the entry is -0 or the multiplier is not finite; [exact_zeros]
   says the matrix holds no -0 (subtraction never makes one), and a step
   with a non-finite multiplier updates every column.  No closures: it
   runs on every policy evaluation and simplex refactorization. *)
let eliminate ~pivot_tol ~exact_zeros f =
  let n = f.n and a = f.lu and perm = f.perm and rows = f.rows in
  let sign = ref 1. in
  for k = 0 to n - 1 do
    let kbase = k * n in
    (* partial pivoting: pick the largest |entry| in column k at/below row k *)
    let pivot_row = ref k in
    let best = ref (Float.abs (Array.unsafe_get a (kbase + k))) in
    for i = k + 1 to n - 1 do
      let v = Float.abs (Array.unsafe_get a (kbase + i)) in
      if v > !best then begin
        pivot_row := i;
        best := v
      end
    done;
    let p = !pivot_row in
    if p <> k then begin
      for j = 0 to n - 1 do
        let base = j * n in
        let tmp = Array.unsafe_get a (base + k) in
        Array.unsafe_set a (base + k) (Array.unsafe_get a (base + p));
        Array.unsafe_set a (base + p) tmp
      done;
      let tmp = perm.(k) in
      perm.(k) <- perm.(p);
      perm.(p) <- tmp;
      sign := -. !sign
    end;
    let pivot = Array.unsafe_get a (kbase + k) in
    if Float.abs pivot < pivot_tol then raise (Singular k);
    let nr = ref 0 and finite = ref true in
    for i = k + 1 to n - 1 do
      let factor = Array.unsafe_get a (kbase + i) /. pivot in
      Array.unsafe_set a (kbase + i) factor;
      if factor <> 0. then begin
        Array.unsafe_set rows !nr i;
        incr nr;
        if not (Float.abs factor < Float.infinity) then finite := false
      end
    done;
    let nr = !nr in
    if nr > 0 then begin
      let dense = not (exact_zeros && !finite) in
      for j = k + 1 to n - 1 do
        let jbase = j * n in
        let u = Array.unsafe_get a (jbase + k) in
        if dense || u <> 0. then
          for r = 0 to nr - 1 do
            let i = Array.unsafe_get rows r in
            Array.unsafe_set a (jbase + i)
              (Array.unsafe_get a (jbase + i) -. (Array.unsafe_get a (kbase + i) *. u))
          done
      done
    end
  done;
  !sign

let create n =
  if n < 0 then invalid_arg "Lu.create: negative dimension";
  { n; lu = Array.make (n * n) 0.; perm = Array.init n Fun.id; sign = 1.; rows = Array.make n 0 }

let dim f = f.n

(* Transpose a row-major matrix into [f]'s storage: whether it holds no
   -0 (the division runs on zero entries only). *)
let load f m =
  let n = f.n and src = m.Mat.data and a = f.lu in
  let exact = ref true in
  for i = 0 to n - 1 do
    let base = i * n in
    for j = 0 to n - 1 do
      let x = Array.unsafe_get src (base + j) in
      if x = 0. && 1. /. x < 0. then exact := false;
      Array.unsafe_set a ((j * n) + i) x
    done
  done;
  !exact

let run ~pivot_tol ~exact_zeros f =
  for i = 0 to f.n - 1 do
    f.perm.(i) <- i
  done;
  match eliminate ~pivot_tol ~exact_zeros f with
  | sign ->
      f.sign <- sign;
      Stdlib.Ok ()
  | exception Singular k -> Stdlib.Error k

let factorize ?(pivot_tol = 1e-12) m =
  if m.Mat.rows <> m.Mat.cols then invalid_arg "Lu.factorize: matrix not square";
  let f = create m.Mat.rows in
  let exact_zeros = load f m in
  match run ~pivot_tol ~exact_zeros f with Ok () -> f | Error k -> raise (Singular k)

(* Re-run the elimination into [f]'s existing storage for a new same-sized
   matrix: the revised simplex refactorizes hundreds of bases per solve
   and reuses one allocation for all of them.  On a singular pivot
   the storage holds a partial elimination and [Error k] tells the caller
   to fall back; the factorization must not be used for solves until a
   subsequent refactorization succeeds. *)
let refactorize ?(pivot_tol = 1e-12) f m =
  if m.Mat.rows <> m.Mat.cols then invalid_arg "Lu.refactorize: matrix not square";
  if m.Mat.rows <> f.n then invalid_arg "Lu.refactorize: dimension mismatch";
  let exact_zeros = load f m in
  run ~pivot_tol ~exact_zeros f

let refactorize_columns ?(pivot_tol = 1e-12) f fill =
  Array.fill f.lu 0 (f.n * f.n) 0.;
  fill f.lu;
  run ~pivot_tol ~exact_zeros:true f

(* The triangular solves are the hot loop of the simplex refactorization
   (one right-hand side per tableau column), hence the unsafe flat-array
   accesses.  Both substitutions skip the terms whose multiplier [x_j] is
   exactly zero, and each entry subtracts the kept terms in ascending [j]
   order, as the dense dot-product loops do, so every nonzero result is
   bitwise the dense one; only the sign of an exact zero may differ.  The
   forward pass runs down L's columns; the backward pass reads U by rows,
   over the indices [idx] of the nonzeros found so far. *)
let solve_into { n; lu = data; perm; _ } ~idx b x =
  if Array.length b <> n || Array.length x <> n || Array.length idx < n || (n > 0 && b == x) then
    invalid_arg "Lu.solve_into: dimension mismatch or b == x";
  (* forward substitution: L y = P b, y held in x *)
  for i = 0 to n - 1 do
    Array.unsafe_set x i (Array.unsafe_get b (Array.unsafe_get perm i))
  done;
  for j = 0 to n - 1 do
    let xj = Array.unsafe_get x j in
    if xj <> 0. then begin
      let base = j * n in
      for i = j + 1 to n - 1 do
        Array.unsafe_set x i
          (Array.unsafe_get x i -. (Array.unsafe_get data (base + i) *. xj))
      done
    end
  done;
  (* back substitution: U x = y; idx descending, so read it backwards *)
  let nnz = ref 0 in
  for i = n - 1 downto 0 do
    let acc = ref (Array.unsafe_get x i) in
    for k = !nnz - 1 downto 0 do
      let j = Array.unsafe_get idx k in
      acc := !acc -. (Array.unsafe_get data ((j * n) + i) *. Array.unsafe_get x j)
    done;
    let v = !acc /. Array.unsafe_get data ((i * n) + i) in
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
   L' w = z (backward, unit diagonal), then undo the permutation.  Row j of
   U' and of L' is column j of the storage. *)
let solve_transposed { n; lu = data; perm; _ } b =
  if Array.length b <> n then invalid_arg "Lu.solve_transposed: dimension mismatch";
  let z = Array.copy b in
  for i = 0 to n - 1 do
    let base = i * n in
    let acc = ref (Array.unsafe_get z i) in
    for j = 0 to i - 1 do
      acc := !acc -. (Array.unsafe_get data (base + j) *. Array.unsafe_get z j)
    done;
    Array.unsafe_set z i (!acc /. Array.unsafe_get data (base + i))
  done;
  for i = n - 1 downto 0 do
    let base = i * n in
    let acc = ref (Array.unsafe_get z i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (Array.unsafe_get data (base + j) *. Array.unsafe_get z j)
    done;
    Array.unsafe_set z i !acc
  done;
  let x = Array.make n 0. in
  for i = 0 to n - 1 do
    x.(perm.(i)) <- z.(i)
  done;
  x

let factors { n; lu; perm; _ } = (Mat.init n n (fun i j -> lu.((j * n) + i)), Array.copy perm)

let det { n; lu; sign; _ } =
  let acc = ref sign in
  for i = 0 to n - 1 do
    acc := !acc *. lu.((i * n) + i)
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
