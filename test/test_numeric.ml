(* Tests for the numeric substrate: vectors/matrices, LU, simplex, the LP
   model layer, Newton, apportionment and statistics. *)

module Vec = Bufsize_numeric.Vec
module Mat = Bufsize_numeric.Mat
module Lu = Bufsize_numeric.Lu
module Lp = Bufsize_verify.Lp
module Simplex = Bufsize_verify.Simplex
module Newton = Bufsize_numeric.Newton
module Apportion = Bufsize_numeric.Apportion
module Stats = Bufsize_numeric.Stats

let check_float = Alcotest.(check (float 1e-9))
let check_float_loose = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ Vec *)

let test_vec_basic () =
  let v = Vec.of_list [ 1.; 2.; 3. ] in
  check_float "sum" 6. (Vec.sum v);
  check_float "dot" 14. (Vec.dot v v);
  check_float "norm_inf" 3. (Vec.norm_inf v);
  Alcotest.(check int) "max_index" 2 (Vec.max_index v);
  let w = Vec.scale 2. v in
  check_float "scale" 4. w.(1);
  let s = Vec.add v w in
  check_float "add" 9. s.(2);
  let d = Vec.sub w v in
  Alcotest.(check bool) "sub=v" true (Vec.approx_equal d v)

let test_vec_axpy () =
  let x = Vec.of_list [ 1.; 1. ] and y = Vec.of_list [ 0.; 2. ] in
  Vec.axpy 3. x y;
  Alcotest.(check bool) "axpy" true (Vec.approx_equal y (Vec.of_list [ 3.; 5. ]))

let test_vec_mismatch () =
  Alcotest.check_raises "dim mismatch" (Invalid_argument "Vec.dot: dimensions 2 <> 3")
    (fun () -> ignore (Vec.dot [| 1.; 2. |] [| 1.; 2.; 3. |]))

(* ------------------------------------------------------------------ Mat *)

let test_mat_mul () =
  let a = Mat.of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = Mat.of_rows [| [| 5.; 6. |]; [| 7.; 8. |] |] in
  let c = Mat.mul a b in
  check_float "c00" 19. (Mat.get c 0 0);
  check_float "c01" 22. (Mat.get c 0 1);
  check_float "c10" 43. (Mat.get c 1 0);
  check_float "c11" 50. (Mat.get c 1 1)

let test_mat_transpose_identity () =
  let a = Mat.of_rows [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let at = Mat.transpose a in
  Alcotest.(check int) "rows" 3 at.Mat.rows;
  check_float "entry" 6. (Mat.get at 2 1);
  let i3 = Mat.identity 3 in
  Alcotest.(check bool) "A I = A (shapes permitting)" true
    (Mat.approx_equal (Mat.mul a i3) a)

let test_mat_mul_vec () =
  let a = Mat.of_rows [| [| 2.; 0. |]; [| 1.; 3. |] |] in
  let v = Mat.mul_vec a [| 1.; 2. |] in
  Alcotest.(check bool) "Av" true (Vec.approx_equal v [| 2.; 7. |])

(* ------------------------------------------------------------------- Lu *)

let test_lu_solve () =
  let a = Mat.of_rows [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let x = Lu.solve a [| 3.; 5. |] in
  Alcotest.(check bool) "solution" true
    (Vec.approx_equal ~tol:1e-12 x [| 0.8; 1.4 |]);
  check_float "residual" 0. (Lu.residual_norm a x [| 3.; 5. |])

let test_lu_needs_pivoting () =
  (* Zero pivot in the (0,0) position forces a row swap. *)
  let a = Mat.of_rows [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let x = Lu.solve a [| 2.; 3. |] in
  Alcotest.(check bool) "swap solve" true (Vec.approx_equal x [| 3.; 2. |])

let test_lu_singular () =
  let a = Mat.of_rows [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  (match Lu.solve a [| 1.; 2. |] with
  | exception Lu.Singular _ -> ()
  | _ -> Alcotest.fail "expected Singular")

let test_lu_det () =
  let a = Mat.of_rows [| [| 3.; 1. |]; [| 1.; 2. |] |] in
  check_float "det" 5. (Lu.det (Lu.factorize a))

let test_lu_inverse () =
  let a = Mat.of_rows [| [| 4.; 7. |]; [| 2.; 6. |] |] in
  let inv = Lu.inverse a in
  Alcotest.(check bool) "A A^-1 = I" true
    (Mat.approx_equal ~tol:1e-12 (Mat.mul a inv) (Mat.identity 2))

let test_lu_random_roundtrip () =
  (* Property: for random well-conditioned A and x, solve(A, A x) = x. *)
  let gen =
    QCheck.make
      QCheck.Gen.(
        let* n = int_range 1 8 in
        let* entries = array_size (return (n * n)) (float_range (-1.) 1.) in
        let* xs = array_size (return n) (float_range (-5.) 5.) in
        return (n, entries, xs))
  in
  let prop (n, entries, xs) =
    let a = Mat.init n n (fun i j -> entries.((i * n) + j) +. if i = j then 4. else 0.) in
    let b = Mat.mul_vec a xs in
    match Lu.solve a b with
    | x -> Vec.approx_equal ~tol:1e-6 x xs
    | exception Lu.Singular _ -> QCheck.assume_fail ()
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"lu roundtrip (diagonally dominated)" gen prop)

(* Reference for the sparse-aware solve: Doolittle elimination through
   [Mat.get]/[Mat.set] and dense substitution loops summing every term.
   Same pivoting and arithmetic as [Lu], so the factors are bitwise equal
   and every nonzero entry of the solution must match bit for bit. *)
let dense_reference_solve a b =
  let n = a.Mat.rows in
  let lu = Mat.copy a in
  let perm = Array.init n Fun.id in
  for k = 0 to n - 1 do
    let p = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs (Mat.get lu i k) > Float.abs (Mat.get lu !p k) then p := i
    done;
    Mat.swap_rows lu k !p;
    let t = perm.(k) in
    perm.(k) <- perm.(!p);
    perm.(!p) <- t;
    if Float.abs (Mat.get lu k k) < 1e-12 then raise (Lu.Singular k);
    for i = k + 1 to n - 1 do
      let factor = Mat.get lu i k /. Mat.get lu k k in
      Mat.set lu i k factor;
      if factor <> 0. then
        for j = k + 1 to n - 1 do
          Mat.set lu i j (Mat.get lu i j -. (factor *. Mat.get lu k j))
        done
    done
  done;
  let y = Array.init n (fun i -> b.(perm.(i))) in
  for i = 0 to n - 1 do
    for j = 0 to i - 1 do
      y.(i) <- y.(i) -. (Mat.get lu i j *. y.(j))
    done
  done;
  for i = n - 1 downto 0 do
    for j = i + 1 to n - 1 do
      y.(i) <- y.(i) -. (Mat.get lu i j *. y.(j))
    done;
    y.(i) <- y.(i) /. Mat.get lu i i
  done;
  y

let test_lu_sparse_solve_matches_dense () =
  (* Random sparse matrices (about half the entries exactly zero, so the
     factors and the intermediate vectors carry exact zeros) against four
     right-hand-side shapes: a unit vector, a few nonzeros, dense, zero. *)
  let gen =
    QCheck.make
      QCheck.Gen.(
        let* n = int_range 1 12 in
        let entry = frequency [ (1, return 0.); (1, float_range (-1.) 1.) ] in
        let* entries = array_size (return (n * n)) entry in
        let* shape = int_range 0 3 in
        let* k = int_range 0 (n - 1) in
        let* dense = array_size (return n) (float_range (-5.) 5.) in
        let* keep = array_size (return n) (int_range 0 3) in
        let b =
          match shape with
          | 0 -> Array.init n (fun i -> if i = k then 1. else 0.)
          | 1 -> Array.mapi (fun i v -> if keep.(i) = 0 || i = k then v else 0.) dense
          | 2 -> dense
          | _ -> Array.make n 0.
        in
        return (n, entries, b))
  in
  let prop (n, entries, b) =
    let a = Mat.init n n (fun i j -> entries.((i * n) + j)) in
    match (Lu.factorize a, dense_reference_solve a b) with
    | exception Lu.Singular _ -> QCheck.assume_fail ()
    | f, reference ->
        let x = Array.make n nan and idx = Array.make n (-1) in
        Lu.solve_into f ~idx b x;
        let agree i r =
          if r = 0. then x.(i) = 0.
          else Int64.equal (Int64.bits_of_float x.(i)) (Int64.bits_of_float r)
        in
        Array.for_all Fun.id (Array.mapi agree reference)
        && Array.for_all2 (fun u v -> Int64.bits_of_float u = Int64.bits_of_float v)
             x (Lu.solve_factorized f b)
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:500 ~name:"sparse-aware solve = dense loops" gen prop)

(* The row-oriented elimination [Lu] ran before it stored its factors by
   columns, kept here as the reference: a row-major matrix, the pivot
   search and the multipliers down column k with stride n, every trailing
   entry of a row with a nonzero multiplier updated, and the same
   sparse-aware substitutions.  [Lu] must match it bit for bit, signs of
   zero and NaN payloads included. *)
module Row_lu = struct
  type t = { lu : Mat.t; perm : int array; sign : float }

  let factorize ?(pivot_tol = 1e-12) m =
    let n = m.Mat.rows in
    let lu = Mat.copy m in
    let a = lu.Mat.data in
    let perm = Array.init n Fun.id in
    let sign = ref 1. in
    for k = 0 to n - 1 do
      let kbase = k * n in
      let pivot_row = ref k in
      let best = ref (Float.abs a.(kbase + k)) in
      for i = k + 1 to n - 1 do
        let v = Float.abs a.((i * n) + k) in
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
      let pivot = a.(kbase + k) in
      if Float.abs pivot < pivot_tol then raise (Lu.Singular k);
      for i = k + 1 to n - 1 do
        let ibase = i * n in
        let factor = a.(ibase + k) /. pivot in
        a.(ibase + k) <- factor;
        if factor <> 0. then
          for j = k + 1 to n - 1 do
            a.(ibase + j) <- a.(ibase + j) -. (factor *. a.(kbase + j))
          done
      done
    done;
    { lu; perm; sign = !sign }

  let solve_into { lu; perm; _ } b x =
    let n = lu.Mat.rows and data = lu.Mat.data in
    let idx = Array.make n 0 in
    let nnz = ref 0 in
    for i = 0 to n - 1 do
      let acc = ref b.(perm.(i)) in
      for k = 0 to !nnz - 1 do
        let j = idx.(k) in
        acc := !acc -. (data.((i * n) + j) *. x.(j))
      done;
      x.(i) <- !acc;
      if !acc <> 0. then begin
        idx.(!nnz) <- i;
        incr nnz
      end
    done;
    nnz := 0;
    for i = n - 1 downto 0 do
      let acc = ref x.(i) in
      for k = !nnz - 1 downto 0 do
        let j = idx.(k) in
        acc := !acc -. (data.((i * n) + j) *. x.(j))
      done;
      let v = !acc /. data.((i * n) + i) in
      x.(i) <- v;
      if v <> 0. then begin
        idx.(!nnz) <- i;
        incr nnz
      end
    done

  let solve_transposed { lu; perm; _ } b =
    let n = lu.Mat.rows and data = lu.Mat.data in
    let z = Array.copy b in
    for i = 0 to n - 1 do
      let acc = ref z.(i) in
      for j = 0 to i - 1 do
        acc := !acc -. (data.((j * n) + i) *. z.(j))
      done;
      z.(i) <- !acc /. data.((i * n) + i)
    done;
    for i = n - 1 downto 0 do
      let acc = ref z.(i) in
      for j = i + 1 to n - 1 do
        acc := !acc -. (data.((j * n) + i) *. z.(j))
      done;
      z.(i) <- !acc
    done;
    let x = Array.make n 0. in
    Array.iteri (fun i p -> x.(p) <- z.(i)) perm;
    x

  let det { lu; sign; _ } =
    let acc = ref sign in
    for i = 0 to lu.Mat.rows - 1 do
      acc := !acc *. Mat.get lu i i
    done;
    !acc
end

let same_bits u v = Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v)
let same_vec u v = Array.length u = Array.length v && Array.for_all2 same_bits u v

(* A generator-shaped evaluation system, as policy evaluation builds it:
   row s holds a CTMC generator row (a few positive rates, the exit rate
   negated on the diagonal) and -1 in the dense gain column n; row n
   pins h(0). *)
let generator_system n rates =
  let a = Mat.zeros (n + 1) (n + 1) in
  List.iter
    (fun (s, j, r) ->
      let s = s mod n and j = j mod n in
      if s <> j then begin
        Mat.set a s j (Mat.get a s j +. r);
        Mat.set a s s (Mat.get a s s -. r)
      end)
    rates;
  for s = 0 to n - 1 do
    Mat.set a s n (-1.)
  done;
  Mat.set a n 0 1.;
  a

(* Every observable of [Lu] against [Row_lu] on one matrix: the factors
   (through [Lu.factorize], [Lu.refactorize] into reused storage and
   [Lu.refactorize_columns]), the determinant, both solves on a dense and
   a sparse right-hand side, or the same [Singular] step. *)
let lu_matches_rows a b_dense b_sparse =
  let n = a.Mat.rows in
  let fill data =
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        data.((j * n) + i) <- Mat.get a i j
      done
    done
  in
  let columns () =
    let f = Lu.create n in
    match Lu.refactorize_columns f fill with Ok () -> Ok f | Error k -> Error k
  in
  let reused () =
    let f = Lu.create n in
    match Lu.refactorize f a with Ok () -> Ok f | Error k -> Error k
  in
  let has_negative_zero = Array.exists (fun x -> x = 0. && 1. /. x < 0.) a.Mat.data in
  match (Row_lu.factorize a, Lu.try_factorize a) with
  | exception Lu.Singular k -> (
      match Lu.try_factorize a with
      | Ok _ -> false
      | Error k' ->
          k = k'
          && reused () = Error k
          && (has_negative_zero || match columns () with Error k' -> k = k' | Ok _ -> false))
  | _, Error _ -> false
  | r, Ok f ->
      let agrees f =
        let lu, perm = Lu.factors f in
        same_vec lu.Mat.data r.Row_lu.lu.Mat.data
        && perm = r.Row_lu.perm
        && same_bits (Lu.det f) (Row_lu.det r)
        && List.for_all
             (fun b ->
               let x = Array.make n nan and x_ref = Array.make n nan in
               Lu.solve_into f ~idx:(Array.make n (-1)) b x;
               Row_lu.solve_into r b x_ref;
               same_vec x x_ref
               && same_vec (Lu.solve_transposed f b) (Row_lu.solve_transposed r b))
             [ b_dense; b_sparse ]
      in
      agrees f
      && (match reused () with Ok f -> agrees f | Error _ -> false)
      (* [refactorize_columns] asks for no -0 entry. *)
      && (has_negative_zero || match columns () with Ok f -> agrees f | Error _ -> false)

let test_lu_bitwise_row_oriented () =
  let gen =
    QCheck.make
      QCheck.Gen.(
        let* shape = int_range 0 5 in
        let* n = int_range 1 (if shape = 2 then 24 else 12) in
        let value = float_range (-1.) 1. in
        let sparse = frequency [ (3, return 0.); (2, value) ] in
        let square entry = map (fun e -> Mat.init n n (fun i j -> e.((i * n) + j))) entry in
        let* a =
          match shape with
          | 0 -> square (array_size (return (n * n)) value)
          | 1 -> square (array_size (return (n * n)) sparse)
          | 2 ->
              let* rates =
                list_size (int_range n (4 * n))
                  (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (float_range 0.01 5.))
              in
              return (generator_system n rates)
          | 3 ->
              (* rank-deficient: a duplicated row, or a zero column *)
              let* e = array_size (return (n * n)) sparse in
              let* i = int_range 0 (n - 1) in
              let* dup = bool in
              return
                (Mat.init n n (fun r c ->
                     if dup && r = i then e.(c)
                     else if (not dup) && c = i then 0.
                     else e.((r * n) + c)))
          | 4 ->
              (* -0 entries: the elimination updates every column *)
              square
                (array_size (return (n * n))
                   (frequency [ (2, return (-0.)); (1, return 0.); (2, value) ]))
          | _ ->
              (* one infinite or NaN entry *)
              let* e = array_size (return (n * n)) sparse in
              let* p = int_range 0 ((n * n) - 1) in
              let* bad = oneofl [ infinity; neg_infinity; nan ] in
              return (Mat.init n n (fun i j -> if (i * n) + j = p then bad else e.((i * n) + j)))
        in
        let dim = a.Mat.rows in
        let* b_dense = array_size (return dim) (float_range (-5.) 5.) in
        let* keep = int_range 0 (dim - 1) in
        let b_sparse = Array.init dim (fun i -> if i = keep then 1. else 0.) in
        return (a, b_dense, b_sparse))
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:1000 ~name:"Lu = row-oriented elimination, bitwise" gen
       (fun (a, b_dense, b_sparse) -> lu_matches_rows a b_dense b_sparse))

(* -------------------------------------------------------------- Simplex *)

let std ~nrows ~ncols a b c = { Simplex.nrows; ncols; a; b; c }

let test_simplex_basic () =
  (* min -x - y  s.t.  x + y + s = 4, x + 3y + t = 6  =>  x = 4, y = 0?
     Optimum of max x + y is x=4,y=0 with obj 4 (vertex (3,1) gives 4 too:
     degenerate family).  Check the objective value. *)
  let p =
    std ~nrows:2 ~ncols:4
      [| 1.; 1.; 1.; 0.; 1.; 3.; 0.; 1. |]
      [| 4.; 6. |]
      [| -1.; -1.; 0.; 0. |]
  in
  match Simplex.solve p with
  | Simplex.Optimal sol ->
      check_float_loose "objective" (-4.) sol.Simplex.objective;
      check_float_loose "feasible" 0. (Simplex.feasibility_error p sol.Simplex.x)
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_infeasible () =
  (* x + s = 1 and x - t... encode x <= 1 and x >= 2 with explicit slack and
     surplus columns: rows x + s = 1; x - t = 2, all vars >= 0. *)
  let p =
    std ~nrows:2 ~ncols:3 [| 1.; 1.; 0.; 1.; 0.; -1. |] [| 1.; 2. |] [| 0.; 0.; 0. |]
  in
  (match Simplex.solve p with
  | Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible")

let test_simplex_unbounded () =
  (* min -x s.t. x - y = 0: x can grow without bound. *)
  let p = std ~nrows:1 ~ncols:2 [| 1.; -1. |] [| 0. |] [| -1.; 0. |] in
  (match Simplex.solve p with
  | Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded")

let test_simplex_negative_rhs () =
  (* -x - s = -3 (i.e. x + s = 3 after the internal flip); min x gives 0. *)
  let p = std ~nrows:1 ~ncols:2 [| -1.; -1. |] [| -3. |] [| 1.; 0. |] in
  (match Simplex.solve p with
  | Simplex.Optimal sol -> check_float_loose "objective" 0. sol.Simplex.objective
  | _ -> Alcotest.fail "expected optimal")

let test_simplex_degenerate () =
  (* Klee-Minty-flavoured degeneracy: multiple rows active at the optimum.
     The Bland fallback must terminate. *)
  let p =
    std ~nrows:3 ~ncols:6
      [|
        1.; 0.; 0.; 1.; 0.; 0.;
        4.; 1.; 0.; 0.; 1.; 0.;
        8.; 4.; 1.; 0.; 0.; 1.;
      |]
      [| 1.; 4.; 16. |]
      [| -4.; -2.; -1.; 0.; 0.; 0. |]
  in
  match Simplex.solve p with
  | Simplex.Optimal sol ->
      Alcotest.(check bool) "finite objective" true (Float.is_finite sol.Simplex.objective);
      check_float_loose "feasible" 0. (Simplex.feasibility_error p sol.Simplex.x)
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_duals () =
  (* min -3x - 5y st x + s1 = 4; 2y + s2 = 12; 3x + 2y + s3 = 18
     classic: optimum (2, 6), objective -36, duals (0, -3/2... ) for the
     min form y = (0, 1.5, 1) negated: check complementary slackness by
     y' b = objective. *)
  let p =
    std ~nrows:3 ~ncols:5
      [|
        1.; 0.; 1.; 0.; 0.;
        0.; 2.; 0.; 1.; 0.;
        3.; 2.; 0.; 0.; 1.;
      |]
      [| 4.; 12.; 18. |]
      [| -3.; -5.; 0.; 0.; 0. |]
  in
  match Simplex.solve p with
  | Simplex.Optimal sol ->
      check_float_loose "objective" (-36.) sol.Simplex.objective;
      let yb =
        Array.fold_left ( +. ) 0. (Array.mapi (fun i y -> y *. p.Simplex.b.(i)) sol.Simplex.duals)
      in
      check_float_loose "strong duality" sol.Simplex.objective yb
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_transportation () =
  (* 2x2 transportation problem with known optimum: supplies (10, 20),
     demands (15, 15), costs [[1, 3]; [2, 1]].  Optimal plan ships 10 on
     the cheap (1,1) lane, 5+15 from source 2: cost 10 + 10 + 15 = 35. *)
  let p =
    std ~nrows:4 ~ncols:4
      [|
        1.; 1.; 0.; 0.;  (* supply 1 *)
        0.; 0.; 1.; 1.;  (* supply 2 *)
        1.; 0.; 1.; 0.;  (* demand 1 *)
        0.; 1.; 0.; 1.;  (* demand 2 *)
      |]
      [| 10.; 20.; 15.; 15. |]
      [| 1.; 3.; 2.; 1. |]
  in
  match Simplex.solve p with
  | Simplex.Optimal sol ->
      check_float_loose "objective" 35. sol.Simplex.objective;
      check_float_loose "feasible" 0. (Simplex.feasibility_error p sol.Simplex.x)
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_strong_duality_property () =
  (* Property: on random feasible bounded LPs (x = 0 feasible, variables
     capped), the refined duals satisfy y'b = objective. *)
  let gen =
    QCheck.make
      QCheck.Gen.(
        let* nv = int_range 1 5 in
        let* nc = int_range 1 5 in
        let* coefs = array_size (return (nc * nv)) (float_range (-2.) 2.) in
        let* rhs = array_size (return nc) (float_range 0.5 6.) in
        let* obj = array_size (return nv) (float_range (-2.) 2.) in
        return (nv, nc, coefs, rhs, obj))
  in
  let prop (nv, nc, coefs, rhs, obj) =
    (* rows: A x + s = b with slacks; bounds x_j + t_j = 10. *)
    let nrows = nc + nv in
    let ncols = nv + nc + nv in
    let a = Array.make (nrows * ncols) 0. in
    let b = Array.make nrows 0. in
    for i = 0 to nc - 1 do
      for j = 0 to nv - 1 do
        a.((i * ncols) + j) <- coefs.((i * nv) + j)
      done;
      a.((i * ncols) + nv + i) <- 1.;
      b.(i) <- rhs.(i)
    done;
    for j = 0 to nv - 1 do
      let i = nc + j in
      a.((i * ncols) + j) <- 1.;
      a.((i * ncols) + nv + nc + j) <- 1.;
      b.(i) <- 10.
    done;
    let c = Array.make ncols 0. in
    Array.blit obj 0 c 0 nv;
    let p = { Simplex.nrows; ncols; a; b; c } in
    match Simplex.solve p with
    | Simplex.Optimal sol ->
        let yb =
          Array.fold_left ( +. ) 0.
            (Array.mapi (fun i y -> y *. b.(i)) sol.Simplex.duals)
        in
        Float.abs (yb -. sol.Simplex.objective) < 1e-6
        && Simplex.feasibility_error p sol.Simplex.x < 1e-7
    | Simplex.Infeasible | Simplex.Unbounded -> false
  in
  QCheck.Test.check_exn (QCheck.Test.make ~count:150 ~name:"strong duality" gen prop)

(* -------------------------------------------------------------- Revised *)

module Simplex_revised = Bufsize_verify.Simplex_revised

let test_revised_matches_dense_basics () =
  (* Re-run the dense engine's fixed cases through the revised engine. *)
  let cases =
    [
      ( "basic",
        std ~nrows:2 ~ncols:4
          [| 1.; 1.; 1.; 0.; 1.; 3.; 0.; 1. |]
          [| 4.; 6. |]
          [| -1.; -1.; 0.; 0. |],
        Some (-4.) );
      ( "transportation",
        std ~nrows:4 ~ncols:4
          [|
            1.; 1.; 0.; 0.;
            0.; 0.; 1.; 1.;
            1.; 0.; 1.; 0.;
            0.; 1.; 0.; 1.;
          |]
          [| 10.; 20.; 15.; 15. |]
          [| 1.; 3.; 2.; 1. |],
        Some 35. );
      ( "negative rhs",
        std ~nrows:1 ~ncols:2 [| -1.; -1. |] [| -3. |] [| 1.; 0. |],
        Some 0. );
    ]
  in
  List.iter
    (fun (name, p, expected) ->
      match (Simplex_revised.solve p, expected) with
      | Simplex.Optimal sol, Some obj ->
          check_float_loose name obj sol.Simplex.objective;
          check_float_loose (name ^ " feasible") 0. (Simplex.feasibility_error p sol.Simplex.x)
      | outcome, _ ->
          ignore outcome;
          Alcotest.failf "%s: unexpected outcome" name)
    cases

let test_revised_infeasible_unbounded () =
  let infeasible =
    std ~nrows:2 ~ncols:3 [| 1.; 1.; 0.; 1.; 0.; -1. |] [| 1.; 2. |] [| 0.; 0.; 0. |]
  in
  (match Simplex_revised.solve infeasible with
  | Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible");
  let unbounded = std ~nrows:1 ~ncols:2 [| 1.; -1. |] [| 0. |] [| -1.; 0. |] in
  match Simplex_revised.solve unbounded with
  | Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

(* Three copies of one equality row: the perturbed run sees inconsistent
   rows and reports infeasible, so the engine reruns unperturbed.  The
   rerun is counted on [simplex.retries], the dense engine's counter. *)
let test_revised_rerun_counted () =
  let module Obs = Bufsize_obs.Obs in
  let retries = Obs.counter "simplex.retries" in
  let p = std ~nrows:3 ~ncols:2 [| 1.; 1.; 1.; 1.; 1.; 1. |] [| 1.; 1.; 1. |] [| 1.; 2. |] in
  Obs.enable_metrics ();
  let before = Obs.counter_value retries in
  let outcome = Simplex_revised.solve p in
  let counted = Obs.counter_value retries - before in
  Obs.disable ();
  (match outcome with
  | Simplex.Optimal sol -> check_float_loose "optimum after the rerun" 1. sol.Simplex.objective
  | _ -> Alcotest.fail "expected an optimum");
  Alcotest.(check int) "one rerun counted" 1 counted

let test_revised_agrees_with_dense_property () =
  (* Property: on random feasible bounded LPs both engines find the same
     optimal value. *)
  let gen =
    QCheck.make
      QCheck.Gen.(
        let* nv = int_range 1 6 in
        let* nc = int_range 1 6 in
        let* coefs = array_size (return (nc * nv)) (float_range (-2.) 2.) in
        let* rhs = array_size (return nc) (float_range 0.5 6.) in
        let* obj = array_size (return nv) (float_range (-2.) 2.) in
        return (nv, nc, coefs, rhs, obj))
  in
  let prop (nv, nc, coefs, rhs, obj) =
    (* A x + s = b plus x_j + t_j = 10 bounds, as in the duality test. *)
    let nrows = nc + nv in
    let ncols = nv + nc + nv in
    let a = Array.make (nrows * ncols) 0. in
    let b = Array.make nrows 0. in
    for i = 0 to nc - 1 do
      for j = 0 to nv - 1 do
        a.((i * ncols) + j) <- coefs.((i * nv) + j)
      done;
      a.((i * ncols) + nv + i) <- 1.;
      b.(i) <- rhs.(i)
    done;
    for j = 0 to nv - 1 do
      let i = nc + j in
      a.((i * ncols) + j) <- 1.;
      a.((i * ncols) + nv + nc + j) <- 1.;
      b.(i) <- 10.
    done;
    let c = Array.make ncols 0. in
    Array.blit obj 0 c 0 nv;
    let p = { Simplex.nrows; ncols; a; b; c } in
    match (Simplex.solve p, Simplex_revised.solve p) with
    | Simplex.Optimal dense, Simplex.Optimal revised ->
        Float.abs (dense.Simplex.objective -. revised.Simplex.objective) < 1e-6
        && Simplex.feasibility_error p revised.Simplex.x < 1e-6
    | _, _ -> false
  in
  QCheck.Test.check_exn (QCheck.Test.make ~count:150 ~name:"revised = dense" gen prop)

let test_lu_solve_transposed () =
  let a = Mat.of_rows [| [| 2.; 1.; 0. |]; [| 1.; 3.; 1. |]; [| 0.; 1.; 4. |] |] in
  let f = Lu.factorize a in
  let b = [| 1.; 2.; 3. |] in
  let x = Lu.solve_transposed f b in
  let residual = Vec.sub (Mat.mul_vec (Mat.transpose a) x) b in
  check_float_loose "A' x = b" 0. (Vec.norm_inf residual)

let test_lu_solve_transposed_with_pivoting () =
  (* A matrix that forces row swaps exercises the permutation handling. *)
  let a = Mat.of_rows [| [| 0.; 1.; 2. |]; [| 3.; 0.; 1. |]; [| 1.; 2.; 0. |] |] in
  let f = Lu.factorize a in
  let b = [| 4.; -1.; 2. |] in
  let x = Lu.solve_transposed f b in
  let residual = Vec.sub (Mat.mul_vec (Mat.transpose a) x) b in
  check_float_loose "A' x = b (pivoted)" 0. (Vec.norm_inf residual)

(* ------------------------------------------------------------------- Lp *)

let test_lp_maximize () =
  let lp = Lp.create Lp.Maximize in
  let x = Lp.add_var ~name:"x" lp and y = Lp.add_var ~name:"y" lp in
  Lp.add_constraint lp [ (1., x); (1., y) ] Lp.Le 4.;
  Lp.add_constraint lp [ (1., x); (3., y) ] Lp.Le 6.;
  Lp.set_objective lp [ (3., x); (5., y) ];
  match Lp.solve lp with
  | Lp.Optimal sol ->
      check_float_loose "objective" 14. sol.Lp.objective;
      check_float_loose "x" 3. (Lp.value sol x);
      check_float_loose "y" 1. (Lp.value sol y)
  | o -> Alcotest.failf "expected optimal, got %a" Lp.pp_outcome o

let test_lp_ge_and_eq () =
  let lp = Lp.create Lp.Minimize in
  let x = Lp.add_var lp and y = Lp.add_var lp in
  Lp.add_constraint lp [ (1., x); (1., y) ] Lp.Eq 10.;
  Lp.add_constraint lp [ (1., x) ] Lp.Ge 3.;
  Lp.set_objective lp [ (2., x); (1., y) ];
  match Lp.solve lp with
  | Lp.Optimal sol ->
      check_float_loose "x at lower" 3. (Lp.value sol x);
      check_float_loose "y fills" 7. (Lp.value sol y);
      check_float_loose "objective" 13. sol.Lp.objective
  | o -> Alcotest.failf "expected optimal, got %a" Lp.pp_outcome o

let test_lp_free_variable () =
  let lp = Lp.create Lp.Minimize in
  let x = Lp.add_var ~lb:Float.neg_infinity lp in
  Lp.add_constraint lp [ (1., x) ] Lp.Ge (-5.);
  Lp.set_objective lp [ (1., x) ];
  match Lp.solve lp with
  | Lp.Optimal sol -> check_float_loose "x" (-5.) (Lp.value sol x)
  | o -> Alcotest.failf "expected optimal, got %a" Lp.pp_outcome o

let test_lp_shifted_bound () =
  let lp = Lp.create Lp.Minimize in
  let x = Lp.add_var ~lb:2.5 lp in
  Lp.set_objective lp [ (4., x) ];
  match Lp.solve lp with
  | Lp.Optimal sol ->
      check_float_loose "x at bound" 2.5 (Lp.value sol x);
      check_float_loose "objective includes shift" 10. sol.Lp.objective
  | o -> Alcotest.failf "expected optimal, got %a" Lp.pp_outcome o

let test_lp_infeasible () =
  let lp = Lp.create Lp.Minimize in
  let x = Lp.add_var lp in
  Lp.add_constraint lp [ (1., x) ] Lp.Le 1.;
  Lp.add_constraint lp [ (1., x) ] Lp.Ge 2.;
  Lp.set_objective lp [ (1., x) ];
  match Lp.solve lp with
  | Lp.Infeasible -> ()
  | o -> Alcotest.failf "expected infeasible, got %a" Lp.pp_outcome o

let test_lp_unbounded () =
  let lp = Lp.create Lp.Maximize in
  let x = Lp.add_var lp in
  Lp.set_objective lp [ (1., x) ];
  match Lp.solve lp with
  | Lp.Unbounded -> ()
  | o -> Alcotest.failf "expected unbounded, got %a" Lp.pp_outcome o

let test_lp_random_feasibility () =
  (* Property: on random bounded LPs, the solver returns a feasible point
     whose objective is no worse than any sampled feasible point. *)
  let gen =
    QCheck.make
      QCheck.Gen.(
        let* nv = int_range 1 4 in
        let* nc = int_range 1 4 in
        let* coefs = array_size (return (nc * nv)) (float_range (-2.) 2.) in
        let* rhs = array_size (return nc) (float_range 1. 8.) in
        let* obj = array_size (return nv) (float_range (-1.) 1.) in
        return (nv, nc, coefs, rhs, obj))
  in
  let prop (nv, nc, coefs, rhs, obj) =
    let lp = Lp.create Lp.Minimize in
    let xs = Lp.add_vars lp nv in
    for i = 0 to nc - 1 do
      let terms = List.init nv (fun j -> (coefs.((i * nv) + j), xs.(j))) in
      Lp.add_constraint lp terms Lp.Le rhs.(i)
    done;
    (* Cap every variable so the LP is bounded. *)
    Array.iter (fun x -> Lp.add_constraint lp [ (1., x) ] Lp.Le 10.) xs;
    Lp.set_objective lp (List.init nv (fun j -> (obj.(j), xs.(j))));
    match Lp.solve lp with
    | Lp.Optimal sol ->
        (* x = 0 is feasible (rhs > 0), so the optimum is <= objective(0) = 0. *)
        sol.Lp.objective <= 1e-7
    | Lp.Infeasible | Lp.Unbounded -> false
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"random LPs solve and beat origin" gen prop)

let test_lp_large_model_access () =
  (* The array-backed model makes [var_name] and [num_constraints] O(1).
     200k lookups against a 10k-variable, 10k-row model finish in
     milliseconds; the historical list-backed representation (List.nth
     over a reversed list, List.length per query) needed a billion list
     steps here, so the generous wall-clock bound below still separates
     the complexity classes on slow CI machines. *)
  let n = 10_000 in
  let lp = Lp.create ~name:"big" Lp.Minimize in
  let xs = Lp.add_vars lp n in
  for i = 0 to n - 1 do
    Lp.add_constraint lp [ (1., xs.(i)) ] Lp.Ge 0.
  done;
  let lookups = 200_000 in
  let t0 = Unix.gettimeofday () in
  let checksum = ref 0 in
  for i = 0 to lookups - 1 do
    checksum := !checksum + String.length (Lp.var_name lp xs.(i mod n)) + Lp.num_constraints lp
  done;
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check string) "last var name" "x9999" (Lp.var_name lp xs.(n - 1));
  Alcotest.(check int) "row count" n (Lp.num_constraints lp);
  Alcotest.(check bool) "checksum consumed" true (!checksum > 0);
  Alcotest.(check bool)
    (Printf.sprintf "O(1) accessors: %d lookups took %.3fs (bound 2s)" lookups dt)
    true (dt < 2.0)

(* max 3x + 2y + z  st  x + y + z <= 4, x <= 2.5, y + z <= 3, x + y >= 1:
   optimum 10.5 at (2.5, 1.5, 0) after 7 pivots, and no pivot rule of the
   escalation chain finishes it in one. *)
let capped_lp () =
  let lp = Lp.create ~name:"capped" Lp.Maximize in
  let x = Lp.add_var lp and y = Lp.add_var lp and z = Lp.add_var lp in
  Lp.set_objective lp [ (3., x); (2., y); (1., z) ];
  Lp.add_constraint lp [ (1., x); (1., y); (1., z) ] Lp.Le 4.;
  Lp.add_constraint lp [ (1., x) ] Lp.Le 2.5;
  Lp.add_constraint lp [ (1., y); (1., z) ] Lp.Le 3.;
  Lp.add_constraint lp [ (1., x); (1., y) ] Lp.Ge 1.;
  lp

(* A pivot cap is never a verdict.  On random LPs with an optimum after k
   pivots, every cap below k makes both engines raise [Pivot_cap], and
   [solve_diag] either finds the true optimum with another pivot rule or
   returns no answer: never [Infeasible], never a worse "optimum". *)
let test_lp_pivot_cap_no_verdict () =
  let module Gen_model = Bufsize_verify.Gen_model in
  let module Resilience = Bufsize_resilience.Resilience in
  let raises_cap f = match f () with _ -> false | exception Simplex.Pivot_cap _ -> true in
  let prop seed =
    let lp = Gen_model.lp_of_case (Gen_model.lp_case (Bufsize_prob.Rng.create (1 + seed))) in
    let revised_pivots =
      match Simplex_revised.solve_lp lp with Lp.Optimal r -> r.Lp.iterations | _ -> 0
    in
    match Lp.solve lp with
    | Lp.Infeasible | Lp.Unbounded -> true
    | Lp.Optimal best ->
        let capped cap =
          let dense_raises = raises_cap (fun () -> Lp.solve ~max_iter:cap lp) in
          let revised_raises =
            cap >= revised_pivots
            || raises_cap (fun () -> Simplex_revised.solve ~max_iter:cap (Lp.to_standard lp))
          in
          let diag_sound =
            match Lp.solve_diag ~max_iter:cap lp with
            | None, d -> not (Resilience.is_usable d)
            | Some (Lp.Optimal s), d ->
                (not (Resilience.is_ok d))
                && Float.abs (s.Lp.objective -. best.Lp.objective)
                   <= 1e-9 *. (1. +. Float.abs best.Lp.objective)
            | Some (Lp.Infeasible | Lp.Unbounded), _ -> false
          in
          dense_raises && revised_raises && diag_sound
        in
        List.for_all capped (List.init best.Lp.iterations Fun.id)
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:300 ~name:"capped solves give no verdict"
       QCheck.(make ~print:string_of_int Gen.(0 -- 100_000))
       prop)

(* The escalation chain is dense-tableau -> bland -> lex-perturbation, in
   that order, each step a [lp.solve:<step>] span; capped at one pivot,
   every step is tried and rejected, no answer surfaces and the reason
   names the cap. *)
let test_lp_chain_shape () =
  let module Obs = Bufsize_obs.Obs in
  let module Resilience = Bufsize_resilience.Resilience in
  let (outcome, diag), spans, _ =
    Obs.with_capture (fun () -> Lp.solve_diag ~max_iter:1 (capped_lp ()))
  in
  let steps =
    List.filter_map
      (fun s ->
        let n = s.Obs.sname and stem = "lp.solve:" in
        let k = String.length stem in
        if String.length n > k && String.sub n 0 k = stem then
          Some (String.sub n k (String.length n - k))
        else None)
      spans
  in
  Alcotest.(check (list string)) "steps tried" [ "dense-tableau"; "bland"; "lex-perturbation" ]
    steps;
  Alcotest.(check (list string)) "fallbacks" [ "bland"; "lex-perturbation" ]
    diag.Resilience.fallbacks;
  Alcotest.(check bool) "no answer" true (outcome = None);
  Alcotest.(check bool) "failed, naming the cap" true
    (diag.Resilience.status = Resilience.Failed "pivot cap reached (max_iter 1)")

(* --------------------------------------------------------------- Newton *)

let test_newton_scalar () =
  let f x = [| (x.(0) *. x.(0)) -. 4. |] in
  let r = Newton.solve ~f ~x0:[| 3. |] () in
  Alcotest.(check bool) "converged" true r.Newton.converged;
  check_float_loose "root" 2. r.Newton.solution.(0)

let test_newton_system () =
  (* x^2 + y^2 = 5, x y = 2 -> (2, 1) from a nearby start. *)
  let f v =
    [| (v.(0) *. v.(0)) +. (v.(1) *. v.(1)) -. 5.; (v.(0) *. v.(1)) -. 2. |]
  in
  let r = Newton.solve ~f ~x0:[| 2.5; 0.5 |] () in
  Alcotest.(check bool) "converged" true r.Newton.converged;
  check_float_loose "x" 2. r.Newton.solution.(0);
  check_float_loose "y" 1. r.Newton.solution.(1)

let test_newton_singular_jacobian () =
  (* f(x) = x^2 has a singular Jacobian at the root; the solver slows to a
     crawl and must report honestly rather than loop forever. *)
  let f x = [| x.(0) *. x.(0) |] in
  let r = Newton.solve ~max_iter:25 ~f ~x0:[| 1. |] () in
  Alcotest.(check bool) "not fully converged or tiny residual" true
    ((not r.Newton.converged) || r.Newton.residual < 1e-9)

let test_newton_respects_lower () =
  let f x = [| x.(0) +. 5. |] in
  let r = Newton.solve ~lower:[| 0. |] ~f ~x0:[| 1. |] ~max_iter:10 () in
  Alcotest.(check bool) "clipped at 0" true (r.Newton.solution.(0) >= 0.)

(* ------------------------------------------------------------ Apportion *)

let test_apportion_exact () =
  let shares = Apportion.largest_remainder ~budget:10 [| 1.; 1.; 2.; 1. |] in
  Alcotest.(check (array int)) "shares" [| 2; 2; 4; 2 |] shares

let test_apportion_remainders () =
  let shares = Apportion.largest_remainder ~budget:10 [| 1.; 1.; 1. |] in
  Alcotest.(check int) "total" 10 (Array.fold_left ( + ) 0 shares);
  Array.iter (fun s -> Alcotest.(check bool) "3 or 4" true (s = 3 || s = 4)) shares

let test_apportion_minimum () =
  let shares = Apportion.largest_remainder ~minimum:2 ~budget:10 [| 0.; 0.; 100. |] in
  Alcotest.(check int) "total" 10 (Array.fold_left ( + ) 0 shares);
  Array.iter (fun s -> Alcotest.(check bool) ">= min" true (s >= 2)) shares;
  Alcotest.(check int) "heavy gets the spare" 6 shares.(2)

let test_apportion_zero_weights () =
  let shares = Apportion.largest_remainder ~budget:7 [| 0.; 0. |] in
  Alcotest.(check int) "total" 7 (Array.fold_left ( + ) 0 shares)

let test_apportion_property () =
  let gen =
    QCheck.make
      QCheck.Gen.(
        let* n = int_range 1 10 in
        let* ws = array_size (return n) (float_range 0. 10.) in
        let* budget = int_range 0 100 in
        return (ws, budget))
  in
  let prop (ws, budget) =
    let shares = Apportion.largest_remainder ~budget ws in
    Array.fold_left ( + ) 0 shares = budget && Array.for_all (fun s -> s >= 0) shares
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:500 ~name:"apportionment sums to budget" gen prop)

(* The index-array ranking gives the integers of the former list sort:
   zero weights, remainder ties (equal and integer weights), a positive
   minimum and a budget of exactly the minima all included. *)
let test_apportion_matches_reference () =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 12 in
      let weight =
        frequency
          [ (3, float_range 0. 10.); (2, return 0.); (2, map float_of_int (int_range 1 4));
            (1, oneofl [ 0.5; 1. /. 3.; 2. /. 3.; 1e-300 ]) ]
      in
      let* ws = array_size (return n) weight in
      let* minimum = frequency [ (1, return 0); (2, int_range 1 4) ] in
      let* extra = frequency [ (1, return 0); (4, int_range 0 60) ] in
      return (ws, minimum, (minimum * n) + extra))
  in
  let print (ws, minimum, budget) =
    Printf.sprintf "weights [%s] minimum %d budget %d"
      (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") ws)))
      minimum budget
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:2000 ~name:"largest remainder = reference" (QCheck.make ~print gen)
       (fun (ws, minimum, budget) ->
         Apportion.largest_remainder ~minimum ~budget ws
         = Reference.Apportion.largest_remainder ~minimum ~budget ws))

let test_proportional_caps () =
  let shares = Apportion.proportional_caps ~budget:20 ~demands:[| 3; 5; 2 |] () in
  Alcotest.(check int) "total" 20 (Array.fold_left ( + ) 0 shares);
  Alcotest.(check bool) "each >= demand" true
    (shares.(0) >= 3 && shares.(1) >= 5 && shares.(2) >= 2)

(* ---------------------------------------------------------------- Stats *)

let test_stats_moments () =
  let t = Stats.of_list [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
  check_float "mean" 5. (Stats.mean t);
  check_float_loose "variance" (32. /. 7.) (Stats.variance t);
  check_float "min" 2. (Stats.min_value t);
  check_float "max" 9. (Stats.max_value t)

let test_stats_ci () =
  let t = Stats.of_list [ 10.; 12.; 9.; 11.; 10.; 12.; 9.; 11.; 10.; 11. ] in
  let lo, hi = Stats.confidence_interval95 t in
  Alcotest.(check bool) "mean inside CI" true (lo < Stats.mean t && Stats.mean t < hi);
  Alcotest.(check bool) "CI nontrivial" true (hi -. lo > 0.)

let test_stats_t_quantile () =
  check_float "df=1" 12.706 (Stats.t_quantile ~df:1);
  check_float "df=10" 2.228 (Stats.t_quantile ~df:10);
  check_float "df huge" 1.96 (Stats.t_quantile ~df:10_000);
  (* Interpolation is monotone between table entries. *)
  let t13 = Stats.t_quantile ~df:13 in
  Alcotest.(check bool) "monotone" true
    (t13 < Stats.t_quantile ~df:12 && t13 > Stats.t_quantile ~df:15)

let test_batch_means () =
  let t = Stats.batch_means ~batch:2 [ 1.; 3.; 5.; 7.; 100. ] in
  Alcotest.(check int) "two full batches" 2 (Stats.count t);
  check_float "mean of batch means" 4. (Stats.mean t)

let () =
  Alcotest.run "numeric"
    [
      ( "vec",
        [
          Alcotest.test_case "basic ops" `Quick test_vec_basic;
          Alcotest.test_case "axpy" `Quick test_vec_axpy;
          Alcotest.test_case "dimension mismatch" `Quick test_vec_mismatch;
        ] );
      ( "mat",
        [
          Alcotest.test_case "multiply" `Quick test_mat_mul;
          Alcotest.test_case "transpose/identity" `Quick test_mat_transpose_identity;
          Alcotest.test_case "mul_vec" `Quick test_mat_mul_vec;
        ] );
      ( "lu",
        [
          Alcotest.test_case "solve 2x2" `Quick test_lu_solve;
          Alcotest.test_case "pivoting" `Quick test_lu_needs_pivoting;
          Alcotest.test_case "singular detection" `Quick test_lu_singular;
          Alcotest.test_case "determinant" `Quick test_lu_det;
          Alcotest.test_case "inverse" `Quick test_lu_inverse;
          Alcotest.test_case "random roundtrip (property)" `Quick test_lu_random_roundtrip;
          Alcotest.test_case "sparse-aware solve = dense loops (property)" `Quick
            test_lu_sparse_solve_matches_dense;
          Alcotest.test_case "bitwise the row-oriented elimination (property)" `Quick
            test_lu_bitwise_row_oriented;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "basic optimum" `Quick test_simplex_basic;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
          Alcotest.test_case "negative rhs" `Quick test_simplex_negative_rhs;
          Alcotest.test_case "degenerate" `Quick test_simplex_degenerate;
          Alcotest.test_case "strong duality" `Quick test_simplex_duals;
          Alcotest.test_case "transportation problem" `Quick test_simplex_transportation;
          Alcotest.test_case "strong duality (property)" `Quick
            test_simplex_strong_duality_property;
        ] );
      ( "simplex-revised",
        [
          Alcotest.test_case "fixed cases" `Quick test_revised_matches_dense_basics;
          Alcotest.test_case "infeasible/unbounded" `Quick test_revised_infeasible_unbounded;
          Alcotest.test_case "rerun counted" `Quick test_revised_rerun_counted;
          Alcotest.test_case "matches dense (property)" `Quick
            test_revised_agrees_with_dense_property;
          Alcotest.test_case "LU transpose solve" `Quick test_lu_solve_transposed;
          Alcotest.test_case "LU transpose solve (pivoted)" `Quick
            test_lu_solve_transposed_with_pivoting;
        ] );
      ( "lp",
        [
          Alcotest.test_case "maximize" `Quick test_lp_maximize;
          Alcotest.test_case "ge and eq rows" `Quick test_lp_ge_and_eq;
          Alcotest.test_case "free variable" `Quick test_lp_free_variable;
          Alcotest.test_case "shifted lower bound" `Quick test_lp_shifted_bound;
          Alcotest.test_case "infeasible" `Quick test_lp_infeasible;
          Alcotest.test_case "unbounded" `Quick test_lp_unbounded;
          Alcotest.test_case "random LPs (property)" `Quick test_lp_random_feasibility;
          Alcotest.test_case "O(1) accessors on a 10k-var model" `Quick
            test_lp_large_model_access;
          Alcotest.test_case "pivot cap is never a verdict" `Quick test_lp_pivot_cap_no_verdict;
          Alcotest.test_case "escalation chain shape" `Quick test_lp_chain_shape;
        ] );
      ( "newton",
        [
          Alcotest.test_case "scalar root" `Quick test_newton_scalar;
          Alcotest.test_case "2x2 system" `Quick test_newton_system;
          Alcotest.test_case "singular jacobian honesty" `Quick test_newton_singular_jacobian;
          Alcotest.test_case "lower clipping" `Quick test_newton_respects_lower;
        ] );
      ( "apportion",
        [
          Alcotest.test_case "exact split" `Quick test_apportion_exact;
          Alcotest.test_case "remainders" `Quick test_apportion_remainders;
          Alcotest.test_case "minimum floor" `Quick test_apportion_minimum;
          Alcotest.test_case "all-zero weights" `Quick test_apportion_zero_weights;
          Alcotest.test_case "largest remainder = reference (property)" `Quick
            test_apportion_matches_reference;
          Alcotest.test_case "sums to budget (property)" `Quick test_apportion_property;
          Alcotest.test_case "proportional caps" `Quick test_proportional_caps;
        ] );
      ( "stats",
        [
          Alcotest.test_case "moments" `Quick test_stats_moments;
          Alcotest.test_case "confidence interval" `Quick test_stats_ci;
          Alcotest.test_case "t quantiles" `Quick test_stats_t_quantile;
          Alcotest.test_case "batch means" `Quick test_batch_means;
        ] );
    ]
