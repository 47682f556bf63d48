(* Tests for the numeric substrate: vectors/matrices, LU, simplex, the LP
   model layer, Newton, apportionment and statistics. *)

module Vec = Bufsize_numeric.Vec
module Mat = Bufsize_numeric.Mat
module Lu = Bufsize_numeric.Lu
module Lp = Bufsize_numeric.Lp
module Simplex = Bufsize_numeric.Simplex
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

module Simplex_revised = Bufsize_numeric.Simplex_revised

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
