(* Tests for the CSR sparse-matrix substrate and the sparse solve paths
   built on it: SpMV and transposed SpMV against the dense reference,
   triplet accumulation, transpose, iterative stationary distributions
   against the direct (GTH/LU) solvers on random CTMCs, and the sparse
   columns the reference LP engine reads off the dense lowering. *)

module Mat = Bufsize_numeric.Mat
module Sparse = Bufsize_numeric.Sparse
module Krylov = Bufsize_numeric.Krylov
module Lp = Bufsize_verify.Lp
module Simplex_revised = Bufsize_verify.Simplex_revised
module Ctmc = Bufsize_prob.Ctmc
module Rng = Bufsize_prob.Rng
module Gen_model = Bufsize_verify.Gen_model

let qcheck ?(count = 100) name arb prop =
  QCheck.Test.check_exn (QCheck.Test.make ~count ~name arb prop)

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000)

(* Random rectangular matrix with ~half the entries zero, plus a vector
   for each dimension. *)
let random_mat_vecs seed =
  let rng = Rng.create (1 + seed) in
  let rows = 1 + Rng.int rng 8 and cols = 1 + Rng.int rng 8 in
  let m =
    Mat.init rows cols (fun _ _ ->
        if Rng.int rng 2 = 0 then 0. else Rng.float_range rng (-3.) 3.)
  in
  let x = Array.init cols (fun _ -> Rng.float_range rng (-2.) 2.) in
  let y = Array.init rows (fun _ -> Rng.float_range rng (-2.) 2.) in
  (m, x, y)

let close tol a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun u v -> Float.abs (u -. v) <= tol) a b

(* ------------------------------------------------------------- algebra *)

let test_spmv_matches_dense () =
  qcheck "SpMV = dense mul_vec" seed_arb (fun seed ->
      let m, x, _ = random_mat_vecs seed in
      close 1e-12 (Sparse.mul_vec (Sparse.of_dense m) x) (Mat.mul_vec m x))

let test_spmv_t_matches_dense () =
  qcheck "transposed SpMV = dense transpose mul_vec" seed_arb (fun seed ->
      let m, _, y = random_mat_vecs seed in
      close 1e-12 (Sparse.mul_vec_t (Sparse.of_dense m) y) (Mat.mul_vec (Mat.transpose m) y))

let test_transpose_roundtrip () =
  qcheck "transpose agrees with dense and involutes" seed_arb (fun seed ->
      let m, _, _ = random_mat_vecs seed in
      let s = Sparse.of_dense m in
      Mat.approx_equal ~tol:0. (Sparse.to_dense (Sparse.transpose s)) (Mat.transpose m)
      && Sparse.approx_equal ~tol:0. (Sparse.transpose (Sparse.transpose s)) s)

let test_of_triplets_accumulates () =
  (* Duplicates accumulate in list order; exact zeros are dropped. *)
  let s =
    Sparse.of_triplets ~rows:2 ~cols:3
      [ (0, 1, 1.5); (1, 2, -2.); (0, 1, 0.5); (1, 0, 0.); (0, 2, 4.) ]
  in
  Alcotest.(check int) "nnz" 3 (Sparse.nnz s);
  Alcotest.(check (float 0.)) "accumulated" 2. (Sparse.get s 0 1);
  Alcotest.(check (float 0.)) "plain" 4. (Sparse.get s 0 2);
  Alcotest.(check (float 0.)) "negative" (-2.) (Sparse.get s 1 2);
  Alcotest.(check (float 0.)) "dropped zero" 0. (Sparse.get s 1 0);
  Alcotest.(check int) "row 0 nnz" 2 (Sparse.row_nnz s 0)

(* Random triplet list with forced duplicates (including some that
   accumulate to exactly zero), plus the dense accumulation reference
   computed in the same list order — so the comparison is bitwise. *)
let random_triplets seed =
  let rng = Rng.create (1 + seed) in
  let rows = 1 + Rng.int rng 6 and cols = 1 + Rng.int rng 6 in
  let base =
    List.init
      (Rng.int rng 20)
      (fun _ -> (Rng.int rng rows, Rng.int rng cols, Rng.float_range rng (-3.) 3.))
  in
  (* duplicate a prefix verbatim and cancel a few entries exactly *)
  let dups = List.filteri (fun i _ -> i < 5) base in
  let cancels = List.filteri (fun i _ -> i mod 3 = 0) base |> List.map (fun (i, j, v) -> (i, j, -.v)) in
  (rows, cols, base @ dups @ cancels)

let test_of_triplets_accumulation_property () =
  qcheck "of_triplets accumulates duplicates in list order" seed_arb (fun seed ->
      let rows, cols, triplets = random_triplets seed in
      let s = Sparse.of_triplets ~rows ~cols triplets in
      let dense = Array.make_matrix rows cols 0. in
      List.iter (fun (i, j, v) -> dense.(i).(j) <- dense.(i).(j) +. v) triplets;
      let ok = ref true in
      for i = 0 to rows - 1 do
        for j = 0 to cols - 1 do
          (* bitwise: same accumulation order on both sides, and exact
             zeros must be dropped from the structure *)
          if Sparse.get s i j <> dense.(i).(j) then ok := false;
          if dense.(i).(j) = 0. && Sparse.index s i j <> None then ok := false
        done
      done;
      !ok)

let test_transpose_involution_property () =
  qcheck "transpose (transpose a) = a structurally" seed_arb (fun seed ->
      let rows, cols, triplets = random_triplets seed in
      let s = Sparse.of_triplets ~rows ~cols triplets in
      let tt = Sparse.transpose (Sparse.transpose s) in
      tt.Sparse.rows = s.Sparse.rows
      && tt.Sparse.cols = s.Sparse.cols
      && tt.Sparse.row_ptr = s.Sparse.row_ptr
      && tt.Sparse.col_idx = s.Sparse.col_idx
      && tt.Sparse.values = s.Sparse.values)

let test_scale_and_row_sums () =
  let s = Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 0, 1.); (0, 1, 2.); (1, 0, -1.) ] in
  let sums = Sparse.row_sums (Sparse.scale 2. s) in
  Alcotest.(check (float 0.)) "row 0" 6. sums.(0);
  Alcotest.(check (float 0.)) "row 1" (-2.) sums.(1)

(* --------------------------------------------------------- stationary *)

(* Random irreducible CTMC: a cycle [i -> i+1 mod n] guarantees
   irreducibility, random extra transitions give it structure. *)
let random_ctmc ?(min_states = 2) ?(span = 29) seed =
  let rng = Rng.create (1 + seed) in
  let n = min_states + Rng.int rng span in
  let rates = ref [] in
  for i = 0 to n - 1 do
    rates := (i, (i + 1) mod n, Rng.float_range rng 0.5 2.) :: !rates;
    let extras = Rng.int rng 3 in
    for _ = 1 to extras do
      let j = Rng.int rng n in
      if j <> i then rates := (i, j, Rng.float_range rng 0.01 1.) :: !rates
    done
  done;
  Ctmc.of_rates n !rates

let test_iterative_stationary_matches_direct () =
  qcheck ~count:60 "iterative stationary = GTH = LU" seed_arb (fun seed ->
      let c = random_ctmc seed in
      let it = Ctmc.stationary_iterative c in
      let lu = Ctmc.stationary_dense c in
      let gth =
        match Ctmc.stationary_gth c with
        | Ok pi -> pi
        | Error (`Reducible_class _) ->
            QCheck.Test.fail_report "GTH refused an irreducible chain"
      in
      close 1e-8 it gth && close 1e-8 it lu)

let test_two_state_converges_in_two_sweeps () =
  (* Lambda = 2 max_exit equals the total rate on a symmetric 2-state
     chain, so P's second eigenvalue is 0: the first sweep lands exactly
     on the fixed point and the second only observes delta < tol. *)
  let c = Ctmc.of_rates 2 [ (0, 1, 1.); (1, 0, 1.) ] in
  let pi, iters, converged =
    Ctmc.stationary_iterative_report ~init:[| 0.9; 0.1 |] c
  in
  Alcotest.(check bool) "converged" true converged;
  Alcotest.(check bool) "iterations <= 2" true (iters <= 2);
  Alcotest.(check bool) "exact fixed point" true (close 1e-12 pi [| 0.5; 0.5 |])

let gth c =
  match Ctmc.stationary_gth c with
  | Ok pi -> pi
  | Error (`Reducible_class _) -> QCheck.Test.fail_report "GTH refused an irreducible chain"

let test_large_iterative_matches_gth () =
  (* Above the dense threshold [Ctmc.stationary] takes the GMRES path:
     GTH within 1e-8 and the residual within the stop rule. *)
  let tol = 1e-13 in
  qcheck ~count:8 "GMRES = GTH beyond 512 states" seed_arb (fun seed ->
      let c = random_ctmc ~min_states:513 ~span:150 seed in
      let pi, _, converged = Ctmc.stationary_iterative_report ~tol c in
      converged
      && close 1e-8 pi (gth c)
      && close 0. pi (Ctmc.stationary c)
      && Ctmc.stationary_residual c pi <= Ctmc.uniformization_rate c *. 2. *. tol)

let test_directed_cycle_fallback () =
  (* Restarted GMRES(10) crawls on a 100-state directed cycle started
     from a point mass; the stall test hands over to the uniformized
     sweep, which must still land on the GTH answer. *)
  let n = 100 in
  let c = Ctmc.of_rates n (List.init n (fun i -> (i, (i + 1) mod n, 1.))) in
  let q = Ctmc.sparse_generator c in
  let pi, r =
    Krylov.stationary
      ~apply:(fun x y -> Sparse.mul_vec_t_into q x y)
      ~lambda:2. ~tol:1e-13 ~max_iter:200_000
      ~init:(Array.init n (fun i -> if i = 0 then 1. else 0.))
      n
  in
  Alcotest.(check bool) "fallback taken" true r.Krylov.fallback;
  Alcotest.(check bool) "converged" true r.Krylov.converged;
  Alcotest.(check bool) "restarts before the stall" true (r.Krylov.restarts >= 1);
  Alcotest.(check bool) "matches GTH" true (close 1e-8 pi (gth c))

let test_fixed_point_seed_costs_nothing () =
  let c = random_ctmc 11 in
  let pi, _, _ = Ctmc.stationary_iterative_report c in
  let again, iters, converged = Ctmc.stationary_iterative_report ~init:pi c in
  Alcotest.(check bool) "converged" true converged;
  Alcotest.(check int) "iterations" 0 iters;
  Alcotest.(check bool) "unchanged" true (close 1e-15 again pi)

let test_init_seeding_preserves_fixed_point () =
  qcheck ~count:40 "?init seeding never moves the fixed point" seed_arb (fun seed ->
      let c = random_ctmc seed in
      let cold = Ctmc.stationary_iterative c in
      (* re-seeding with the fixed point itself must stay on it *)
      let reseeded = Ctmc.stationary_iterative ~init:cold c in
      (* a perturbed (but valid) seed must converge back to it *)
      let rng = Rng.create (seed + 77) in
      let pert =
        Array.map (fun p -> Float.max 0. (p +. Rng.float_range rng (-0.01) 0.01)) cold
      in
      let total = Array.fold_left ( +. ) 0. pert in
      let pert = Array.map (fun p -> p /. total) pert in
      let from_pert = Ctmc.stationary_iterative ~init:pert c in
      close 1e-10 reseeded cold && close 1e-8 from_pert cold)

let test_stationary_dispatch_consistent () =
  (* The auto dispatcher must agree with both explicit routes. *)
  let c = random_ctmc 7 in
  let auto = Ctmc.stationary c in
  Alcotest.(check bool) "auto = iterative" true (close 1e-8 auto (Ctmc.stationary_iterative c));
  Alcotest.(check bool) "auto = dense" true (close 1e-8 auto (Ctmc.stationary_dense c))

(* ----------------------------------------------------------- lowering *)

let dense_of_sparse_std (s : Simplex_revised.sparse_standard) =
  let a = Array.make (s.Simplex_revised.snrows * s.Simplex_revised.sncols) 0. in
  Array.iteri
    (fun j col ->
      Array.iter (fun (i, v) -> a.((i * s.Simplex_revised.sncols) + j) <- v) col)
    s.Simplex_revised.scols;
  a

(* The reference engine solves the production engine's standard form:
   its sparse columns hold exactly the dense lowering's nonzeros, in
   strictly increasing row order. *)
let test_sparse_lowering_matches_dense () =
  qcheck ~count:200 "sparse_of_standard (to_standard) = to_standard" seed_arb (fun seed ->
      let c = Gen_model.lp_case (Rng.create (1 + seed)) in
      let lp = Gen_model.lp_of_case c in
      let d = Lp.to_standard lp in
      let s = Simplex_revised.sparse_of_standard d in
      let increasing col =
        let ok = ref true in
        Array.iteri
          (fun k (i, v) -> if v = 0. || (k > 0 && fst col.(k - 1) >= i) then ok := false)
          col;
        !ok
      in
      Array.for_all increasing s.Simplex_revised.scols
      && s.Simplex_revised.snrows = d.Bufsize_verify.Simplex.nrows
      && s.Simplex_revised.sncols = d.Bufsize_verify.Simplex.ncols
      && s.Simplex_revised.sb = d.Bufsize_verify.Simplex.b
      && s.Simplex_revised.sc = d.Bufsize_verify.Simplex.c
      && dense_of_sparse_std s = d.Bufsize_verify.Simplex.a)

(* The per-row Hashtbl accumulation [Sparse.of_triplets] used before its
   counting pass and stable sort, kept as the reference: (row_ptr,
   col_idx, values) of the same matrix. *)
let of_triplets_reference ~rows entries =
  let row_entries = Array.make rows [] in
  List.iter (fun (i, j, v) -> row_entries.(i) <- (j, v) :: row_entries.(i)) entries;
  let acc = Hashtbl.create 16 in
  let per_row =
    Array.init rows (fun i ->
        Hashtbl.reset acc;
        let order = ref [] in
        List.iter
          (fun (j, v) ->
            match Hashtbl.find_opt acc j with
            | None ->
                Hashtbl.add acc j v;
                order := j :: !order
            | Some prev -> Hashtbl.replace acc j (prev +. v))
          (List.rev row_entries.(i));
        List.filter_map
          (fun j ->
            let v = Hashtbl.find acc j in
            if v = 0. then None else Some (j, v))
          (List.sort compare (List.rev !order)))
  in
  let row_ptr = Array.make (rows + 1) 0 in
  Array.iteri (fun i kept -> row_ptr.(i + 1) <- row_ptr.(i) + List.length kept) per_row;
  let all = List.concat (Array.to_list per_row) in
  (row_ptr, Array.of_list (List.map fst all), Array.of_list (List.map snd all))

(* Random triplets in the shapes that stress the merge: many duplicates
   per entry, exact cancellations (v then -v, and sums that round to
   zero), values of mixed magnitude so the accumulation order shows in
   the last bits, and rows far longer than the insertion-sort cutoff. *)
let random_triplets seed =
  let rng = Rng.create (7 + seed) in
  let rows = 1 + Rng.int rng 6 and cols = 1 + Rng.int rng 60 in
  let value () =
    match Rng.int rng 4 with
    | 0 -> Rng.float_range rng (-1.) 1.
    | 1 -> Rng.float_range rng (-1e16) 1e16
    | 2 -> float_of_int (Rng.int rng 5 - 2)
    | _ -> Rng.float_range rng (-1e-3) 1e-3
  in
  let n = Rng.int rng (if Rng.int rng 4 = 0 then 400 else 40) in
  let entries = ref [] in
  for _ = 1 to n do
    let i = Rng.int rng rows and j = Rng.int rng (Int.min cols (1 + Rng.int rng 12)) in
    let v = value () in
    entries := (i, j, v) :: !entries;
    if Rng.int rng 5 = 0 then entries := (i, j, -.v) :: !entries
  done;
  (rows, cols, !entries)

let test_of_triplets_matches_reference () =
  qcheck ~count:500 "of_triplets = per-row Hashtbl reference, bitwise" seed_arb (fun seed ->
      let rows, cols, entries = random_triplets seed in
      let s = Sparse.of_triplets ~rows ~cols entries in
      let row_ptr, col_idx, values = of_triplets_reference ~rows entries in
      let bits = Array.map Int64.bits_of_float in
      s.Sparse.row_ptr = row_ptr && s.Sparse.col_idx = col_idx
      && bits s.Sparse.values = bits values)

let () =
  Alcotest.run "sparse"
    [
      ( "algebra",
        [
          Alcotest.test_case "SpMV vs dense (property)" `Quick test_spmv_matches_dense;
          Alcotest.test_case "transposed SpMV vs dense (property)" `Quick
            test_spmv_t_matches_dense;
          Alcotest.test_case "transpose round-trip (property)" `Quick test_transpose_roundtrip;
          Alcotest.test_case "triplet accumulation" `Quick test_of_triplets_accumulates;
          Alcotest.test_case "triplet accumulation (property)" `Quick
            test_of_triplets_accumulation_property;
          Alcotest.test_case "triplets = Hashtbl reference, bitwise (property)" `Quick
            test_of_triplets_matches_reference;
          Alcotest.test_case "transpose involution (property)" `Quick
            test_transpose_involution_property;
          Alcotest.test_case "scale and row sums" `Quick test_scale_and_row_sums;
        ] );
      ( "stationary",
        [
          Alcotest.test_case "iterative vs direct (property)" `Quick
            test_iterative_stationary_matches_direct;
          Alcotest.test_case "two-state chain converges in two sweeps" `Quick
            test_two_state_converges_in_two_sweeps;
          Alcotest.test_case "?init seeding preserves fixed point (property)" `Quick
            test_init_seeding_preserves_fixed_point;
          Alcotest.test_case "dispatch consistency" `Quick test_stationary_dispatch_consistent;
          Alcotest.test_case "GMRES vs GTH above 512 (property)" `Quick
            test_large_iterative_matches_gth;
          Alcotest.test_case "directed cycle stalls: fallback" `Quick
            test_directed_cycle_fallback;
          Alcotest.test_case "fixed-point seed: 0 iterations" `Quick
            test_fixed_point_seed_costs_nothing;
        ] );
      ( "lowering",
        [
          Alcotest.test_case "sparse vs dense standard form (property)" `Quick
            test_sparse_lowering_matches_dense;
        ] );
    ]
