(* Tests for the sum-of-Kronecker operator and the SAN layer on top of
   it: mixed-radix index codec, shuffle SpMV vs the materialized joint
   matrix, the gather kernel vs the shuffle kernels it replaced (bit for
   bit), adjointness of the transposed product, generator row sums,
   term-order independence, and the SAN lowering of the bridged bus
   model against both the materialized CTMC solve and the split
   approximation's exact marginals. *)

module Sparse = Bufsize_numeric.Sparse
module Kronecker = Bufsize_numeric.Kronecker
module Ctmc = Bufsize_prob.Ctmc
module San = Bufsize_prob.San
module Rng = Bufsize_prob.Rng
module Monolithic = Bufsize_soc.Monolithic
module San_bridge = Bufsize_soc.San_bridge
module Gen_model = Bufsize_verify.Gen_model

let qcheck ?(count = 100) name arb prop =
  QCheck.Test.check_exn (QCheck.Test.make ~count ~name arb prop)

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000)

let max_abs_diff a b =
  let d = ref 0. in
  Array.iteri (fun i x -> d := Float.max !d (Float.abs (x -. b.(i)))) a;
  !d

let close tol a b = Array.length a = Array.length b && max_abs_diff a b <= tol

let inf_norm v = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0. v

let dot a b =
  let acc = ref 0. in
  Array.iteri (fun i x -> acc := !acc +. (x *. b.(i))) a;
  !acc

let random_san seed = Gen_model.san_of_case (Gen_model.san_case (Rng.create (1 + seed)))

let random_vec rng n = Array.init n (fun _ -> Rng.float_range rng (-2.) 2.)

(* --------------------------------------------------------- descriptor *)

let test_encode_decode_roundtrip () =
  qcheck "mixed-radix encode/decode round-trips" seed_arb (fun seed ->
      let san = random_san seed in
      let n = San.num_states san in
      let ok = ref true in
      for idx = 0 to n - 1 do
        let state = San.decode san idx in
        if San.encode san state <> idx then ok := false;
        (* every digit stays within its automaton's range *)
        Array.iteri
          (fun m s ->
            if s < 0 || s >= (San.automata san).(m).San.size then ok := false)
          state
      done;
      !ok)

let test_spmv_matches_materialized () =
  qcheck ~count:60 "shuffle SpMV = materialized SpMV" seed_arb (fun seed ->
      let san = random_san seed in
      let desc = San.descriptor san in
      let m = Kronecker.materialize desc in
      let x = random_vec (Rng.create (seed + 31)) (San.num_states san) in
      let shuffle = Kronecker.mul_vec desc x and dense = Sparse.mul_vec m x in
      let tol = 1e-12 *. (1. +. inf_norm dense) in
      close tol shuffle dense
      && close tol (Kronecker.mul_vec_t desc x) (Sparse.mul_vec_t m x))

let test_adjointness () =
  qcheck "SpMV and transposed SpMV are adjoint" seed_arb (fun seed ->
      let san = random_san seed in
      let rng = Rng.create (seed + 7) in
      let n = San.num_states san in
      let desc = San.descriptor san in
      let x = random_vec rng n and y = random_vec rng n in
      let lhs = dot (Kronecker.mul_vec desc x) y in
      let rhs = dot x (Kronecker.mul_vec_t desc y) in
      Float.abs (lhs -. rhs) <= 1e-11 *. (1. +. Float.max (Float.abs lhs) (Float.abs rhs)))

let test_generator_row_sums_zero () =
  qcheck "descriptor rows sum to zero" seed_arb (fun seed ->
      let san = random_san seed in
      let desc = San.descriptor san in
      let ones = Array.make (San.num_states san) 1. in
      inf_norm (Kronecker.mul_vec desc ones) <= 1e-9)

let test_term_order_independence () =
  qcheck ~count:60 "term order does not change the operator" seed_arb (fun seed ->
      let san = random_san seed in
      let desc = San.descriptor san in
      let reversed =
        Kronecker.create ~dims:(Kronecker.dims desc) (List.rev (Kronecker.terms desc))
      in
      let x = random_vec (Rng.create (seed + 13)) (San.num_states san) in
      let a = Kronecker.mul_vec desc x and b = Kronecker.mul_vec reversed x in
      let tol = 1e-12 *. (1. +. inf_norm a) in
      close tol a b
      && close tol (Kronecker.mul_vec_t desc x) (Kronecker.mul_vec_t reversed x))

let test_hand_kronecker_product () =
  (* 2 (A (x) B) against the closed-form entries. *)
  let a = Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 0, 1.); (0, 1, 2.); (1, 0, 3.); (1, 1, 4.) ] in
  let b = Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 1, 5.); (1, 0, 6.); (1, 1, 7.) ] in
  let desc =
    Kronecker.create ~dims:[| 2; 2 |]
      [ { Kronecker.coeff = 2.; factors = [| Kronecker.Factor a; Kronecker.Factor b |] } ]
  in
  let m = Kronecker.materialize desc in
  for i1 = 0 to 1 do
    for i2 = 0 to 1 do
      for j1 = 0 to 1 do
        for j2 = 0 to 1 do
          Alcotest.(check (float 1e-15))
            (Printf.sprintf "entry (%d%d,%d%d)" i1 i2 j1 j2)
            (2. *. Sparse.get a i1 j1 *. Sparse.get b i2 j2)
            (Sparse.get m ((i1 * 2) + i2) ((j1 * 2) + j2))
        done
      done
    done
  done;
  (* identity modes are skipped, not multiplied *)
  let with_id =
    Kronecker.create ~dims:[| 2; 2 |]
      [ { Kronecker.coeff = 1.; factors = [| Kronecker.Identity; Kronecker.Factor b |] } ]
  in
  let x = [| 1.; -1.; 2.; 0.5 |] in
  let expected = [| -5.; -1.; 2.5; 15.5 |] in
  Alcotest.(check bool) "I (x) B product" true
    (close 1e-12 (Kronecker.mul_vec with_id x) expected)

let test_stationary_matches_materialized () =
  qcheck ~count:25 "SAN stationary = materialized GTH stationary" seed_arb (fun seed ->
      let san = random_san seed in
      let pi_kron, _, converged = San.stationary_report san in
      converged && close 1e-8 pi_kron (Ctmc.stationary (San.to_ctmc san)))

let test_krylov_matches_gth () =
  (* The GMRES answer against GTH on the materialized chain, and its
     balance residual against the stop rule it claims to have met. *)
  let tol = 1e-13 in
  qcheck ~count:60 "SAN GMRES = GTH, residual <= Lambda tol" seed_arb (fun seed ->
      let san = random_san seed in
      let pi, _, converged = San.stationary_report ~tol san in
      let gth =
        match Ctmc.stationary_gth (San.to_ctmc san) with
        | Ok pi -> pi
        | Error (`Reducible_class _) -> QCheck.Test.fail_report "GTH refused the chain"
      in
      converged
      && close 1e-8 pi gth
      && San.stationary_residual san pi <= San.uniformization_rate san *. tol)

(* ----------------------------------------------- reference kernels *)

(* The shuffle kernels the gather kernel replaced, kept as the bitwise
   reference: every mode zero-fills a scratch vector and accumulates into
   it, the transpose scatters along the columns of each factor, and each
   term ends with its own [y += coeff * src] pass. *)
module Shuffle = struct
  let spans dims =
    let nm = Array.length dims in
    let spans = Array.make nm 1 in
    for i = nm - 2 downto 0 do
      spans.(i) <- spans.(i + 1) * dims.(i + 1)
    done;
    spans

  let apply_mode dims spans n src dst m (a : Sparse.t) =
    let d = dims.(m) and right = spans.(m) in
    let left = n / (d * right) in
    Array.fill dst 0 n 0.;
    let rp = a.Sparse.row_ptr and ci = a.Sparse.col_idx and v = a.Sparse.values in
    for blk = 0 to left - 1 do
      let base = blk * d * right in
      for r = 0 to d - 1 do
        let ob = base + (r * right) in
        for k = rp.(r) to rp.(r + 1) - 1 do
          let x = v.(k) and ib = base + (ci.(k) * right) in
          for b = 0 to right - 1 do
            dst.(ob + b) <- dst.(ob + b) +. (x *. src.(ib + b))
          done
        done
      done
    done

  let apply_mode_t dims spans n src dst m (a : Sparse.t) =
    let d = dims.(m) and right = spans.(m) in
    let left = n / (d * right) in
    Array.fill dst 0 n 0.;
    let rp = a.Sparse.row_ptr and ci = a.Sparse.col_idx and v = a.Sparse.values in
    for blk = 0 to left - 1 do
      let base = blk * d * right in
      for r = 0 to d - 1 do
        let ib = base + (r * right) in
        for k = rp.(r) to rp.(r + 1) - 1 do
          let x = v.(k) and ob = base + (ci.(k) * right) in
          for b = 0 to right - 1 do
            dst.(ob + b) <- dst.(ob + b) +. (x *. src.(ib + b))
          done
        done
      done
    done

  let mul_into apply desc x =
    let dims = Kronecker.dims desc in
    let spans = spans dims and n = Kronecker.num_states desc in
    let y = Array.make n 0. and bufs = [| Array.make n 0.; Array.make n 0. |] in
    List.iter
      (fun { Kronecker.coeff; factors } ->
        let src = ref x and next = ref 0 in
        Array.iteri
          (fun m f ->
            match f with
            | Kronecker.Identity -> ()
            | Kronecker.Factor a ->
                let dst = bufs.(!next) in
                apply dims spans n !src dst m a;
                src := dst;
                next := 1 - !next)
          factors;
        for i = 0 to n - 1 do
          y.(i) <- y.(i) +. (coeff *. !src.(i))
        done)
      (Kronecker.terms desc);
    y

  let mul_vec = mul_into apply_mode
  let mul_vec_t = mul_into apply_mode_t
end

(* Values that expose any change in the order of the per-entry sums:
   signed zeros, magnitudes whose sums overflow or cancel, subnormals,
   and ordinary numbers whose rounding depends on the order. *)
let extreme rng =
  match Rng.int rng 10 with
  | 0 -> 0.
  | 1 -> -0.
  | 2 -> 1e300
  | 3 -> -1e300
  | 4 -> 4.9e-324
  | 5 -> -1e-300
  | _ -> Rng.float_range rng (-3.) 3.

(* A random descriptor over 1-4 modes of size 1-5: each factor is the
   identity or a random pattern (up to the full d x d) whose values, kept
   even when exactly zero, come from [extreme]; about one term in six has
   only identity factors. *)
let random_descriptor rng =
  let nmodes = 1 + Rng.int rng 4 in
  let dims = Array.init nmodes (fun _ -> 1 + Rng.int rng 5) in
  let factor d =
    if Rng.int rng 3 = 0 then Kronecker.Identity
    else begin
      let entries = ref [] in
      for i = 0 to d - 1 do
        for j = 0 to d - 1 do
          if Rng.int rng 3 > 0 then entries := (i, j, 1.) :: !entries
        done
      done;
      let a = Sparse.of_triplets ~rows:d ~cols:d !entries in
      Kronecker.Factor (Sparse.with_values a (Array.init (Sparse.nnz a) (fun _ -> extreme rng)))
    end
  in
  let term _ =
    let factors =
      if Rng.int rng 6 = 0 then Array.make nmodes Kronecker.Identity
      else Array.map factor dims
    in
    let coeff = match Rng.int rng 5 with 0 -> -0. | 1 -> 1e200 | _ -> Rng.float_range rng (-2.) 2. in
    { Kronecker.coeff; factors }
  in
  Kronecker.create ~dims (List.init (1 + Rng.int rng 4) term)

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let test_gather_matches_shuffle_bitwise () =
  let rng = Rng.create 2024 in
  for case = 1 to 1500 do
    let desc = random_descriptor rng in
    let n = Kronecker.num_states desc in
    let x = Array.init n (fun _ -> extreme rng) in
    let check what got want =
      if not (same_bits got want) then
        Alcotest.failf "descriptor %d (dims %s): %s differs from the shuffle kernel" case
          (String.concat "x" (Array.to_list (Array.map string_of_int (Kronecker.dims desc))))
          what
    in
    let scratch = Kronecker.scratch desc in
    let y = Array.make n Float.nan in
    Kronecker.mul_vec_into ~scratch desc x y;
    check "A x" y (Shuffle.mul_vec desc x);
    Kronecker.mul_vec_t_into ~scratch desc x y;
    check "A' x" y (Shuffle.mul_vec_t desc x)
  done

(* -------------------------------------------------------- bridged SAN *)

let spec =
  {
    Monolithic.kx = 3;
    ky = 2;
    lambda_x = 1.1;
    lambda_y = 0.7;
    cross_fraction = 0.3;
    mu_x = 1.8;
    mu_y = 1.5;
  }

let test_bridge_joint_vs_materialized () =
  let san = San_bridge.model spec in
  let pi_kron = San.stationary san in
  let pi_dense = Ctmc.stationary (San.to_ctmc san) in
  Alcotest.(check bool) "joint stationary matches materialized" true
    (close 1e-8 pi_kron pi_dense)

let test_bridge_x_marginal_is_split () =
  (* X is served at full rate whether the completion is local or cross,
     so its joint marginal is exactly the split's M/M/1/K. *)
  let sol = San_bridge.solve spec in
  let split = Monolithic.solve_split spec in
  Alcotest.(check bool) "converged" true sol.San_bridge.converged;
  Alcotest.(check bool) "x marginal" true
    (close 1e-8 sol.San_bridge.x_dist split.Monolithic.x_dist);
  Alcotest.(check (float 1e-8)) "x loss" split.Monolithic.x_loss sol.San_bridge.x_loss

let test_bridge_decoupled_boundary () =
  (* cross_fraction = 0: the bridge stays empty and both buses are
     independent M/M/1/K queues — split and joint must agree exactly. *)
  let s0 = { spec with Monolithic.cross_fraction = 0. } in
  let g = San_bridge.compare_split s0 in
  let j = g.San_bridge.joint and sp = g.San_bridge.split in
  Alcotest.(check bool) "y marginal" true
    (close 1e-8 j.San_bridge.y_dist sp.Monolithic.y_dist);
  Alcotest.(check (float 1e-8)) "y loss" sp.Monolithic.y_loss j.San_bridge.y_loss;
  Alcotest.(check (float 1e-10)) "bridge empty" 1. j.San_bridge.bridge_dist.(0)

let test_bridge_warm_equals_cold () =
  (* The split-product warm seed must not move the fixed point. *)
  let warm = San_bridge.solve ~warm_start:true spec in
  let cold = San_bridge.solve ~warm_start:false spec in
  Alcotest.(check bool) "same joint answer" true
    (close 1e-8 warm.San_bridge.bridge_dist cold.San_bridge.bridge_dist
    && close 1e-8 warm.San_bridge.y_dist cold.San_bridge.y_dist);
  Alcotest.(check bool) "warm start not slower"
    true
    (warm.San_bridge.sweeps <= cold.San_bridge.sweeps)

let bridge_spec k =
  {
    Monolithic.kx = k;
    ky = k;
    lambda_x = 1.5;
    lambda_y = 1.2;
    cross_fraction = 0.25;
    mu_x = 2.4;
    mu_y = 2.2;
  }

let test_bridge_dense_crosscheck () =
  (* The small end of the state-space sweep (125, 729 and 5832 joint
     states): the 1e-9 split comparison converges within its sweep cap,
     and a cold default-tolerance solve through the Kronecker SpMV
     matches the solve on the materialized generator.  At 5832 states
     the cold start is the case where GMRES stalls and the uniformized
     sweep finishes the solve.  The split-product seed must land on the
     same vector. *)
  List.iter
    (fun k ->
      let spec = bridge_spec k in
      let g = San_bridge.compare_split ~tol:1e-9 ~max_sweeps:100_000 spec in
      Alcotest.(check bool)
        (Printf.sprintf "k=%d converged" k)
        true g.San_bridge.joint.San_bridge.converged;
      let san = San_bridge.model spec in
      let pi_dense = Ctmc.stationary (San.to_ctmc san) in
      let check what pi =
        let d = max_abs_diff pi pi_dense in
        if d > 1e-8 then Alcotest.failf "k=%d %s: |pi_kron - pi_dense| = %.3e" k what d
      in
      let pi_cold, _, converged = San.stationary_report san in
      Alcotest.(check bool) (Printf.sprintf "k=%d cold converged" k) true converged;
      check "cold" pi_cold;
      check "seeded" (San.stationary ~init:(San_bridge.split_seed spec) san))
    [ 4; 8; 17 ]

let test_bridge_loss_k17 () =
  (* The bridge loss at k = 17 is a tail probability near 1e-9, the
     quantity most sensitive to how the residual's error is spread over
     the states.  Reference: uniformized power iteration at tol 1e-13
     (residual 1.4e-12) gives 1.11973453e-09, and GMRES at 1e-13 agrees
     to 1e-16.  At the CLI's default --tol 1e-12 the loss must be at
     least as close to it as power iteration at --tol 1e-9 was
     (2.0e-14). *)
  let sol = San_bridge.solve ~tol:1e-12 (bridge_spec 17) in
  Alcotest.(check bool) "converged" true sol.San_bridge.converged;
  let err = Float.abs (sol.San_bridge.bridge_loss -. 1.11973453e-09) in
  if err > 2e-14 then
    Alcotest.failf "k=17 bridge loss %.10e is %.2e off the reference"
      sol.San_bridge.bridge_loss err

let test_bridge_fixed_point_seed () =
  (* A seed that already meets the stop rule costs no operator
     application at all. *)
  let san = San_bridge.model spec in
  let pi, _, converged = San.stationary_report san in
  Alcotest.(check bool) "converged" true converged;
  let again, iters, converged = San.stationary_report ~init:pi san in
  Alcotest.(check bool) "still converged" true converged;
  Alcotest.(check int) "iterations" 0 iters;
  Alcotest.(check bool) "same vector" true (close 1e-15 again pi)

(* The CLI built next to this test (see the [deps] of test/dune). *)
let cli = Filename.concat (Filename.concat ".." "bin") "bufsize_cli.exe"

let test_bridge_sweep_cap () =
  let sol = San_bridge.solve ~max_sweeps:5 (bridge_spec 8) in
  Alcotest.(check bool) "converged" false sol.San_bridge.converged;
  Alcotest.(check int) "sweeps" 5 sol.San_bridge.sweeps;
  let cmd =
    Filename.quote_command cli ~stdout:Filename.null ~stderr:Filename.null
      [ "kron"; "--kx"; "8"; "--ky"; "8"; "--max-sweeps"; "5" ]
  in
  Alcotest.(check int) "bufsize kron exit code" 1 (Sys.command cmd);
  let ok =
    Filename.quote_command cli ~stdout:Filename.null ~stderr:Filename.null
      [ "kron"; "--kx"; "4"; "--ky"; "4" ]
  in
  Alcotest.(check int) "converged run exit code" 0 (Sys.command ok)

let test_san_case_serialization_roundtrip () =
  qcheck ~count:60 "san_case survives to_string/of_string" seed_arb (fun seed ->
      let c = Gen_model.san_case (Rng.create (1 + seed)) in
      match Gen_model.san_case_of_string (Gen_model.san_case_to_string c) with
      | Error e -> QCheck.Test.fail_report ("parse error: " ^ e)
      | Ok c' ->
          (* Equality through the compiled semantics: same dims and same
             operator action on a probe vector. *)
          let s = Gen_model.san_of_case c and s' = Gen_model.san_of_case c' in
          let d = San.descriptor s and d' = San.descriptor s' in
          Kronecker.dims d = Kronecker.dims d'
          &&
          let x = random_vec (Rng.create (seed + 3)) (San.num_states s) in
          max_abs_diff (Kronecker.mul_vec d x) (Kronecker.mul_vec d' x) = 0.)

let () =
  Alcotest.run "kron"
    [
      ( "descriptor",
        [
          Alcotest.test_case "encode/decode round-trip (property)" `Quick
            test_encode_decode_roundtrip;
          Alcotest.test_case "SpMV vs materialized (property)" `Quick
            test_spmv_matches_materialized;
          Alcotest.test_case "adjointness (property)" `Quick test_adjointness;
          Alcotest.test_case "generator row sums (property)" `Quick
            test_generator_row_sums_zero;
          Alcotest.test_case "term-order independence (property)" `Quick
            test_term_order_independence;
          Alcotest.test_case "hand-computed Kronecker product" `Quick
            test_hand_kronecker_product;
          Alcotest.test_case "gather kernel = shuffle kernels, bit for bit" `Quick
            test_gather_matches_shuffle_bitwise;
        ] );
      ( "stationary",
        [
          Alcotest.test_case "SAN vs materialized (property)" `Quick
            test_stationary_matches_materialized;
          Alcotest.test_case "GMRES = GTH, residual (property)" `Quick
            test_krylov_matches_gth;
        ] );
      ( "bridge",
        [
          Alcotest.test_case "joint vs materialized" `Quick test_bridge_joint_vs_materialized;
          Alcotest.test_case "X marginal is the split M/M/1/K" `Quick
            test_bridge_x_marginal_is_split;
          Alcotest.test_case "decoupled boundary" `Quick test_bridge_decoupled_boundary;
          Alcotest.test_case "warm seed holds the fixed point" `Quick
            test_bridge_warm_equals_cold;
          Alcotest.test_case "dense crosscheck at k = 4, 8, 17" `Quick
            test_bridge_dense_crosscheck;
          Alcotest.test_case "k = 17 bridge loss at --tol 1e-12" `Quick
            test_bridge_loss_k17;
          Alcotest.test_case "fixed-point seed costs 0 iterations" `Quick
            test_bridge_fixed_point_seed;
          Alcotest.test_case "sweep cap: unconverged, exit 1" `Quick
            test_bridge_sweep_cap;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "repro round-trip (property)" `Quick
            test_san_case_serialization_roundtrip;
        ] );
    ]
