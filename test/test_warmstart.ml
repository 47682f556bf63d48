(* Tests for the warm-start & incremental-solve machinery: LU storage
   reuse, warm simplex bases (acceptance, garbage and singular fallback),
   the exact-key solve cache, CTMC rate patching and seeded iterations,
   and chunked pool determinism. *)

module Lp = Bufsize_numeric.Lp
module Lu = Bufsize_numeric.Lu
module Mat = Bufsize_numeric.Mat
module Solve_cache = Bufsize_numeric.Solve_cache
module Simplex_revised = Bufsize_numeric.Simplex_revised
module Ctmc = Bufsize_prob.Ctmc
module Pool = Bufsize_pool.Pool

let check_float = Alcotest.(check (float 1e-9))

(* Restore the process-wide cache / warm-start switches around a test so
   test order never matters. *)
let with_clean_globals f =
  let cached = Solve_cache.enabled () and warm = Lp.warm_start_enabled () in
  Fun.protect
    ~finally:(fun () ->
      Solve_cache.set_enabled cached;
      Lp.set_warm_start warm;
      Solve_cache.clear_all ())
    f

(* ------------------------------------------------------------------- lu *)

let mat_a = Mat.of_rows [| [| 4.; 1.; 0. |]; [| 1.; 3.; 1. |]; [| 0.; 1.; 2. |] |]
let mat_b = Mat.of_rows [| [| 2.; 1.; 1. |]; [| 1.; 5.; 0. |]; [| 1.; 0.; 3. |] |]

let test_refactorize_matches_fresh () =
  let f = Lu.factorize mat_a in
  (match Lu.refactorize f mat_b with
  | Ok () -> ()
  | Error k -> Alcotest.failf "refactorize failed at step %d" k);
  let b = [| 1.; 2.; 3. |] in
  let reused = Lu.solve_factorized f b in
  let fresh = Lu.solve_factorized (Lu.factorize mat_b) b in
  Array.iteri
    (fun i x ->
      Alcotest.(check bool)
        (Printf.sprintf "component %d bitwise" i)
        true
        (Int64.bits_of_float x = Int64.bits_of_float fresh.(i)))
    reused

let test_refactorize_singular_then_recover () =
  let f = Lu.factorize mat_a in
  let singular = Mat.of_rows [| [| 1.; 2.; 3. |]; [| 2.; 4.; 6. |]; [| 0.; 1.; 1. |] |] in
  (match Lu.refactorize f singular with
  | Ok () -> Alcotest.fail "refactorize accepted a singular matrix"
  | Error _ -> ());
  (* A later refactorize fully rewrites the partial elimination. *)
  (match Lu.refactorize f mat_a with
  | Ok () -> ()
  | Error k -> Alcotest.failf "recovery refactorize failed at step %d" k);
  let x = Lu.solve_factorized f [| 5.; 5.; 3. |] in
  let r = Lu.residual_norm mat_a x [| 5.; 5.; 3. |] in
  Alcotest.(check bool) "recovered solve is exact" true (r <= 1e-10)

let test_refactorize_dim_mismatch () =
  let f = Lu.factorize mat_a in
  Alcotest.check_raises "size mismatch rejected"
    (Invalid_argument "Lu.refactorize: dimension mismatch") (fun () ->
      ignore (Lu.refactorize f (Mat.identity 2)))

(* ------------------------------------------------------------ warm bases *)

(* max 3x + 2y st x + y <= 4, x <= 3, y <= 3: optimum 11 at (3, 1). *)
let small_lp () =
  let lp = Lp.create ~name:"warm-test" Lp.Maximize in
  let x = Lp.add_var ~name:"x" lp in
  let y = Lp.add_var ~name:"y" lp in
  Lp.add_constraint lp [ (1., x); (1., y) ] Lp.Le 4.;
  Lp.add_constraint lp [ (1., x) ] Lp.Le 3.;
  Lp.add_constraint lp [ (1., y) ] Lp.Le 3.;
  Lp.set_objective lp [ (3., x); (2., y) ];
  lp

let solve_opt ?warm_basis lp =
  match Lp.solve ~engine:Lp.Revised ?warm_basis lp with
  | Lp.Optimal s -> s
  | Lp.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Lp.Unbounded -> Alcotest.fail "unexpected unbounded"

let test_warm_basis_resolve () =
  let cold = solve_opt (small_lp ()) in
  check_float "cold objective" 11. cold.Lp.objective;
  let acc0, _ = Simplex_revised.warm_stats () in
  let warm = solve_opt ~warm_basis:cold.Lp.basis (small_lp ()) in
  let acc1, _ = Simplex_revised.warm_stats () in
  check_float "warm objective" 11. warm.Lp.objective;
  Alcotest.(check bool) "warm basis accepted" true (acc1 > acc0)

let test_garbage_basis_falls_back () =
  let cold = solve_opt (small_lp ()) in
  let _, rej0 = Simplex_revised.warm_stats () in
  (* Duplicate indices: structurally invalid, must be rejected cheaply. *)
  let warm = solve_opt ~warm_basis:[| 0; 0; 0 |] (small_lp ()) in
  let _, rej1 = Simplex_revised.warm_stats () in
  check_float "fallback objective" cold.Lp.objective warm.Lp.objective;
  Alcotest.(check bool) "garbage basis rejected" true (rej1 > rej0)

let test_singular_basis_falls_back () =
  (* x and y have identical constraint columns, so the warm basis {x, y}
     is numerically singular: refactorization must fail gracefully and the
     cold solve must still deliver a clean optimum — never NaN. *)
  let lp () =
    let lp = Lp.create ~name:"singular-warm" Lp.Minimize in
    let x = Lp.add_var ~name:"x" lp in
    let y = Lp.add_var ~name:"y" lp in
    Lp.add_constraint lp [ (1., x); (1., y) ] Lp.Eq 1.;
    Lp.add_constraint lp [ (1., x); (1., y) ] Lp.Le 2.;
    Lp.set_objective lp [ (1., x); (2., y) ];
    lp
  in
  let _, rej0 = Simplex_revised.warm_stats () in
  let o, diag = Lp.solve_diag ~warm_basis:[| 0; 1 |] (lp ()) in
  let _, rej1 = Simplex_revised.warm_stats () in
  (match o with
  | Some (Lp.Optimal s) ->
      Alcotest.(check bool) "objective finite" true (Float.is_finite s.Lp.objective);
      check_float "optimum" 1. s.Lp.objective
  | _ -> Alcotest.fail "singular warm basis broke the solve");
  (match diag.Bufsize_resilience.Resilience.status with
  | Bufsize_resilience.Resilience.Failed r -> Alcotest.failf "diagnostic Failed: %s" r
  | _ -> ());
  Alcotest.(check bool) "singular basis rejected" true (rej1 > rej0)

let test_warm_registry_hand_off () =
  with_clean_globals (fun () ->
      Solve_cache.set_enabled false;
      (* cache off so the second solve really re-runs *)
      Lp.set_warm_start true;
      let first =
        match Lp.solve_diag (small_lp ()) with
        | Some (Lp.Optimal s), _ -> s
        | _ -> Alcotest.fail "first solve failed"
      in
      let acc0, _ = Simplex_revised.warm_stats () in
      let second =
        match Lp.solve_diag (small_lp ()) with
        | Some (Lp.Optimal s), _ -> s
        | _ -> Alcotest.fail "second solve failed"
      in
      let acc1, _ = Simplex_revised.warm_stats () in
      check_float "same objective" first.Lp.objective second.Lp.objective;
      Alcotest.(check bool) "registry basis accepted" true (acc1 > acc0))

(* ------------------------------------------------------------ solve cache *)

let test_cache_hit_miss_lru () =
  with_clean_globals (fun () ->
      Solve_cache.set_enabled true;
      let c : int Solve_cache.t = Solve_cache.create ~capacity:2 "test" in
      Alcotest.(check (option int)) "initial miss" None (Solve_cache.find c "a");
      Solve_cache.add c "a" 1;
      Solve_cache.add c "b" 2;
      Alcotest.(check (option int)) "hit a" (Some 1) (Solve_cache.find c "a");
      Alcotest.(check (option int)) "hit b" (Some 2) (Solve_cache.find c "b");
      (* Capacity 2: inserting c evicts the least recently used (a was
         touched after b? — order: find a, find b, so a is older). *)
      Solve_cache.add c "c" 3;
      Alcotest.(check (option int)) "lru evicted" None (Solve_cache.find c "a");
      Alcotest.(check (option int)) "recent kept" (Some 2) (Solve_cache.find c "b");
      Alcotest.(check (option int)) "new kept" (Some 3) (Solve_cache.find c "c");
      Alcotest.(check bool) "hits counted" true (Solve_cache.hits c >= 4);
      Alcotest.(check bool) "misses counted" true (Solve_cache.misses c >= 2))

let test_cache_disabled () =
  with_clean_globals (fun () ->
      Solve_cache.set_enabled true;
      let c : int Solve_cache.t = Solve_cache.create "test-disabled" in
      Solve_cache.add c "k" 42;
      Alcotest.(check (option int)) "stored" (Some 42) (Solve_cache.find c "k");
      Solve_cache.set_enabled false;
      Alcotest.(check (option int)) "disabled find" None (Solve_cache.find c "k");
      let h = Solve_cache.hits c and m = Solve_cache.misses c in
      ignore (Solve_cache.find c "k");
      Alcotest.(check int) "no hit counted when off" h (Solve_cache.hits c);
      Alcotest.(check int) "no miss counted when off" m (Solve_cache.misses c);
      Solve_cache.set_enabled true;
      Alcotest.(check (option int)) "re-enabled find" (Some 42) (Solve_cache.find c "k"))

let test_lp_result_cache () =
  with_clean_globals (fun () ->
      Solve_cache.set_enabled true;
      Solve_cache.clear_all ();
      Lp.set_warm_start false;
      let h0, m0 = Lp.cache_stats () in
      let first =
        match Lp.solve_diag (small_lp ()) with
        | Some (Lp.Optimal s), _ -> s
        | _ -> Alcotest.fail "first solve failed"
      in
      let second =
        match Lp.solve_diag (small_lp ()) with
        | Some (Lp.Optimal s), _ -> s
        | _ -> Alcotest.fail "second solve failed"
      in
      let h1, m1 = Lp.cache_stats () in
      Alcotest.(check bool) "one miss then one hit" true (h1 = h0 + 1 && m1 = m0 + 1);
      Alcotest.(check bool) "bitwise identical objective" true
        (Int64.bits_of_float first.Lp.objective = Int64.bits_of_float second.Lp.objective))

let test_canonical_distinguishes () =
  let a = Lp.canonical (small_lp ()) in
  let b = Lp.canonical (small_lp ()) in
  Alcotest.(check string) "canonical is deterministic" a b;
  let lp = small_lp () in
  let other = Lp.create ~name:"warm-test" Lp.Maximize in
  let x = Lp.add_var ~name:"x" other in
  let y = Lp.add_var ~name:"y" other in
  Lp.add_constraint other [ (1., x); (1., y) ] Lp.Le 4.;
  Lp.add_constraint other [ (1., x) ] Lp.Le 3.;
  Lp.add_constraint other [ (1., y) ] Lp.Le 3.000000000000001;
  Lp.set_objective other [ (3., x); (2., y) ];
  Alcotest.(check bool) "one-ulp rhs difference changes the key" true
    (Lp.canonical lp <> Lp.canonical other)

(* The binary key must separate models whose numbers differ only in bits
   a decimal print could lose, and models whose sections hold the same
   terms split differently. *)
let test_canonical_bitwise_and_framed () =
  let model ?(name = "m") ?(lb = 0.) ~obj ~coef ~rhs () =
    let lp = Lp.create ~name Lp.Minimize in
    let x = Lp.add_var ~lb lp in
    let y = Lp.add_var lp in
    Lp.add_constraint lp [ (1., x); (coef, y) ] Lp.Eq rhs;
    Lp.set_objective lp (List.map (fun (c, v) -> (c, [| x; y |].(v))) obj);
    lp
  in
  let key = Lp.canonical in
  let base = model ~obj:[ (1., 0); (2., 1) ] ~coef:0.5 ~rhs:0. () in
  let distinct label a b = Alcotest.(check bool) label true (a <> b) in
  distinct "1-ulp coefficient" (key base)
    (key (model ~obj:[ (1., 0); (2., 1) ] ~coef:(Float.succ 0.5) ~rhs:0. ()));
  distinct "1-ulp objective" (key base)
    (key (model ~obj:[ (1., 0); (Float.pred 2., 1) ] ~coef:0.5 ~rhs:0. ()));
  distinct "0. vs -0. right-hand side" (key base)
    (key (model ~obj:[ (1., 0); (2., 1) ] ~coef:0.5 ~rhs:(-0.) ()));
  distinct "0. vs -0. coefficient"
    (key (model ~obj:[ (1., 0) ] ~coef:0. ~rhs:1. ()))
    (key (model ~obj:[ (1., 0) ] ~coef:(-0.) ~rhs:1. ()));
  (* Without per-section counts both byte streams would read
     (x, 5.) (y, 1.): once as a lower bound then an objective term, once
     as two objective terms. *)
  distinct "bound vs objective term"
    (key (model ~lb:5. ~obj:[ (1., 1) ] ~coef:0.5 ~rhs:0. ()))
    (key (model ~obj:[ (5., 0); (1., 1) ] ~coef:0.5 ~rhs:0. ()));
  distinct "name vs tag boundary"
    (key ~tag:"c" (model ~name:"ab" ~obj:[] ~coef:0.5 ~rhs:0. ()))
    (key ~tag:"bc" (model ~name:"a" ~obj:[] ~coef:0.5 ~rhs:0. ()))

(* Published 64-bit FNV-1a vectors: the bucket hash is a fixed function. *)
let test_fnv1a_vectors () =
  List.iter
    (fun (s, h) -> Alcotest.(check int64) (Printf.sprintf "fnv1a %S" s) h (Solve_cache.fnv1a s))
    [ ("", 0xcbf29ce484222325L); ("a", 0xaf63dc4c8601ec8cL); ("foobar", 0x85944171f73967e8L) ]

(* Hammer one cache from several domains at once.  The invariants: a hit
   never returns a value that disagrees with the key it was stored under,
   the hit/miss counters account for every find exactly once, and
   concurrent inserts never push the table past its capacity. *)
let test_cache_concurrent_stress () =
  with_clean_globals (fun () ->
      Solve_cache.set_enabled true;
      let capacity = 32 in
      let c : int Solve_cache.t = Solve_cache.create ~capacity "stress" in
      let finds = Atomic.make 0 and wrong = Atomic.make 0 in
      let pool = Pool.create ~oversubscribe:true 4 in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () ->
          ignore
            (Pool.map_array ~pool ~chunk:1
               (fun d ->
                 let rng = Random.State.make [| 42 + d |] in
                 for _ = 1 to 2000 do
                   let k = Random.State.int rng 64 in
                   let key = Printf.sprintf "key-%d" k in
                   (match Solve_cache.find c key with
                   | Some v -> if v <> k then Atomic.incr wrong
                   | None -> Solve_cache.add c key k);
                   Atomic.incr finds
                 done)
               [| 0; 1; 2; 3 |]));
      Alcotest.(check int) "no torn values" 0 (Atomic.get wrong);
      Alcotest.(check int) "hits + misses = find calls" (Atomic.get finds)
        (Solve_cache.hits c + Solve_cache.misses c);
      Alcotest.(check bool) "never past capacity" true (Solve_cache.length c <= capacity))

(* ------------------------------------------------------------------ ctmc *)

let ring_rates = [ (0, 1, 2.); (1, 2, 1.5); (2, 0, 0.75); (0, 2, 0.25) ]

let test_patch_rates_bitwise () =
  let t0 = Ctmc.of_rates 3 ring_rates in
  let scaled = List.map (fun (i, j, r) -> (i, j, r *. 1.5)) ring_rates in
  match Ctmc.patch_rates t0 scaled with
  | None -> Alcotest.fail "patch_rates rejected a same-pattern change"
  | Some patched ->
      let rebuilt = Ctmc.of_rates 3 scaled in
      for i = 0 to 2 do
        Alcotest.(check bool)
          (Printf.sprintf "exit %d bitwise" i)
          true
          (Int64.bits_of_float (Ctmc.exit_rate patched i)
          = Int64.bits_of_float (Ctmc.exit_rate rebuilt i));
        for j = 0 to 2 do
          if i <> j then
            Alcotest.(check bool)
              (Printf.sprintf "rate %d->%d bitwise" i j)
              true
              (Int64.bits_of_float (Ctmc.rate patched i j)
              = Int64.bits_of_float (Ctmc.rate rebuilt i j))
        done
      done

let test_patch_rates_pattern_shift () =
  let t0 = Ctmc.of_rates 3 ring_rates in
  (* A transition at a position the pattern does not have. *)
  Alcotest.(check bool) "new position rejected" true
    (Ctmc.patch_rates t0 ((1, 0, 1.) :: ring_rates) = None);
  (* A previously present position vanishing. *)
  Alcotest.(check bool) "dropped position rejected" true
    (Ctmc.patch_rates t0 (List.tl ring_rates) = None);
  (* Invalid triples. *)
  Alcotest.(check bool) "self loop rejected" true
    (Ctmc.patch_rates t0 [ (0, 0, 1.) ] = None)

let test_seeded_stationary () =
  let t0 = Ctmc.of_rates 3 ring_rates in
  let nearby = Ctmc.of_rates 3 (List.map (fun (i, j, r) -> (i, j, r *. 1.1)) ring_rates) in
  let seed = Ctmc.stationary_iterative t0 in
  let cold = Ctmc.stationary_iterative nearby in
  let warm = Ctmc.stationary_iterative ~init:seed nearby in
  Array.iteri (fun i p -> check_float (Printf.sprintf "pi(%d)" i) cold.(i) p) warm;
  (* Malformed seeds are ignored, not fatal. *)
  let junk = Ctmc.stationary_iterative ~init:[| 1.; 2. |] nearby in
  Array.iteri (fun i p -> check_float (Printf.sprintf "junk pi(%d)" i) cold.(i) p) junk

(* ------------------------------------------------------------------ pool *)

let test_chunked_pool_determinism () =
  let input = Array.init 101 (fun i -> i) in
  let expected = Array.mapi (fun i x -> (i * 3) + x) input in
  let pool = Pool.create ~oversubscribe:true 3 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      List.iter
        (fun chunk ->
          let got = Pool.mapi_array ~pool ~chunk (fun i x -> (i * 3) + x) input in
          Alcotest.(check (array int))
            (Printf.sprintf "chunk %d" chunk)
            expected got)
        [ 1; 3; 7; 64; 1000 ])

let () =
  Alcotest.run "warmstart"
    [
      ( "lu-reuse",
        [
          Alcotest.test_case "refactorize matches fresh" `Quick test_refactorize_matches_fresh;
          Alcotest.test_case "singular then recover" `Quick
            test_refactorize_singular_then_recover;
          Alcotest.test_case "dimension mismatch" `Quick test_refactorize_dim_mismatch;
        ] );
      ( "warm-basis",
        [
          Alcotest.test_case "re-solve from optimal basis" `Quick test_warm_basis_resolve;
          Alcotest.test_case "garbage basis falls back" `Quick test_garbage_basis_falls_back;
          Alcotest.test_case "singular basis falls back" `Quick test_singular_basis_falls_back;
          Alcotest.test_case "registry hand-off" `Quick test_warm_registry_hand_off;
        ] );
      ( "solve-cache",
        [
          Alcotest.test_case "hit, miss, lru" `Quick test_cache_hit_miss_lru;
          Alcotest.test_case "disabled mode" `Quick test_cache_disabled;
          Alcotest.test_case "lp result cache" `Quick test_lp_result_cache;
          Alcotest.test_case "canonical key" `Quick test_canonical_distinguishes;
          Alcotest.test_case "canonical key is bitwise and framed" `Quick
            test_canonical_bitwise_and_framed;
          Alcotest.test_case "fnv1a test vectors" `Quick test_fnv1a_vectors;
          Alcotest.test_case "concurrent stress" `Quick test_cache_concurrent_stress;
        ] );
      ( "ctmc-incremental",
        [
          Alcotest.test_case "patch bitwise" `Quick test_patch_rates_bitwise;
          Alcotest.test_case "pattern shifts rejected" `Quick test_patch_rates_pattern_shift;
          Alcotest.test_case "seeded stationary" `Quick test_seeded_stationary;
        ] );
      ( "pool-chunking",
        [ Alcotest.test_case "chunked determinism" `Quick test_chunked_pool_determinism ] );
    ]
