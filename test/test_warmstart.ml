(* Tests for the incremental-solve machinery: LU storage reuse, the
   exact-key solve caches and their global switch, CTMC rate
   patching and seeded iterations. *)

module Obs = Bufsize_obs.Obs
module Lu = Bufsize_numeric.Lu
module Mat = Bufsize_numeric.Mat
module Solve_cache = Bufsize_numeric.Solve_cache
module Sizing = Bufsize_soc.Sizing
module Spec_parser = Bufsize_soc.Spec_parser
module Ctmc = Bufsize_prob.Ctmc

let check_float = Alcotest.(check (float 1e-9))

(* Restore the process-wide cache switch around a test so test order
   never matters. *)
let with_clean_globals f =
  let cached = Solve_cache.enabled () in
  Fun.protect
    ~finally:(fun () ->
      Solve_cache.set_enabled cached;
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

(* The sizing occupancy bound is fraction * B / (B / L) levels, so
   doubling the budget B leaves the constrained problem unchanged.  The
   sizing path solves it by price, not by LP, so the 2B run misses the
   sizing memo (its key holds the budget), solves no LP at all, and its
   answer is bitwise the cache-off one.  A second 2B run is then a
   sizing-memo hit, with the same bits again. *)
let test_doubled_budget_bitwise () =
  with_clean_globals (fun () ->
      let spec =
        "bus a rate 8.0\nbus b rate 8.0\nproc p on a\nproc q on b\nbridge br a b\n\
         flow p -> q rate 1.0\nflow q -> p rate 0.5\n"
      in
      let traffic = match Spec_parser.parse spec with Ok (_, t) -> t | Error e -> failwith e in
      let run budget =
        Sizing.run { (Sizing.default_config ~budget) with Sizing.max_states = 16 } traffic
      in
      Solve_cache.set_enabled false;
      let cold = run 16 in
      Solve_cache.set_enabled true;
      Solve_cache.clear_all ();
      ignore (run 8);
      let lp_solves = Obs.counter "lp.solves" in
      let counted f =
        Obs.enable_metrics ();
        Fun.protect ~finally:Obs.disable f
      in
      let lp0 = Obs.counter_value lp_solves and sz0 = Sizing.cache_stats () in
      let served = counted (fun () -> run 16) in
      let sz_hits, sz_misses = Sizing.cache_stats () in
      Alcotest.(check int) "no lp solve" lp0 (Obs.counter_value lp_solves);
      Alcotest.(check (pair int int)) "one sizing cache miss, no hit" (fst sz0, snd sz0 + 1)
        (sz_hits, sz_misses);
      let memo = counted (fun () -> run 16) in
      Alcotest.(check (pair int int)) "one sizing cache hit" (sz_hits + 1, sz_misses)
        (Sizing.cache_stats ());
      Alcotest.(check int) "still no lp solve" lp0 (Obs.counter_value lp_solves);
      let bits = Int64.bits_of_float in
      List.iter
        (fun (what, r) ->
          Alcotest.(check bool) (what ^ ": allocation as cache-off") true
            (r.Sizing.allocation = cold.Sizing.allocation);
          Alcotest.(check int64) (what ^ ": loss bitwise as cache-off")
            (bits cold.Sizing.predicted_loss_rate) (bits r.Sizing.predicted_loss_rate);
          Alcotest.(check int64) (what ^ ": words per level bitwise as cache-off")
            (bits cold.Sizing.words_per_level) (bits r.Sizing.words_per_level);
          Alcotest.(check bool) (what ^ ": bound activity as cache-off")
            cold.Sizing.budget_bound_active r.Sizing.budget_bound_active;
          Alcotest.(check int64) (what ^ ": bound price bitwise as cache-off")
            (bits cold.Sizing.bound_price) (bits r.Sizing.bound_price))
        [ ("sizing miss", served); ("sizing hit", memo) ])

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
      let hammer d () =
        let rng = Random.State.make [| 42 + d |] in
        for _ = 1 to 2000 do
          let k = Random.State.int rng 64 in
          let key = Printf.sprintf "key-%d" k in
          (match Solve_cache.find c key with
          | Some v -> if v <> k then Atomic.incr wrong
          | None -> Solve_cache.add c key k);
          Atomic.incr finds
        done
      in
      List.init 4 (fun d -> Domain.spawn (hammer d)) |> List.iter Domain.join;
      Alcotest.(check int) "no torn values" 0 (Atomic.get wrong);
      Alcotest.(check int) "hits + misses = find calls" (Atomic.get finds)
        (Solve_cache.hits c + Solve_cache.misses c);
      Alcotest.(check bool) "never past capacity" true (Solve_cache.length c <= capacity))

(* ------------------------------------------------------------------ ctmc *)

let ring_rates = [ (0, 1, 2.); (1, 2, 1.5); (2, 0, 0.75); (0, 2, 0.25) ]

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
      ( "solve-cache",
        [
          Alcotest.test_case "hit, miss, lru" `Quick test_cache_hit_miss_lru;
          Alcotest.test_case "disabled mode" `Quick test_cache_disabled;
          Alcotest.test_case "2x budget bitwise, no lp lookup" `Quick
            test_doubled_budget_bitwise;
          Alcotest.test_case "concurrent stress" `Quick test_cache_concurrent_stress;
        ] );
      ( "ctmc-incremental",
        [
          Alcotest.test_case "seeded stationary" `Quick test_seeded_stationary;
        ] );
    ]
