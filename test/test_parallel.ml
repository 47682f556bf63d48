(* Tests for the multicore layer: the domain pool and its size override,
   parallel replication determinism, mergeable statistics and derived
   replication seeds. *)

module Pool = Bufsize_pool.Pool
module Stats = Bufsize_numeric.Stats
module Rng = Bufsize_prob.Rng
module Topology = Bufsize_soc.Topology
module Traffic = Bufsize_soc.Traffic
module Buffer_alloc = Bufsize_soc.Buffer_alloc
module Sim_run = Bufsize_sim.Sim_run
module Replicate = Bufsize_sim.Replicate

(* Tests must exercise real multi-domain execution even on single-core CI
   runners, so they lift the core-count cap. *)
let with_pool k f =
  let pool = Pool.create ~oversubscribe:true k in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* ------------------------------------------------------- pool size env *)

(* Run [f] with BUFSIZE_NUM_DOMAINS set to [v].  The environment cannot be
   unset portably, so an originally absent variable is restored to the
   value [default_size] would have picked anyway. *)
let with_domains_env v f =
  let var = "BUFSIZE_NUM_DOMAINS" in
  let restore =
    match Sys.getenv_opt var with
    | Some old -> old
    | None -> string_of_int (Domain.recommended_domain_count ())
  in
  Unix.putenv var v;
  Fun.protect ~finally:(fun () -> Unix.putenv var restore) f

let test_domains_env_accepted () =
  List.iter
    (fun (v, expected) ->
      with_domains_env v (fun () ->
          Alcotest.(check int) (Printf.sprintf "%S" v) expected (Pool.default_size ())))
    [ ("1", 1); ("3", 3); (" 2 ", 2); ("16", 16) ]

let test_domains_env_rejected () =
  let contains s sub =
    let n = String.length s and k = String.length sub in
    let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun v ->
      with_domains_env v (fun () ->
          match Pool.default_size () with
          | exception Invalid_argument msg ->
              Alcotest.(check bool)
                (Printf.sprintf "%S: message names the variable" v)
                true
                (contains msg "BUFSIZE_NUM_DOMAINS")
          | n -> Alcotest.failf "%S: expected Invalid_argument, got %d" v n))
    [ "0"; "-2"; "four"; ""; "1.5" ]

(* ------------------------------------------------------------------ pool *)

(* Uneven per-item work so a work-stealing bug that permutes results would
   actually be exercised: item i spins proportionally to a hash of i. *)
let busy_square i =
  let spin = 1 + ((i * 2654435761) land 0xff) in
  let acc = ref 0 in
  for k = 1 to spin do
    acc := (!acc + (k * k)) land max_int
  done;
  ignore !acc;
  i * i

let test_pool_matches_sequential () =
  let input = Array.init 257 Fun.id in
  let expected = Array.map busy_square input in
  List.iter
    (fun k ->
      with_pool k (fun pool ->
          let got = Pool.map_array ~pool busy_square input in
          Alcotest.(check (array int))
            (Printf.sprintf "pool size %d" k)
            expected got))
    [ 1; 2; 3 ]

let test_pool_mapi_indices () =
  let input = Array.make 100 "x" in
  with_pool 3 (fun pool ->
      let got = Pool.mapi_array ~pool (fun i s -> (i, s)) input in
      Array.iteri
        (fun i (j, s) ->
          Alcotest.(check int) "index" i j;
          Alcotest.(check string) "value" "x" s)
        got)

let test_pool_empty_and_singleton () =
  with_pool 3 (fun pool ->
      Alcotest.(check (array int)) "empty" [||] (Pool.map_array ~pool busy_square [||]);
      Alcotest.(check (array int)) "singleton" [| 49 |] (Pool.map_array ~pool busy_square [| 7 |]))

let test_pool_exception_propagates () =
  with_pool 3 (fun pool ->
      Alcotest.check_raises "worker exception reaches caller" (Failure "item 17") (fun () ->
          ignore
            (Pool.map_array ~pool
               (fun i -> if i = 17 then failwith "item 17" else busy_square i)
               (Array.init 64 Fun.id)));
      (* the pool must still be usable after a failed batch *)
      Alcotest.(check (array int))
        "pool survives" [| 0; 1; 4 |]
        (Pool.map_array ~pool (fun i -> i * i) [| 0; 1; 2 |]))

let test_pool_nested_calls_fall_back () =
  (* A nested map_array on the same pool must not deadlock: the inner call
     finds the pool busy and runs sequentially on the calling domain. *)
  with_pool 2 (fun pool ->
      let got =
        Pool.map_array ~pool
          (fun i ->
            let inner = Pool.map_array ~pool (fun j -> i + j) (Array.init 4 Fun.id) in
            Array.fold_left ( + ) 0 inner)
          (Array.init 16 Fun.id)
      in
      let expected = Array.init 16 (fun i -> (4 * i) + 6) in
      Alcotest.(check (array int)) "nested totals" expected got)

(* ------------------------------------------------- replication determinism *)

let single_bus_spec ~lambda ~mu ~k =
  let b = Topology.builder () in
  let bus0 = Topology.add_bus b ~service_rate:mu "bus" in
  let p0 = Topology.add_processor b ~bus:bus0 "src" in
  let p1 = Topology.add_processor b ~bus:bus0 "dst" in
  let topo = Topology.finalize b in
  let traffic = Traffic.create topo [ { Traffic.src = p0; dst = p1; rate = lambda } ] in
  let allocation =
    Buffer_alloc.make [ (bus0, Traffic.Proc_client p0, k); (bus0, Traffic.Proc_client p1, 1) ]
  in
  { (Sim_run.default_spec ~traffic ~allocation) with Sim_run.horizon = 2000.; warmup = 100. }

let check_stats_identical name a b =
  let bits f = Int64.bits_of_float f in
  Alcotest.(check int) (name ^ " count") (Stats.count a) (Stats.count b);
  Alcotest.(check int64) (name ^ " mean") (bits (Stats.mean a)) (bits (Stats.mean b));
  Alcotest.(check int64) (name ^ " variance") (bits (Stats.variance a)) (bits (Stats.variance b));
  Alcotest.(check int64) (name ^ " min") (bits (Stats.min_value a)) (bits (Stats.min_value b));
  Alcotest.(check int64) (name ^ " max") (bits (Stats.max_value a)) (bits (Stats.max_value b))

let check_aggregate_identical (a : Replicate.aggregate) (b : Replicate.aggregate) =
  Alcotest.(check int) "replications" a.Replicate.replications b.Replicate.replications;
  let per name xa xb =
    Alcotest.(check int) (name ^ " arity") (Array.length xa) (Array.length xb);
    Array.iteri (fun i sa -> check_stats_identical (Printf.sprintf "%s[%d]" name i) sa xb.(i)) xa
  in
  per "per_proc_lost" a.Replicate.per_proc_lost b.Replicate.per_proc_lost;
  per "per_proc_offered" a.Replicate.per_proc_offered b.Replicate.per_proc_offered;
  per "per_proc_latency" a.Replicate.per_proc_latency b.Replicate.per_proc_latency;
  check_stats_identical "total_lost" a.Replicate.total_lost b.Replicate.total_lost;
  check_stats_identical "total_offered" a.Replicate.total_offered b.Replicate.total_offered;
  check_stats_identical "loss_fraction" a.Replicate.loss_fraction b.Replicate.loss_fraction;
  check_stats_identical "mean_sojourn" a.Replicate.mean_sojourn b.Replicate.mean_sojourn

let test_replicate_pool_size_invariant () =
  let spec = single_bus_spec ~lambda:2.0 ~mu:3.0 ~k:4 in
  let sequential = with_pool 1 (fun pool -> Replicate.run ~replications:8 ~pool spec) in
  let parallel = with_pool 3 (fun pool -> Replicate.run ~replications:8 ~pool spec) in
  check_aggregate_identical sequential parallel

(* --------------------------------------------------------- derived seeds *)

let test_derive_seed_injective () =
  (* The old scheme (seed + 1000 * i) aliased replication streams whenever
     two user seeds were < 1000 * replications apart; the hash must keep
     every (seed, index) pair distinct over a realistic span. *)
  let seen = Hashtbl.create 4096 in
  for seed = 0 to 40 do
    for index = 0 to 31 do
      let d = Rng.derive_seed seed index in
      Alcotest.(check bool)
        (Printf.sprintf "nonnegative (%d,%d)" seed index)
        true (d >= 0);
      (match Hashtbl.find_opt seen d with
      | Some (s0, i0) ->
          Alcotest.failf "derive_seed collision: (%d,%d) and (%d,%d) -> %d" s0 i0 seed index d
      | None -> ());
      Hashtbl.add seen d (seed, index)
    done
  done;
  (* the specific aliasing of the old additive scheme must be gone *)
  Alcotest.(check bool) "seed 1/rep 1 vs seed 1001/rep 0" true
    (Rng.derive_seed 1 1 <> Rng.derive_seed 1001 0)

(* ------------------------------------------------------------ Stats.merge *)

let test_merge_matches_single_pass () =
  let prop (xs, cut) =
    let xs = Array.of_list xs in
    let n = Array.length xs in
    let cut = if n = 0 then 0 else cut mod (n + 1) in
    let left = Array.sub xs 0 cut and right = Array.sub xs cut (n - cut) in
    let merged = Stats.merge (Stats.of_list (Array.to_list left)) (Stats.of_list (Array.to_list right)) in
    let whole = Stats.of_list (Array.to_list xs) in
    let close a b =
      let scale = Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
      Float.abs (a -. b) <= 1e-9 *. scale
    in
    Stats.count merged = Stats.count whole
    && (n = 0 || close (Stats.mean merged) (Stats.mean whole))
    && (n < 2 || close (Stats.variance merged) (Stats.variance whole))
    && Stats.min_value merged = Stats.min_value whole
    && Stats.max_value merged = Stats.max_value whole
  in
  let gen =
    QCheck.make
      QCheck.Gen.(
        pair (list_size (int_bound 60) (float_bound_exclusive 1000.)) (int_bound 1000))
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:500 ~name:"merge = single-pass over concatenation" gen prop)

let test_merge_empty_identity () =
  let s = Stats.of_list [ 1.; 2.; 3. ] in
  let e = Stats.create () in
  check_stats_identical "left identity" s (Stats.merge e s);
  check_stats_identical "right identity" s (Stats.merge s e);
  Alcotest.(check int) "both empty" 0 (Stats.count (Stats.merge e (Stats.create ())));
  (* Merging empties never manufactures values: mean stays NaN, extrema
     stay at their empty sentinels, and no NaN leaks into a later merge. *)
  let ee = Stats.merge e (Stats.create ()) in
  Alcotest.(check bool) "empty mean nan" true (Float.is_nan (Stats.mean ee));
  check_stats_identical "empty merge then data" s (Stats.merge ee s)

let test_merge_single_samples () =
  (* Single-observation shards: the smallest non-empty case.  Variance of
     one sample is NaN by convention; merging two singles must produce the
     exact two-sample statistics, not NaN. *)
  let a = Stats.of_list [ 4. ] and b = Stats.of_list [ 10. ] in
  Alcotest.(check bool) "single variance nan" true (Float.is_nan (Stats.variance a));
  let m = Stats.merge a b in
  Alcotest.(check int) "count" 2 (Stats.count m);
  Alcotest.(check (float 1e-12)) "mean" 7. (Stats.mean m);
  Alcotest.(check (float 1e-12)) "variance" 18. (Stats.variance m);
  Alcotest.(check (float 1e-12)) "min" 4. (Stats.min_value m);
  Alcotest.(check (float 1e-12)) "max" 10. (Stats.max_value m);
  check_stats_identical "single + empty" a (Stats.merge a (Stats.create ()));
  check_stats_identical "empty + single" a (Stats.merge (Stats.create ()) a)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "matches sequential map" `Quick test_pool_matches_sequential;
          Alcotest.test_case "mapi indices" `Quick test_pool_mapi_indices;
          Alcotest.test_case "empty and singleton" `Quick test_pool_empty_and_singleton;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception_propagates;
          Alcotest.test_case "nested calls fall back" `Quick test_pool_nested_calls_fall_back;
        ] );
      ( "pool-domain-env",
        [
          Alcotest.test_case "positive override honoured" `Quick test_domains_env_accepted;
          Alcotest.test_case "garbage rejected" `Quick test_domains_env_rejected;
        ] );
      ( "replicate",
        [
          Alcotest.test_case "aggregate invariant under pool size" `Quick
            test_replicate_pool_size_invariant;
        ] );
      ("seeds", [ Alcotest.test_case "derive_seed injective" `Quick test_derive_seed_injective ]);
      ( "stats-merge",
        [
          Alcotest.test_case "merge = single pass (qcheck)" `Quick test_merge_matches_single_pass;
          Alcotest.test_case "empty identities" `Quick test_merge_empty_identity;
          Alcotest.test_case "single-sample shards" `Quick test_merge_single_samples;
        ] );
    ]
