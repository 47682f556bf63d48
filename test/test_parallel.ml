(* Tests for the multicore layer: the replication domain count and its
   override, parallel replication determinism and error handling, the
   span registry across forked domains, sizing on another domain, and
   derived replication seeds. *)

module Stats = Bufsize_numeric.Stats
module Rng = Bufsize_prob.Rng
module Topology = Bufsize_soc.Topology
module Traffic = Bufsize_soc.Traffic
module Buffer_alloc = Bufsize_soc.Buffer_alloc
module Sim_run = Bufsize_sim.Sim_run
module Replicate = Bufsize_sim.Replicate
module Sizing = Bufsize_soc.Sizing
module Obs = Bufsize_obs.Obs

(* ----------------------------------------------------- domain count env *)

let with_domains_env = Test_specs.with_domains_env

(* Every value here is parsed only; no domain is spawned for it. *)
let test_domains_env_accepted () =
  List.iter
    (fun (v, expected) ->
      with_domains_env v (fun () ->
          Alcotest.(check int) (Printf.sprintf "%S" v) expected (Replicate.domains ())))
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
          match Replicate.domains () with
          | exception Invalid_argument msg ->
              Alcotest.(check bool)
                (Printf.sprintf "%S: message names the variable" v)
                true
                (contains msg "BUFSIZE_NUM_DOMAINS")
          | n -> Alcotest.failf "%S: expected Invalid_argument, got %d" v n))
    [ "0"; "-2"; "four"; ""; "1.5" ]

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

(* The domain count is used as given, so 3 domains really run on any
   host. *)
let test_replicate_pool_size_invariant () =
  let spec = single_bus_spec ~lambda:2.0 ~mu:3.0 ~k:4 in
  let sequential = with_domains_env "1" (fun () -> Replicate.run ~replications:8 spec) in
  let parallel = with_domains_env "3" (fun () -> Replicate.run ~replications:8 spec) in
  check_aggregate_identical sequential parallel

(* Every replication of a zero-horizon spec raises on its own domain; the
   caller gets the exception once all domains are joined, and the next
   run starts from a clean slate. *)
let test_replicate_exception_joins () =
  let spec = single_bus_spec ~lambda:2.0 ~mu:3.0 ~k:4 in
  with_domains_env "3" (fun () ->
      Alcotest.check_raises "replication error reaches the caller"
        (Invalid_argument "Sim_run.run: nonpositive horizon") (fun () ->
          ignore (Replicate.run ~replications:8 { spec with Sim_run.horizon = 0. }));
      let agg = Replicate.run ~replications:8 spec in
      Alcotest.(check int) "valid run after the failure" 8
        (Stats.count agg.Replicate.total_lost))

(* Sizing runs on its caller's domain — the daemon's workers each run
   their own — so its answer must not depend on which domain that is.
   Cold caches before each run, so the worker really solves rather than
   replaying the first run's cached result. *)
let test_sizing_same_on_a_worker_domain () =
  let traffic = Test_specs.traffic Test_specs.three_bus in
  List.iter
    (fun solver ->
      let config =
        { (Sizing.default_config ~budget:64) with Sizing.max_states = 40; solver }
      in
      let run () =
        Bufsize_numeric.Solve_cache.clear_all ();
        Sizing.run config traffic
      in
      let here = run () in
      let there = Domain.join (Domain.spawn run) in
      let bits = Int64.bits_of_float in
      Alcotest.(check bool) "allocation" true (here.Sizing.allocation = there.Sizing.allocation);
      Alcotest.(check int64) "predicted loss bitwise" (bits here.Sizing.predicted_loss_rate)
        (bits there.Sizing.predicted_loss_rate);
      Alcotest.(check int64) "words per level bitwise" (bits here.Sizing.words_per_level)
        (bits there.Sizing.words_per_level))
    [ Sizing.Joint; Sizing.Separate ]

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

(* Every [Replicate.run] forks fresh domains, and domain ids are never
   reused: the span registry must fold each ended domain's spans into one
   surviving record instead of keeping a record per domain. *)
let test_span_registry_bounded () =
  Obs.disable ();
  Obs.reset ();
  Obs.enable_spans ();
  let traffic = Test_specs.traffic Test_specs.three_bus in
  let spec =
    {
      (Sim_run.default_spec ~traffic ~allocation:(Buffer_alloc.uniform traffic ~budget:64)) with
      Sim_run.horizon = 20.;
      warmup = 2.;
    }
  in
  let calls = 50 and replications = 4 in
  with_domains_env "2" (fun () ->
      for _ = 1 to calls do
        Obs.span ~name:"submit" (fun () -> ignore (Replicate.run ~replications spec))
      done);
  let spans = Obs.recorded_spans () in
  let reps = List.filter (fun s -> s.Obs.sname = "sim.replication") spans in
  Alcotest.(check bool)
    (Printf.sprintf "at most 2 span records (%d)" (Obs.span_states ()))
    true
    (Obs.span_states () <= 2);
  Alcotest.(check int) "every replication span kept" (calls * replications) (List.length reps);
  Alcotest.(check int) "every submit span kept" calls
    (List.length (List.filter (fun s -> s.Obs.sname = "submit") spans));
  Alcotest.(check int) "nothing dropped" 0 (Obs.dropped_spans ());
  Obs.disable ();
  Obs.reset ()

let () =
  Alcotest.run "parallel"
    [
      ( "pool-domain-env",
        [
          Alcotest.test_case "positive override honoured" `Quick test_domains_env_accepted;
          Alcotest.test_case "garbage rejected" `Quick test_domains_env_rejected;
        ] );
      ( "replicate",
        [
          Alcotest.test_case "aggregate invariant under pool size" `Quick
            test_replicate_pool_size_invariant;
          Alcotest.test_case "exception joins every domain" `Quick
            test_replicate_exception_joins;
          Alcotest.test_case "span registry bounded over forks" `Quick
            test_span_registry_bounded;
        ] );
      ( "sizing",
        [
          Alcotest.test_case "same answer on a worker domain" `Quick
            test_sizing_same_on_a_worker_domain;
        ] );
      ("seeds", [ Alcotest.test_case "derive_seed injective" `Quick test_derive_seed_injective ]);
    ]
