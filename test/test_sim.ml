(* Tests for the discrete-event simulator: the event heap, the engine,
   arbitration policies, and the full bus simulation validated against
   M/M/1/K closed forms. *)

module Event_heap = Bufsize_sim.Event_heap
module Des = Bufsize_sim.Des
module Arbiter = Bufsize_sim.Arbiter
module Metrics = Bufsize_sim.Metrics
module Sim_run = Bufsize_sim.Sim_run
module Replicate = Bufsize_sim.Replicate
module Topology = Bufsize_soc.Topology
module Traffic = Bufsize_soc.Traffic
module Buffer_alloc = Bufsize_soc.Buffer_alloc
module Birth_death = Bufsize_prob.Birth_death
module Rng = Bufsize_prob.Rng
module Stats = Bufsize_numeric.Stats

let check_close tol = Alcotest.(check (float tol))

(* ----------------------------------------------------------- event heap *)

let test_heap_ordering () =
  let h = Event_heap.create () in
  Event_heap.push h ~time:3. "c";
  Event_heap.push h ~time:1. "a";
  Event_heap.push h ~time:2. "b";
  let pop () = match Event_heap.pop h with Some (_, x) -> x | None -> "?" in
  Alcotest.(check string) "first" "a" (pop ());
  Alcotest.(check string) "second" "b" (pop ());
  Alcotest.(check string) "third" "c" (pop ());
  Alcotest.(check bool) "empty" true (Event_heap.is_empty h)

let test_heap_fifo_ties () =
  let h = Event_heap.create () in
  Event_heap.push h ~time:1. "first";
  Event_heap.push h ~time:1. "second";
  (match Event_heap.pop h with
  | Some (_, x) -> Alcotest.(check string) "insertion order" "first" x
  | None -> Alcotest.fail "empty");
  match Event_heap.pop h with
  | Some (_, x) -> Alcotest.(check string) "then second" "second" x
  | None -> Alcotest.fail "empty"

let test_heap_random_order () =
  let h = Event_heap.create () in
  let rng = Rng.create 5 in
  let times = Array.init 500 (fun _ -> Rng.float rng) in
  Array.iter (fun t -> Event_heap.push h ~time:t ()) times;
  let sorted = Array.copy times in
  Array.sort compare sorted;
  Array.iter
    (fun expected ->
      match Event_heap.pop h with
      | Some (t, ()) -> check_close 0. "heap order" expected t
      | None -> Alcotest.fail "heap exhausted early")
    sorted

let test_heap_nan_rejected () =
  let h = Event_heap.create () in
  Alcotest.check_raises "nan" (Invalid_argument "Event_heap.push: NaN time") (fun () ->
      Event_heap.push h ~time:Float.nan ())

(* Property: under any interleaving of pushes and pops, the heap behaves
   like a sorted multiset — every pop returns the minimum pending time,
   and sizes track exactly.  Times are drawn from a tiny discrete set so
   ties are frequent. *)
let test_heap_model_property () =
  let op_gen =
    QCheck.Gen.(
      list_size (int_range 1 120)
        (frequency [ (3, map (fun t -> `Push (float_of_int t)) (int_range 0 5)); (2, return `Pop) ]))
  in
  let prop ops =
    let h = Event_heap.create () in
    let pending = ref [] in
    List.for_all
      (fun op ->
        match op with
        | `Push t ->
            Event_heap.push h ~time:t ();
            pending := t :: !pending;
            Event_heap.size h = List.length !pending
        | `Pop -> (
            match (Event_heap.pop h, !pending) with
            | None, [] -> true
            | None, _ :: _ | Some _, [] -> false
            | Some (t, ()), ps ->
                let m = List.fold_left Float.min infinity ps in
                let rec remove_one = function
                  | [] -> []
                  | x :: rest -> if x = t then rest else x :: remove_one rest
                in
                pending := remove_one ps;
                t = m && Event_heap.size h = List.length !pending))
      ops
    && (Event_heap.is_empty h = (!pending = []))
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"heap vs multiset model" (QCheck.make op_gen) prop)

(* Property: events pushed with equal times pop in insertion order, no
   matter what other times surround them. *)
let test_heap_tie_stability_property () =
  let gen =
    QCheck.Gen.(list_size (int_range 2 60) (pair (int_range 0 3) nat))
  in
  let prop timed =
    let h = Event_heap.create () in
    List.iteri (fun i (t, x) -> Event_heap.push h ~time:(float_of_int t) (i, x)) timed;
    let popped = ref [] in
    let rec drain () =
      match Event_heap.pop h with
      | Some (t, v) ->
          popped := (t, v) :: !popped;
          drain ()
      | None -> ()
    in
    drain ();
    let popped = List.rev !popped in
    (* Within every group of equal times, insertion sequence numbers must
       be strictly increasing. *)
    List.for_all
      (fun t0 ->
        let seq =
          List.filter_map
            (fun (t, (i, _)) -> if t = float_of_int t0 then Some i else None)
            popped
        in
        List.sort compare seq = seq)
      [ 0; 1; 2; 3 ]
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"FIFO within equal times" (QCheck.make gen) prop)

(* ------------------------------------------------------------------ des *)

let test_des_runs_in_order () =
  let des = Des.create () in
  let log = ref [] in
  Des.schedule des ~delay:2. (fun _ -> log := 2 :: !log);
  Des.schedule des ~delay:1. (fun _ -> log := 1 :: !log);
  Des.run des ~until:10.;
  Alcotest.(check (list int)) "order" [ 2; 1 ] !log;
  check_close 1e-12 "clock at until" 10. (Des.now des)

let test_des_until_cuts_off () =
  let des = Des.create () in
  let fired = ref false in
  Des.schedule des ~delay:5. (fun _ -> fired := true);
  Des.run des ~until:3.;
  Alcotest.(check bool) "not fired" false !fired;
  Alcotest.(check int) "still pending" 1 (Des.pending des)

let test_des_cascading_events () =
  let des = Des.create () in
  let count = ref 0 in
  let rec tick des =
    incr count;
    if !count < 5 then Des.schedule des ~delay:1. tick
  in
  Des.schedule des ~delay:1. tick;
  Des.run des ~until:100.;
  Alcotest.(check int) "chain of events" 5 !count

let test_des_rejects_past () =
  let des = Des.create () in
  Des.schedule des ~delay:1. (fun _ -> ());
  Des.run des ~until:5.;
  Alcotest.check_raises "past" (Invalid_argument "Des.schedule_at: time in the past") (fun () ->
      Des.schedule_at des ~time:1. (fun _ -> ()))

(* -------------------------------------------------------------- arbiter *)

let view ?(last = -1) lengths =
  {
    Arbiter.bus = 0;
    num_clients = Array.length lengths;
    queue_lengths = lengths;
    capacities = Array.map (fun _ -> 10) lengths;
    last_served = last;
  }

let test_arbiter_empty () =
  let rng = Rng.create 1 in
  Alcotest.(check (option int)) "empty" None (Arbiter.choose Arbiter.Round_robin rng (view [| 0; 0 |]))

let test_arbiter_fixed_priority () =
  let rng = Rng.create 1 in
  Alcotest.(check (option int)) "lowest index" (Some 1)
    (Arbiter.choose Arbiter.Fixed_priority rng (view [| 0; 2; 5 |]))

let test_arbiter_longest_queue () =
  let rng = Rng.create 1 in
  Alcotest.(check (option int)) "longest" (Some 2)
    (Arbiter.choose Arbiter.Longest_queue rng (view [| 1; 2; 5 |]));
  Alcotest.(check (option int)) "tie -> lowest index" (Some 0)
    (Arbiter.choose Arbiter.Longest_queue rng (view [| 5; 2; 5 |]))

let test_arbiter_round_robin () =
  let rng = Rng.create 1 in
  Alcotest.(check (option int)) "after 0 comes 1" (Some 1)
    (Arbiter.choose Arbiter.Round_robin rng (view ~last:0 [| 3; 2; 1 |]));
  Alcotest.(check (option int)) "wraps" (Some 0)
    (Arbiter.choose Arbiter.Round_robin rng (view ~last:2 [| 3; 2; 1 |]));
  Alcotest.(check (option int)) "skips empty" (Some 2)
    (Arbiter.choose Arbiter.Round_robin rng (view ~last:0 [| 3; 0; 1 |]))

let test_arbiter_random_covers () =
  let rng = Rng.create 99 in
  let seen = Array.make 3 false in
  for _ = 1 to 200 do
    match Arbiter.choose Arbiter.Random rng (view [| 1; 1; 1 |]) with
    | Some i -> seen.(i) <- true
    | None -> Alcotest.fail "unexpected empty"
  done;
  Alcotest.(check bool) "all clients chosen" true (Array.for_all (fun b -> b) seen)

let test_arbiter_custom_fallback () =
  let rng = Rng.create 1 in
  let bogus = Arbiter.Custom ("bogus", fun _ _ -> Some 17) in
  Alcotest.(check (option int)) "falls back to longest queue" (Some 1)
    (Arbiter.choose bogus rng (view [| 1; 4 |]))

(* ------------------------------------------- simulation vs closed forms *)

(* Single bus, one loaded client with capacity K: the simulated loss
   fraction must match the M/M/1/K blocking probability. *)
let single_bus_spec ~lambda ~mu ~k =
  let b = Topology.builder () in
  let bus0 = Topology.add_bus b ~service_rate:mu "bus" in
  let p0 = Topology.add_processor b ~bus:bus0 "src" in
  let p1 = Topology.add_processor b ~bus:bus0 "dst" in
  let topo = Topology.finalize b in
  let traffic = Traffic.create topo [ { Traffic.src = p0; dst = p1; rate = lambda } ] in
  let allocation =
    Buffer_alloc.make
      [ (bus0, Traffic.Proc_client p0, k); (bus0, Traffic.Proc_client p1, 1) ]
  in
  { (Sim_run.default_spec ~traffic ~allocation) with Sim_run.horizon = 30_000.; warmup = 500. }

(* The simulator dequeues a request when its service starts, so a buffer of
   capacity [k] plus the in-service slot is an M/M/1/(k+1) system: an
   arrival is lost iff [k] requests wait AND one is in service. *)

let test_sim_mm1k_blocking () =
  let lambda = 2.0 and mu = 3.0 in
  let k = 4 in
  let spec = single_bus_spec ~lambda ~mu ~k in
  let report = Sim_run.run spec in
  let simulated = Metrics.loss_fraction report in
  let expected = Birth_death.Mm1k.blocking_probability ~lambda ~mu ~k:(k + 1) in
  check_close 0.01 "blocking probability" expected simulated

let test_sim_mm1k_sojourn () =
  let lambda = 2.0 and mu = 3.0 in
  let k = 4 in
  let spec = single_bus_spec ~lambda ~mu ~k in
  let report = Sim_run.run spec in
  (* Mean system sojourn (queueing + service); the buffer records the
     queueing part, so add the mean service time. *)
  let simulated = Metrics.mean_buffer_sojourn report +. (1. /. mu) in
  let expected = Birth_death.Mm1k.mean_sojourn ~lambda ~mu ~k:(k + 1) in
  check_close 0.05 "sojourn" expected simulated

let test_sim_conservation () =
  let spec = single_bus_spec ~lambda:2.0 ~mu:3.0 ~k:4 in
  let report = Sim_run.run spec in
  let p = report.Metrics.per_proc.(0) in
  (* In-flight requests at the horizon account for a tiny slack. *)
  Alcotest.(check bool) "offered >= lost + delivered" true
    (p.Metrics.offered >= p.Metrics.lost + p.Metrics.delivered);
  Alcotest.(check bool) "accounting tight" true
    (p.Metrics.offered - p.Metrics.lost - p.Metrics.delivered < 10)

let test_sim_deterministic_given_seed () =
  let spec = single_bus_spec ~lambda:2.0 ~mu:3.0 ~k:4 in
  let r1 = Sim_run.run spec and r2 = Sim_run.run spec in
  Alcotest.(check int) "same losses" (Metrics.total_lost r1) (Metrics.total_lost r2);
  let r3 = Sim_run.run { spec with Sim_run.seed = 42 } in
  Alcotest.(check bool) "different seed differs" true
    (Metrics.total_lost r1 <> Metrics.total_lost r3
    || Metrics.total_offered r1 <> Metrics.total_offered r3)

let test_sim_bigger_buffer_fewer_losses () =
  let loss k =
    let spec = single_bus_spec ~lambda:2.5 ~mu:3.0 ~k in
    Metrics.loss_fraction (Sim_run.run spec)
  in
  Alcotest.(check bool) "monotone" true (loss 8 < loss 2)

let test_sim_timeout_policy_drops () =
  (* A tight timeout must cause strictly more losses than no timeout. *)
  let spec = single_bus_spec ~lambda:2.5 ~mu:3.0 ~k:6 in
  let base = Metrics.total_lost (Sim_run.run spec) in
  let with_timeout =
    Metrics.total_lost (Sim_run.run { spec with Sim_run.timeout = Some (Sim_run.Global 0.05) })
  in
  Alcotest.(check bool) "timeout hurts" true (with_timeout > base)

let test_sim_cross_bus_delivery () =
  (* Two buses joined by a bridge: flows must be delivered end to end and
     bridge buffer statistics recorded. *)
  let b = Topology.builder () in
  let bus0 = Topology.add_bus b ~service_rate:5.0 "x" in
  let bus1 = Topology.add_bus b ~service_rate:5.0 "y" in
  let p0 = Topology.add_processor b ~bus:bus0 "src" in
  let p1 = Topology.add_processor b ~bus:bus1 "dst" in
  let _ = Topology.add_bridge b ~between:(bus0, bus1) "br" in
  let topo = Topology.finalize b in
  let traffic = Traffic.create topo [ { Traffic.src = p0; dst = p1; rate = 1.0 } ] in
  let allocation = Buffer_alloc.uniform traffic ~budget:12 in
  let spec =
    { (Sim_run.default_spec ~traffic ~allocation) with Sim_run.horizon = 5000.; warmup = 100. }
  in
  let report = Sim_run.run spec in
  Alcotest.(check bool) "deliveries happen" true (Metrics.total_delivered report > 3000);
  let bridge_buffer =
    Array.to_list report.Metrics.buffers
    |> List.find_opt (fun bs ->
           match bs.Metrics.client with
           | Traffic.Bridge_client _ -> true
           | Traffic.Proc_client _ -> false)
  in
  match bridge_buffer with
  | Some bs -> Alcotest.(check bool) "bridge buffer used" true (bs.Metrics.served > 3000)
  | None -> Alcotest.fail "no bridge buffer in report"

let test_sim_zero_capacity_drops_everything () =
  let b = Topology.builder () in
  let bus0 = Topology.add_bus b ~service_rate:5.0 "x" in
  let p0 = Topology.add_processor b ~bus:bus0 "src" in
  let p1 = Topology.add_processor b ~bus:bus0 "dst" in
  let topo = Topology.finalize b in
  let traffic = Traffic.create topo [ { Traffic.src = p0; dst = p1; rate = 1.0 } ] in
  let allocation =
    Buffer_alloc.make [ (bus0, Traffic.Proc_client p0, 0); (bus0, Traffic.Proc_client p1, 1) ]
  in
  let spec =
    { (Sim_run.default_spec ~traffic ~allocation) with Sim_run.horizon = 1000.; warmup = 0. }
  in
  let report = Sim_run.run spec in
  Alcotest.(check int) "all lost" (Metrics.total_offered report) (Metrics.total_lost report)

let test_sim_occupancy_matches_theory () =
  let lambda = 2.0 and mu = 3.0 in
  let k = 4 in
  let spec = single_bus_spec ~lambda ~mu ~k in
  let report = Sim_run.run spec in
  (* The request leaves the buffer when its service starts, so the system
     is M/M/1/(k+1) and E[queue] = E[N] - P(server busy). *)
  let pi = Birth_death.stationary (Birth_death.mm1k ~lambda ~mu ~k:(k + 1)) in
  let expected_n = Birth_death.Mm1k.mean_customers ~lambda ~mu ~k:(k + 1) in
  let expected_queue = expected_n -. (1. -. pi.(0)) in
  let buf =
    Array.to_list report.Metrics.buffers
    |> List.find (fun bs -> bs.Metrics.served > 0)
  in
  check_close 0.05 "occupancy" expected_queue buf.Metrics.mean_occupancy

let test_sim_per_buffer_timeout_infinite_is_noop () =
  (* Per-buffer thresholds of +infinity must reproduce the no-timeout run
     exactly (same RNG consumption, same losses). *)
  let spec = single_bus_spec ~lambda:2.5 ~mu:3.0 ~k:4 in
  let base = Sim_run.run spec in
  let infinite =
    Sim_run.run
      { spec with Sim_run.timeout = Some (Sim_run.Per_buffer (fun _ _ -> infinity)) }
  in
  Alcotest.(check int) "same losses" (Metrics.total_lost base) (Metrics.total_lost infinite);
  Alcotest.(check int) "same deliveries" (Metrics.total_delivered base)
    (Metrics.total_delivered infinite)

let test_sim_per_buffer_timeout_selective () =
  (* A tight threshold on the loaded buffer only: timeouts recorded there
     and nowhere else. *)
  let spec = single_bus_spec ~lambda:2.5 ~mu:3.0 ~k:6 in
  let tight bus client =
    ignore bus;
    match client with Traffic.Proc_client 0 -> 0.02 | _ -> infinity
  in
  let report = Sim_run.run { spec with Sim_run.timeout = Some (Sim_run.Per_buffer tight) } in
  let timeouts =
    Array.fold_left (fun acc b -> acc + b.Metrics.timeouts) 0 report.Metrics.buffers
  in
  Alcotest.(check bool) "timeouts happen" true (timeouts > 0);
  Array.iter
    (fun b ->
      match b.Metrics.client with
      | Traffic.Proc_client 0 -> ()
      | _ -> Alcotest.(check int) "no timeouts elsewhere" 0 b.Metrics.timeouts)
    report.Metrics.buffers

let test_sim_warmup_resets_counters () =
  (* With warmup close to the horizon almost nothing is counted. *)
  let spec = single_bus_spec ~lambda:2.5 ~mu:3.0 ~k:4 in
  let full = Sim_run.run { spec with Sim_run.horizon = 1000.; warmup = 0. } in
  let late = Sim_run.run { spec with Sim_run.horizon = 1000.; warmup = 990. } in
  Alcotest.(check bool) "few counted after late warmup" true
    (Metrics.total_offered late < Metrics.total_offered full / 10)

let test_sim_latency_recorded () =
  let mu = 3.0 in
  let spec = single_bus_spec ~lambda:1.0 ~mu ~k:6 in
  let report = Sim_run.run spec in
  let p = report.Metrics.per_proc.(0) in
  Alcotest.(check bool) "latency >= service time" true (p.Metrics.mean_latency >= 1. /. mu);
  Alcotest.(check bool) "max >= mean" true (p.Metrics.max_latency >= p.Metrics.mean_latency);
  Alcotest.(check bool) "finite" true (Float.is_finite p.Metrics.mean_latency)

let test_sim_latency_grows_with_load () =
  let latency lambda =
    let spec = single_bus_spec ~lambda ~mu:3.0 ~k:12 in
    (Sim_run.run spec).Metrics.per_proc.(0).Metrics.mean_latency
  in
  Alcotest.(check bool) "heavier load waits longer" true (latency 2.7 > latency 0.5)

let test_sim_no_deliveries_nan_latency () =
  let b = Topology.builder () in
  let bus0 = Topology.add_bus b ~service_rate:5.0 "x" in
  let p0 = Topology.add_processor b ~bus:bus0 "src" in
  let p1 = Topology.add_processor b ~bus:bus0 "dst" in
  let topo = Topology.finalize b in
  let traffic = Traffic.create topo [ { Traffic.src = p0; dst = p1; rate = 1.0 } ] in
  let allocation =
    Buffer_alloc.make [ (bus0, Traffic.Proc_client p0, 0); (bus0, Traffic.Proc_client p1, 1) ]
  in
  let spec =
    { (Sim_run.default_spec ~traffic ~allocation) with Sim_run.horizon = 100.; warmup = 0. }
  in
  let report = Sim_run.run spec in
  Alcotest.(check bool) "nan latency without deliveries" true
    (Float.is_nan report.Metrics.per_proc.(0).Metrics.mean_latency)

let test_sim_utilization_sanity () =
  (* Offered load below capacity: deliveries dominate losses. *)
  let spec = single_bus_spec ~lambda:1.0 ~mu:4.0 ~k:6 in
  let report = Sim_run.run spec in
  Alcotest.(check bool) "low-load regime nearly lossless" true
    (Metrics.total_lost report * 100 < Metrics.total_offered report)

(* ------------------------------------------------------------ replicate *)

let test_replicate_aggregates () =
  let spec =
    { (single_bus_spec ~lambda:2.0 ~mu:3.0 ~k:4) with Sim_run.horizon = 2000.; warmup = 100. }
  in
  let agg = Replicate.run ~replications:5 spec in
  Alcotest.(check int) "replication count" 5 (Stats.count agg.Replicate.total_lost);
  Alcotest.(check bool) "variance across seeds" true
    (Stats.std_dev agg.Replicate.total_lost > 0.);
  let per_proc = Replicate.mean_per_proc_lost agg in
  Alcotest.(check int) "two processors" 2 (Array.length per_proc);
  Alcotest.(check bool) "src loses" true (per_proc.(0) > 0.);
  check_close 1e-12 "dst loses nothing" 0. per_proc.(1)

let () =
  Alcotest.run "sim"
    [
      ( "event-heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "FIFO ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "random order (500 events)" `Quick test_heap_random_order;
          Alcotest.test_case "NaN rejected" `Quick test_heap_nan_rejected;
          Alcotest.test_case "multiset model (property)" `Quick test_heap_model_property;
          Alcotest.test_case "tie stability (property)" `Quick test_heap_tie_stability_property;
        ] );
      ( "des",
        [
          Alcotest.test_case "event order" `Quick test_des_runs_in_order;
          Alcotest.test_case "until cutoff" `Quick test_des_until_cuts_off;
          Alcotest.test_case "cascading events" `Quick test_des_cascading_events;
          Alcotest.test_case "past rejected" `Quick test_des_rejects_past;
        ] );
      ( "arbiter",
        [
          Alcotest.test_case "empty" `Quick test_arbiter_empty;
          Alcotest.test_case "fixed priority" `Quick test_arbiter_fixed_priority;
          Alcotest.test_case "longest queue" `Quick test_arbiter_longest_queue;
          Alcotest.test_case "round robin" `Quick test_arbiter_round_robin;
          Alcotest.test_case "random covers all" `Quick test_arbiter_random_covers;
          Alcotest.test_case "custom fallback" `Quick test_arbiter_custom_fallback;
        ] );
      ( "simulation",
        [
          Alcotest.test_case "MM1K blocking" `Slow test_sim_mm1k_blocking;
          Alcotest.test_case "MM1K sojourn" `Slow test_sim_mm1k_sojourn;
          Alcotest.test_case "request conservation" `Quick test_sim_conservation;
          Alcotest.test_case "deterministic by seed" `Quick test_sim_deterministic_given_seed;
          Alcotest.test_case "buffer size monotonicity" `Slow test_sim_bigger_buffer_fewer_losses;
          Alcotest.test_case "timeout policy drops" `Quick test_sim_timeout_policy_drops;
          Alcotest.test_case "cross-bus delivery" `Quick test_sim_cross_bus_delivery;
          Alcotest.test_case "zero capacity" `Quick test_sim_zero_capacity_drops_everything;
          Alcotest.test_case "occupancy vs theory" `Slow test_sim_occupancy_matches_theory;
        ] );
      ( "timeout-policy",
        [
          Alcotest.test_case "infinite thresholds are a no-op" `Quick
            test_sim_per_buffer_timeout_infinite_is_noop;
          Alcotest.test_case "selective per-buffer thresholds" `Quick
            test_sim_per_buffer_timeout_selective;
          Alcotest.test_case "warmup resets counters" `Quick test_sim_warmup_resets_counters;
          Alcotest.test_case "low-load sanity" `Quick test_sim_utilization_sanity;
        ] );
      ( "latency",
        [
          Alcotest.test_case "recorded and sane" `Quick test_sim_latency_recorded;
          Alcotest.test_case "grows with load" `Slow test_sim_latency_grows_with_load;
          Alcotest.test_case "nan without deliveries" `Quick test_sim_no_deliveries_nan_latency;
        ] );
      ( "replicate",
        [
          Alcotest.test_case "aggregation" `Quick test_replicate_aggregates;
        ] );
    ]
