(* Tests for the telemetry layer: the disabled fast path (no spans, no
   allocation), exact metrics under concurrent writers, span nesting and
   replication context propagation, exporter well-formedness (parsed back with
   the strict Test_json parser), and the only-observes guarantee (sizing
   results bitwise identical with tracing on or off). *)

module Obs = Bufsize_obs.Obs
module Topology = Bufsize_soc.Topology
module Traffic = Bufsize_soc.Traffic
module Sizing = Bufsize_soc.Sizing
module Buffer_alloc = Bufsize_soc.Buffer_alloc
module Sim_run = Bufsize_sim.Sim_run
module Replicate = Bufsize_sim.Replicate

let qcheck ?(count = 100) name arb prop =
  QCheck.Test.check_exn (QCheck.Test.make ~count ~name arb prop)

(* Every test owns the global telemetry state for its duration. *)
let fresh () =
  Obs.disable ();
  Obs.reset ()

(* ------------------------------------------------- disabled fast path *)

let test_disabled_records_nothing () =
  fresh ();
  let c = Obs.counter "test.disabled.counter" in
  let h = Obs.histogram "test.disabled.histogram" in
  let r = Obs.span ~name:"invisible" (fun () -> 41 + 1) in
  Alcotest.(check int) "span is transparent" 42 r;
  Obs.incr c;
  Obs.add c 10;
  Obs.observe h 1.5;
  Alcotest.(check int) "no spans recorded" 0 (List.length (Obs.recorded_spans ()));
  Alcotest.(check int) "counter untouched" 0 (Obs.counter_value c);
  Alcotest.(check int) "histogram untouched" 0 (Obs.histogram_value h).Obs.h_count;
  Obs.span_with_id ~name:"invisible" (fun id ->
      Alcotest.(check int) "disabled span id is 0" 0 id)

let test_disabled_span_allocates_nothing () =
  fresh ();
  let body () = 7 in
  let iters = 10_000 in
  (* One warm-up call, then measure: a per-call allocation would show up
     as >= 2 words x iters; the slack only covers the Gc.minor_words
     boxed-float results themselves. *)
  ignore (Obs.span ~name:"hot" body);
  let before = Gc.minor_words () in
  for _ = 1 to iters do
    ignore (Obs.span ~name:"hot" body)
  done;
  let after = Gc.minor_words () in
  let delta = after -. before in
  if delta > 64. then
    Alcotest.failf "disabled span allocated %.0f minor words over %d calls" delta iters

(* ------------------------------------------------ concurrent writes *)

(* Four domains write one counter and one histogram at once.  Every
   increment and observation must land: the counter total, the histogram
   count and sum are exact (amounts are small integers, so float sums
   are exact in any order), and one snapshot's buckets sum to its
   count. *)
let test_concurrent_add_observe_exact () =
  fresh ();
  Obs.enable_metrics ();
  let c = Obs.counter "test.concurrent.c" in
  let h = Obs.histogram_with_bounds "test.concurrent.h" [| 10.; 100.; 1000. |] in
  let ndomains = 4 and per_domain = 5000 in
  let amount d i = 1 + (((d * 7919) + (i * 104729)) mod 2000) in
  let domains =
    Array.init ndomains (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              Obs.add c (amount d i);
              Obs.observe h (float_of_int (amount d i))
            done))
  in
  (* A reader racing the writers sees consistent snapshots. *)
  for _ = 1 to 200 do
    let s = Obs.histogram_value h in
    if Array.fold_left ( + ) 0 s.Obs.h_buckets <> s.Obs.h_count then
      Alcotest.fail "a snapshot's buckets do not sum to its count"
  done;
  Array.iter Domain.join domains;
  let expected = ref 0 in
  for d = 0 to ndomains - 1 do
    for i = 0 to per_domain - 1 do
      expected := !expected + amount d i
    done
  done;
  let s = Obs.histogram_value h in
  Alcotest.(check int) "counter total exact" !expected (Obs.counter_value c);
  Alcotest.(check int) "histogram count exact" (ndomains * per_domain) s.Obs.h_count;
  Alcotest.(check (float 0.)) "histogram sum exact" (float_of_int !expected) s.Obs.h_sum;
  Alcotest.(check int) "buckets sum to the count" s.Obs.h_count
    (Array.fold_left ( + ) 0 s.Obs.h_buckets);
  fresh ()

(* ----------------------------------------------------- span recording *)

let find_span name spans =
  match List.find_opt (fun s -> s.Obs.sname = name) spans with
  | Some s -> s
  | None -> Alcotest.failf "span %s not recorded" name

let test_span_nesting_and_attrs () =
  fresh ();
  Obs.enable_spans ();
  Obs.span ~name:"outer" (fun () ->
      Obs.span ~name:"inner"
        ~attrs:(fun () -> [ ("k", "v") ])
        (fun () -> ());
      Obs.span ~name:"inner2" (fun () -> ()));
  let spans = Obs.recorded_spans () in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  let outer = find_span "outer" spans in
  let inner = find_span "inner" spans in
  let inner2 = find_span "inner2" spans in
  Alcotest.(check int) "outer is a root" 0 outer.Obs.sparent;
  Alcotest.(check int) "inner parented under outer" outer.Obs.sid inner.Obs.sparent;
  Alcotest.(check int) "inner2 parented under outer" outer.Obs.sid inner2.Obs.sparent;
  Alcotest.(check (list (pair string string))) "attrs captured" [ ("k", "v") ] inner.Obs.sattrs;
  Alcotest.(check bool) "outer at least as long as inner" true
    (outer.Obs.sdur_ns >= inner.Obs.sdur_ns);
  Alcotest.(check int) "no drops" 0 (Obs.dropped_spans ());
  fresh ()

let test_span_exception_still_recorded () =
  fresh ();
  Obs.enable_spans ();
  (try Obs.span ~name:"thrower" (fun () -> failwith "boom") with Failure _ -> ());
  ignore (find_span "thrower" (Obs.recorded_spans ()));
  fresh ()

let test_span_with_id_cross_reference () =
  fresh ();
  Obs.enable_spans ();
  let seen = ref 0 in
  Obs.span_with_id ~name:"chain" (fun id -> seen := id);
  let s = find_span "chain" (Obs.recorded_spans ()) in
  Alcotest.(check bool) "nonzero id" true (!seen > 0);
  Alcotest.(check int) "body saw the recorded id" s.Obs.sid !seen;
  fresh ()

(* Replications run on domains [Replicate.run] spawns; their spans must
   still hang under the caller's span.  Two domains are forced, so some
   replication really runs off the caller's domain on any host. *)
let test_pool_context_propagation () =
  fresh ();
  Obs.enable_spans ();
  let traffic = Test_specs.traffic Test_specs.three_bus in
  let spec =
    {
      (Sim_run.default_spec ~traffic ~allocation:(Buffer_alloc.uniform traffic ~budget:64)) with
      Sim_run.horizon = 50.;
      warmup = 5.;
    }
  in
  Test_specs.with_domains_env "2" (fun () ->
      Obs.span ~name:"submit" (fun () -> ignore (Replicate.run ~replications:8 spec)));
  let spans = Obs.recorded_spans () in
  let submit = find_span "submit" spans in
  let reps = List.filter (fun s -> s.Obs.sname = "sim.replication") spans in
  Alcotest.(check int) "eight replication spans" 8 (List.length reps);
  List.iter
    (fun r ->
      Alcotest.(check int) "replication parented under the submitting span" submit.Obs.sid
        r.Obs.sparent)
    reps;
  Alcotest.(check bool) "a replication ran on another domain" true
    (List.exists (fun r -> r.Obs.strack <> submit.Obs.strack) reps);
  fresh ()

(* ----------------------------------------------------------- exporters *)

let with_temp_file f =
  let path = Filename.temp_file "bufsize_obs_test" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let record_sample_run () =
  fresh ();
  Obs.enable_spans ();
  Obs.enable_metrics ();
  let c = Obs.counter "test.export.counter" in
  let h = Obs.histogram "test.export.histogram" in
  Obs.span ~name:"root \"quoted\"\n" (fun () ->
      Obs.add c 3;
      Obs.observe h 0.25;
      Obs.span ~name:"leaf" ~attrs:(fun () -> [ ("path", "a\\b\t") ]) (fun () -> ()))

let test_chrome_trace_well_formed () =
  record_sample_run ();
  with_temp_file (fun path ->
      Obs.write_chrome_trace path;
      let json = Test_json.parse_exn (read_file path) in
      let events = Test_json.(to_list (member_exn "traceEvents" json)) in
      let phase e = Test_json.(to_string (member_exn "ph" e)) in
      let xs = List.filter (fun e -> phase e = "X") events in
      let ms = List.filter (fun e -> phase e = "M") events in
      Alcotest.(check int) "one X event per span" 2 (List.length xs);
      Alcotest.(check bool) "metadata events present" true (ms <> []);
      List.iter
        (fun e ->
          Alcotest.(check bool) "ts present and nonnegative" true
            Test_json.(to_number (member_exn "ts" e) >= 0.);
          Alcotest.(check bool) "dur present and nonnegative" true
            Test_json.(to_number (member_exn "dur" e) >= 0.);
          Alcotest.(check (float 0.)) "single process" 1.
            Test_json.(to_number (member_exn "pid" e));
          ignore Test_json.(to_number (member_exn "tid" e));
          ignore Test_json.(to_string (member_exn "name" e));
          let args = Test_json.member_exn "args" e in
          ignore Test_json.(to_string (member_exn "span_id" args)))
        xs;
      let leaf =
        List.find (fun e -> Test_json.(to_string (member_exn "name" e)) = "leaf") xs
      in
      Alcotest.(check string) "attrs survive the round-trip" "a\\b\t"
        Test_json.(to_string (member_exn "path" (member_exn "args" leaf))));
  fresh ()

let test_jsonl_and_metrics_json_well_formed () =
  record_sample_run ();
  let metrics = Test_json.parse_exn (Obs.metrics_json ()) in
  let counters = Test_json.member_exn "counters" metrics in
  Alcotest.(check (float 0.)) "counter exported" 3.
    Test_json.(to_number (member_exn "test.export.counter" counters));
  with_temp_file (fun path ->
      Obs.write_jsonl path;
      let lines =
        String.split_on_char '\n' (read_file path)
        |> List.filter (fun l -> String.trim l <> "")
      in
      Alcotest.(check bool) "several records" true (List.length lines > 3);
      List.iter (fun line -> ignore (Test_json.parse_exn line)) lines;
      let kinds =
        List.map
          (fun line ->
            Test_json.(to_string (member_exn "type" (parse_exn line))))
          lines
      in
      List.iter
        (fun k ->
          Alcotest.(check bool) (k ^ " record present") true (List.mem k kinds))
        [ "span"; "counter"; "histogram"; "gc"; "dropped_spans" ]);
  fresh ()

(* The default GC snapshot counts words allocated since the last minor
   collection: [Gc.quick_stat] alone reads no change across an
   allocation that does not fill the minor heap. *)
let test_gc_counts_current () =
  let minor_words () =
    Test_json.(to_number (member_exn "minor_words" (member_exn "gc" (Obs.metrics_tree []))))
  in
  let n = 30_000 in
  let before = minor_words () in
  (* 10,000 list cells of 3 words each, well under the 256k-word minor heap. *)
  ignore (Sys.opaque_identity (List.init (n / 3) Fun.id));
  let after = minor_words () in
  Alcotest.(check bool)
    (Printf.sprintf "minor_words grew by >= %d (%.0f -> %.0f)" n before after)
    true
    (after -. before >= float_of_int n)

(* An ended domain's words stay in [quick_stat]'s sum; the calling
   domain's fresh allocation must still show on top of them. *)
let test_gc_counts_after_other_domains () =
  let minor_words () =
    Test_json.(to_number (member_exn "minor_words" (member_exn "gc" (Obs.metrics_tree []))))
  in
  Domain.join (Domain.spawn (fun () -> ignore (Sys.opaque_identity (List.init 1_000_000 Fun.id))));
  let n = 30_000 in
  let before = minor_words () in
  ignore (Sys.opaque_identity (List.init (n / 3) Fun.id));
  let after = minor_words () in
  Alcotest.(check bool)
    (Printf.sprintf "minor_words grew by >= %d (%.0f -> %.0f)" n before after)
    true
    (after -. before >= float_of_int n)

(* A heap size that [Gc.quick_stat] never sampled (no collection yet)
   reads 0; the default tree prints it as null, never as an empty heap,
   and an unsampled snapshot prints null too. *)
let test_gc_heap_words_never_zero () =
  let heap_words gc =
    Test_json.member_exn "heap_words" (Test_json.member_exn "gc" (Obs.metrics_tree ?gc []))
  in
  (match heap_words None with
  | Bufsize_json.Json.Null -> ()
  | v ->
      Alcotest.(check bool)
        "default tree: heap_words null or positive" true
        (Test_json.to_number v > 0.));
  match heap_words (Some { (Gc.quick_stat ()) with Gc.heap_words = 0 }) with
  | Bufsize_json.Json.Null -> ()
  | v -> Alcotest.failf "unsampled heap printed as %s" (Bufsize_json.Json.encode v)

(* The metrics object and the JSONL metric lines, byte for byte, on a
   fixed registry: a counter and a histogram with
   an interpolated p50.  The expected strings are what the hand-printed
   exporters wrote before both became [Json.t] trees. *)
let test_metrics_text_pinned () =
  fresh ();
  Obs.enable_metrics ();
  Obs.add (Obs.counter "pin.requests") 3;
  let h = Obs.histogram_with_bounds "pin.latency_ms" [| 1.; 5.; 100. |] in
  List.iter (Obs.observe h) [ 0.25; 0.1; 1.5; 1.75; 1.9; 7.; 9.; 42.125; 60.; 70.; 80.; 90. ];
  let pinned name = String.starts_with ~prefix:"pin." name in
  let snapshot =
    List.filter
      (function Obs.Counter (n, _) | Obs.Histogram (n, _) -> pinned n)
      (Obs.metrics_snapshot ())
  in
  let gc =
    {
      (Gc.quick_stat ()) with
      Gc.minor_words = 12345.5;
      promoted_words = 0.1;
      major_words = 1e20;
      minor_collections = 7;
      major_collections = 2;
      heap_words = 4096;
    }
  in
  Alcotest.(check string)
    "metrics object"
    ("{\"counters\":{\"pin.requests\":3},"
   ^ "\"histograms\":{\"pin.latency_ms\":{\"count\":12,\"sum\":363.625,"
   ^ "\"min\":0.10000000000000001,\"max\":90,\"p50\":17.142857142857142,\"p95\":90,"
   ^ "\"p99\":90,\"bounds\":[1,5,100],\"buckets\":[2,3,7,0]}},"
   ^ "\"gc\":{\"minor_words\":12345.5,\"promoted_words\":0.10000000000000001,"
   ^ "\"major_words\":1e+20,\"minor_collections\":7,\"major_collections\":2,"
   ^ "\"heap_words\":4096}}")
    (Bufsize_json.Json.encode (Obs.metrics_tree ~gc snapshot));
  with_temp_file (fun path ->
      Obs.write_jsonl path;
      let lines =
        List.filter
          (fun l ->
            match Test_json.(member "name" (parse_exn l)) with
            | Some (Test_json.Str n) -> pinned n
            | _ -> false)
          (String.split_on_char '\n' (read_file path)
          |> List.filter (fun l -> String.trim l <> ""))
      in
      Alcotest.(check (list string))
        "jsonl metric lines"
        [
          "{\"type\":\"counter\",\"name\":\"pin.requests\",\"value\":3}";
          "{\"type\":\"histogram\",\"name\":\"pin.latency_ms\",\"count\":12,\"sum\":363.625,"
          ^ "\"min\":0.10000000000000001,\"max\":90,\"buckets\":[2,3,7,0]}";
        ]
        lines);
  fresh ()

(* ----------------------------------------------------------- quantiles *)

(* The estimator's contract (obs.mli): the estimate falls inside the
   bucket that contains the true order statistic.  Checked against a
   sorted-sample oracle over random samples, for the SLO quantiles the
   stats endpoint serves. *)
let bucket_of bounds v =
  let n = Array.length bounds in
  let rec go i = if i >= n then n else if v <= bounds.(i) then i else go (i + 1) in
  go 0

let bucket_range bounds i =
  let n = Array.length bounds in
  ( (if i = 0 then Float.neg_infinity else bounds.(i - 1)),
    if i >= n then Float.infinity else bounds.(i) )

let quantile_qs = [ 0.5; 0.95; 0.99 ]

let test_prop_quantile_vs_sorted_oracle () =
  fresh ();
  let h = Obs.histogram_with_bounds "test.quantile.h" Obs.latency_ms_bounds in
  let arb = QCheck.(list_of_size Gen.(1 -- 200) (int_bound 1_000_000)) in
  qcheck ~count:200 "quantile estimate lands in the true order statistic's bucket" arb
    (fun raw ->
      Obs.reset ();
      let sample = List.map (fun i -> float_of_int i /. 100.) raw in
      List.iter (Obs.observe_always h) sample;
      let s = Obs.histogram_value h in
      let sorted = Array.of_list (List.sort compare sample) in
      let n = Array.length sorted in
      List.for_all
        (fun q ->
          let rank = Int.max 1 (Int.min n (int_of_float (Float.ceil (q *. float_of_int n)))) in
          let true_stat = sorted.(rank - 1) in
          let lo, hi = bucket_range Obs.latency_ms_bounds (bucket_of Obs.latency_ms_bounds true_stat) in
          let e = Obs.quantile s q in
          e >= lo -. 1e-9 && e <= hi +. 1e-9)
        quantile_qs);
  fresh ()

let test_histogram_bounds_mismatch_rejected () =
  fresh ();
  ignore (Obs.histogram_with_bounds "test.bounds.fixed" [| 1.; 2.; 4. |]);
  (* Same bounds: idempotent. *)
  ignore (Obs.histogram_with_bounds "test.bounds.fixed" [| 1.; 2.; 4. |]);
  Alcotest.check_raises "different bounds for the same name rejected"
    (Invalid_argument "Obs: histogram \"test.bounds.fixed\" registered with other bounds")
    (fun () -> ignore (Obs.histogram_with_bounds "test.bounds.fixed" [| 1.; 2. |]));
  Alcotest.check_raises "non-increasing bounds rejected"
    (Invalid_argument "Obs.histogram_with_bounds: bounds must be strictly increasing")
    (fun () -> ignore (Obs.histogram_with_bounds "test.bounds.bad" [| 1.; 1. |]))

(* -------------------------------------------------------- flight ring *)

(* Four domains hammer one ring.  The tail must be exactly the newest
   [cap] pushes: every record is a value some domain pushed, and each
   domain's records in it are that domain's last pushes, in push
   order. *)
let test_ring_concurrent_writes () =
  let cap = 64 in
  let per_domain = 1000 in
  let ndomains = 4 in
  let ring = Obs.Ring.create ~capacity:cap in
  let domains =
    Array.init ndomains (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              Obs.Ring.push ring (d, i)
            done))
  in
  Array.iter Domain.join domains;
  Alcotest.(check int) "every push counted" (ndomains * per_domain) (Obs.Ring.pushed ring);
  let tail = Obs.Ring.tail ring in
  Alcotest.(check int) "tail is exactly the capacity" cap (List.length tail);
  List.iter
    (fun (d, i) ->
      if d < 0 || d >= ndomains || i < 0 || i >= per_domain then
        Alcotest.failf "torn or foreign record (%d, %d)" d i)
    tail;
  for d = 0 to ndomains - 1 do
    let mine = List.filter_map (fun (d', i) -> if d' = d then Some i else None) tail in
    let k = List.length mine in
    Alcotest.(check (list int))
      (Printf.sprintf "domain %d: its newest pushes, in push order" d)
      (List.init k (fun j -> per_domain - k + j))
      mine
  done

let test_ring_capacity_small () =
  let ring = Obs.Ring.create ~capacity:3 in
  for i = 1 to 10 do
    Obs.Ring.push ring i
  done;
  Alcotest.(check (list int)) "tail keeps the newest capacity records" [ 8; 9; 10 ]
    (Obs.Ring.tail ring)

(* ------------------------------------------------------------ capture *)

(* Per-request capture: spans flow to the caller's sink without global
   span recording being on, and without leaking into the global
   buffers. *)
let test_capture_collects_subtree () =
  fresh ();
  let (), spans, dropped =
    Obs.with_capture (fun () ->
        Obs.span ~name:"outer" (fun () -> Obs.span ~name:"inner" (fun () -> ())))
  in
  Alcotest.(check int) "two spans captured" 2 (List.length spans);
  Alcotest.(check int) "nothing dropped" 0 dropped;
  let outer = find_span "outer" spans in
  let inner = find_span "inner" spans in
  Alcotest.(check int) "parentage preserved" outer.Obs.sid inner.Obs.sparent;
  Alcotest.(check bool) "start-time order" true
    (outer.Obs.sstart_ns <= inner.Obs.sstart_ns);
  Alcotest.(check int) "global buffers untouched" 0 (List.length (Obs.recorded_spans ()));
  Alcotest.(check bool) "spans off again after capture" false (Obs.spans_enabled ());
  fresh ()

let test_capture_cap_counts_drops () =
  fresh ();
  let (), spans, dropped =
    Obs.with_capture ~max_spans:2 (fun () ->
        for i = 1 to 5 do
          Obs.span ~name:(Printf.sprintf "s%d" i) (fun () -> ())
        done)
  in
  Alcotest.(check int) "capped at max_spans" 2 (List.length spans);
  Alcotest.(check int) "overflow counted" 3 dropped;
  fresh ()

(* ------------------------------------------------------ only observes *)

let small_traffic () =
  let b = Topology.builder () in
  let bus0 = Topology.add_bus b ~service_rate:3.0 "west" in
  let bus1 = Topology.add_bus b ~service_rate:3.0 "east" in
  let p0 = Topology.add_processor b ~bus:bus0 "A" in
  let p1 = Topology.add_processor b ~bus:bus0 "B" in
  let p2 = Topology.add_processor b ~bus:bus1 "C" in
  let p3 = Topology.add_processor b ~bus:bus1 "D" in
  ignore (Topology.add_bridge b ~between:(bus0, bus1) "br");
  let topo = Topology.finalize b in
  Traffic.create topo
    [
      { Traffic.src = p0; dst = p2; rate = 1.3 };
      { Traffic.src = p1; dst = p0; rate = 0.8 };
      { Traffic.src = p2; dst = p3; rate = 1.1 };
      { Traffic.src = p3; dst = p1; rate = 0.7 };
    ]

(* The caches are cleared before each run, so the traced run really solves
   instead of replaying the untraced run's cached result. *)
let test_sizing_identical_with_tracing_on_or_off () =
  fresh ();
  let traffic = small_traffic () in
  let config = { (Sizing.default_config ~budget:16) with Sizing.max_states = 48 } in
  let run () =
    Bufsize_numeric.Solve_cache.clear_all ();
    Sizing.run config traffic
  in
  let off = run () in
  Obs.enable_spans ();
  Obs.enable_metrics ();
  let on = run () in
  Alcotest.(check bool) "allocations identical" true
    (off.Sizing.allocation = on.Sizing.allocation);
  Alcotest.(check bool) "predicted gain bitwise identical" true
    (Int64.bits_of_float off.Sizing.predicted_loss_rate
    = Int64.bits_of_float on.Sizing.predicted_loss_rate);
  Alcotest.(check bool) "the traced run recorded spans" true (Obs.recorded_spans () <> []);
  fresh ()

(* ---------------------------------------------------------------- run *)

let () =
  Alcotest.run "obs"
    [
      ( "disabled",
        [
          Alcotest.test_case "records nothing" `Quick test_disabled_records_nothing;
          Alcotest.test_case "span fast path allocates nothing" `Quick
            test_disabled_span_allocates_nothing;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "4-domain add/observe exact" `Quick
            test_concurrent_add_observe_exact;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and attrs" `Quick test_span_nesting_and_attrs;
          Alcotest.test_case "exceptions close the span" `Quick
            test_span_exception_still_recorded;
          Alcotest.test_case "span_with_id cross-reference" `Quick
            test_span_with_id_cross_reference;
          Alcotest.test_case "pool context propagation" `Quick test_pool_context_propagation;
        ] );
      ( "quantiles",
        [
          Alcotest.test_case "estimate in true statistic's bucket (property)" `Quick
            test_prop_quantile_vs_sorted_oracle;
          Alcotest.test_case "bounds validation" `Quick test_histogram_bounds_mismatch_rejected;
        ] );
      ( "ring",
        [
          Alcotest.test_case "4-domain concurrent writes" `Quick test_ring_concurrent_writes;
          Alcotest.test_case "small capacity tail" `Quick test_ring_capacity_small;
        ] );
      ( "capture",
        [
          Alcotest.test_case "collects the subtree off-globals" `Quick
            test_capture_collects_subtree;
          Alcotest.test_case "cap counts drops" `Quick test_capture_cap_counts_drops;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "chrome trace well-formed" `Quick test_chrome_trace_well_formed;
          Alcotest.test_case "jsonl and metrics json" `Quick
            test_jsonl_and_metrics_json_well_formed;
          Alcotest.test_case "metrics text pinned" `Quick test_metrics_text_pinned;
          Alcotest.test_case "gc counts without a collection" `Quick test_gc_counts_current;
          Alcotest.test_case "gc counts after other domains" `Quick
            test_gc_counts_after_other_domains;
          Alcotest.test_case "gc heap_words never 0" `Quick test_gc_heap_words_never_zero;
        ] );
      ( "only-observes",
        [
          Alcotest.test_case "sizing identical with tracing on/off" `Quick
            test_sizing_identical_with_tracing_on_or_off;
        ] );
    ]
