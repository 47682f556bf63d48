(* Integration tests: the full paper pipeline on small instances — sizing,
   re-simulation, policy comparison, and the core claims' shape (losses
   drop after sizing; large budgets drive losses toward zero). *)

module B = Bufsize
module Stats = Bufsize_numeric.Stats

(* A compact bridged architecture that runs fast: two buses, one bridge,
   four processors, utilization high enough to lose requests. *)
let small_arch () =
  let b = B.Topology.builder () in
  let bus0 = B.Topology.add_bus b ~service_rate:3.0 "left" in
  let bus1 = B.Topology.add_bus b ~service_rate:3.0 "right" in
  let p0 = B.Topology.add_processor b ~bus:bus0 "A" in
  let p1 = B.Topology.add_processor b ~bus:bus0 "B" in
  let p2 = B.Topology.add_processor b ~bus:bus1 "C" in
  let p3 = B.Topology.add_processor b ~bus:bus1 "D" in
  let _ = B.Topology.add_bridge b ~between:(bus0, bus1) "br" in
  let topo = B.Topology.finalize b in
  let traffic =
    B.Traffic.create topo
      [
        { B.Traffic.src = p0; dst = p2; rate = 1.2 };
        { B.Traffic.src = p1; dst = p0; rate = 0.9 };
        { B.Traffic.src = p2; dst = p3; rate = 1.0 };
        { B.Traffic.src = p3; dst = p1; rate = 0.8 };
      ]
  in
  (topo, traffic)

let quick_experiment ?(budget = 12) traffic =
  B.experiment ~budget ~horizon:800. ~warmup:50. ~replications:3
    ~config:{ (B.Sizing.default_config ~budget) with B.Sizing.max_states = 48 }
    traffic

let test_full_pipeline_runs () =
  let _, traffic = small_arch () in
  let outcome = B.size_and_evaluate (quick_experiment traffic) in
  Alcotest.(check bool) "sizing allocated the budget" true
    (B.Buffer_alloc.total outcome.B.sizing.B.Sizing.allocation = 12);
  Alcotest.(check bool) "baseline loses requests" true
    (Stats.mean outcome.B.before.B.aggregate.B.Replicate.total_lost > 0.)

let test_sizing_beats_or_matches_uniform () =
  (* The headline claim, on a small instance with modest statistics: the
     CTMDP sizing should not be substantially worse than uniform. *)
  let _, traffic = small_arch () in
  let outcome = B.size_and_evaluate (quick_experiment traffic) in
  let before = Stats.mean outcome.B.before.B.aggregate.B.Replicate.total_lost in
  let after = Stats.mean outcome.B.after.B.aggregate.B.Replicate.total_lost in
  Alcotest.(check bool)
    (Printf.sprintf "after (%.0f) <= 1.25 * before (%.0f)" after before)
    true
    (after <= (1.25 *. before) +. 5.)

let test_timeout_variant_worse () =
  let _, traffic = small_arch () in
  let outcome = B.size_and_evaluate (quick_experiment traffic) in
  let timeout = Stats.mean outcome.B.timeout_variant.B.aggregate.B.Replicate.total_lost in
  let before = Stats.mean outcome.B.before.B.aggregate.B.Replicate.total_lost in
  Alcotest.(check bool) "timeout no better than plain baseline" true (timeout >= before -. 1.)

let test_large_budget_drives_losses_down () =
  (* Table 1's trend: post-sizing losses shrink as the budget grows. *)
  let _, traffic = small_arch () in
  let losses budget =
    let outcome = B.size_and_evaluate (quick_experiment ~budget traffic) in
    Stats.mean outcome.B.after.B.aggregate.B.Replicate.total_lost
  in
  let small = losses 8 in
  let large = losses 48 in
  Alcotest.(check bool)
    (Printf.sprintf "loss at budget 48 (%.0f) < loss at budget 8 (%.0f)" large small)
    true (large < small)

let test_stochastic_arbiter_usable () =
  let _, traffic = small_arch () in
  let sizing =
    B.Sizing.run { (B.Sizing.default_config ~budget:12) with B.Sizing.max_states = 48 } traffic
  in
  let arbiter = B.stochastic_arbiter sizing in
  let spec =
    {
      (B.Sim_run.default_spec ~traffic ~allocation:sizing.B.Sizing.allocation) with
      B.Sim_run.arbiter;
      horizon = 500.;
      warmup = 50.;
    }
  in
  let report = B.Sim_run.run spec in
  Alcotest.(check bool) "stochastic arbiter delivers" true (B.Metrics.total_delivered report > 0)

let test_outcome_report_prints () =
  let _, traffic = small_arch () in
  let outcome = B.size_and_evaluate (quick_experiment traffic) in
  let s = Format.asprintf "%a" B.pp_outcome outcome in
  let contains needle haystack =
    let nl = String.length needle and hl = String.length haystack in
    let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "mentions totals" true
    (String.length s > 100 && contains "improvement" s)

let test_fig1_architecture_sizes () =
  let _, traffic = B.Fig1.create () in
  let sizing =
    B.Sizing.run { (B.Sizing.default_config ~budget:40) with B.Sizing.max_states = 48 } traffic
  in
  (* Every buffer of the paper's figure gets at least one word. *)
  Array.iter
    (fun e -> Alcotest.(check bool) "nonzero" true (e.B.Buffer_alloc.words >= 1))
    sizing.B.Sizing.allocation.B.Buffer_alloc.entries

let test_amba_pipeline () =
  let _, traffic = B.Amba.create () in
  let outcome =
    B.size_and_evaluate
      (B.experiment ~budget:24 ~replications:3 ~horizon:800.
         ~config:{ (B.Sizing.default_config ~budget:24) with B.Sizing.max_states = 64 }
         traffic)
  in
  Alcotest.(check bool) "AMBA sizing completes" true
    (B.Buffer_alloc.total outcome.B.sizing.B.Sizing.allocation = 24);
  (* Latency stats flow through the replication aggregate. *)
  let latencies = outcome.B.after.B.aggregate.B.Replicate.per_proc_latency in
  Alcotest.(check bool) "latency aggregated" true
    (Array.exists (fun s -> Stats.count s > 0 && Float.is_finite (Stats.mean s)) latencies)

let test_spec_parser_pipeline () =
  (* Architecture defined in the text format, sized end to end. *)
  let text =
    {|
bus west rate 3.0
bus east rate 2.5
proc A on west
proc B on west
proc C on east
bridge br west east
flow A -> C rate 1.4
flow C -> B rate 0.6
|}
  in
  match B.Spec_parser.parse text with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok (_, traffic) ->
      let outcome = B.size_and_evaluate (quick_experiment ~budget:10 traffic) in
      Alcotest.(check bool) "parsed architecture sizes and simulates" true
        (Stats.count outcome.B.after.B.aggregate.B.Replicate.total_lost = 3)

let test_weighted_experiment_protects_processor () =
  (* End-to-end check of the weighted-loss extension on the small arch:
     heavily weighting the busiest source should not increase its loss. *)
  let _, traffic = small_arch () in
  let base = B.size_and_evaluate (quick_experiment traffic) in
  let weighted_config =
    {
      (B.Sizing.default_config ~budget:12) with
      B.Sizing.max_states = 48;
      client_weight =
        (fun c ->
          match c with
          | B.Traffic.Proc_client 0 -> 8.
          | B.Traffic.Proc_client _ | B.Traffic.Bridge_client _ -> 1.);
    }
  in
  let weighted =
    B.size_and_evaluate
      (B.experiment ~budget:12 ~horizon:800. ~warmup:50. ~replications:3
         ~config:weighted_config traffic)
  in
  let loss_of o = (B.per_proc_mean_losses o.B.after).(0) in
  Alcotest.(check bool)
    (Printf.sprintf "weighted loss (%.0f) <= unweighted (%.0f) + slack" (loss_of weighted)
       (loss_of base))
    true
    (loss_of weighted <= loss_of base +. 10.)

let test_profiled_sizing_runs () =
  let _, traffic = small_arch () in
  let exp = quick_experiment traffic in
  let final, losses = B.profiled_sizing ~rounds:3 exp in
  Alcotest.(check int) "one loss per round" 3 (List.length losses);
  Alcotest.(check int) "budget preserved" 12 (B.Buffer_alloc.total final.B.Sizing.allocation);
  List.iter
    (fun loss -> Alcotest.(check bool) "losses finite" true (Float.is_finite loss && loss >= 0.))
    losses

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Runs [exe args] with stdout and stderr in temporary files and hands
   the exit code and both texts to [k]. *)
let run_exe exe args k =
  let out = Filename.temp_file "cli" ".out" and err = Filename.temp_file "cli" ".err" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ out; err ])
    (fun () ->
      let code = Sys.command (Filename.quote_command exe ~stdout:out ~stderr:err args) in
      k code (read_file out) (read_file err))

(* The bench harness built next to this test (see the [deps] of test/dune).
   A mistyped artifact name must fail before any artifact runs, so a typo
   in a script cannot pass silently. *)
let test_bench_rejects_unknown_artifact () =
  let bench = Filename.concat (Filename.concat ".." "bench") "main.exe" in
  run_exe bench [ "fig1"; "no-such" ] (fun code out err ->
      Alcotest.(check int) "exit code" 2 code;
      Alcotest.(check string) "nothing ran" "" out;
      Alcotest.(check string) "known names listed"
        "unknown artifact \"no-such\"; known: fig1, nonlinear, fig3, table1, ablation-quantile, \
         ablation-levels, ablation-solver, ablation-weights, ablation-profiling, all\n"
        err)

(* The CLI built next to this test.  Input errors (a budget below the
   buffer count, a socket path that cannot be bound) end a command with
   "error: ..." and exit 1, never with an uncaught exception. *)
let cli = Filename.concat (Filename.concat ".." "bin") "bufsize_cli.exe"

(* The differential harness is its own executable: the production binary
   neither links it nor lists its counters, and [bufsize verify] is gone. *)
let verify_exe = Filename.concat (Filename.concat ".." "bin") "verify.exe"

let check_input_error args expected () =
  run_exe cli args (fun code _ err ->
      Alcotest.(check int) "exit code" 1 code;
      Alcotest.(check string) "message" ("error: " ^ expected ^ "\n") err)

(* The metrics object a successful run writes with --metrics-json. *)
let run_metrics exe args =
  let json = Filename.temp_file "metrics" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove json)
    (fun () ->
      run_exe exe (args @ [ "--metrics-json"; json ]) (fun code _ _ ->
          Alcotest.(check int) "exit code" 0 code);
      Test_json.parse_exn (read_file json))

(* A short run that never collects: its metrics object prints the heap
   size that [Gc.quick_stat] never sampled as null, not as 0 words. *)
let test_kron_heap_words_unsampled () =
  let gc = Test_json.member_exn "gc" (run_metrics cli [ "kron"; "--kx"; "8"; "--ky"; "8" ]) in
  Alcotest.(check bool) "major words counted" true
    (Test_json.(to_number (member_exn "major_words" gc)) > 0.);
  match Test_json.member_exn "heap_words" gc with
  | Bufsize_json.Json.Null -> ()
  | v -> Alcotest.(check bool) "heap_words null or positive" true (Test_json.to_number v > 0.)

let metrics_counters exe args =
  match Test_json.member_exn "counters" (run_metrics exe args) with
  | Test_json.Obj kvs -> kvs
  | _ -> Alcotest.fail "counters is not an object"

let test_size_lists_no_harness_counters () =
  let harness name =
    name = "value_iteration.sweeps"
    || String.starts_with ~prefix:"simplex_revised." name
    || String.starts_with ~prefix:"verify." name
  in
  let names = List.map fst (metrics_counters cli [ "size" ]) in
  Alcotest.(check bool) "size counts policy evaluations" true
    (List.mem "policy_iteration.factorizations" names);
  Alcotest.(check (list string)) "no harness counter" [] (List.filter harness names);
  let counters = metrics_counters verify_exe [ "--oracle"; "mdp-gain"; "--count"; "2" ] in
  Alcotest.(check bool) "verify counts its instances" true
    (Test_json.to_number (List.assoc "verify.instances" counters) > 0.)

(* One stationary solve per returned policy, and as many policy
   evaluations as ever.  A slack perfbench-shaped [size] (three buses,
   budget 64, 40 states) answers each subsystem by one GTH solve whose π
   the occupancy stage reuses: 3 solves, where re-solving for the
   occupancy made 6.  The 2x2 DAMQ mesh makes at most one per distinct
   chain it returns: 16, where it made 32. *)
let test_solve_counts () =
  let counts args =
    let m = run_metrics cli args in
    let residual =
      Test_json.(member_exn "ctmc.residual" (member_exn "histograms" m) |> member_exn "count")
    in
    let factorizations =
      Test_json.(member_exn "policy_iteration.factorizations" (member_exn "counters" m))
    in
    (int_of_float (Test_json.to_number residual), int_of_float (Test_json.to_number factorizations))
  in
  let spec = Filename.temp_file "three_bus" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove spec)
    (fun () ->
      Out_channel.with_open_bin spec (fun oc -> output_string oc Test_specs.three_bus);
      let residuals, factorizations =
        counts [ "size"; "-f"; spec; "-b"; "64"; "--max-states"; "40" ]
      in
      Alcotest.(check int) "size: one stationary solve per subsystem" 3 residuals;
      Alcotest.(check int) "size: policy evaluations" 8 factorizations);
  let residuals, factorizations =
    counts
      [
        "topo"; "--rows"; "2"; "--cols"; "2"; "-b"; "24"; "--max-states"; "24"; "--sharing"; "damq";
      ]
  in
  Alcotest.(check bool) "2x2 damq: at most 16 stationary solves" true (residuals <= 16);
  Alcotest.(check int) "2x2 damq: policy evaluations" 58 factorizations

(* [kron] solves the 81-state split once and builds its warm start from
   that answer: one SAN solve and one Ctmc stationary solve (the
   split's bridge chain), where seeding re-solved the split. *)
let test_kron_solve_counts () =
  let m = run_metrics cli [ "kron"; "--kx"; "8"; "--ky"; "8" ] in
  let counter name = Test_json.(to_number (member_exn name (member_exn "counters" m))) in
  let residuals =
    Test_json.(member_exn "ctmc.residual" (member_exn "histograms" m) |> member_exn "count")
  in
  Alcotest.(check int) "san.solves" 1 (int_of_float (counter "san.solves"));
  Alcotest.(check int) "ctmc.residual count" 1 (int_of_float (Test_json.to_number residuals))

let test_verify_lists_oracles () =
  run_exe verify_exe [ "--list-oracles" ] (fun code out _ ->
      Alcotest.(check int) "exit code" 0 code;
      let names =
        String.split_on_char '\n' out
        |> List.filter (( <> ) "")
        |> List.map (fun line -> List.hd (String.split_on_char ' ' line))
      in
      Alcotest.(check (list string)) "oracles"
        [ "simplex-cross"; "mdp-gain"; "sim-analytic"; "sizing-bounds"; "split-monolithic";
          "warm-cold"; "kron"; "topo"; "chaos"; "serve"; "price" ]
        names)

(* A repro in the format [--out-dir] writes: the oracle header, then the
   case.  A generated LP case passes; a repro naming no oracle is an
   input error. *)
let test_verify_replays_repro () =
  let repro = Filename.temp_file "simplex-cross" ".repro" in
  Fun.protect
    ~finally:(fun () -> Sys.remove repro)
    (fun () ->
      let case =
        Bufsize_verify.Gen_model.(lp_case_to_string (lp_case (Bufsize_prob.Rng.create 9)))
      in
      Out_channel.with_open_bin repro (fun oc ->
          Printf.fprintf oc "# oracle: simplex-cross\n# instance: 0 (derived seed 9)\n%s" case);
      run_exe verify_exe [ "--replay"; repro ] (fun code out _ ->
          Alcotest.(check int) "exit code" 0 code;
          Alcotest.(check bool) "passes" true (String.starts_with ~prefix:"PASS " out));
      Out_channel.with_open_bin repro (fun oc -> output_string oc case);
      run_exe verify_exe [ "--replay"; repro ] (fun code _ err ->
          Alcotest.(check int) "exit code" 2 code;
          Alcotest.(check string) "message" "error: repro has no '# oracle:' header\n" err))

let test_verify_not_a_bufsize_command () =
  run_exe cli [ "verify"; "--count"; "1" ] (fun code out err ->
      Alcotest.(check int) "exit code (command-line error)" 124 code;
      Alcotest.(check string) "no output" "" out;
      Alcotest.(check bool) "names the command" true
        (String.starts_with ~prefix:"bufsize: unknown command 'verify'" err))

let below n buffers =
  Printf.sprintf "budget %d words is below the %d buffers to size (each needs at least one word)"
    n buffers

let unbindable_socket =
  Filename.concat (Filename.concat (Filename.get_temp_dir_name ()) "bufsize-no-such-dir") "x.sock"

let () =
  Alcotest.run "integration"
    [
      ( "pipeline",
        [
          Alcotest.test_case "full pipeline" `Slow test_full_pipeline_runs;
          Alcotest.test_case "sizing vs uniform" `Slow test_sizing_beats_or_matches_uniform;
          Alcotest.test_case "timeout variant worse" `Slow test_timeout_variant_worse;
          Alcotest.test_case "budget sweep trend" `Slow test_large_budget_drives_losses_down;
          Alcotest.test_case "stochastic arbiter" `Slow test_stochastic_arbiter_usable;
          Alcotest.test_case "report rendering" `Slow test_outcome_report_prints;
          Alcotest.test_case "fig1 sizing" `Quick test_fig1_architecture_sizes;
          Alcotest.test_case "amba pipeline + latency" `Slow test_amba_pipeline;
          Alcotest.test_case "spec-parser pipeline" `Slow test_spec_parser_pipeline;
          Alcotest.test_case "weighted experiment" `Slow test_weighted_experiment_protects_processor;
          Alcotest.test_case "profiled re-sizing" `Slow test_profiled_sizing_runs;
        ] );
      ( "bench",
        [ Alcotest.test_case "unknown artifact exits 2" `Quick test_bench_rejects_unknown_artifact ]
      );
      ( "cli",
        [
          Alcotest.test_case "size budget below buffers" `Quick
            (check_input_error [ "size"; "--arch"; "netproc" ] (below 16 25));
          Alcotest.test_case "size budget 0" `Quick
            (check_input_error [ "size"; "-b"; "0" ] (below 0 6));
          Alcotest.test_case "topo budget below buffers" `Quick
            (check_input_error [ "topo"; "--rows"; "2"; "--cols"; "2"; "-b"; "2" ] (below 2 10));
          Alcotest.test_case "simulate budget below buffers" `Quick
            (check_input_error [ "simulate"; "--arch"; "netproc"; "-b"; "4" ] (below 4 25));
          Alcotest.test_case "experiment budget below buffers" `Quick
            (check_input_error [ "experiment"; "-b"; "4" ] (below 4 6));
          Alcotest.test_case "dot budget below buffers" `Quick
            (check_input_error [ "dot"; "--annotate"; "2" ] (below 2 6));
          Alcotest.test_case "kron heap_words unsampled" `Quick test_kron_heap_words_unsampled;
          Alcotest.test_case "size lists no harness counters" `Quick
            test_size_lists_no_harness_counters;
          Alcotest.test_case "stationary solves per request" `Quick test_solve_counts;
          Alcotest.test_case "kron solves the split once" `Quick test_kron_solve_counts;
          Alcotest.test_case "kron cross fraction above 1" `Quick
            (check_input_error [ "kron"; "--cross"; "1.5" ]
               "Monolithic: cross_fraction must be in [0, 1] (got 1.5)");
          Alcotest.test_case "kron zero service rate" `Quick
            (check_input_error [ "kron"; "--mu-x"; "0" ]
               "Monolithic: mu_x must be finite and positive (got 0)");
          Alcotest.test_case "kron NaN arrival rate" `Quick
            (check_input_error
               [ "kron"; "--kx"; "8"; "--ky"; "8"; "--lambda-x"; "nan" ]
               "Monolithic: lambda_x must be finite and positive (got nan)");
          Alcotest.test_case "kron zero tolerance" `Quick
            (check_input_error [ "kron"; "--tol"; "0" ]
               "San.stationary_report: tol must be finite and positive (got 0)");
          Alcotest.test_case "kron NaN tolerance" `Quick
            (check_input_error [ "kron"; "--tol"; "nan" ]
               "San.stationary_report: tol must be finite and positive (got nan)");
          Alcotest.test_case "kron negative max sweeps" `Quick
            (check_input_error [ "kron"; "--max-sweeps=-3" ]
               "San.stationary_report: max_iter must be at least 1 (got -3)");
          Alcotest.test_case "kron zero max sweeps" `Quick
            (check_input_error [ "kron"; "--max-sweeps=0" ]
               "San.stationary_report: max_iter must be at least 1 (got 0)");
          Alcotest.test_case "kron negative bridge capacity" `Quick
            (check_input_error [ "kron"; "--bridge=-1" ] "San_bridge: negative bridge capacity");
          Alcotest.test_case "verify lists oracles" `Quick test_verify_lists_oracles;
          Alcotest.test_case "verify replays a repro" `Quick test_verify_replays_repro;
          Alcotest.test_case "verify not a bufsize command" `Quick
            test_verify_not_a_bufsize_command;
          Alcotest.test_case "serve unbindable socket" `Quick
            (check_input_error
               [ "serve"; "--socket"; unbindable_socket ]
               (Printf.sprintf "cannot listen on socket %s: No such file or directory (bind)"
                  unbindable_socket));
        ] );
    ]
