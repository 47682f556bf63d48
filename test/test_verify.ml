(* Tests for the differential-verification harness itself: the seeded
   generators produce valid models, every oracle passes on a batch of
   seeded instances, the greedy shrinker minimizes failing cases, and the
   driver writes parseable repro files. *)

module Rng = Bufsize_prob.Rng
module Topology = Bufsize_soc.Topology
module Traffic = Bufsize_soc.Traffic
module Splitting = Bufsize_soc.Splitting
module Spec_parser = Bufsize_soc.Spec_parser
module Ctmdp = Bufsize_mdp.Ctmdp
module Lp = Bufsize_verify.Lp
module Gen_model = Bufsize_verify.Gen_model
module Oracle = Bufsize_verify.Oracle
module Oracles = Bufsize_verify.Oracles
module Shrink = Bufsize_verify.Shrink
module Driver = Bufsize_verify.Driver
module Arb = Bufsize_verify_qcheck.Verify_arbitrary

(* ------------------------------------------------- generator validity *)

let qcheck ?(count = 100) name arb prop =
  QCheck.Test.check_exn (QCheck.Test.make ~count ~name arb prop)

let test_gen_arch_valid () =
  qcheck "arch validity" Arb.arch (fun (_, (topo, traffic)) ->
      let split = Splitting.split traffic in
      Topology.is_connected topo
      && Topology.num_processors topo >= 2
      && Array.length (Traffic.flows traffic) > 0
      && Array.for_all
           (fun (s : Splitting.subsystem) ->
             List.exists (fun (_, r) -> r > 0.) s.Splitting.clients)
           split.Splitting.subsystems)

let test_gen_arch_utilization_capped () =
  (* The cap is exact up to the 0.001-word rate floor applied to flows
     whose rescaled rate would round to zero — hence the small slack. *)
  qcheck "arch utilization" Arb.arch (fun (_, (topo, traffic)) ->
      Array.for_all
        (fun (b : Topology.bus) ->
          Traffic.bus_utilization traffic b.Topology.bus_id <= 0.9 +. 0.02)
        (Topology.buses topo))

let test_gen_spec_text_parses () =
  qcheck "spec text parses" Arb.spec_text (fun (_, text) ->
      match Spec_parser.parse text with Ok _ -> true | Error _ -> false)

let test_gen_ctmdp_valid () =
  qcheck "ctmdp validity" Arb.ctmdp_case (fun (_, case) ->
      let m = Gen_model.ctmdp_of_case case in
      (* The mandatory cycle edge s -> s+1 is on every action, so state 0
         is reached under every policy: every generated instance is
         unichain. *)
      Ctmdp.num_states m = case.Gen_model.num_states
      && Ctmdp.num_extras m = 1
      && Ctmdp.reached_under_every_policy m 0)

let test_gen_lp_builds () =
  qcheck "lp builds and solves" Arb.lp_case (fun (_, case) ->
      let lp = Gen_model.lp_of_case case in
      Lp.num_vars lp = Array.length case.Gen_model.obj
      && match Lp.solve lp with Lp.Optimal _ | Lp.Infeasible | Lp.Unbounded -> true)

let test_gen_mm1k_ranges () =
  qcheck "mm1k ranges" Arb.mm1k_case (fun (_, c) ->
      c.Gen_model.lambda > 0. && c.Gen_model.mu > 0.
      && c.Gen_model.k >= 1 && c.Gen_model.k <= 8)

let test_gen_monolithic_valid () =
  qcheck "monolithic spec validates" Arb.monolithic_spec (fun (_, s) ->
      (* Monolithic.residual validates the spec and raises on a bad one. *)
      let v = Array.make (Bufsize_soc.Monolithic.dim s) 0.1 in
      Array.length (Bufsize_soc.Monolithic.residual s v)
      = Bufsize_soc.Monolithic.dim s)

let test_gen_deterministic () =
  (* The same seed must reproduce the same instance, and derived streams
     must not collide across indexes. *)
  let t1 = Gen_model.arch_text (Rng.create 42) in
  let t2 = Gen_model.arch_text (Rng.create 42) in
  Alcotest.(check string) "same seed same arch" t1 t2;
  let t3 = Gen_model.arch_text (Rng.create (Rng.derive_seed 42 1)) in
  Alcotest.(check bool) "derived seed differs" true (t1 <> t3)

(* ------------------------------------------------------------ oracles *)

(* Every oracle over >= 50 seeded instances.  One alcotest case per
   oracle so a failure names the oracle directly. *)
let oracle_case (o : Oracle.t) =
  Alcotest.test_case o.Oracle.name `Slow (fun () ->
      let summary =
        Driver.run ~oracles:[ o ] ~max_states:48 ~seed:20250807 ~count:50 ()
      in
      if not (Driver.passed summary) then
        Alcotest.fail (Format.asprintf "%a" Driver.pp_summary summary))

let test_oracle_registry () =
  Alcotest.(check int) "eleven oracles" 11 (List.length Oracles.all);
  List.iter
    (fun name ->
      match Oracles.find name with
      | Some o -> Alcotest.(check string) "find returns the oracle" name o.Oracle.name
      | None -> Alcotest.failf "oracle %s not found" name)
    (Oracles.names ());
  Alcotest.(check (option reject)) "unknown oracle" None
    (Option.map (fun (o : Oracle.t) -> o.Oracle.name) (Oracles.find "bogus"))

(* ----------------------------------------------------------- shrinker *)

(* A synthetic case family the shrinker can chew on: a list of ints whose
   check fails iff some element exceeds 10; shrink candidates drop one
   element or halve one element.  The greedy minimum for a failing list
   is a single element just above the threshold. *)
let rec int_list_case xs =
  {
    Oracle.label = Printf.sprintf "ints [%s]" (String.concat ";" (List.map string_of_int xs));
    repro = String.concat " " (List.map string_of_int xs);
    check =
      (fun () ->
        if List.exists (fun x -> x > 10) xs then Oracle.failf "element > 10" else Oracle.Pass);
    shrink =
      (fun () ->
        let drops = List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) xs) xs in
        let halves = List.mapi (fun i _ -> List.mapi (fun j x -> if i = j then x / 2 else x) xs) xs in
        List.map int_list_case (drops @ halves));
  }

let test_shrink_minimizes () =
  let case = int_list_case [ 3; 25; 7; 99; 1 ] in
  match Oracle.run_check case with
  | Oracle.Pass -> Alcotest.fail "seed case should fail"
  | Oracle.Fail msg ->
      let shrunk, msg', steps = Shrink.minimize case msg in
      Alcotest.(check string) "message survives" "element > 10" msg';
      Alcotest.(check bool) "made progress" true (steps > 0);
      (* Locally minimal: every candidate of the result passes. *)
      List.iter
        (fun c ->
          match Oracle.run_check c with
          | Oracle.Pass -> ()
          | Oracle.Fail _ -> Alcotest.fail "not locally minimal")
        (shrunk.Oracle.shrink ());
      (* For this family the greedy minimum is one element in (10, 21]:
         dropping it passes, halving it passes. *)
      let parts = String.split_on_char ' ' shrunk.Oracle.repro in
      Alcotest.(check int) "single element" 1 (List.length parts);
      let v = int_of_string (List.hd parts) in
      Alcotest.(check bool) "just above threshold" true (v > 10 && v / 2 <= 10)

let test_shrink_max_steps_bounds () =
  (* An always-failing case with an infinite shrink chain must stop at
     max_steps rather than loop. *)
  let rec endless n =
    {
      Oracle.label = "endless";
      repro = string_of_int n;
      check = (fun () -> Oracle.failf "always fails");
      shrink = (fun () -> [ endless (n + 1) ]);
    }
  in
  let _, _, steps = Shrink.minimize ~max_steps:7 (endless 0) "always fails" in
  Alcotest.(check int) "stops at the bound" 7 steps

let test_shrink_exception_counts_as_failure () =
  (* A shrink candidate whose check raises is a failure, not a crash of
     the minimizer. *)
  let bomb =
    {
      Oracle.label = "bomb";
      repro = "bomb";
      check = (fun () -> failwith "boom");
      shrink = (fun () -> []);
    }
  in
  (match Oracle.run_check bomb with
  | Oracle.Fail msg ->
      Alcotest.(check bool) "exception captured" true
        (String.length msg > 0)
  | Oracle.Pass -> Alcotest.fail "exception should fail");
  let parent =
    {
      Oracle.label = "parent";
      repro = "parent";
      check = (fun () -> Oracle.failf "parent fails");
      shrink = (fun () -> [ bomb ]);
    }
  in
  let shrunk, _, steps = Shrink.minimize parent "parent fails" in
  Alcotest.(check int) "descended into the raising candidate" 1 steps;
  Alcotest.(check string) "landed on it" "bomb" shrunk.Oracle.label

(* ------------------------------------------------------------- driver *)

let failing_oracle =
  (* Deterministically failing on even instances, with a working shrink,
     to exercise the driver's failure path end to end. *)
  {
    Oracle.name = "synthetic-fail";
    doc = "fails on even instance seeds";
    generate =
      (fun ~max_states:_ rng ->
        let n = 20 + Rng.int rng 20 in
        let parity = Rng.int rng 2 in
        if parity = 0 then int_list_case [ 3; n; 7 ] else int_list_case [ 3; 7 ]);
  }

let test_driver_reports_and_writes_repros () =
  let out_dir = Filename.temp_file "bufsize_verify" "" in
  Sys.remove out_dir;
  let summary =
    Driver.run ~oracles:[ failing_oracle ] ~out_dir ~seed:5 ~count:30 ()
  in
  Alcotest.(check bool) "driver sees failures" true (summary.Driver.total_failures > 0);
  Alcotest.(check bool) "but not everywhere" true
    (summary.Driver.total_failures < summary.Driver.total_instances);
  Alcotest.(check bool) "passed is false" false (Driver.passed summary);
  List.iter
    (fun (o : Driver.oracle_summary) ->
      List.iter
        (fun (f : Driver.failure) ->
          (match f.Driver.repro_path with
          | None -> Alcotest.fail "repro path missing"
          | Some path ->
              Alcotest.(check bool) "repro file exists" true (Sys.file_exists path);
              let ic = open_in path in
              let first = input_line ic in
              close_in ic;
              Alcotest.(check bool) "repro header is a comment" true
                (String.length first > 0 && first.[0] = '#'));
          (* The recorded seed regenerates a failing instance. *)
          match
            Oracle.run_check
              (failing_oracle.Oracle.generate ~max_states:48 (Rng.create f.Driver.seed))
          with
          | Oracle.Fail _ -> ()
          | Oracle.Pass -> Alcotest.fail "recorded seed does not reproduce")
        o.Driver.failures)
    summary.Driver.oracles;
  (* Determinism: the same run finds the same failures. *)
  let summary2 = Driver.run ~oracles:[ failing_oracle ] ~seed:5 ~count:30 () in
  Alcotest.(check int) "deterministic failure count" summary.Driver.total_failures
    summary2.Driver.total_failures

(* -------------------------------------------------------------- replay *)

let test_replay_case_roundtrips () =
  (* The of_string parsers invert the to_string printers on generated
     cases (all values are round3'd, so %g printing is lossless). *)
  let rng = Rng.create 77 in
  for _ = 1 to 50 do
    let c = Gen_model.lp_case rng in
    (match Gen_model.lp_case_of_string (Gen_model.lp_case_to_string c) with
    | Error e -> Alcotest.failf "lp round-trip: %s" e
    | Ok c' -> Alcotest.(check bool) "lp case round-trips" true (c = c'));
    let m = Gen_model.ctmdp_case rng in
    (match Gen_model.ctmdp_case_of_string (Gen_model.ctmdp_case_to_string m) with
    | Error e -> Alcotest.failf "ctmdp round-trip: %s" e
    | Ok m' -> Alcotest.(check bool) "ctmdp case round-trips" true (m = m'));
    let s = Gen_model.monolithic_spec rng in
    match Gen_model.monolithic_of_string (Gen_model.monolithic_to_string s) with
    | Error e -> Alcotest.failf "monolithic round-trip: %s" e
    | Ok s' -> Alcotest.(check bool) "monolithic spec round-trips" true (s = s')
  done

let test_replay_all_oracles () =
  (* A generated (passing) case of every oracle, prefixed with the driver
     header, reconstructs through case_of_repro and still passes. *)
  List.iter
    (fun (o : Oracle.t) ->
      let case = o.Oracle.generate ~max_states:24 (Rng.create 4242) in
      let text = Printf.sprintf "# oracle: %s\n%s" o.Oracle.name case.Oracle.repro in
      match Oracles.case_of_repro text with
      | Error e -> Alcotest.failf "%s: replay parse failed: %s" o.Oracle.name e
      | Ok case' -> (
          match Oracle.run_check case' with
          | Oracle.Pass -> ()
          | Oracle.Fail m -> Alcotest.failf "%s: replayed case fails: %s" o.Oracle.name m))
    Oracles.all

let test_replay_rejects_malformed () =
  (match Oracles.case_of_repro "no header at all" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected Error on a missing oracle header");
  (match Oracles.case_of_repro "# oracle: simplex-cross\nnot an lp" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected Error on a malformed body");
  match Oracles.case_of_repro "# oracle: no-such-oracle\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected Error on an unknown oracle"

(* Non-finite numbers are not data: each repro is an [Error] naming the
   offending line.  A nan or inf bound would otherwise replay as a pass,
   and a nan objective term as an engine disagreement. *)
let test_replay_rejects_non_finite () =
  let repro ~objective ~bound =
    Printf.sprintf
      "# oracle: simplex-cross\nlp minimize vars 2\nobjective: %s\n%s\nrow: +1 x0 +1 x1 <= 4\n"
      objective bound
  in
  List.iter
    (fun (objective, bound, bad_line) ->
      match Oracles.case_of_repro (repro ~objective ~bound) with
      | Ok case -> Alcotest.failf "accepted %S as %s" bad_line case.Oracle.label
      | Error e ->
          let n = String.length bad_line in
          let rec names i =
            i + n <= String.length e && (String.sub e i n = bad_line || names (i + 1))
          in
          Alcotest.(check bool) (Printf.sprintf "%S names %S" e bad_line) true (names 0))
    [
      ("+1 x0 +1 x1", "x0 >= nan", "x0 >= nan");
      ("+1 x0 +1 x1", "x0 >= inf", "x0 >= inf");
      ("+1 x0 +nan x1", "x0 free", "objective: +1 x0 +nan x1");
    ]

let test_replay_from_file () =
  (* Driver.replay reads a repro file end-to-end. *)
  let case = (List.hd Oracles.all).Oracle.generate ~max_states:16 (Rng.create 9) in
  let path = Filename.temp_file "bufsize_replay" ".repro" in
  let oc = open_out path in
  Printf.fprintf oc "# oracle: %s\n%s" (List.hd Oracles.all).Oracle.name case.Oracle.repro;
  close_out oc;
  let result = Driver.replay path in
  Sys.remove path;
  match result with
  | Ok (_, Oracle.Pass) -> ()
  | Ok (label, Oracle.Fail m) -> Alcotest.failf "replayed %s fails: %s" label m
  | Error e -> Alcotest.failf "replay: %s" e

let test_driver_architecture_repro_roundtrips () =
  (* Repro files written for architecture-based oracles must stay
     loadable by Spec_parser (comment header + spec body). *)
  let arch_fail =
    {
      Oracle.name = "synthetic-arch-fail";
      doc = "always fails, repro is an architecture";
      generate =
        (fun ~max_states:_ rng ->
          let text = Gen_model.arch_text rng in
          {
            Oracle.label = "arch";
            repro = text;
            check = (fun () -> Oracle.failf "synthetic failure");
            shrink = (fun () -> []);
          });
    }
  in
  let out_dir = Filename.temp_file "bufsize_verify" "" in
  Sys.remove out_dir;
  let summary = Driver.run ~oracles:[ arch_fail ] ~out_dir ~seed:11 ~count:2 () in
  List.iter
    (fun (o : Driver.oracle_summary) ->
      List.iter
        (fun (f : Driver.failure) ->
          match f.Driver.repro_path with
          | None -> Alcotest.fail "no repro written"
          | Some path -> (
              match Spec_parser.parse_file path with
              | Ok _ -> ()
              | Error e -> Alcotest.failf "repro %s does not parse: %s" path e))
        o.Driver.failures)
    summary.Driver.oracles

let () =
  Alcotest.run "verify"
    [
      ( "generators",
        [
          Alcotest.test_case "arch validity (property)" `Quick test_gen_arch_valid;
          Alcotest.test_case "arch utilization cap (property)" `Quick
            test_gen_arch_utilization_capped;
          Alcotest.test_case "spec text parses (property)" `Quick test_gen_spec_text_parses;
          Alcotest.test_case "ctmdp validity (property)" `Quick test_gen_ctmdp_valid;
          Alcotest.test_case "lp builds (property)" `Quick test_gen_lp_builds;
          Alcotest.test_case "mm1k ranges (property)" `Quick test_gen_mm1k_ranges;
          Alcotest.test_case "monolithic validates (property)" `Quick test_gen_monolithic_valid;
          Alcotest.test_case "seed determinism" `Quick test_gen_deterministic;
        ] );
      ( "oracles",
        Alcotest.test_case "registry" `Quick test_oracle_registry
        :: List.map oracle_case Oracles.all );
      ( "shrinker",
        [
          Alcotest.test_case "greedy minimization" `Quick test_shrink_minimizes;
          Alcotest.test_case "max-steps bound" `Quick test_shrink_max_steps_bounds;
          Alcotest.test_case "raising checks count as failures" `Quick
            test_shrink_exception_counts_as_failure;
        ] );
      ( "driver",
        [
          Alcotest.test_case "failure reporting and repro files" `Quick
            test_driver_reports_and_writes_repros;
          Alcotest.test_case "architecture repros parse" `Quick
            test_driver_architecture_repro_roundtrips;
        ] );
      ( "replay",
        [
          Alcotest.test_case "case printers round-trip" `Quick test_replay_case_roundtrips;
          Alcotest.test_case "every oracle replays" `Quick test_replay_all_oracles;
          Alcotest.test_case "malformed repros rejected" `Quick test_replay_rejects_malformed;
          Alcotest.test_case "non-finite numbers rejected" `Quick test_replay_rejects_non_finite;
          Alcotest.test_case "file replay" `Quick test_replay_from_file;
        ] );
    ]
