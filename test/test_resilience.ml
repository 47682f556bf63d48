(* Tests for the resilient solve pipeline: the escalation combinator's
   status/value contract, budgets, the singular-basis no-NaN regression,
   the typed reducible-chain error, the sizing health report, qcheck
   fault-agreement properties, and the exhaustive chaos fault sweep. *)

module Resilience = Bufsize_resilience.Resilience
module Lp = Bufsize_verify.Lp
module Simplex = Bufsize_verify.Simplex
module Ctmc = Bufsize_prob.Ctmc
module Sizing = Bufsize_soc.Sizing
module Chaos = Bufsize_verify.Chaos
module Oracle = Bufsize_verify.Oracle
module Oracles = Bufsize_verify.Oracles
module Gen_model = Bufsize_verify.Gen_model
module Arb = Bufsize_verify_qcheck.Verify_arbitrary

let qcheck ?(count = 100) name arb prop =
  QCheck.Test.check_exn (QCheck.Test.make ~count ~name arb prop)

(* Naive substring scan (no string library dependency). *)
let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

(* The value/status contract every integration relies on: a surfaced
   value iff the status is usable. *)
let consistent value diag =
  match (value, diag.Resilience.status) with
  | Some _, (Resilience.Ok | Resilience.Degraded _) -> true
  | None, Resilience.Failed _ -> true
  | _ -> false

(* -------------------------------------------- escalation combinator *)

let accept_step name v =
  Resilience.step name (fun _ -> Resilience.Accept (v, Resilience.meta ()))

let reject_step name why = Resilience.step name (fun _ -> Resilience.Reject why)

let partial_step name v note =
  Resilience.step name (fun _ -> Resilience.Partial (v, Resilience.meta (), note))

let raising_step name = Resilience.step name (fun _ -> failwith "kaboom")

let test_escalate_first_accept () =
  let v, d = Resilience.escalate ~solver:"t" [ accept_step "one" 1; reject_step "two" "x" ] in
  Alcotest.(check (option int)) "value" (Some 1) v;
  Alcotest.(check bool) "ok" true (Resilience.is_ok d);
  Alcotest.(check (list string)) "no fallbacks" [] d.Resilience.fallbacks

let test_escalate_fallback_degrades () =
  let v, d = Resilience.escalate ~solver:"t" [ reject_step "one" "boom"; accept_step "two" 2 ] in
  Alcotest.(check (option int)) "value" (Some 2) v;
  (match d.Resilience.status with
  | Resilience.Degraded r ->
      Alcotest.(check bool) "names the fallback step" true (contains_sub r "fell back to two")
  | _ -> Alcotest.fail "expected Degraded");
  Alcotest.(check (list string)) "fallbacks" [ "two" ] d.Resilience.fallbacks;
  Alcotest.(check bool) "consistent" true (consistent v d)

let test_escalate_all_reject () =
  let v, d =
    Resilience.escalate ~solver:"t" [ reject_step "one" "first"; reject_step "two" "second" ]
  in
  Alcotest.(check (option int)) "no value" None v;
  (match d.Resilience.status with
  | Resilience.Failed r -> Alcotest.(check string) "first reason kept" "first" r
  | _ -> Alcotest.fail "expected Failed");
  Alcotest.(check bool) "consistent" true (consistent v d)

let test_escalate_partial_retained () =
  let v, d =
    Resilience.escalate ~solver:"t" [ partial_step "one" 7 "meh"; reject_step "two" "x" ]
  in
  Alcotest.(check (option int)) "best-known value" (Some 7) v;
  (match d.Resilience.status with
  | Resilience.Degraded r -> Alcotest.(check string) "partial note" "meh" r
  | _ -> Alcotest.fail "expected Degraded")

let test_escalate_partial_then_accept () =
  let v, d =
    Resilience.escalate ~solver:"t" [ partial_step "one" 7 "meh"; accept_step "two" 9 ]
  in
  Alcotest.(check (option int)) "clean answer wins" (Some 9) v;
  Alcotest.(check bool) "degraded" true
    (match d.Resilience.status with Resilience.Degraded _ -> true | _ -> false)

let test_escalate_exception_becomes_reject () =
  let v, d = Resilience.escalate ~solver:"t" [ raising_step "one"; accept_step "two" 3 ] in
  Alcotest.(check (option int)) "value" (Some 3) v;
  match d.Resilience.status with
  | Resilience.Degraded r ->
      Alcotest.(check bool) "reason mentions the exception" true
        (contains_sub r "kaboom")
  | _ -> Alcotest.fail "expected Degraded"

let test_escalate_expired_budget () =
  let v, d =
    Resilience.escalate ~solver:"t"
      ~budget:(Resilience.expired ())
      [ accept_step "one" 1; accept_step "two" 2 ]
  in
  Alcotest.(check (option int)) "no value" None v;
  match d.Resilience.status with
  | Resilience.Failed r ->
      Alcotest.(check bool) "reason mentions the budget" true (contains_sub r "budget")
  | _ -> Alcotest.fail "expected Failed"

let test_budget_basics () =
  Alcotest.(check bool) "unlimited never expires" false
    (Resilience.exhausted Resilience.unlimited);
  Alcotest.(check bool) "non-positive ms = unlimited" false
    (Resilience.exhausted (Resilience.of_ms 0.));
  Alcotest.(check bool) "expired () is exhausted" true
    (Resilience.exhausted (Resilience.expired ()));
  Alcotest.(check bool) "unlimited remaining infinite" true
    (Resilience.remaining_ms Resilience.unlimited = Float.infinity)

let test_health_report () =
  let d_ok = Resilience.ok ~solver:"s" () in
  let d_bad = Resilience.degraded ~solver:"s" "why" in
  Alcotest.(check bool) "all ok" true (Resilience.health_ok [ ("a", d_ok) ]);
  Alcotest.(check bool) "degraded breaks it" false
    (Resilience.health_ok [ ("a", d_ok); ("b", d_bad) ]);
  let json = Resilience.health_to_json [ ("a", d_ok) ] in
  Alcotest.(check bool) "json ok flag" true (contains_sub json "\"ok\":true");
  (* NaN residuals must serialize as null, keeping the JSON standard. *)
  Alcotest.(check bool) "nan residual -> null" true
    (contains_sub (Resilience.to_json d_ok) "\"residual\":null")

(* Emitted health JSON must be standard JSON: nasty solver / reason
   strings escape correctly, wall_ms is a number (never a formatted
   string), and the escalation span id cross-reference is a number or
   null.  The check parses the emitted text back with the strict
   Test_json parser instead of substring matching. *)
let test_health_json_roundtrip () =
  let nasty = "we\"ird\\solver\nwith\ttabs\rand\x01ctl" in
  let reason = "fell \"back\"\nbecause" in
  let d = Resilience.degraded ~solver:nasty reason in
  let label = "sub\"system\n1" in
  let json = Resilience.health_to_json [ (label, d); ("clean", Resilience.ok ~solver:"s" ()) ] in
  let v = Test_json.parse_exn json in
  Alcotest.(check bool) "ok flag is a bool" false Test_json.(to_bool (member_exn "ok" v));
  let diags = Test_json.(to_list (member_exn "diagnostics" v)) in
  Alcotest.(check int) "two entries" 2 (List.length diags);
  let first = List.hd diags in
  Alcotest.(check string) "label round-trips" label
    Test_json.(to_string (member_exn "label" first));
  let diag = Test_json.member_exn "diagnostic" first in
  Alcotest.(check string) "solver round-trips" nasty
    Test_json.(to_string (member_exn "solver" diag));
  Alcotest.(check string) "reason round-trips" reason
    Test_json.(to_string (member_exn "reason" diag));
  Alcotest.(check string) "status" "degraded" Test_json.(to_string (member_exn "status" diag));
  (match Test_json.member_exn "wall_ms" diag with
  | Test_json.Num ms -> Alcotest.(check bool) "wall_ms finite" true (Float.is_finite ms)
  | _ -> Alcotest.fail "wall_ms must be a JSON number");
  match Test_json.member_exn "span" diag with
  | Test_json.Null | Test_json.Num _ -> ()
  | _ -> Alcotest.fail "span must be a number or null"

(* The exact bytes of the diagnostic and health encodings: a NaN residual
   becomes null, an integer-valued wall time prints without a dot or
   exponent, a non-integer one with %.17g, and quotes, newlines and other
   control characters in strings are escaped. *)
let test_health_json_exact_bytes () =
  let d =
    Resilience.degraded ~solver:"lp.solve(x)" ~iterations:12 ~wall_ms:3. ~fallbacks:[ "bland" ]
      "say \"no\"\nthen\x01stop"
  in
  let d_json =
    "{\"solver\":\"lp.solve(x)\",\"status\":\"degraded\",\"reason\":\"say \\\"no\\\"\\nthen\\u0001stop\",\"iterations\":12,\"residual\":null,\"wall_ms\":3,\"fallbacks\":[\"bland\"],\"span\":null}"
  in
  Alcotest.(check string) "diagnostic bytes" d_json (Resilience.to_json d);
  let clean = Resilience.ok ~solver:"s" ~residual:0.25 ~wall_ms:0.1 () in
  Alcotest.(check string) "health bytes"
    ("{\"ok\":false,\"diagnostics\":[{\"label\":\"a\\\"b\",\"diagnostic\":" ^ d_json
   ^ "},{\"label\":\"c\",\"diagnostic\":{\"solver\":\"s\",\"status\":\"ok\",\"reason\":null,\"iterations\":0,\"residual\":0.25,\"wall_ms\":0.10000000000000001,\"fallbacks\":[],\"span\":null}}]}"
    )
    (Resilience.health_to_json [ ("a\"b", d); ("c", clean) ])

(* A real escalation chain run under tracing stamps the chain's span id
   into the diagnostic, linking --health-json output to the trace. *)
let test_diagnostic_links_to_span () =
  let module Obs = Bufsize_obs.Obs in
  Obs.disable ();
  Obs.reset ();
  Obs.enable_spans ();
  let _, d = Resilience.escalate ~solver:"linked" [ accept_step "one" 1 ] in
  Obs.disable ();
  Alcotest.(check bool) "span id recorded" true (d.Resilience.span_id > 0);
  let spans = Obs.recorded_spans () in
  Alcotest.(check bool) "the chain span exists in the trace" true
    (List.exists (fun s -> s.Obs.sid = d.Resilience.span_id && s.Obs.sname = "linked") spans);
  let diag = Test_json.parse_exn (Resilience.to_json d) in
  Alcotest.(check (float 0.)) "span id serialized" (float_of_int d.Resilience.span_id)
    Test_json.(to_number (member_exn "span" diag));
  Obs.reset ()

(* --------------------------------------- singular bases (satellite 1) *)

(* Three copies of the same equality row: the final basis necessarily
   contains an artificial column of a redundant row, so the old
   refinement path hit a singular LU solve and surfaced NaN duals. *)
let test_simplex_duplicated_rows_finite () =
  let std =
    {
      Simplex.nrows = 3;
      ncols = 2;
      a = [| 1.; 1.; 1.; 1.; 1.; 1. |];
      b = [| 1.; 1.; 1. |];
      c = [| 1.; 2. |];
    }
  in
  match Simplex.solve std with
  | Simplex.Optimal s ->
      Alcotest.(check bool) "no NaN/Inf anywhere" true (Simplex.solution_finite s);
      Alcotest.(check (float 1e-9)) "objective" 1.0 s.Simplex.objective
  | Simplex.Infeasible | Simplex.Unbounded -> Alcotest.fail "expected an optimum"

let test_lp_diag_duplicated_rows () =
  let lp = Lp.create ~name:"dup" Lp.Minimize in
  let x = Lp.add_var ~name:"x" lp in
  let y = Lp.add_var ~name:"y" lp in
  Lp.set_objective lp [ (1., x); (2., y) ];
  Lp.add_constraint lp [ (1., x); (1., y) ] Lp.Eq 1.;
  Lp.add_constraint lp [ (1., x); (1., y) ] Lp.Eq 1.;
  Lp.add_constraint lp [ (1., x); (1., y) ] Lp.Ge 1.;
  match Lp.solve_diag lp with
  | Some o, d ->
      Alcotest.(check bool) "usable diagnostic" true (Resilience.is_usable d);
      Alcotest.(check bool) "finite outcome" true (Lp.outcome_finite o);
      (match o with
      | Lp.Optimal s -> Alcotest.(check (float 1e-9)) "objective" 1.0 s.Lp.objective
      | _ -> Alcotest.fail "expected Optimal")
  | None, _ -> Alcotest.fail "duplicated rows must still solve"

(* ------------------------------------ reducible chains (satellite 2) *)

let test_reducible_typed_error () =
  (* Two disjoint 2-cycles: no stationary solve can claim irreducibility. *)
  let t = Ctmc.of_rates 4 [ (0, 1, 1.); (1, 0, 1.); (2, 3, 1.); (3, 2, 1.) ] in
  (match Ctmc.stationary_gth t with
  | Error (`Reducible_class cls) ->
      Alcotest.(check bool) "names a closed class" true (cls = [ 0; 1 ] || cls = [ 2; 3 ])
  | Ok _ -> Alcotest.fail "reducible chain must yield the typed error");
  let pi, d = Ctmc.stationary_diag t in
  Alcotest.(check bool) "never reported clean" false (Resilience.is_ok d);
  Alcotest.(check bool) "consistent" true (consistent pi d);
  match pi with
  | Some v -> Alcotest.(check bool) "surfaced vector is a distribution" true
        (Ctmc.distribution_valid v)
  | None -> ()

let test_communicating_class () =
  let t = Ctmc.of_rates 5 [ (0, 1, 1.); (1, 0, 1.); (1, 2, 0.5); (2, 3, 1.); (3, 4, 1.); (4, 2, 1.) ] in
  Alcotest.(check (list int)) "upstream transient cycle" [ 0; 1 ] (Ctmc.communicating_class t 0);
  Alcotest.(check (list int)) "closed class" [ 2; 3; 4 ] (Ctmc.communicating_class t 3)

(* ------------------------------------------------------ sizing health *)

let test_sizing_health_all_ok_on_clean_arch () =
  let _, traffic = Bufsize_soc.Amba.create () in
  let r = Sizing.run { (Sizing.default_config ~budget:24) with Sizing.max_states = 96 } traffic in
  Alcotest.(check bool) "health entries present" true (r.Sizing.health <> []);
  Alcotest.(check bool) "clean run is all ok" true (Resilience.health_ok r.Sizing.health)

(* --------------------------------- qcheck properties (satellite 4) *)

let test_prop_lp_diag_matches_clean () =
  qcheck ~count:100 "lp solve_diag agrees with solve when Ok" Arb.lp_case
    (fun (_, case) ->
      let clean = Lp.solve (Gen_model.lp_of_case case) in
      let surfaced, d = Lp.solve_diag (Gen_model.lp_of_case case) in
      (match surfaced with Some o -> Lp.outcome_finite o | None -> true)
      && consistent surfaced d
      &&
      match d.Resilience.status with
      | Resilience.Ok -> (
          match (surfaced, clean) with
          | Some (Lp.Optimal a), Lp.Optimal b ->
              let scale = Float.max 1. (Float.abs b.Lp.objective) in
              Float.abs (a.Lp.objective -. b.Lp.objective) <= 1e-8 *. scale
          | Some Lp.Infeasible, Lp.Infeasible | Some Lp.Unbounded, Lp.Unbounded -> true
          | _ -> false)
      | Resilience.Degraded _ | Resilience.Failed _ -> true)

let test_prop_expired_budget_never_ok () =
  qcheck ~count:50 "expired budget is never reported Ok" Arb.lp_case
    (fun (_, case) ->
      let surfaced, d =
        Lp.solve_diag ~budget:(Resilience.expired ()) (Gen_model.lp_of_case case)
      in
      surfaced = None && not (Resilience.is_ok d))

let test_prop_every_fault_surfaces () =
  qcheck ~count:30 "injected faults surface as structured diagnostics" QCheck.small_nat
    (fun seed ->
      List.for_all
        (fun fault ->
          match Chaos.check fault seed with Oracle.Pass -> true | Oracle.Fail _ -> false)
        Chaos.all_faults)

(* ------------------------------------------------- chaos fault sweep *)

(* The acceptance sweep: every fault family x 50 seeded instances, each
   surfacing as a structured diagnostic (the check itself asserts the
   no-exception / no-NaN / metamorphic-agreement contract). *)
let test_chaos_sweep () =
  List.iter
    (fun fault ->
      for seed = 1 to 50 do
        match Chaos.check fault seed with
        | Oracle.Pass -> ()
        | Oracle.Fail msg ->
            Alcotest.fail
              (Printf.sprintf "fault %s seed %d: %s" (Chaos.fault_name fault) seed msg)
      done)
    Chaos.all_faults

let test_chaos_repro_roundtrip () =
  List.iter
    (fun fault ->
      let case = Chaos.case ~fault ~seed:7 in
      match Oracles.case_of_repro case.Oracle.repro with
      | Error e -> Alcotest.fail e
      | Ok case' -> (
          match Oracle.run_check case' with
          | Oracle.Pass -> ()
          | Oracle.Fail msg ->
              Alcotest.fail (Printf.sprintf "%s replay: %s" (Chaos.fault_name fault) msg)))
    Chaos.all_faults

(* ---------------------------------------------------------------- run *)

let () =
  Alcotest.run "resilience"
    [
      ( "escalate",
        [
          Alcotest.test_case "first accept is pristine" `Quick test_escalate_first_accept;
          Alcotest.test_case "fallback degrades" `Quick test_escalate_fallback_degrades;
          Alcotest.test_case "all reject fails" `Quick test_escalate_all_reject;
          Alcotest.test_case "partial retained" `Quick test_escalate_partial_retained;
          Alcotest.test_case "partial then accept" `Quick test_escalate_partial_then_accept;
          Alcotest.test_case "exceptions become rejects" `Quick
            test_escalate_exception_becomes_reject;
          Alcotest.test_case "expired budget" `Quick test_escalate_expired_budget;
          Alcotest.test_case "budget basics" `Quick test_budget_basics;
          Alcotest.test_case "health report" `Quick test_health_report;
          Alcotest.test_case "health json round-trip" `Quick test_health_json_roundtrip;
          Alcotest.test_case "health json exact bytes" `Quick test_health_json_exact_bytes;
          Alcotest.test_case "diagnostic links to span" `Quick test_diagnostic_links_to_span;
        ] );
      ( "singular-basis",
        [
          Alcotest.test_case "duplicated rows: finite simplex solution" `Quick
            test_simplex_duplicated_rows_finite;
          Alcotest.test_case "duplicated rows: lp diag" `Quick test_lp_diag_duplicated_rows;
        ] );
      ( "reducible",
        [
          Alcotest.test_case "typed error with closed class" `Quick test_reducible_typed_error;
          Alcotest.test_case "communicating classes" `Quick test_communicating_class;
        ] );
      ( "sizing-health",
        [ Alcotest.test_case "clean arch all ok" `Quick test_sizing_health_all_ok_on_clean_arch ] );
      ( "properties",
        [
          Alcotest.test_case "diag matches clean (property)" `Quick
            test_prop_lp_diag_matches_clean;
          Alcotest.test_case "expired budget non-ok (property)" `Quick
            test_prop_expired_budget_never_ok;
          Alcotest.test_case "faults surface (property)" `Quick test_prop_every_fault_surfaces;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "every fault x 50 seeds sweep" `Quick test_chaos_sweep;
          Alcotest.test_case "repro round-trip" `Quick test_chaos_repro_roundtrip;
        ] );
    ]
