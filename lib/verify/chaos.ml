(* Fault injection for the resilient solve pipeline.

   Each chaos case deterministically (from a seed) builds a numerically
   hazardous instance of a known fault family and drives it through
   [Ctmc.stationary], which production calls and whose escalation chain
   [Ctmc.stationary_diag] supplies the diagnostic, or through the
   reference LP's [Lp.solve_diag].  The contract under test is the
   resilience invariant:

   - no fault may escape as an uncaught exception (the escalation chains
     convert solver exceptions into step rejections; [Ctmc.stationary]
     raises [Failure] exactly when its chain has no answer);
   - no claimed-[Ok] result may contain NaN/Inf or disagree with the
     clean-instance answer beyond 1e-8 (faults here are metamorphic:
     duplicated LP rows, uniformly scaled CTMC rates, ... preserve the
     mathematical answer while stressing the numerics);
   - any fault the solver could not absorb cleanly must surface as a
     [Degraded] or [Failed] diagnostic, never as a silently wrong answer.

   The module doubles as the `chaos` oracle of the verify harness
   ([bufsize-verify --oracle chaos]) and as the engine of the
   test-suite's fault sweep. *)

module Rng = Bufsize_prob.Rng
module Ctmc = Bufsize_prob.Ctmc
module Resilience = Bufsize_resilience.Resilience
open Oracle

type fault =
  | Singular_basis  (* duplicated LP rows: rank-deficient bases *)
  | Degenerate_pivot  (* a constraint row scaled to near the pivot tolerance *)
  | Rate_underflow  (* all CTMC rates scaled by 1e-150 *)
  | Rate_overflow  (* all CTMC rates scaled by 1e+140 *)
  | Reducible_chain  (* two disjoint closed classes *)
  | Budget_exhaustion  (* an already-expired wall-clock budget *)

let all_faults =
  [
    Singular_basis;
    Degenerate_pivot;
    Rate_underflow;
    Rate_overflow;
    Reducible_chain;
    Budget_exhaustion;
  ]

let fault_name = function
  | Singular_basis -> "singular-basis"
  | Degenerate_pivot -> "degenerate-pivot"
  | Rate_underflow -> "rate-underflow"
  | Rate_overflow -> "rate-overflow"
  | Reducible_chain -> "reducible-chain"
  | Budget_exhaustion -> "budget-exhaustion"

let fault_of_name s = List.find_opt (fun f -> fault_name f = s) all_faults

(* ------------------------------------------------------------ helpers *)

let rel_close tol a b =
  Float.abs (a -. b) <= tol *. (1. +. Float.max (Float.abs a) (Float.abs b))

let status_name = function
  | Resilience.Ok -> "ok"
  | Resilience.Degraded _ -> "degraded"
  | Resilience.Failed _ -> "failed"

(* The value/status contract of [Resilience.escalate]: a usable status
   comes with an answer, [Failed] comes without one. *)
let check_diag_consistency (o : 'a option) (d : Resilience.diagnostic) =
  match (o, d.Resilience.status) with
  | Some _, (Resilience.Ok | Resilience.Degraded _) -> Pass
  | None, Resilience.Failed _ -> Pass
  | Some _, Resilience.Failed _ -> failf "answer present but diagnostic says failed"
  | None, s -> failf "no answer but diagnostic says %s" (status_name s)

(* ----------------------------------------------------------- LP faults *)

(* Metamorphic LP check: [mutate] must preserve the feasible set and the
   objective, so a claimed-Ok solve of the faulted model must agree with
   the clean solve; anything else must be Degraded/Failed.

   [require_feasible] redraws until the clean instance is Optimal: faults
   that scale a row towards the solver tolerance are only numerically
   neutral away from the feasibility boundary (an infeasible row whose
   violation is scaled below the phase-1 tolerance legitimately flips the
   classification — that is a property of any fixed-tolerance solver, not
   a resilience failure). *)
let check_lp_metamorphic ?(require_feasible = false) ~mutate rng =
  let rec draw attempts =
    let c = Gen_model.lp_case rng in
    let clean = Lp.solve (Gen_model.lp_of_case c) in
    match clean with
    | Lp.Optimal _ -> (c, clean)
    | _ when require_feasible && attempts < 20 -> draw (attempts + 1)
    | _ -> (c, clean)
  in
  let c, clean = draw 0 in
  let faulted = mutate c in
  let o, diag = Lp.solve_diag faulted in
  all_of
    [
      (fun () -> check_diag_consistency o diag);
      (fun () ->
        match o with
        | Some fo when not (Lp.outcome_finite fo) ->
            failf "NaN/Inf in a surfaced LP outcome (status %s)" (status_name diag.Resilience.status)
        | _ -> Pass);
      (fun () ->
        match (o, diag.Resilience.status) with
        | Some fo, Resilience.Ok -> (
            match (clean, fo) with
            | Lp.Optimal a, Lp.Optimal b ->
                if rel_close 1e-8 a.Lp.objective b.Lp.objective then Pass
                else
                  failf "Ok result drifted under a neutral fault: clean %.12g vs faulted %.12g"
                    a.Lp.objective b.Lp.objective
            | Lp.Infeasible, Lp.Infeasible | Lp.Unbounded, Lp.Unbounded -> Pass
            | _, _ ->
                failf "Ok result changed the LP classification under a neutral fault: clean %s vs faulted %s"
                  (Format.asprintf "%a" Lp.pp_outcome clean)
                  (Format.asprintf "%a" Lp.pp_outcome fo))
        | _ -> Pass);
    ]

(* Duplicate every row (Le/Ge duplicates nudged by 1e-12 so the copies are
   distinct but the binding side is unchanged): the standard form gains
   linearly dependent rows, so simplex bases go rank-deficient and the
   dual back-solve of the refinement step sees singular systems. *)
let duplicate_rows (c : Gen_model.lp_case) =
  let nudged (terms, sense, rhs) =
    match sense with
    | Lp.Le -> (terms, sense, rhs +. 1e-12)
    | Lp.Ge -> (terms, sense, rhs -. 1e-12)
    | Lp.Eq -> (terms, sense, rhs)
  in
  Gen_model.lp_of_case
    { c with Gen_model.rows = c.Gen_model.rows @ List.map nudged c.Gen_model.rows }

(* Scale one row (both sides) down to near the pivot tolerance: the
   feasible set is untouched but every pivot in that row is tiny. *)
let scale_row rng (c : Gen_model.lp_case) =
  match c.Gen_model.rows with
  | [] -> Gen_model.lp_of_case c
  | rows ->
      let target = Rng.int rng (List.length rows) in
      let scale = 1e-7 in
      let rows =
        List.mapi
          (fun i (terms, sense, rhs) ->
            if i = target then
              (List.map (fun (v, cf) -> (v, cf *. scale)) terms, sense, rhs *. scale)
            else (terms, sense, rhs))
          rows
      in
      Gen_model.lp_of_case { c with Gen_model.rows }

(* ---------------------------------------------------------- CTMC faults *)

(* A random irreducible chain: a cycle (guaranteeing irreducibility) plus
   random extra edges. *)
let random_ctmc_rates rng =
  let n = 3 + Rng.int rng 10 in
  let rates = ref [] in
  for i = 0 to n - 1 do
    rates := (i, (i + 1) mod n, Rng.float_range rng 0.1 2.) :: !rates;
    let extras = Rng.int rng 3 in
    for _ = 1 to extras do
      let j = Rng.int rng n in
      if j <> i then rates := (i, j, Rng.float_range rng 0.01 1.) :: !rates
    done
  done;
  (n, !rates)

(* Solve [t] as production does, with [Ctmc.stationary], and read the
   same chain's diagnostic from [Ctmc.stationary_diag]: the production
   answer must be bitwise the chain's answer (and [Failure] exactly when
   the chain has none), and a surfaced vector must be a distribution
   whatever the status. *)
let solve_stationary t =
  let answer = match Ctmc.stationary t with pi -> Some pi | exception Failure _ -> None in
  let o, diag = Ctmc.stationary_diag t in
  let bits = Option.map (Array.map Int64.bits_of_float) in
  let checks =
    [
      (fun () -> check_diag_consistency o diag);
      (fun () ->
        if bits answer = bits o then Pass
        else
          failf "Ctmc.stationary differs from its diagnostic chain (status %s)"
            (status_name diag.Resilience.status));
      (fun () ->
        match answer with
        | Some pi when not (Ctmc.distribution_valid pi) ->
            failf "surfaced stationary vector is not a distribution (status %s)"
              (status_name diag.Resilience.status)
        | _ -> Pass);
    ]
  in
  (answer, diag, checks)

(* Metamorphic CTMC check: scaling every rate by [scale] leaves the
   stationary distribution unchanged, so a claimed-Ok solve of the scaled
   chain must match the clean chain's distribution. *)
let check_ctmc_scaled ~scale rng =
  let n, rates = random_ctmc_rates rng in
  let clean_pi = Ctmc.stationary (Ctmc.of_rates n rates) in
  let scaled = Ctmc.of_rates n (List.map (fun (i, j, r) -> (i, j, r *. scale)) rates) in
  let answer, diag, checks = solve_stationary scaled in
  all_of
    (checks
    @ [
        (fun () ->
          match (answer, diag.Resilience.status) with
          | Some pi, Resilience.Ok ->
              let worst = ref 0. in
              Array.iteri
                (fun i p -> worst := Float.max !worst (Float.abs (p -. clean_pi.(i))))
                pi;
              if !worst <= 1e-8 then Pass
              else failf "Ok stationary distribution drifted by %.3e under rate scaling" !worst
          | _ -> Pass);
      ])

(* Two disjoint closed classes: GTH must reject with the offending class
   named, the typed error must name a genuine communicating class, and the
   production solve must not report Ok. *)
let check_reducible rng =
  let n1 = 2 + Rng.int rng 4 and n2 = 2 + Rng.int rng 4 in
  let n = n1 + n2 in
  let rates = ref [] in
  for i = 0 to n1 - 1 do
    rates := (i, (i + 1) mod n1, Rng.float_range rng 0.2 2.) :: !rates
  done;
  for i = 0 to n2 - 1 do
    rates := (n1 + i, n1 + ((i + 1) mod n2), Rng.float_range rng 0.2 2.) :: !rates
  done;
  let t = Ctmc.of_rates n !rates in
  let class_a = List.init n1 Fun.id and class_b = List.init n2 (fun i -> n1 + i) in
  let _, diag, checks = solve_stationary t in
  all_of
    ((fun () ->
       match Ctmc.stationary_gth t with
       | Ok _ -> failf "GTH accepted a chain with two closed classes"
       | Error (`Reducible_class cls) ->
           if cls = class_a || cls = class_b then Pass
           else
             failf "reported class [%s] is neither constructed closed class"
               (String.concat ";" (List.map string_of_int cls)))
    :: (fun () ->
         match diag.Resilience.status with
         | Resilience.Ok -> failf "reducible chain solved with a clean Ok diagnostic"
         | Resilience.Degraded _ | Resilience.Failed _ -> Pass)
    :: checks)

(* ------------------------------------------------------- budget faults *)

(* An already-expired budget: the chain must stop before (or between)
   steps and report the exhaustion as a diagnostic, never hang or raise. *)
let check_budget_exhaustion rng =
  let lp = Gen_model.lp_of_case (Gen_model.lp_case rng) in
  let o, diag = Lp.solve_diag ~budget:(Resilience.expired ()) lp in
  let mentions_budget () =
    match Resilience.status_reason diag.Resilience.status with
    | Some r ->
        if
          String.length r >= 6
          && List.exists
               (fun i -> String.sub r i 6 = "budget")
               (List.init (String.length r - 5) Fun.id)
        then Pass
        else failf "exhausted-budget diagnostic does not mention the budget: %s" r
    | None -> failf "exhausted budget yielded a clean Ok diagnostic"
  in
  all_of
    [
      (fun () -> check_diag_consistency o diag);
      (fun () ->
        match diag.Resilience.status with
        | Resilience.Ok -> failf "expired budget still reported Ok"
        | Resilience.Degraded _ | Resilience.Failed _ -> Pass);
      mentions_budget;
    ]

(* ------------------------------------------------------------- dispatch *)

let check fault seed =
  let rng = Rng.create seed in
  match fault with
  | Singular_basis -> check_lp_metamorphic ~mutate:duplicate_rows rng
  | Degenerate_pivot -> check_lp_metamorphic ~require_feasible:true ~mutate:(scale_row rng) rng
  | Rate_underflow -> check_ctmc_scaled ~scale:1e-150 rng
  | Rate_overflow -> check_ctmc_scaled ~scale:1e140 rng
  | Reducible_chain -> check_reducible rng
  | Budget_exhaustion -> check_budget_exhaustion rng

let repro_of ~fault ~seed =
  Printf.sprintf "# oracle: chaos\n# fault: %s\n# seed: %d\n" (fault_name fault) seed

let case ~fault ~seed =
  {
    label = Printf.sprintf "chaos: %s (seed %d)" (fault_name fault) seed;
    repro = repro_of ~fault ~seed;
    check = (fun () -> check fault seed);
    (* A chaos case is (fault, seed) — there is no smaller instance. *)
    shrink = (fun () -> []);
  }

let oracle =
  {
    name = "chaos";
    doc = "injected numeric faults must surface as structured diagnostics";
    generate =
      (fun ~max_states:_ rng ->
        let fault = List.nth all_faults (Rng.int rng (List.length all_faults)) in
        let seed = Rng.int rng 1_000_000_000 in
        case ~fault ~seed);
  }
