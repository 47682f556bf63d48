(* Structured solver diagnostics, wall-clock/iteration budgets, and
   escalation chains.

   Every numeric entry point of the solve pipeline (simplex, LU, Newton,
   stationary solves, the price-directed constrained solve) reports its outcome as a
   [diagnostic] instead of a bare exception or a silent NaN/unconverged
   return: which solver ran, whether the answer is clean ([Ok]), usable
   but produced by a fallback or with a known defect ([Degraded]), or
   absent ([Failed]) — plus the iteration count, the final residual, the
   wall time, and the ordered list of fallbacks taken.

   The [escalate] combinator runs a chain of solver steps in order
   (e.g. dense tableau -> Bland -> lexicographic perturbation),
   converts uncaught exceptions into step rejections,
   stops the chain when the wall-clock budget is exhausted, and keeps the
   best partial answer so a hung or failing solve degrades to the
   best-known answer instead of spinning or crashing.

   This module sits below lib/numeric in the dependency order and
   depends only on the telemetry layer (Bufsize_obs), which sits at the
   very bottom. *)

module Obs = Bufsize_obs.Obs

(* Escalation telemetry: every step taken beyond the first is a fallback;
   chains that end without a usable answer count as failures.  The spans
   make each escalation chain (and each step inside it) visible in the
   Chrome trace, and the diagnostic carries the chain's span id so
   --health-json and the trace cross-reference. *)
let m_fallbacks = Obs.counter "resilience.fallbacks"
let m_failures = Obs.counter "resilience.failures"

(* ------------------------------------------------------------- status *)

type status = Ok | Degraded of string | Failed of string

let status_ok = function Ok -> true | Degraded _ | Failed _ -> false
let status_usable = function Ok | Degraded _ -> true | Failed _ -> false

let status_reason = function Ok -> None | Degraded r | Failed r -> Some r

let pp_status ppf = function
  | Ok -> Format.fprintf ppf "ok"
  | Degraded r -> Format.fprintf ppf "degraded (%s)" r
  | Failed r -> Format.fprintf ppf "failed (%s)" r

(* --------------------------------------------------------- diagnostic *)

type diagnostic = {
  solver : string;  (* entry point, e.g. "lp.solve" or "ctmc.stationary" *)
  status : status;
  iterations : int;
  residual : float;  (* NaN when the solver has no residual notion *)
  wall_ms : float;
  fallbacks : string list;  (* escalation steps taken, oldest first *)
  span_id : int;  (* id of the escalation span in the trace; 0 = no span *)
}

let make ?(iterations = 0) ?(residual = Float.nan) ?(wall_ms = 0.)
    ?(fallbacks = []) ?(span_id = 0) ~solver status =
  { solver; status; iterations; residual; wall_ms; fallbacks; span_id }

let ok ?iterations ?residual ?wall_ms ?fallbacks ~solver () =
  make ?iterations ?residual ?wall_ms ?fallbacks ~solver Ok

let degraded ?iterations ?residual ?wall_ms ?fallbacks ~solver reason =
  make ?iterations ?residual ?wall_ms ?fallbacks ~solver (Degraded reason)

let failed ?iterations ?residual ?wall_ms ?fallbacks ~solver reason =
  make ?iterations ?residual ?wall_ms ?fallbacks ~solver (Failed reason)

let is_ok d = status_ok d.status
let is_usable d = status_usable d.status

(* Worst status wins when a pipeline stage aggregates sub-diagnostics:
   Failed > Degraded > Ok; the first reason at the worst severity is kept. *)
let worst_status ds =
  List.fold_left
    (fun acc d ->
      match (acc, d.status) with
      | Failed _, _ -> acc
      | _, Failed r -> Failed r
      | Degraded _, _ -> acc
      | _, Degraded r -> Degraded r
      | Ok, Ok -> Ok)
    Ok ds

let pp ppf d =
  Format.fprintf ppf "@[<h>%-24s %a" d.solver pp_status d.status;
  if d.iterations > 0 then Format.fprintf ppf ", %d iters" d.iterations;
  if Float.is_finite d.residual then Format.fprintf ppf ", residual %.2e" d.residual;
  Format.fprintf ppf ", %.1f ms" d.wall_ms;
  if d.fallbacks <> [] then
    Format.fprintf ppf ", fallbacks: %s" (String.concat " -> " d.fallbacks);
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------- budget *)

(* A budget is an absolute wall-clock deadline.  [None] deadline =
   unlimited. *)

type budget = { deadline : float option (* Unix epoch seconds *) }

let now_s () = Unix.gettimeofday ()

let unlimited = { deadline = None }

let of_ms ms = if ms <= 0. then unlimited else { deadline = Some (now_s () +. (ms /. 1000.)) }

(* A budget that is already exhausted — deterministic regardless of clock
   resolution; used by the chaos harness to exercise the exhaustion path. *)
let expired () = { deadline = Some (now_s () -. 1.) }

(* Ambient per-request budget.  The sizing daemon serves many clients
   with different deadlines from one process, so the request handler
   installs its deadline here (domain-local, so concurrent worker domains
   never see each other's deadlines) and every solver that defaults its
   budget from [current_budget] picks it up without any signature
   change.  The budget does not follow work onto a domain that the
   holder spawns; no solve spawns one.  Outside a request there is no ambient budget and solves
   run unlimited. *)

let ambient_key : budget option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let ambient_budget () = Domain.DLS.get ambient_key

let with_ambient_budget b f =
  let prev = Domain.DLS.get ambient_key in
  Domain.DLS.set ambient_key (Some b);
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient_key prev) f

let current_budget () = Option.value ~default:unlimited (ambient_budget ())

let exhausted b = match b.deadline with None -> false | Some d -> now_s () > d

let remaining_ms b =
  match b.deadline with
  | None -> Float.infinity
  | Some d -> Float.max 0. ((d -. now_s ()) *. 1000.)

(* --------------------------------------------------------- escalation *)

(* One step of an escalation chain either:
   - [Accept]s with a clean answer (the chain stops, status Ok unless a
     previous step already failed);
   - returns a [Partial] answer with a defect note (kept as the
     best-known answer; the chain keeps escalating for a clean one);
   - [Reject]s with a reason (the chain escalates). *)

type meta = { m_iterations : int; m_residual : float }

let meta ?(iterations = 0) ?(residual = Float.nan) () =
  { m_iterations = iterations; m_residual = residual }

type 'a step_outcome =
  | Accept of 'a * meta
  | Partial of 'a * meta * string
  | Reject of string

type 'a step = { step_name : string; run : budget -> 'a step_outcome }

let step name run = { step_name = name; run }

(* Run the chain.  Returns the best answer found (None only when every
   step rejected) and the diagnostic describing how it was obtained:
   - first step accepts            -> Ok
   - a later step accepts          -> Degraded "fell back to <step> (<why>)"
   - only a partial answer exists  -> Degraded with the partial's note
   - everything rejected           -> Failed with the first reason
   - budget ran out                -> Degraded (best-known answer) or
                                      Failed, noting the exhaustion.
   Uncaught exceptions in a step are converted into rejections, so a
   chain can never let a solver exception escape. *)
let escalate ~solver ?(budget = unlimited) steps =
  Obs.span_with_id ~name:solver @@ fun chain_span ->
  let t0 = now_s () in
  let finish status value m fallbacks =
    let wall_ms = (now_s () -. t0) *. 1000. in
    Obs.add m_fallbacks (List.length fallbacks);
    (match status with Failed _ -> Obs.incr m_failures | Ok | Degraded _ -> ());
    ( value,
      {
        solver;
        status;
        iterations = m.m_iterations;
        residual = m.m_residual;
        wall_ms;
        fallbacks = List.rev fallbacks;
        span_id = chain_span;
      } )
  in
  (* Each step is a child span of the chain named [<stem>:<step>], the
     stem being the solver name up to its parenthesized instance, e.g.
     "ctmc.stationary:gth" — so a step's time is charged to its chain's
     layer.  An exception still closes the span before being converted
     into a rejection below. *)
  let stem =
    match String.index_opt solver '(' with Some i -> String.sub solver 0 i | None -> solver
  in
  let run_step s budget = Obs.span ~name:(stem ^ ":" ^ s.step_name) (fun () -> s.run budget) in
  let no_meta = meta () in
  (* The first step is the normal path: it does not count as a
     fallback, so an immediate Accept yields a pristine diagnostic. *)
  let rec go steps ~first ~first_reject ~best ~fallbacks =
    match steps with
    | [] -> (
        match best with
        | Some (v, m, note) -> finish (Degraded note) (Some v) m fallbacks
        | None ->
            let reason = Option.value ~default:"empty escalation chain" first_reject in
            finish (Failed reason) None no_meta fallbacks)
    | s :: rest ->
        if exhausted budget then begin
          let note = Printf.sprintf "budget exhausted before step %s" s.step_name in
          match best with
          | Some (v, m, _) -> finish (Degraded note) (Some v) m fallbacks
          | None ->
              let reason =
                match first_reject with
                | Some r -> Printf.sprintf "%s; %s" note r
                | None -> note
              in
              finish (Failed reason) None no_meta fallbacks
        end
        else begin
          let outcome =
            match run_step s budget with
            | o -> o
            | exception e -> Reject (Printf.sprintf "uncaught exception: %s" (Printexc.to_string e))
          in
          let fallbacks = if first then fallbacks else s.step_name :: fallbacks in
          match outcome with
          | Accept (v, m) ->
              let status =
                match first_reject with
                | None -> Ok
                | Some why -> Degraded (Printf.sprintf "fell back to %s (%s)" s.step_name why)
              in
              finish status (Some v) m fallbacks
          | Partial (v, m, note) ->
              let best =
                match best with Some _ -> best | None -> Some (v, m, note)
              in
              go rest ~first:false
                ~first_reject:(Some (Option.value ~default:note first_reject))
                ~best ~fallbacks
          | Reject why ->
              go rest ~first:false
                ~first_reject:(Some (Option.value ~default:why first_reject))
                ~best ~fallbacks
        end
  in
  go steps ~first:true ~first_reject:None ~best:None ~fallbacks:[]

(* ------------------------------------------------------------- health *)

(* A health report is a labelled list of diagnostics collected across a
   pipeline run (e.g. one entry per subsystem LP, per stationary solve). *)

type health = (string * diagnostic) list

let health_ok h = List.for_all (fun (_, d) -> is_ok d) h

let pp_health ppf (h : health) =
  Format.fprintf ppf "@[<v>health: %s@," (if health_ok h then "all ok" else "DEGRADED");
  List.iter (fun (label, d) -> Format.fprintf ppf "  %-20s %a@," label pp d) h;
  Format.fprintf ppf "@]"

(* JSON views of diagnostics and health reports: trees for embedding in
   larger replies, and their [Json.encode] text.  A NaN residual encodes
   as null, keeping the output standard JSON. *)
let diagnostic_json d : Bufsize_json.Json.t =
  let module J = Bufsize_json.Json in
  let status, reason =
    match d.status with
    | Ok -> ("ok", None)
    | Degraded r -> ("degraded", Some r)
    | Failed r -> ("failed", Some r)
  in
  J.Obj
    [
      ("solver", J.Str d.solver);
      ("status", J.Str status);
      ("reason", match reason with None -> J.Null | Some r -> J.Str r);
      ("iterations", J.Num (float_of_int d.iterations));
      ("residual", J.Num d.residual);
      ("wall_ms", J.Num d.wall_ms);
      ("fallbacks", J.List (List.map (fun f -> J.Str f) d.fallbacks));
      ("span", if d.span_id = 0 then J.Null else J.Num (float_of_int d.span_id));
    ]

let health_json (h : health) : Bufsize_json.Json.t =
  let module J = Bufsize_json.Json in
  J.Obj
    [
      ("ok", J.Bool (health_ok h));
      ( "diagnostics",
        J.List
          (List.map
             (fun (label, d) ->
               J.Obj [ ("label", J.Str label); ("diagnostic", diagnostic_json d) ])
             h) );
    ]

let to_json d = Bufsize_json.Json.encode (diagnostic_json d)
let health_to_json h = Bufsize_json.Json.encode (health_json h)

(* ----------------------------------------------------------- finiteness *)

(* The "no NaN/Inf in a claimed-feasible solution" guard used by the
   solver integrations and asserted by the chaos harness. *)
let all_finite a = Array.for_all Float.is_finite a
