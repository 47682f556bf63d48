(* The sizing daemon: a select-based IO loop on one domain, worker
   domains draining a bounded queue, replies written straight from the
   worker that computed them (serialized per connection).

   Worker *domains* rather than threads on purpose: the per-request
   deadline travels as the ambient Resilience budget, which is
   domain-local, so each in-flight request keeps its own deadline no
   matter how the solves below it are scheduled. *)

module Json = Bufsize_json.Json
module Obs = Bufsize_obs.Obs
module Resilience = Bufsize_resilience.Resilience
module Sizing = Bufsize_soc.Sizing
module Spec_parser = Bufsize_soc.Spec_parser
module Topology = Bufsize_soc.Topology
module Traffic = Bufsize_soc.Traffic
module Buffer_alloc = Bufsize_soc.Buffer_alloc
module Catalogue = Bufsize_soc.Catalogue

let m_requests = Obs.counter "serve.requests"
let m_overloaded = Obs.counter "serve.overloaded"
let m_degraded = Obs.counter "serve.degraded"
let m_internal = Obs.counter "serve.internal_errors"

(* ------------------------------------------------------- configuration *)

type config = {
  socket_path : string;
  queue_depth : int;
  workers : int;
  default_deadline_ms : float;
  max_request_bytes : int;
  flight_cap : int;
  log_requests : bool;
}

(* The defaults behind the [bufsize serve] flags, the only way to set
   these values. *)
let default_config =
  {
    socket_path = Filename.concat (Filename.get_temp_dir_name ()) "bufsize.sock";
    queue_depth = 64;
    workers = Int.max 1 (Int.min 4 (Domain.recommended_domain_count () - 1));
    default_deadline_ms = 0.;
    max_request_bytes = 1 lsl 20;
    flight_cap = 256;
    log_requests = false;
  }

let temp_socket_path () =
  let path = Filename.temp_file "bufsize" ".sock" in
  (* temp_file creates the file; the bind below wants the name only. *)
  (try Sys.remove path with Sys_error _ -> ());
  path

(* ------------------------------------------------------------ handlers *)

type error_kind = Bad_request | Oversized | Overloaded | Internal_error

let error_kind_name = function
  | Bad_request -> "bad_request"
  | Oversized -> "oversized"
  | Overloaded -> "overloaded"
  | Internal_error -> "internal_error"

type reply =
  | Reply_ok of (string * Json.t) list
  | Reply_degraded of string * (string * Json.t) list
  | Reply_error of { kind : error_kind; message : string; retry_after_ms : float option }

type handler = Json.t -> reply

let bad_request message = Reply_error { kind = Bad_request; message; retry_after_ms = None }

(* A handler body that validates by raising Invalid_argument (the
   convention throughout the library) maps those onto bad_request — the
   client's fault, not an internal error.  Other exceptions propagate to
   the worker, which types them as degraded (deadline ran out mid-solve)
   or internal_error. *)
let guard f = try f () with Invalid_argument m -> bad_request m

(* ------------------------------------------------ reply serialization *)

let num_int n = Json.Num (float_of_int n)

let hits_misses (h, m) = Json.Obj [ ("hits", num_int h); ("misses", num_int m) ]

(* [extra] fields (the per-request telemetry object) come after
   everything else, so stripping them from a reply restores the exact
   bytes of the plain reply — the invariant the serve oracle checks. *)
let reply_json ?(extra = []) ~id ~op reply =
  let body =
    match reply with
    | Reply_ok fields -> ("status", Json.Str "ok") :: fields
    | Reply_degraded (reason, fields) ->
        ("status", Json.Str "degraded") :: ("reason", Json.Str reason) :: fields
    | Reply_error { kind; message; retry_after_ms } ->
        let err =
          [ ("kind", Json.Str (error_kind_name kind)); ("message", Json.Str message) ]
          @ (match retry_after_ms with None -> [] | Some ms -> [ ("retry_after_ms", Json.Num ms) ])
        in
        [ ("status", Json.Str "error"); ("error", Json.Obj err) ]
  in
  Json.Obj (("id", id) :: ("op", Json.Str op) :: (match extra with [] -> body | _ -> body @ extra))

(* ----------------------------------------------- shared serialization *)

let sizing_core_json traffic (r : Sizing.result) =
  let topo = Traffic.topology traffic in
  let entry (e : Buffer_alloc.entry) =
    Json.Obj
      [
        ("bus", Json.Str (Topology.bus topo e.Buffer_alloc.bus).Topology.bus_name);
        ("client", Json.Str (Traffic.client_label topo e.Buffer_alloc.client));
        ("words", Json.Num (float_of_int e.Buffer_alloc.words));
      ]
  in
  Json.Obj
    [
      ( "allocation",
        Json.List (Array.to_list (Array.map entry r.Sizing.allocation.Buffer_alloc.entries)) );
      ("total_words", Json.Num (float_of_int r.Sizing.allocation.Buffer_alloc.total));
      ("predicted_loss_rate", Json.Num r.Sizing.predicted_loss_rate);
      ("words_per_level", Json.Num r.Sizing.words_per_level);
      ("budget_bound_active", Json.Bool r.Sizing.budget_bound_active);
    ]

let solver_stats_json (r : Sizing.result) =
  Json.Obj
    [
      ("cache", Json.Str (if r.Sizing.cache_hit then "hit" else "miss"));
      ("sizing_cache", hits_misses (Sizing.cache_stats ()));
    ]

(* -------------------------------------------------------- built-in ops *)

let arch_of_request req =
  match Json.mem_string "spec" req with
  | Some text -> Result.map_error (fun e -> "spec: " ^ e) (Spec_parser.parse text)
  | None -> (
      match Json.mem_string "arch" req with
      | Some name -> Catalogue.find name
      | None -> Error "request needs an \"arch\" name or inline \"spec\" text")

let degradation_reason health =
  match Resilience.status_reason (Resilience.worst_status (List.map snd health)) with
  | Some r -> r
  | None -> "degraded"

let size_handler req =
  match arch_of_request req with
  | Error e -> bad_request e
  | Ok (_, traffic) ->
      guard @@ fun () ->
      let budget = Option.value ~default:16 (Json.mem_int "budget" req) in
      let max_states = Option.value ~default:64 (Json.mem_int "max_states" req) in
      let config = { (Sizing.default_config ~budget) with Sizing.max_states } in
      let r = Sizing.run config traffic in
      let fields =
        [
          ("result", sizing_core_json traffic r);
          ("health", Resilience.health_json r.Sizing.health);
          ("solver_stats", solver_stats_json r);
        ]
      in
      if Resilience.health_ok r.Sizing.health then Reply_ok fields
      else Reply_degraded (degradation_reason r.Sizing.health, fields)

let simulate_handler req =
  match arch_of_request req with
  | Error e -> bad_request e
  | Ok (_, traffic) ->
      guard @@ fun () ->
      let budget = Option.value ~default:16 (Json.mem_int "budget" req) in
      let horizon = Option.value ~default:2000. (Json.mem_number "horizon" req) in
      let seed = Option.value ~default:1 (Json.mem_int "seed" req) in
      let max_states = Option.value ~default:64 (Json.mem_int "max_states" req) in
      let policy = Option.value ~default:"uniform" (Json.mem_string "policy" req) in
      let allocation =
        match policy with
        | "uniform" -> Buffer_alloc.uniform traffic ~budget
        | "proportional" -> Buffer_alloc.traffic_proportional traffic ~budget
        | "ctmdp" ->
            let config = { (Sizing.default_config ~budget) with Sizing.max_states } in
            (Sizing.run config traffic).Sizing.allocation
        | other -> invalid_arg (Printf.sprintf "unknown policy %S" other)
      in
      let spec =
        {
          (Bufsize_sim.Sim_run.default_spec ~traffic ~allocation) with
          Bufsize_sim.Sim_run.horizon;
          seed;
        }
      in
      let report = Bufsize_sim.Sim_run.run spec in
      let module M = Bufsize_sim.Metrics in
      Reply_ok
        [
          ("offered", Json.Num (float_of_int (M.total_offered report)));
          ("lost", Json.Num (float_of_int (M.total_lost report)));
          ("delivered", Json.Num (float_of_int (M.total_delivered report)));
          ("loss_fraction", Json.Num (M.loss_fraction report));
          ("events", Json.Num (float_of_int report.M.events));
          ("horizon", Json.Num report.M.horizon);
        ]

let kron_handler req =
  guard @@ fun () ->
  let num name default = Option.value ~default (Json.mem_number name req) in
  let int_field name default = Option.value ~default (Json.mem_int name req) in
  let kx = int_field "kx" 9 and ky = int_field "ky" 9 in
  if kx < 1 || ky < 1 then invalid_arg "queue capacities must be at least 1";
  let spec =
    {
      Bufsize_soc.Monolithic.kx;
      ky;
      lambda_x = num "lambda_x" 1.5;
      lambda_y = num "lambda_y" 1.2;
      cross_fraction = num "cross" 0.25;
      mu_x = num "mu_x" 2.4;
      mu_y = num "mu_y" 2.2;
    }
  in
  let bridge = Json.mem_int "bridge" req in
  let g = Bufsize_soc.San_bridge.compare_split ?bridge_capacity:bridge spec in
  let module S = Bufsize_soc.San_bridge in
  let j = g.S.joint in
  let fields =
    [
      ("states", Json.Num (float_of_int j.S.states));
      ("sweeps", Json.Num (float_of_int j.S.sweeps));
      ("converged", Json.Bool j.S.converged);
      ("residual", Json.Num j.S.residual);
      ("x_loss", Json.Num j.S.x_loss);
      ("bridge_loss", Json.Num j.S.bridge_loss);
      ("y_loss", Json.Num j.S.y_loss);
      ("x_loss_gap_pct", Json.Num g.S.x_loss_gap_pct);
      ("y_loss_gap_pct", Json.Num g.S.y_loss_gap_pct);
      ("bridge_delay_gap_pct", Json.Num g.S.bridge_delay_gap_pct);
    ]
  in
  if j.S.converged then Reply_ok fields
  else Reply_degraded ("stationary solve did not converge within the sweep cap", fields)

(* The full Obs metrics registry — counters and the per-op latency
   histograms with their p50/p95/p99 — as JSON, or as Prometheus text
   exposition when the request sets ["prometheus": true].  A worker op on
   purpose: the export walks every metric, which has no business on the
   IO domain. *)
let metrics_handler req =
  if Json.member "prometheus" req = Some (Json.Bool true) then
    Reply_ok
      [
        ("content_type", Json.Str "text/plain; version=0.0.4");
        ("text", Json.Str (Obs.metrics_prometheus ()));
      ]
  else Reply_ok [ ("metrics", Obs.metrics_tree (Obs.metrics_snapshot ())) ]

(* ------------------------------------------- flight recorder & stats *)

(* One completed request, as remembered by the flight recorder: enough
   for a postmortem (who, what, how long, how it ended) without
   always-on tracing. *)
type flight_record = {
  fr_rid : int;  (* server-assigned request id *)
  fr_op : string;
  fr_outcome : string;  (* "ok" | "degraded" | an error kind name *)
  fr_note : string;  (* degradation reason / error message; "" when ok *)
  fr_queue_ms : float;
  fr_service_ms : float;
  fr_span : int;  (* telemetry root span id; 0 when not captured *)
}

let flight_record_json r =
  Json.Obj
    [
      ("request_id", Json.Num (float_of_int r.fr_rid));
      ("op", Json.Str r.fr_op);
      ("outcome", Json.Str r.fr_outcome);
      ("note", Json.Str r.fr_note);
      ("queue_ms", Json.Num r.fr_queue_ms);
      ("service_ms", Json.Num r.fr_service_ms);
      ("span", if r.fr_span = 0 then Json.Null else Json.Num (float_of_int r.fr_span));
    ]

(* One stderr line per completed request (--log-requests): the flight
   record, so a dump joins the log by request id.  A global mutex keeps
   lines whole across worker domains. *)
let log_m = Mutex.create ()

let log_request r =
  let line = Json.encode_line (flight_record_json r) in
  Mutex.lock log_m;
  (try
     output_bytes stderr line;
     flush stderr
   with Sys_error _ -> ());
  Mutex.unlock log_m

(* ------------------------------------------------- conns, queue, server *)

type conn = {
  fd : Unix.file_descr;
  wm : Mutex.t;  (* serializes reply writes from workers and the IO loop *)
  rbuf : Buffer.t;
  mutable skipping : bool;  (* discarding the rest of an oversized line *)
  mutable eof : bool;
  mutable alive : bool;  (* false after a write error: stop writing *)
  pending : int Atomic.t;  (* queued + running requests of this conn *)
}

(* The server and its op table.  [start] builds one [op] per op name
   and nothing writes the table afterwards, so the IO loop reads it
   without a lock and each queued [work] carries its op's record. *)
type op = {
  name : string;
  fields : string list;  (* every top-level field the op takes *)
  run : run;
  accepted : int Atomic.t;  (* written and read by the IO domain only *)
  completed : int Atomic.t;
  failed : int Atomic.t;
  latency : Obs.histogram option Atomic.t;  (* registered at the first completion *)
}

(* Inline ops are answered by the IO loop, so they work while every
   worker is busy. *)
and run = Inline of (t -> reply) | Worker of handler

and work = {
  w_conn : conn;
  w_id : Json.t;
  w_rid : int;  (* server-assigned, unique per dispatched request *)
  w_op : op;
  w_handler : handler;
  w_req : Json.t;
  w_deadline : Resilience.budget;
  w_enqueued : float;  (* Unix time at admission, for queue-wait *)
  w_telemetry : bool;  (* request asked for its own span subtree *)
}

and queue = {
  qm : Mutex.t;
  qcv : Condition.t;
  items : work Queue.t;
  depth : int;
  mutable closed : bool;
}

and t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  q : queue;
  ops : op list;  (* sorted by name *)
  stopping : bool Atomic.t;
  mutable conns : conn list;  (* touched only by the IO domain *)
  mutable worker_domains : unit Domain.t array;
  mutable io_domain : unit Domain.t option;
  mutable stopped : bool;
  ewma_ms : float Atomic.t;  (* smoothed request service time *)
  started_at : float;
  rids : int Atomic.t;  (* next request id *)
  flight : flight_record Obs.Ring.t;
}

let queue_create depth =
  {
    qm = Mutex.create ();
    qcv = Condition.create ();
    items = Queue.create ();
    depth;
    closed = false;
  }

(* Non-blocking admission: full queue means an immediate typed rejection,
   never an unbounded backlog.  Returns the waiting count for the
   retry-after hint (read under the same lock, so never torn). *)
let queue_try_push q w =
  Mutex.lock q.qm;
  let accepted = (not q.closed) && Queue.length q.items < q.depth in
  if accepted then begin
    Queue.push w q.items;
    Condition.signal q.qcv
  end;
  let waiting = Queue.length q.items in
  Mutex.unlock q.qm;
  (accepted, waiting)

let queue_pop q =
  Mutex.lock q.qm;
  while Queue.is_empty q.items && not q.closed do
    Condition.wait q.qcv q.qm
  done;
  let w = if Queue.is_empty q.items then None else Some (Queue.pop q.items) in
  Mutex.unlock q.qm;
  w

let queue_close q =
  Mutex.lock q.qm;
  q.closed <- true;
  Condition.broadcast q.qcv;
  Mutex.unlock q.qm

let queue_length q =
  Mutex.lock q.qm;
  let n = Queue.length q.items in
  Mutex.unlock q.qm;
  n

let socket_path t = t.cfg.socket_path

let rec write_all fd b off len =
  if len > 0 then
    match Unix.write fd b off len with
    | n -> write_all fd b (off + n) (len - n)
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
        ignore (Unix.select [] [ fd ] [] 1.0);
        write_all fd b off len

let write_reply ?extra conn ~id ~op reply =
  let line = Json.encode_line (reply_json ?extra ~id ~op reply) in
  Mutex.lock conn.wm;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.wm)
    (fun () ->
      if conn.alive then
        try write_all conn.fd line 0 (Bytes.length line)
        with Unix.Unix_error _ -> conn.alive <- false)

let deadline_of_request t req =
  match Json.mem_number "deadline_ms" req with
  | Some ms when ms <= 0. -> Resilience.expired ()
  | Some ms -> Resilience.of_ms ms
  | None ->
      if t.cfg.default_deadline_ms > 0. then Resilience.of_ms t.cfg.default_deadline_ms
      else Resilience.unlimited

(* ------------------------------------------------------ introspection *)

let ping_reply t = Reply_ok [ ("ops", Json.List (List.map (fun o -> Json.Str o.name) t.ops)) ]

(* The live server snapshot, answered inline by the IO domain: an
   operator must be able to read queue depth and in-flight counts from a
   daemon whose every worker is wedged.  The IO domain is the only writer
   of [accepted] and answers [stats] itself, so every request a worker
   counted as completed or failed is already in [accepted]: in_flight is
   never negative, however the completion counters move during the read.
   Ops that never admitted a request are left out. *)
let stats_reply t =
  let per_op =
    List.filter_map
      (fun o ->
        match Atomic.get o.accepted with
        | 0 -> None
        | a -> Some (o.name, [| a; Atomic.get o.completed; Atomic.get o.failed |]))
      t.ops
  in
  let totals = Array.init 3 (fun i -> List.fold_left (fun s (_, c) -> s + c.(i)) 0 per_op) in
  let counters c =
    [
      ("accepted", num_int c.(0));
      ("completed", num_int c.(1));
      ("failed", num_int c.(2));
      ("in_flight", num_int (c.(0) - c.(1) - c.(2)));
    ]
  in
  Reply_ok
    ([
       ("uptime_s", Json.Num (Unix.gettimeofday () -. t.started_at));
       ("queue_depth", num_int t.cfg.queue_depth);
       ("waiting", num_int (queue_length t.q));
       ("workers", num_int t.cfg.workers);
       ("ewma_service_ms", Json.Num (Atomic.get t.ewma_ms));
     ]
    @ counters totals
    @ [
        ("dropped_spans", num_int (Obs.dropped_spans ()));
        ("span_high_water", num_int (Obs.span_high_water ()));
        ("flight_recorded", num_int (Obs.Ring.pushed t.flight));
        ("ops", Json.Obj (List.map (fun (name, c) -> (name, Json.Obj (counters c))) per_op));
      ])

let flight_reply t =
  Reply_ok
    [
      ("capacity", num_int t.cfg.flight_cap);
      ("recorded", num_int (Obs.Ring.pushed t.flight));
      ("records", Json.List (List.map flight_record_json (Obs.Ring.tail t.flight)));
    ]

(* Write the ring's newest [flight_cap] records as JSONL, newest snapshot replacing the previous dump.
   Called on internal_error (from the failing worker), on SIGUSR1 (via
   the CLI), and manually; must never throw into a worker. *)
let dump_flight t =
  let path = t.cfg.socket_path ^ ".flight.jsonl" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun r -> output_bytes oc (Json.encode_line (flight_record_json r)))
        (Obs.Ring.tail t.flight));
  path

let dump_flight_noerr t = try ignore (dump_flight t) with Sys_error _ -> ()

(* ------------------------------------------------------------ op table *)

(* Every op takes these fields on top of its own. *)
let common_fields = [ "id"; "op"; "deadline_ms"; "telemetry" ]

(* The op set as the next [start] builds it: name, own fields, run.
   [ping] (liveness even when every worker is busy), [stats] and
   [flight] (server state a handler cannot reach, which an operator
   probing a saturated daemon needs exactly then) are answered inline. *)
let op_specs =
  Atomic.make
    [
      ("flight", [], Inline flight_reply);
      ( "kron",
        [ "kx"; "ky"; "bridge"; "lambda_x"; "lambda_y"; "cross"; "mu_x"; "mu_y" ],
        Worker kron_handler );
      ("metrics", [ "prometheus" ], Worker metrics_handler);
      ("ping", [], Inline ping_reply);
      ( "simulate",
        [ "arch"; "spec"; "budget"; "max_states"; "policy"; "horizon"; "seed" ],
        Worker simulate_handler );
      ("size", [ "arch"; "spec"; "budget"; "max_states" ], Worker size_handler);
      ("stats", [], Inline stats_reply);
    ]

let rec register_op name h =
  let specs = Atomic.get op_specs in
  if List.exists (function n, _, Inline _ -> n = name | _, _, Worker _ -> false) specs then
    invalid_arg (Printf.sprintf "Serve.register_op: %s is answered by the IO loop" name);
  let others = List.filter (fun (n, _, _) -> n <> name) specs in
  let next =
    List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) ((name, [], Worker h) :: others)
  in
  if not (Atomic.compare_and_set op_specs specs next) then register_op name h

let build_ops () =
  List.map
    (fun (name, own, run) ->
      {
        name;
        fields = common_fields @ own;
        run;
        accepted = Atomic.make 0;
        completed = Atomic.make 0;
        failed = Atomic.make 0;
        latency = Atomic.make None;
      })
    (Atomic.get op_specs)

let op_fields name =
  List.find_map
    (fun (n, own, _) -> if n = name then Some (common_fields @ own) else None)
    (Atomic.get op_specs)

(* The first top-level field that [o] does not take. *)
let rec unknown_field o = function
  | [] -> None
  | (k, _) :: rest ->
      if List.exists (String.equal k) o.fields then unknown_field o rest else Some k

(* Queue a worker op's request, or bounce it at once with a typed
   overloaded rejection: a full queue never grows a backlog. *)
let admit t conn ~id o handler req =
  let w =
    {
      w_conn = conn;
      w_id = id;
      w_rid = Atomic.fetch_and_add t.rids 1;
      w_op = o;
      w_handler = handler;
      w_req = req;
      w_deadline = deadline_of_request t req;
      w_enqueued = Unix.gettimeofday ();
      w_telemetry = Json.member "telemetry" req = Some (Json.Bool true);
    }
  in
  let accepted, waiting = queue_try_push t.q w in
  if accepted then begin
    Atomic.incr conn.pending;
    Atomic.incr o.accepted
  end
  else begin
    Obs.incr m_overloaded;
    let ewma = Float.max 1. (Atomic.get t.ewma_ms) in
    let hint = Float.max 1. (ewma *. float_of_int (waiting + 1) /. float_of_int t.cfg.workers) in
    write_reply conn ~id ~op:o.name
      (Reply_error
         {
           kind = Overloaded;
           message = Printf.sprintf "request queue full (depth %d)" t.cfg.queue_depth;
           retry_after_ms = Some hint;
         })
  end

(* One complete request line, dispatched from the IO domain.  Every line
   gets exactly one reply: parse errors, unknown ops and unknown fields
   are answered inline, inline ops short-circuit (probes that work while
   every worker is busy), worker ops are admitted or bounced. *)
let handle_line t conn line =
  Obs.incr m_requests;
  match Json.parse line with
  | Error e -> write_reply conn ~id:Json.Null ~op:"" (bad_request ("invalid JSON: " ^ e))
  | Ok req -> (
      let id = Option.value ~default:Json.Null (Json.member "id" req) in
      match (req, Json.mem_string "op" req) with
      | Json.Obj kvs, Some name -> (
          match List.find_opt (fun o -> String.equal o.name name) t.ops with
          | None ->
              write_reply conn ~id ~op:name
                (bad_request
                   (Printf.sprintf "unknown op %S (available: %s)" name
                      (String.concat ", " (List.map (fun o -> o.name) t.ops))))
          | Some o -> (
              match (unknown_field o kvs, o.run) with
              | Some k, _ ->
                  write_reply conn ~id ~op:name
                    (bad_request
                       (Printf.sprintf "unknown field %S (%s takes %s)" k name
                          (String.concat ", " o.fields)))
              | None, Inline reply -> write_reply conn ~id ~op:name (reply t)
              | None, Worker handler -> admit t conn ~id o handler req))
      | _ -> write_reply conn ~id ~op:"" (bad_request "missing or non-string \"op\""))

(* ------------------------------------------------------------- workers *)

let span_json epoch (s : Obs.span_record) =
  Json.Obj
    [
      ("id", num_int s.Obs.sid);
      ("parent", num_int s.Obs.sparent);
      ("name", Json.Str s.Obs.sname);
      ("domain", num_int s.Obs.strack);
      ("start_us", Json.Num (Int64.to_float (Int64.sub s.Obs.sstart_ns epoch) /. 1e3));
      ("dur_us", Json.Num (Int64.to_float s.Obs.sdur_ns /. 1e3));
      ("alloc_minor_words", Json.Num s.Obs.salloc_minor_w);
      ("attrs", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) s.Obs.sattrs));
    ]

let reply_fields = function
  | Reply_ok fields | Reply_degraded (_, fields) -> fields
  | Reply_error _ -> []

(* [c0]/[c1] are the sizing-cache counters sampled around the request;
   the reply carries the deltas.  (Process-global counters, so concurrent
   requests can bleed into each other's deltas — telemetry is a
   diagnostic view, not an accounting one.) *)
let telemetry_json ~rid ~root ~spans ~spans_dropped ~queue_ms ~service_ms ~c0:(h0, m0)
    ~c1:(h1, m1) ~reply =
  let epoch = match spans with s :: _ -> s.Obs.sstart_ns | [] -> 0L in
  Json.Obj
    [
      ("request_id", num_int rid);
      ("queue_ms", Json.Num queue_ms);
      ("service_ms", Json.Num service_ms);
      ("root_span", if root = 0 then Json.Null else num_int root);
      ("spans", Json.List (List.map (span_json epoch) spans));
      ("spans_dropped", num_int spans_dropped);
      ( "solvers",
        (* The solver diagnostics (engine, status, iterations, residual,
           fallbacks, chain span id) as the handler attached them. *)
        Option.value ~default:Json.Null (List.assoc_opt "health" (reply_fields reply)) );
      ("cache", Json.Obj [ ("sizing", hits_misses (h1 - h0, m1 - m0)) ]);
    ]

(* The op's latency histogram (queue wait + service, ms), registered in
   the process-global Obs registry at the op's first completion: racing
   workers and a second server get the same histogram for the same name.
   Observed ungated, so the daemon's SLO data fills with metrics off. *)
let latency_hist o =
  match Atomic.get o.latency with
  | Some h -> h
  | None ->
      let h = Obs.histogram_with_bounds ("serve.latency_ms." ^ o.name) Obs.latency_ms_bounds in
      Atomic.set o.latency (Some h);
      h

let run_work t w =
  let t0 = Unix.gettimeofday () in
  let queue_ms = (t0 -. w.w_enqueued) *. 1000. in
  let compute () =
    if Resilience.exhausted w.w_deadline then
      Reply_degraded ("deadline exceeded before the request started", [])
    else
      try Resilience.with_ambient_budget w.w_deadline (fun () -> w.w_handler w.w_req)
      with e ->
        if Resilience.exhausted w.w_deadline then
          Reply_degraded ("deadline exceeded: " ^ Printexc.to_string e, [])
        else
          Reply_error
            { kind = Internal_error; message = Printexc.to_string e; retry_after_ms = None }
  in
  (* Telemetry wraps the handler in a capture and a root span; the reply
     is the same either way (the capture only observes), so the
     telemetry-stripped reply stays byte-identical to a plain one. *)
  let reply, capture =
    if not w.w_telemetry then (compute (), None)
    else begin
      let c0 = Sizing.cache_stats () in
      let (reply, root), spans, spans_dropped =
        Obs.with_capture (fun () ->
            Obs.span_with_id ~name:"serve.request" (fun root -> (compute (), root)))
      in
      (reply, Some (root, spans, spans_dropped, c0))
    end
  in
  let service_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let prev = Atomic.get t.ewma_ms in
  Atomic.set t.ewma_ms (if prev <= 0. then service_ms else (0.8 *. prev) +. (0.2 *. service_ms));
  let outcome, note, tally =
    match reply with
    | Reply_ok _ -> ("ok", "", w.w_op.completed)
    | Reply_degraded (reason, _) ->
        Obs.incr m_degraded;
        ("degraded", reason, w.w_op.completed)
    | Reply_error { kind; message; _ } ->
        if kind = Internal_error then Obs.incr m_internal;
        (error_kind_name kind, message, w.w_op.failed)
  in
  let record =
    {
      fr_rid = w.w_rid;
      fr_op = w.w_op.name;
      fr_outcome = outcome;
      fr_note = note;
      fr_queue_ms = queue_ms;
      fr_service_ms = service_ms;
      fr_span = (match capture with Some (root, _, _, _) -> root | None -> 0);
    }
  in
  (* Every completion below happens before the reply is written, so a
     client that has its reply sees it reflected in stats/flight. *)
  Obs.observe_always (latency_hist w.w_op) (queue_ms +. service_ms);
  Obs.Ring.push t.flight record;
  Atomic.incr tally;
  if t.cfg.log_requests then log_request record;
  (match reply with
  | Reply_error { kind = Internal_error; _ } -> dump_flight_noerr t
  | Reply_ok _ | Reply_degraded _ | Reply_error _ -> ());
  let extra =
    match capture with
    | None -> []
    | Some (root, spans, spans_dropped, c0) ->
        let c1 = Sizing.cache_stats () in
        [
          ( "telemetry",
            telemetry_json ~rid:w.w_rid ~root ~spans ~spans_dropped ~queue_ms ~service_ms ~c0
              ~c1 ~reply );
        ]
  in
  write_reply ~extra w.w_conn ~id:w.w_id ~op:w.w_op.name reply;
  Atomic.decr w.w_conn.pending

let worker_loop t =
  let rec go () =
    match queue_pop t.q with
    | None -> ()
    | Some w ->
        (* run_work is exception-free by construction (the handler call is
           guarded, reply writes swallow socket errors); the belt-and-
           braces handler keeps a worker alive against the unexpected. *)
        (try run_work t w with _ -> Atomic.decr w.w_conn.pending);
        go ()
  in
  go ()

(* ------------------------------------------------------------- IO loop *)

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()
let unlink_noerr path = try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ()

(* The first newline in [buf.[start .. stop - 1]], or [stop]. *)
let rec newline_in buf i stop =
  if i >= stop || Bytes.unsafe_get buf i = '\n' then i else newline_in buf (i + 1) stop

(* Feed the [nread] bytes just read into [buf] through the connection's
   line framing.  The partial tail lives in conn.rbuf between reads; a
   line that arrives whole is copied out of [buf] once.  Oversized lines
   (longer than max_request_bytes without a newline) get one typed reply
   and are discarded up to the next newline, so the connection stays
   usable and the one-reply-per-request invariant holds. *)
let process_chunk t conn buf nread =
  let oversized () =
    write_reply conn ~id:Json.Null ~op:""
      (Reply_error
         {
           kind = Oversized;
           message = Printf.sprintf "request exceeds %d bytes" t.cfg.max_request_bytes;
           retry_after_ms = None;
         })
  in
  let rec go start =
    if start < nread then begin
      let stop = newline_in buf start nread in
      let len = stop - start in
      let pending = Buffer.length conn.rbuf + len in
      if stop < nread then begin
        if conn.skipping then conn.skipping <- false
        else if pending > t.cfg.max_request_bytes then begin
          Buffer.clear conn.rbuf;
          oversized ()
        end
        else begin
          let line =
            if Buffer.length conn.rbuf = 0 then Bytes.sub_string buf start len
            else begin
              Buffer.add_subbytes conn.rbuf buf start len;
              let line = Buffer.contents conn.rbuf in
              Buffer.clear conn.rbuf;
              line
            end
          in
          if String.trim line <> "" then handle_line t conn line
        end;
        go (stop + 1)
      end
      else if conn.skipping then ()
      else if pending > t.cfg.max_request_bytes then begin
        Buffer.clear conn.rbuf;
        conn.skipping <- true;
        oversized ()
      end
      else Buffer.add_subbytes conn.rbuf buf start len
    end
  in
  go 0

let accept_conns t =
  let rec loop () =
    match Unix.accept ~cloexec:true t.listen_fd with
    | fd, _ ->
        Unix.set_nonblock fd;
        t.conns <-
          {
            fd;
            wm = Mutex.create ();
            rbuf = Buffer.create 256;
            skipping = false;
            eof = false;
            alive = true;
            pending = Atomic.make 0;
          }
          :: t.conns;
        loop ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  in
  loop ()

let read_conn t conn buf =
  match Unix.read conn.fd buf 0 (Bytes.length buf) with
  | 0 -> conn.eof <- true
  | nread -> process_chunk t conn buf nread
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ ->
      conn.eof <- true;
      conn.alive <- false

let io_loop t =
  let buf = Bytes.create 65536 in
  while not (Atomic.get t.stopping) do
    (* Reap connections that reached EOF and have no replies in flight.
       A conn with pending work keeps its fd open so the worker's reply
       still has somewhere to go (and the fd number cannot be reused by
       a new accept while a worker might write to it). *)
    let live, dead = List.partition (fun c -> not (c.eof && Atomic.get c.pending = 0)) t.conns in
    List.iter (fun c -> close_noerr c.fd) dead;
    t.conns <- live;
    let read_fds =
      t.listen_fd :: List.filter_map (fun c -> if c.eof then None else Some c.fd) live
    in
    match Unix.select read_fds [] [] 0.1 with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | ready, _, _ ->
        List.iter
          (fun fd ->
            if fd = t.listen_fd then accept_conns t
            else
              match List.find_opt (fun c -> c.fd = fd) t.conns with
              | Some conn -> read_conn t conn buf
              | None -> ())
          ready
  done;
  (* Stop accepting immediately; queued work keeps draining in [stop]. *)
  close_noerr t.listen_fd;
  unlink_noerr t.cfg.socket_path

(* ----------------------------------------------------------- lifecycle *)

let start ?config:(cfg = default_config) () =
  List.iter
    (fun (name, v) ->
      if v < 1 then invalid_arg (Printf.sprintf "Serve.start: %s must be at least 1, got %d" name v))
    [
      ("workers", cfg.workers);
      ("queue_depth", cfg.queue_depth);
      ("max_request_bytes", cfg.max_request_bytes);
      ("flight_cap", cfg.flight_cap);
    ];
  (* A dying client mid-write must not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  unlink_noerr cfg.socket_path;
  (try
     Unix.bind listen_fd (ADDR_UNIX cfg.socket_path);
     Unix.listen listen_fd 64;
     Unix.set_nonblock listen_fd
   with e ->
     close_noerr listen_fd;
     raise e);
  let t =
    {
      cfg;
      listen_fd;
      q = queue_create cfg.queue_depth;
      ops = build_ops ();
      stopping = Atomic.make false;
      conns = [];
      worker_domains = [||];
      io_domain = None;
      stopped = false;
      ewma_ms = Atomic.make 0.;
      started_at = Unix.gettimeofday ();
      rids = Atomic.make 1;
      flight = Obs.Ring.create ~capacity:cfg.flight_cap;
    }
  in
  t.worker_domains <- Array.init cfg.workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t.io_domain <- Some (Domain.spawn (fun () -> io_loop t));
  t

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Atomic.set t.stopping true;
    Option.iter Domain.join t.io_domain;
    t.io_domain <- None;
    (* The IO loop has exited, so no further pushes arrive.  Closing the
       queue lets the workers drain what is queued, reply, and exit. *)
    queue_close t.q;
    Array.iter Domain.join t.worker_domains;
    t.worker_domains <- [||];
    (* All replies are written (workers joined): connections can close. *)
    List.iter (fun c -> close_noerr c.fd) t.conns;
    t.conns <- [];
    unlink_noerr t.cfg.socket_path
  end

(* -------------------------------------------------------------- client *)

type failure_kind = Retryable of string | Fatal of string

let send_and_receive ~socket req =
  match Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Fatal ("socket: " ^ Unix.error_message e))
  | fd ->
      Fun.protect
        ~finally:(fun () -> close_noerr fd)
        (fun () ->
          match Unix.connect fd (ADDR_UNIX socket) with
          | exception Unix.Unix_error (e, _, _) ->
              Error (Retryable (Printf.sprintf "connect %s: %s" socket (Unix.error_message e)))
          | () -> (
              let line = Json.encode_line req in
              match write_all fd line 0 (Bytes.length line) with
              | exception Unix.Unix_error (e, _, _) ->
                  Error (Retryable ("send: " ^ Unix.error_message e))
              | () ->
                  let buf = Bytes.create 65536 in
                  let acc = Buffer.create 256 in
                  let rec read_line () =
                    match Unix.read fd buf 0 (Bytes.length buf) with
                    | exception Unix.Unix_error (EINTR, _, _) -> read_line ()
                    | exception Unix.Unix_error (e, _, _) ->
                        Error (Retryable ("recv: " ^ Unix.error_message e))
                    | 0 -> Error (Fatal "connection closed before a reply arrived")
                    | n -> (
                        Buffer.add_subbytes acc buf 0 n;
                        let s = Buffer.contents acc in
                        match String.index_opt s '\n' with
                        | None -> read_line ()
                        | Some i -> (
                            match Json.parse (String.sub s 0 i) with
                            | Ok v -> Ok v
                            | Error e -> Error (Fatal ("unparsable reply: " ^ e))))
                  in
                  read_line ()))

let reply_overloaded_hint v =
  match Json.member "error" v with
  | Some err when Json.mem_string "kind" err = Some "overloaded" ->
      Some (Option.value ~default:0. (Json.mem_number "retry_after_ms" err))
  | Some _ | None -> None

let request ?(attempts = 1) ?(base_delay_ms = 25.) ?(max_delay_ms = 2000.) ?seed ~socket req =
  (* The jitter RNG is made by the first retry that sleeps. *)
  let rng =
    lazy
      (match seed with
      | Some s -> Random.State.make [| s |]
      | None -> Random.State.make_self_init ())
  in
  let sleep_ms ms = if ms > 0. then Unix.sleepf (ms /. 1000.) in
  (* Full jitter over the exponential cap, floored at the server's
     retry-after hint. *)
  let backoff k hint =
    let cap = Float.min max_delay_ms (base_delay_ms *. (2. ** float_of_int k)) in
    Float.max hint (Random.State.float (Lazy.force rng) cap)
  in
  let rec go k =
    let r = send_and_receive ~socket req in
    let retry_hint =
      match r with
      | Ok v -> reply_overloaded_hint v
      | Error (Retryable _) -> Some 0.
      | Error (Fatal _) -> None
    in
    match retry_hint with
    | Some hint when k + 1 < attempts ->
        sleep_ms (backoff k hint);
        go (k + 1)
    | Some _ | None -> ( match r with Ok v -> Ok v | Error (Retryable m | Fatal m) -> Error m)
  in
  go 0
