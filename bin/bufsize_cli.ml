(* bufsize — command-line front end.

   Subcommands:
     info        describe a built-in architecture (topology, traffic, split)
     size        run the CTMDP buffer sizing and print the allocation
     simulate    simulate one allocation policy and print loss statistics
     experiment  the paper's before/after/timeout comparison
     kron        exact monolithic solve via the Kronecker/SAN path vs the split
     topo        mesh/torus NoC sizing with static-vs-DAMQ buffer sharing
     serve       long-running sizing daemon on a Unix socket (NDJSON)
     request     one request to a running daemon, with retry/backoff

   Architectures: the names of [Catalogue] — fig1 (the paper's sample),
   netproc (the 17-processor evaluation platform), amba, small (a fast
   two-bus demo). *)

module B = Bufsize
open Cmdliner

(* ------------------------------------------------------- architectures *)

let load_arch arch file =
  let loaded =
    match file with
    | Some path -> Bufsize_soc.Spec_parser.parse_file path
    | None -> B.Catalogue.find arch
  in
  match loaded with
  | Ok x -> x
  | Error msg ->
      Format.eprintf "error: %s@." msg;
      exit 1

(* Input errors the library reports as [Invalid_argument] — a budget below
   the buffer count, an unknown policy — end the command like a malformed
   spec does. *)
let or_input_error f =
  match f () with
  | v -> v
  | exception Invalid_argument msg ->
      Format.eprintf "error: %s@." msg;
      exit 1

let arch_arg =
  let doc = "Built-in architecture: " ^ String.concat ", " B.Catalogue.names ^ "." in
  Arg.(value & opt string "small" & info [ "a"; "arch" ] ~docv:"ARCH" ~doc)

let file_arg =
  let doc = "Architecture description file (overrides --arch; see the Spec_parser format)." in
  Arg.(value & opt (some file) None & info [ "f"; "file" ] ~docv:"FILE" ~doc)

let budget_arg =
  let doc = "Total buffer budget in words." in
  Arg.(value & opt int 16 & info [ "b"; "budget" ] ~docv:"WORDS" ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let horizon_arg =
  let doc = "Simulation horizon (time units)." in
  Arg.(value & opt float 2000. & info [ "horizon" ] ~docv:"T" ~doc)

let replications_arg =
  let doc = "Number of independent replications." in
  Arg.(value & opt int 10 & info [ "r"; "replications" ] ~docv:"N" ~doc)

let max_states_arg =
  let doc = "Per-subsystem CTMDP state-space cap." in
  Arg.(value & opt int 64 & info [ "max-states" ] ~docv:"N" ~doc)

let weights_arg =
  let doc =
    "Loss-importance weight for a processor, as NAME=FACTOR (repeatable). Weighted processors \
     get finer models, costlier losses and more buffer space."
  in
  Arg.(value & opt_all string [] & info [ "w"; "weight" ] ~docv:"NAME=FACTOR" ~doc)

(* Turn --weight P4=10 flags into a Sizing client-weight function. *)
let weight_fn topo specs =
  let table = Hashtbl.create 8 in
  List.iter
    (fun spec ->
      match String.index_opt spec '=' with
      | None ->
          Format.eprintf "error: malformed weight %S (expected NAME=FACTOR)@." spec;
          exit 1
      | Some i -> (
          let name = String.sub spec 0 i in
          let factor = String.sub spec (i + 1) (String.length spec - i - 1) in
          match (B.Topology.find_processor topo name, float_of_string_opt factor) with
          | exception Not_found ->
              Format.eprintf "error: unknown processor %S in weight@." name;
              exit 1
          | _, None | _, Some 0. ->
              Format.eprintf "error: bad weight factor %S@." factor;
              exit 1
          | p, Some f -> Hashtbl.replace table p f))
    specs;
  fun client ->
    match client with
    | B.Traffic.Proc_client p -> Option.value ~default:1. (Hashtbl.find_opt table p)
    | B.Traffic.Bridge_client _ -> 1.

(* ----------------------------------------------------------------- info *)

let info_cmd =
  let run arch file =
    let topo, traffic = load_arch arch file in
    Format.printf "%a@.@.%a@.@." B.Topology.pp topo B.Traffic.pp traffic;
    let split = B.Splitting.split traffic in
    Format.printf "%a@." (fun ppf -> B.Splitting.pp ppf topo) split
  in
  let doc = "Describe a built-in architecture: topology, traffic, bridge split." in
  Cmd.v (Cmd.info "info" ~doc) Term.(const run $ arch_arg $ file_arg)

(* ----------------------------------------------------------------- size *)

let size_cmd =
  let health_arg =
    let doc = "Print the per-subsystem solver health report after the allocation." in
    Arg.(value & flag & info [ "health" ] ~doc)
  in
  let health_json_arg =
    let doc = "Print the solver health report as JSON (implies machine-readable output only for the report)." in
    Arg.(value & flag & info [ "health-json" ] ~doc)
  in
  let json_arg =
    let doc =
      "Print the allocation as a single JSON object and exit — byte-identical to the \"result\" \
       field of the daemon's $(b,size) reply (the same serializer renders both)."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run arch file budget max_states weights health health_json json telemetry =
    Cli_telemetry.setup telemetry;
    let topo, traffic = load_arch arch file in
    let config =
      {
        (B.Sizing.default_config ~budget) with
        B.Sizing.max_states;
        client_weight = weight_fn topo weights;
      }
    in
    let r = or_input_error (fun () -> B.Sizing.run config traffic) in
    if json then begin
      print_endline (B.Json.encode (B.Serve.sizing_core_json traffic r));
      exit 0
    end;
    Format.printf "%a@.@.%a@.@." B.Sizing.pp_summary r
      (fun ppf -> B.Buffer_alloc.pp topo ppf)
      r.B.Sizing.allocation;
    Array.iter
      (fun (sol : B.Sizing.subsystem_solution) ->
        let sub = B.Bus_model.subsystem sol.B.Sizing.model in
        Format.printf "subsystem %s: %a@." sub.B.Splitting.bus_name
          (B.Mdp.Constrained.pp_switching (B.Bus_model.ctmdp sol.B.Sizing.model))
          sol.B.Sizing.solved)
      r.B.Sizing.solutions;
    if health then Format.printf "@.%a@." B.Resilience.pp_health r.B.Sizing.health;
    if health_json then
      (* The health report, whether this solve was a cache hit, and this
         process's sizing-cache counters (cache.sizing.* in the metrics
         registry mirrors them). *)
      Format.printf "@.%s@."
        (B.Json.encode
           (B.Json.Obj
              [
                ("health", B.Resilience.health_json r.B.Sizing.health);
                ("solver_stats", B.Serve.solver_stats_json r);
              ]))
  in
  let doc = "Run the CTMDP buffer sizing and print the allocation." in
  Cmd.v (Cmd.info "size" ~doc)
    Term.(
      const run $ arch_arg $ file_arg $ budget_arg $ max_states_arg $ weights_arg $ health_arg
      $ health_json_arg $ json_arg $ Cli_telemetry.term)

(* ------------------------------------------------------------- simulate *)

let simulate_cmd =
  let policy_arg =
    let doc = "Allocation policy: uniform, proportional, or ctmdp." in
    Arg.(value & opt string "uniform" & info [ "p"; "policy" ] ~docv:"POLICY" ~doc)
  in
  let timeout_arg =
    let doc = "Timeout threshold for the timeout drop policy (0 = off)." in
    Arg.(value & opt float 0. & info [ "timeout" ] ~docv:"T" ~doc)
  in
  let run arch file budget policy timeout horizon seed max_states telemetry =
    Cli_telemetry.setup telemetry;
    let _, traffic = load_arch arch file in
    let allocation =
      or_input_error @@ fun () ->
      match policy with
      | "uniform" -> B.Buffer_alloc.uniform traffic ~budget
      | "proportional" -> B.Buffer_alloc.traffic_proportional traffic ~budget
      | "ctmdp" ->
          let config = { (B.Sizing.default_config ~budget) with B.Sizing.max_states } in
          (B.Sizing.run config traffic).B.Sizing.allocation
      | other -> invalid_arg (Printf.sprintf "unknown policy %S" other)
    in
    let spec =
      {
        (B.Sim_run.default_spec ~traffic ~allocation) with
        B.Sim_run.horizon;
        seed;
        timeout = (if timeout > 0. then Some (B.Sim_run.Global timeout) else None);
      }
    in
    let report = B.Sim_run.run spec in
    Format.printf "%a@." B.Metrics.pp report
  in
  let doc = "Simulate one allocation policy and print loss statistics." in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(
      const run $ arch_arg $ file_arg $ budget_arg $ policy_arg $ timeout_arg $ horizon_arg
      $ seed_arg $ max_states_arg $ Cli_telemetry.term)

(* ------------------------------------------------------------------ dot *)

let dot_cmd =
  let annotate_arg =
    let doc = "Annotate nodes with a CTMDP allocation of this many words (0 = bare graph)." in
    Arg.(value & opt int 0 & info [ "annotate" ] ~docv:"WORDS" ~doc)
  in
  let run arch file annotate max_states =
    let topo, traffic = load_arch arch file in
    if annotate <= 0 then print_string (B.Dot.topology topo)
    else begin
      let config =
        { (B.Sizing.default_config ~budget:annotate) with B.Sizing.max_states }
      in
      let r = or_input_error (fun () -> B.Sizing.run config traffic) in
      print_string (B.Dot.with_allocation topo traffic r.B.Sizing.allocation)
    end
  in
  let doc = "Emit the architecture as Graphviz DOT (optionally with a sized allocation)." in
  Cmd.v (Cmd.info "dot" ~doc)
    Term.(const run $ arch_arg $ file_arg $ annotate_arg $ max_states_arg)

(* ----------------------------------------------------------------- kron *)

let kron_cmd =
  let kx_arg =
    let doc = "Producer bus X queue capacity." in
    Arg.(value & opt int 19 & info [ "kx" ] ~docv:"K" ~doc)
  in
  let ky_arg =
    let doc = "Consumer bus Y local-queue capacity." in
    Arg.(value & opt int 19 & info [ "ky" ] ~docv:"K" ~doc)
  in
  let bridge_arg =
    let doc = "Bridge buffer capacity (default: same as --ky)." in
    Arg.(value & opt (some int) None & info [ "bridge" ] ~docv:"K" ~doc)
  in
  let lambda_x_arg =
    let doc = "Arrival rate into bus X." in
    Arg.(value & opt float 1.5 & info [ "lambda-x" ] ~docv:"RATE" ~doc)
  in
  let lambda_y_arg =
    let doc = "Local arrival rate into bus Y." in
    Arg.(value & opt float 1.2 & info [ "lambda-y" ] ~docv:"RATE" ~doc)
  in
  let cross_arg =
    let doc = "Fraction of X completions that cross the bridge." in
    Arg.(value & opt float 0.25 & info [ "cross" ] ~docv:"F" ~doc)
  in
  let mu_x_arg =
    let doc = "Service rate of bus X." in
    Arg.(value & opt float 2.4 & info [ "mu-x" ] ~docv:"RATE" ~doc)
  in
  let mu_y_arg =
    let doc = "Service rate of bus Y (processor-shared with the bridge)." in
    Arg.(value & opt float 2.2 & info [ "mu-y" ] ~docv:"RATE" ~doc)
  in
  let tol_arg =
    let doc =
      "Stationary-solve tolerance: stop once the balance residual max|pi Q| is at most \
       $(docv) times the uniformization rate (2 x the largest exit rate). The GMRES solve \
       spreads its error over all states, so a loss near $(docv) carries a large relative \
       error: at kx = ky = 17 the ~1e-9 bridge loss is 0.6% low at $(docv) = 1e-9 and \
       0.001% low at the default."
    in
    Arg.(value & opt float 1e-12 & info [ "tol" ] ~docv:"TOL" ~doc)
  in
  let max_sweeps_arg =
    let doc =
      "Cap on operator applications: GMRES steps plus any uniformized sweeps after a stalled \
       restart cycle (the residual check once per cycle is not counted)."
    in
    Arg.(value & opt int 200_000 & info [ "max-sweeps" ] ~docv:"N" ~doc)
  in
  let cold_arg =
    let doc = "Start from the uniform distribution instead of the split-product seed." in
    Arg.(value & flag & info [ "cold" ] ~doc)
  in
  let run kx ky bridge lambda_x lambda_y cross mu_x mu_y tol max_sweeps cold telemetry =
    Cli_telemetry.setup telemetry;
    if kx < 1 || ky < 1 then begin
      Format.eprintf "error: queue capacities must be at least 1@.";
      exit 1
    end;
    let spec =
      { B.Monolithic.kx; ky; lambda_x; lambda_y; cross_fraction = cross; mu_x; mu_y }
    in
    let g =
      or_input_error (fun () ->
          B.San_bridge.compare_split ~tol ~max_sweeps ~warm_start:(not cold)
            ?bridge_capacity:bridge spec)
    in
    Format.printf "%a@." B.San_bridge.pp_gap g;
    if not g.B.San_bridge.joint.B.San_bridge.converged then begin
      Format.eprintf "error: stationary solve did not converge (raise --max-sweeps)@.";
      exit 1
    end
  in
  let doc =
    "Solve the un-split bridged model exactly through the Kronecker/SAN descriptor and report \
     the split approximation's loss and delay gaps."
  in
  Cmd.v (Cmd.info "kron" ~doc)
    Term.(
      const run $ kx_arg $ ky_arg $ bridge_arg $ lambda_x_arg $ lambda_y_arg $ cross_arg
      $ mu_x_arg $ mu_y_arg $ tol_arg $ max_sweeps_arg $ cold_arg $ Cli_telemetry.term)

(* ----------------------------------------------------------------- topo *)

(* Spec text for a rows x cols NoC grid: one shared-pool router bus per
   cell, one network-interface processor per router, and a row-major
   shift-by-one traffic pattern (every NI sends to the next router's NI),
   which loads every bus and exercises multi-hop XY routes.  Going through
   the text format on purpose: the command is the end-to-end check that a
   grid spec parses, routes, splits and sizes. *)
let grid_spec_text ~kind ~rows ~cols ~mu ~rate =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%s noc rows %d cols %d rate %g\n" kind rows cols mu);
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      Buffer.add_string buf (Printf.sprintf "shared_buffer noc_r%dc%d\n" r c);
      Buffer.add_string buf (Printf.sprintf "proc ni_r%dc%d on noc_r%dc%d\n" r c r c)
    done
  done;
  let n = rows * cols in
  for i = 0 to n - 1 do
    let j = (i + 1) mod n in
    Buffer.add_string buf
      (Printf.sprintf "flow ni_r%dc%d -> ni_r%dc%d rate %g\n" (i / cols) (i mod cols)
         (j / cols) (j mod cols) rate)
  done;
  Buffer.contents buf

let topo_cmd =
  let rows_arg =
    let doc = "Grid rows (ignored with --file)." in
    Arg.(value & opt int 4 & info [ "rows" ] ~docv:"N" ~doc)
  in
  let cols_arg =
    let doc = "Grid columns (ignored with --file)." in
    Arg.(value & opt int 4 & info [ "cols" ] ~docv:"N" ~doc)
  in
  let kind_arg =
    let doc = "Grid kind: mesh or torus (ignored with --file)." in
    Arg.(value & opt string "mesh" & info [ "kind" ] ~docv:"KIND" ~doc)
  in
  let mu_arg =
    let doc = "Router service rate (ignored with --file)." in
    Arg.(value & opt float 2.0 & info [ "mu" ] ~docv:"RATE" ~doc)
  in
  let rate_arg =
    let doc = "Per-NI injection rate (ignored with --file)." in
    Arg.(value & opt float 0.2 & info [ "rate" ] ~docv:"RATE" ~doc)
  in
  let sharing_arg =
    let doc = "Sharing mode for the sizing run: static or damq." in
    Arg.(value & opt string "damq" & info [ "sharing" ] ~docv:"MODE" ~doc)
  in
  let topo_max_states_arg =
    let doc = "Per-subsystem CTMDP state-space cap." in
    Arg.(value & opt int 24 & info [ "max-states" ] ~docv:"N" ~doc)
  in
  let spec_arg =
    let doc = "Print the generated grid spec text and exit." in
    Arg.(value & flag & info [ "print-spec" ] ~doc)
  in
  let run file rows cols kind mu rate budget max_states sharing print_spec telemetry =
    Cli_telemetry.setup telemetry;
    let sharing =
      match sharing with
      | "static" -> B.Sizing.Static
      | "damq" -> B.Sizing.Damq
      | other ->
          Format.eprintf "error: unknown sharing mode %S (use static or damq)@." other;
          exit 1
    in
    let text =
      match file with
      | Some path -> (
          match open_in path with
          | exception Sys_error msg ->
              Format.eprintf "error: %s@." msg;
              exit 1
          | ic ->
              let len = in_channel_length ic in
              let s = really_input_string ic len in
              close_in ic;
              s)
      | None ->
          if kind <> "mesh" && kind <> "torus" then begin
            Format.eprintf "error: unknown grid kind %S (use mesh or torus)@." kind;
            exit 1
          end;
          grid_spec_text ~kind ~rows ~cols ~mu ~rate
    in
    if print_spec then print_string text
    else
      match B.Spec_parser.parse text with
      | Error msg ->
          Format.eprintf "error: %s@." msg;
          exit 1
      | Ok (topo, traffic) ->
          let config =
            { (B.Sizing.default_config ~budget) with B.Sizing.max_states; sharing }
          in
          let result, report =
            or_input_error (fun () -> B.Sizing.compare_sharing config traffic)
          in
          Format.printf "%a@.@.%a@.@.%a@." B.Topology.pp topo B.Sizing.pp_summary result
            B.Sizing.pp_sharing_report report
  in
  let doc =
    "Size a mesh/torus NoC with shared router buffers and compare static, DAMQ and separate \
     buffer organizations."
  in
  Cmd.v (Cmd.info "topo" ~doc)
    Term.(
      const run $ file_arg $ rows_arg $ cols_arg $ kind_arg $ mu_arg $ rate_arg $ budget_arg
      $ topo_max_states_arg $ sharing_arg $ spec_arg $ Cli_telemetry.term)

(* ---------------------------------------------------------------- serve *)

let serve_defaults = B.Serve.default_config

let socket_arg =
  let doc = "Unix socket path." in
  Arg.(value & opt string serve_defaults.B.Serve.socket_path & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let queue_arg =
    let doc = "Bounded request-queue depth; a full queue rejects with a typed overloaded error." in
    Arg.(value & opt int serve_defaults.B.Serve.queue_depth & info [ "queue" ] ~docv:"N" ~doc)
  in
  let workers_arg =
    let doc = "Worker domains." in
    Arg.(value & opt int serve_defaults.B.Serve.workers & info [ "workers" ] ~docv:"N" ~doc)
  in
  let deadline_arg =
    let doc = "Default per-request deadline in ms for requests without deadline_ms (0 = none)." in
    Arg.(
      value
      & opt float serve_defaults.B.Serve.default_deadline_ms
      & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let max_request_arg =
    let doc = "Longest accepted request line in bytes." in
    Arg.(
      value
      & opt int serve_defaults.B.Serve.max_request_bytes
      & info [ "max-request" ] ~docv:"BYTES" ~doc)
  in
  let flight_cap_arg =
    let doc =
      "Flight-recorder capacity: completed requests remembered for crash dumps (written to the \
       socket path plus $(b,.flight.jsonl))."
    in
    Arg.(value & opt int serve_defaults.B.Serve.flight_cap & info [ "flight-cap" ] ~docv:"N" ~doc)
  in
  let log_requests_arg =
    let doc = "Write one structured JSONL line per completed request to stderr." in
    Arg.(value & flag & info [ "log-requests" ] ~doc)
  in
  let run socket queue workers deadline max_request flight_cap log_requests telemetry =
    Cli_telemetry.setup telemetry;
    let config =
      {
        B.Serve.socket_path = socket;
        queue_depth = queue;
        workers;
        default_deadline_ms = deadline;
        max_request_bytes = max_request;
        flight_cap;
        log_requests;
      }
    in
    let server =
      match B.Serve.start ~config () with
      | server -> server
      | exception Invalid_argument msg ->
          Format.eprintf "bufsize serve: %s@.Try 'bufsize serve --help' for more information.@."
            msg;
          exit 2
      | exception Unix.Unix_error (e, fn, _) ->
          Format.eprintf "error: cannot listen on socket %s: %s (%s)@." socket
            (Unix.error_message e) fn;
          exit 1
    in
    Format.eprintf "bufsize serve: listening on %s (%d workers, queue %d)@."
      config.B.Serve.socket_path config.B.Serve.workers config.B.Serve.queue_depth;
    (* SIGTERM/SIGINT mean drain, not die: finish in-flight requests,
       write their replies, unlink the socket, then exit 0 so at_exit
       still flushes the telemetry exporters. *)
    let stop_requested = Atomic.make false in
    List.iter
      (fun signum ->
        Sys.set_signal signum (Sys.Signal_handle (fun _ -> Atomic.set stop_requested true)))
      [ Sys.sigint; Sys.sigterm ];
    (* SIGUSR1 dumps the flight recorder without disturbing service.  The
       handler only sets a flag; the wait loop does the file IO, because
       a signal handler must not take the locks a dump walks through. *)
    let dump_requested = Atomic.make false in
    Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> Atomic.set dump_requested true));
    while not (Atomic.get stop_requested) do
      if Atomic.compare_and_set dump_requested true false then begin
        match B.Serve.dump_flight server with
        | path -> Format.eprintf "bufsize serve: flight recorder dumped to %s@." path
        | exception Sys_error msg -> Format.eprintf "bufsize serve: flight dump failed: %s@." msg
      end;
      (try Unix.sleepf 0.2 with Unix.Unix_error (EINTR, _, _) -> ())
    done;
    Format.eprintf "bufsize serve: draining and shutting down@.";
    B.Serve.stop server;
    exit 0
  in
  let doc = "Run the sizing daemon: newline-delimited JSON over a Unix socket." in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket_arg $ queue_arg $ workers_arg $ deadline_arg $ max_request_arg
      $ flight_cap_arg $ log_requests_arg $ Cli_telemetry.term)

let request_cmd =
  let op_arg =
    let doc = "Operation: ping, stats, flight, size, simulate, kron or metrics." in
    Arg.(value & opt string "size" & info [ "op" ] ~docv:"OP" ~doc)
  in
  let raw_arg =
    let doc = "Send this JSON object verbatim instead of building one from the flags." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"JSON" ~doc)
  in
  let id_arg =
    let doc = "Request id (echoed by the daemon)." in
    Arg.(value & opt int 1 & info [ "id" ] ~docv:"ID" ~doc)
  in
  let deadline_arg =
    let doc = "Per-request deadline in ms (<= 0 = already expired; solver cut off server-side)." in
    Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let attempts_arg =
    let doc = "Total tries under connection failure or overloaded rejection." in
    Arg.(value & opt int 6 & info [ "attempts" ] ~docv:"N" ~doc)
  in
  let telemetry_arg =
    let doc =
      "Ask the daemon to attach per-request telemetry (spans, solver diagnostics, cache deltas, \
       queue/service latency) to the reply."
    in
    Arg.(value & flag & info [ "telemetry" ] ~doc)
  in
  let prometheus_arg =
    let doc =
      "With $(b,--op metrics): request Prometheus text exposition and print it raw (for piping \
       into a scrape file)."
    in
    Arg.(value & flag & info [ "prometheus" ] ~doc)
  in
  let run socket raw op arch file budget max_states id deadline attempts seed telemetry
      prometheus =
    Cli_telemetry.install_exit_on_signals ();
    let req =
      match raw with
      | Some text -> (
          match B.Json.parse text with
          | Ok (B.Json.Obj _ as v) -> v
          | Ok _ ->
              Format.eprintf "error: the request must be a JSON object@.";
              exit 2
          | Error e ->
              Format.eprintf "error: bad request JSON: %s@." e;
              exit 2)
      | None ->
          (* Only the fields the op takes: the daemon refuses any other. *)
          let fields = B.Serve.op_fields op in
          let takes (k, _) = Option.fold ~none:true ~some:(List.mem k) fields in
          let source =
            match file with
            | Some path -> (
                match In_channel.with_open_text path In_channel.input_all with
                | text -> ("spec", B.Json.Str text)
                | exception Sys_error msg ->
                    Format.eprintf "error: %s@." msg;
                    exit 2)
            | None -> ("arch", B.Json.Str arch)
          in
          B.Json.Obj
            (List.filter takes
               ([
                  ("id", B.Json.Num (float_of_int id));
                  ("op", B.Json.Str op);
                  source;
                  ("budget", B.Json.Num (float_of_int budget));
                  ("max_states", B.Json.Num (float_of_int max_states));
                ]
               @ (match deadline with None -> [] | Some ms -> [ ("deadline_ms", B.Json.Num ms) ])
               @ (if telemetry then [ ("telemetry", B.Json.Bool true) ] else [])
               @ if prometheus then [ ("prometheus", B.Json.Bool true) ] else []))
    in
    match B.Serve.request ~attempts ?seed ~socket req with
    | Error e ->
        Format.eprintf "error: %s@." e;
        exit 2
    | Ok reply -> (
        (* A Prometheus-format metrics reply carries the exposition as a
           JSON string; print it raw so the output is scrapeable as-is. *)
        (match (prometheus, B.Json.member "text" reply, B.Json.mem_string "status" reply) with
        | true, Some (B.Json.Str text), Some ("ok" | "degraded") -> print_string text
        | _ -> print_endline (B.Json.encode reply));
        match B.Json.mem_string "status" reply with
        | Some ("ok" | "degraded") -> exit 0
        | Some _ | None -> exit 1)
  in
  let seed_opt_arg =
    let doc = "Seed for deterministic retry jitter." in
    Arg.(value & opt (some int) None & info [ "retry-seed" ] ~docv:"SEED" ~doc)
  in
  let doc =
    "Send one request to a running daemon and print the reply; retries with jittered \
     exponential backoff (honoring the server's retry_after_ms hint) on connection failure and \
     overloaded rejections."
  in
  Cmd.v (Cmd.info "request" ~doc)
    Term.(
      const run $ socket_arg $ raw_arg $ op_arg $ arch_arg $ file_arg $ budget_arg
      $ max_states_arg $ id_arg $ deadline_arg $ attempts_arg $ seed_opt_arg $ telemetry_arg
      $ prometheus_arg)

(* ----------------------------------------------------------- experiment *)

let experiment_cmd =
  let run arch file budget replications horizon seed max_states weights telemetry =
    Cli_telemetry.setup telemetry;
    let topo, traffic = load_arch arch file in
    let exp =
      B.experiment ~budget ~replications ~horizon ~seed
        ~config:
          {
            (B.Sizing.default_config ~budget) with
            B.Sizing.max_states;
            client_weight = weight_fn topo weights;
          }
        traffic
    in
    let outcome = or_input_error (fun () -> B.size_and_evaluate exp) in
    Format.printf "%a@." B.pp_outcome outcome
  in
  let doc = "The paper's before/after/timeout loss comparison." in
  Cmd.v
    (Cmd.info "experiment" ~doc)
    Term.(
      const run $ arch_arg $ file_arg $ budget_arg $ replications_arg $ horizon_arg $ seed_arg
      $ max_states_arg $ weights_arg $ Cli_telemetry.term)

let () =
  B.Obs.init_from_env ();
  let doc = "CTMDP buffer insertion and optimal buffer sizing for SoC architectures" in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "bufsize" ~version:"1.0.0" ~doc)
          [
            info_cmd;
            size_cmd;
            simulate_cmd;
            experiment_cmd;
            kron_cmd;
            topo_cmd;
            dot_cmd;
            serve_cmd;
            request_cmd;
          ]))
