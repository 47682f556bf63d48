(* Oracle #10: the daemon is a transparent wrapper.  See serve_oracle.mli
   for the contract; the short version is that a real in-process server
   must answer a hostile mixed batch with exactly one typed reply per
   request, byte-identical to direct library calls where a result is
   involved, and still be alive afterwards. *)

module Rng = Bufsize_prob.Rng
module Json = Bufsize_json.Json
module Serve = Bufsize_serve.Serve
module Spec_parser = Bufsize_soc.Spec_parser
module Splitting = Bufsize_soc.Splitting
module Sizing = Bufsize_soc.Sizing
open Oracle

(* ------------------------------------------------------- the cross-check *)

type serve_case = { sv_text : string; sv_budget : int; sv_max_states : int; sv_seed : int }

let oracle_config () =
  {
    Serve.socket_path = Serve.temp_socket_path ();
    queue_depth = 32;
    workers = 2;
    default_deadline_ms = 0.;
    max_request_bytes = 4096;
    flight_cap = 256;
    log_requests = false;
  }

let size_request ~id c =
  Json.Obj
    [
      ("id", Json.Num (float_of_int id));
      ("op", Json.Str "size");
      ("spec", Json.Str c.sv_text);
      ("budget", Json.Num (float_of_int c.sv_budget));
      ("max_states", Json.Num (float_of_int c.sv_max_states));
    ]

(* What the daemon must answer for a sizing request, computed without the
   daemon: the shared serializer over a direct library call. *)
let expected_result c =
  match Spec_parser.parse c.sv_text with
  | Error e -> Error ("case spec does not parse: " ^ e)
  | Ok (_, traffic) ->
      let config =
        { (Sizing.default_config ~budget:c.sv_budget) with Sizing.max_states = c.sv_max_states }
      in
      Ok (Json.encode (Serve.sizing_core_json traffic (Sizing.run config traffic)))

let status_of reply = Option.value ~default:"?" (Json.mem_string "status" reply)

let error_kind_of reply =
  match Json.member "error" reply with
  | Some err -> Option.value ~default:"?" (Json.mem_string "kind" err)
  | None -> "?"

let check_sizing_reply ~what ~expected reply =
  match status_of reply with
  | "ok" | "degraded" -> (
      match Json.member "result" reply with
      | None -> failf "%s: sizing reply has no result field" what
      | Some r ->
          let got = Json.encode r in
          if got = expected then Pass
          else failf "%s: daemon result differs from direct call:\n  daemon  %s\n  direct  %s" what got
              expected)
  | other -> failf "%s: expected ok/degraded, got status %s" what other

(* One connection, the whole hostile batch pipelined: every line must
   come back as exactly one reply, ids echoed, each with its typed
   status. *)
let pipelined_batch c socket expected =
  let lines =
    [
      Json.encode (size_request ~id:1 c);
      "{\"id\":2,\"op\":\"size\",";  (* malformed JSON *)
      Json.encode (Json.Obj [ ("id", Json.Num 3.); ("op", Json.Str "no-such-op") ]);
      Json.encode
        (Json.Obj
           [
             ("id", Json.Num 4.);
             ("op", Json.Str "size");
             ("spec", Json.Str c.sv_text);
             ("deadline_ms", Json.Num 0.);
           ]);
      "{\"id\":5,\"op\":\"size\",\"pad\":\"" ^ String.make 5000 'x' ^ "\"}";  (* > 4096 bytes *)
      Json.encode (size_request ~id:6 c);
    ]
  in
  let n = List.length lines in
  let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (ADDR_UNIX socket);
      Unix.setsockopt_float fd SO_RCVTIMEO 30.;
      let payload = String.concat "\n" lines ^ "\n" in
      let b = Bytes.of_string payload in
      let rec send off len =
        if len > 0 then
          let w = Unix.write fd b off len in
          send (off + w) (len - w)
      in
      send 0 (Bytes.length b);
      let buf = Bytes.create 65536 in
      let acc = Buffer.create 1024 in
      let count_newlines s = String.fold_left (fun k ch -> if ch = '\n' then k + 1 else k) 0 s in
      let rec recv () =
        if count_newlines (Buffer.contents acc) < n then
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 -> failf "pipelined: connection closed after %d/%d replies"
                   (count_newlines (Buffer.contents acc)) n
          | r ->
              Buffer.add_subbytes acc buf 0 r;
              recv ()
          | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
              failf "pipelined: timed out after %d/%d replies"
                (count_newlines (Buffer.contents acc)) n
        else Pass
      in
      match recv () with
      | Fail _ as f -> f
      | Pass -> (
          let raw =
            String.split_on_char '\n' (Buffer.contents acc) |> List.filter (fun l -> l <> "")
          in
          if List.length raw <> n then
            failf "pipelined: sent %d requests, got %d replies" n (List.length raw)
          else
            match
              List.fold_left
                (fun acc line ->
                  match (acc, Json.parse line) with
                  | Error e, _ -> Error e
                  | Ok rs, Ok r -> Ok (r :: rs)
                  | Ok _, Error e -> Error (Printf.sprintf "unparsable reply %S: %s" line e))
                (Ok []) raw
            with
            | Error e -> Fail ("pipelined: " ^ e)
            | Ok replies ->
                let with_id k =
                  List.filter
                    (fun r -> Json.member "id" r = Some (Json.Num (float_of_int k)))
                    replies
                in
                let null_id =
                  List.filter
                    (fun r -> match Json.member "id" r with Some Json.Null -> true | _ -> false)
                    replies
                in
                let exactly_one what = function
                  | [ r ] -> Ok r
                  | rs -> Result.Error (Printf.sprintf "%s: %d replies, want 1" what (List.length rs))
                in
                let ( let* ) r f = match r with Ok v -> f v | Error e -> Fail ("pipelined: " ^ e) in
                let* r1 = exactly_one "id 1" (with_id 1) in
                let* r3 = exactly_one "id 3" (with_id 3) in
                let* r4 = exactly_one "id 4" (with_id 4) in
                let* r6 = exactly_one "id 6" (with_id 6) in
                all_of
                  [
                    (fun () -> check_sizing_reply ~what:"pipelined id 1" ~expected r1);
                    (fun () -> check_sizing_reply ~what:"pipelined id 6" ~expected r6);
                    (fun () ->
                      if status_of r3 = "error" && error_kind_of r3 = "bad_request" then Pass
                      else failf "unknown op: want error/bad_request, got %s/%s" (status_of r3)
                          (error_kind_of r3));
                    (fun () ->
                      if status_of r4 = "degraded" then Pass
                      else failf "deadline-zero: want status degraded, got %s" (status_of r4));
                    (fun () ->
                      (* Malformed and oversized both answer with id null;
                         order depends on framing, so check the multiset. *)
                      let kinds = List.sort String.compare (List.map error_kind_of null_id) in
                      if kinds = [ "bad_request"; "oversized" ] then Pass
                      else
                        failf "null-id replies: want [bad_request; oversized], got [%s]"
                          (String.concat "; " kinds));
                  ]))

(* Separate connections from separate domains, all in flight at once:
   every client must get the same bytes the library gives. *)
let concurrent_clients c socket expected =
  let one i =
    match Serve.request ~socket (size_request ~id:(100 + i) c) with
    | Error e -> failf "concurrent client %d: %s" i e
    | Ok reply -> check_sizing_reply ~what:(Printf.sprintf "concurrent client %d" i) ~expected reply
  in
  let domains = Array.init 2 (fun i -> Domain.spawn (fun () -> one i)) in
  let verdicts = Array.to_list (Array.map Domain.join domains) in
  all_of (List.map (fun v () -> v) verdicts)

(* Telemetry must only observe.  A deterministic op (kron — no wall-clock
   fields, no global counters in the reply) answered with and without
   ["telemetry": true] must differ by exactly that one trailing member:
   stripping it restores the plain reply byte for byte.  For [size] —
   whose health member carries wall-clock times — only the [result]
   member is compared, plus the shape of the telemetry object itself. *)
let strip_telemetry reply =
  match reply with
  | Json.Obj fields -> Json.Obj (List.filter (fun (k, _) -> k <> "telemetry") fields)
  | v -> v

let with_telemetry req =
  match req with
  | Json.Obj fields -> Json.Obj (fields @ [ ("telemetry", Json.Bool true) ])
  | v -> v

let check_telemetry_shape ~what reply =
  match Json.member "telemetry" reply with
  | None -> failf "%s: telemetry-enabled reply has no telemetry member" what
  | Some t ->
      all_of
        [
          (fun () ->
            match Json.mem_int "request_id" t with
            | Some rid when rid >= 1 -> Pass
            | _ -> failf "%s: telemetry.request_id missing or < 1" what);
          (fun () ->
            match (Json.mem_number "queue_ms" t, Json.mem_number "service_ms" t) with
            | Some q, Some s when q >= 0. && s >= 0. -> Pass
            | _ -> failf "%s: telemetry queue_ms/service_ms missing or negative" what);
          (fun () ->
            match Json.member "spans" t with
            | Some (Json.List spans) ->
                if
                  List.for_all
                    (fun s -> match Json.mem_string "name" s with Some _ -> true | None -> false)
                    spans
                then Pass
                else failf "%s: telemetry span without a name" what
            | _ -> failf "%s: telemetry.spans is not a list" what);
          (fun () ->
            match Json.member "cache" t with
            | Some (Json.Obj _) -> Pass
            | _ -> failf "%s: telemetry.cache is not an object" what);
        ]

let telemetry_probe c socket expected =
  let kron_req ~id =
    Json.Obj
      [
        ("id", Json.Num (float_of_int id));
        ("op", Json.Str "kron");
        ("kx", Json.Num 3.);
        ("ky", Json.Num 4.);
      ]
  in
  match
    ( Serve.request ~socket (kron_req ~id:9),
      Serve.request ~socket (with_telemetry (kron_req ~id:9)),
      Serve.request ~socket (with_telemetry (size_request ~id:10 c)) )
  with
  | Error e, _, _ | _, Error e, _ | _, _, Error e -> failf "telemetry probe: %s" e
  | Ok plain, Ok tele, Ok tele_size ->
      all_of
        [
          (fun () ->
            if status_of plain = "ok" && status_of tele = "ok" then Pass
            else failf "telemetry kron: statuses %s/%s" (status_of plain) (status_of tele));
          (fun () ->
            (* The daemon reads the request's model back: (kx + 1) (ky + 1)
               (bridge + 1) joint states, the bridge defaulting to ky. *)
            match Json.mem_int "states" plain with
            | Some 100 -> Pass
            | Some n -> failf "kron kx 3 ky 4: %d states, not 4 * 5 * 5 = 100" n
            | None -> failf "kron kx 3 ky 4: no states in %s" (Json.encode plain));
          (fun () ->
            let stripped = Json.encode (strip_telemetry tele) in
            let want = Json.encode plain in
            if stripped = want then Pass
            else
              failf "telemetry kron: stripped reply differs from plain:\n  stripped %s\n  plain    %s"
                stripped want);
          (fun () -> check_telemetry_shape ~what:"telemetry kron" tele);
          (fun () ->
            match Json.member "result" tele_size with
            | Some r when Json.encode r = expected -> Pass
            | Some r ->
                failf "telemetry size: result differs from direct call:\n  daemon  %s\n  direct  %s"
                  (Json.encode r) expected
            | None -> failf "telemetry size: no result member");
          (fun () -> check_telemetry_shape ~what:"telemetry size" tele_size);
        ]

(* The IO loop's stats must conserve: everything accepted is completed,
   failed, or still in flight — and at quiescence (every reply of this
   oracle already read off the socket; stats commit before the reply is
   written) nothing is in flight.  The per-op table must sum to the
   totals. *)
let stats_probe socket =
  match Serve.request ~socket (Json.Obj [ ("op", Json.Str "stats") ]) with
  | Error e -> failf "stats probe: %s" e
  | Ok reply ->
      let int_field what v name =
        match Json.mem_int name v with
        | Some n -> Ok n
        | None -> Result.Error (Printf.sprintf "%s: stats field %s missing" what name)
      in
      let ( let* ) r f = match r with Ok v -> f v | Error e -> Fail ("stats probe: " ^ e) in
      let* accepted = int_field "totals" reply "accepted" in
      let* completed = int_field "totals" reply "completed" in
      let* failed = int_field "totals" reply "failed" in
      let* in_flight = int_field "totals" reply "in_flight" in
      all_of
        [
          (fun () ->
            if accepted = completed + failed + in_flight then Pass
            else
              failf "stats: accepted %d <> completed %d + failed %d + in_flight %d" accepted
                completed failed in_flight);
          (fun () ->
            if in_flight = 0 then Pass
            else failf "stats: %d in flight at quiescence" in_flight);
          (fun () ->
            if accepted > 0 then Pass
            else failf "stats: accepted %d, but this oracle dispatched work" accepted);
          (fun () ->
            match Json.member "ops" reply with
            | Some (Json.Obj per_op) ->
                let sum name =
                  List.fold_left
                    (fun acc (_, v) -> acc + Option.value ~default:0 (Json.mem_int name v))
                    0 per_op
                in
                if sum "accepted" = accepted && sum "completed" = completed && sum "failed" = failed
                then Pass
                else
                  failf "stats: per-op sums (%d/%d/%d) don't match totals (%d/%d/%d)"
                    (sum "accepted") (sum "completed") (sum "failed") accepted completed failed
            | _ -> failf "stats: ops is not an object");
        ]

(* Every flight-recorder record must be a completed request this oracle's
   clients saw: ops it sent, outcomes it received, latencies non-negative,
   count consistent with the stats totals. *)
let flight_probe socket =
  match
    ( Serve.request ~socket (Json.Obj [ ("op", Json.Str "stats") ]),
      Serve.request ~socket (Json.Obj [ ("op", Json.Str "flight") ]) )
  with
  | Error e, _ | _, Error e -> failf "flight probe: %s" e
  | Ok stats, Ok reply -> (
      match (Json.member "records" reply, Json.mem_int "capacity" reply) with
      | Some (Json.List records), Some cap ->
          let finished =
            Option.value ~default:0 (Json.mem_int "completed" stats)
            + Option.value ~default:0 (Json.mem_int "failed" stats)
          in
          all_of
            [
              (fun () ->
                if List.length records = Int.min cap finished then Pass
                else
                  failf "flight: %d records, want min(capacity %d, finished %d)"
                    (List.length records) cap finished);
              (fun () ->
                let sent_ops = [ "size"; "kron" ] in
                let ok_rec r =
                  (match Json.mem_string "op" r with
                  | Some op -> List.mem op sent_ops
                  | None -> false)
                  && (match Json.mem_string "outcome" r with
                     | Some ("ok" | "degraded") -> true
                     | Some _ | None -> false)
                  && (match Json.mem_number "queue_ms" r with Some q -> q >= 0. | None -> false)
                  &&
                  match Json.mem_number "service_ms" r with Some s -> s >= 0. | None -> false
                in
                match List.find_opt (fun r -> not (ok_rec r)) records with
                | None -> Pass
                | Some r -> failf "flight: implausible record %s" (Json.encode r));
              (fun () ->
                let rids =
                  List.filter_map (fun r -> Json.mem_int "request_id" r) records
                in
                if List.length (List.sort_uniq compare rids) = List.length records then Pass
                else failf "flight: duplicate or missing request ids");
            ]
      | _ -> failf "flight: reply missing records/capacity")

let check_serve_case c =
  match expected_result c with
  | Error e -> Fail e
  | Ok expected ->
      let server = Serve.start ~config:(oracle_config ()) () in
      let socket = Serve.socket_path server in
      Fun.protect
        ~finally:(fun () -> Serve.stop server)
        (fun () ->
          all_of
            [
              (fun () -> pipelined_batch c socket expected);
              (fun () -> concurrent_clients c socket expected);
              (fun () -> telemetry_probe c socket expected);
              (fun () -> stats_probe socket);
              (fun () -> flight_probe socket);
              (fun () ->
                (* Survival: the server still answers ping at the end. *)
                match
                  Serve.request ~socket (Json.Obj [ ("op", Json.Str "ping") ])
                with
                | Error e -> failf "final ping: %s" e
                | Ok reply ->
                    if status_of reply = "ok" then Pass
                    else failf "final ping: status %s" (status_of reply));
            ])

let serve_label c =
  Printf.sprintf "serve: %d-byte spec, budget %d, max_states %d" (String.length c.sv_text)
    c.sv_budget c.sv_max_states

let case ~text ~budget ~max_states ~seed =
  let c = { sv_text = text; sv_budget = budget; sv_max_states = max_states; sv_seed = seed } in
  {
    label = serve_label c;
    repro =
      Printf.sprintf "# oracle: serve\n# serve cross-check: budget %d words, max_states %d, seed %d\n%s"
        c.sv_budget c.sv_max_states c.sv_seed c.sv_text;
    check = (fun () -> check_serve_case c);
    (* A serve case has no structural shrink: the batch is fixed and the
       architecture only parameterizes the payload. *)
    shrink = (fun () -> []);
  }

let oracle =
  {
    name = "serve";
    doc = "daemon replies typed, exactly-once, and bitwise-equal to direct library calls";
    generate =
      (fun ~max_states rng ->
        let topology, traffic = Gen_model.arch rng in
        let nclients = Splitting.total_clients (Splitting.split traffic) in
        let budget = nclients * (2 + Rng.int rng 3) in
        case
          ~text:(Spec_parser.to_string topology traffic)
          ~budget
          ~max_states:(Int.max 8 (Int.min max_states 24))
          ~seed:(1 + Rng.int rng 1_000_000));
  }
