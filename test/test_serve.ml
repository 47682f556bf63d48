(* Tests for the sizing daemon: lifecycle and liveness, bitwise parity
   between daemon replies and direct library calls, the typed error
   taxonomy (bad_request / oversized / overloaded / internal_error),
   deadline-zero degradation, crash isolation, admission control with
   retry recovery, and concurrent clients. *)

module Serve = Bufsize_serve.Serve
module Json = Bufsize_json.Json
module Sizing = Bufsize_soc.Sizing
module Spec_parser = Bufsize_soc.Spec_parser

(* A tiny two-bus architecture so every solve is milliseconds. *)
let spec_text =
  "bus a rate 8.0\n\
   bus b rate 8.0\n\
   proc p on a\n\
   proc q on b\n\
   bridge br a b\n\
   flow p -> q rate 1.0\n\
   flow q -> p rate 0.5\n"

let budget = 8
let max_states = 16

let expected_result () =
  match Spec_parser.parse spec_text with
  | Error e -> Alcotest.failf "spec did not parse: %s" e
  | Ok (_, traffic) ->
      let config = { (Sizing.default_config ~budget) with Sizing.max_states } in
      Json.encode (Serve.sizing_core_json traffic (Sizing.run config traffic))

let size_request ~id =
  Json.Obj
    [
      ("id", Json.Num (float_of_int id));
      ("op", Json.Str "size");
      ("spec", Json.Str spec_text);
      ("budget", Json.Num (float_of_int budget));
      ("max_states", Json.Num (float_of_int max_states));
    ]

let test_config () =
  {
    Serve.socket_path = Serve.temp_socket_path ();
    queue_depth = 16;
    workers = 2;
    default_deadline_ms = 0.;
    max_request_bytes = 512;
    flight_cap = 8;
    log_requests = false;
  }

(* Stops the server and removes the flight dump a crashing op left. *)
let with_server ?config f =
  let cfg = match config with Some c -> c | None -> test_config () in
  let t = Serve.start ~config:cfg () in
  Fun.protect
    ~finally:(fun () ->
      Serve.stop t;
      try Sys.remove (cfg.Serve.socket_path ^ ".flight.jsonl") with Sys_error _ -> ())
    (fun () -> f t)

let status r = Option.value ~default:"<none>" (Json.mem_string "status" r)
let error_kind r = Option.value ~default:"<none>" (Option.bind (Json.member "error" r) (Json.mem_string "kind"))
let result_str r = Json.encode (Json.member_exn "result" r)

let ok_reply what = function
  | Ok r -> r
  | Error e -> Alcotest.failf "%s failed: %s" what e

(* Send raw lines over one connection and read [n] newline-terminated
   replies — for malformed / pipelined traffic the typed client cannot
   produce. *)
let raw_exchange ~socket lines n =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
      let payload = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
      let b = Bytes.of_string payload in
      let rec send off =
        if off < Bytes.length b then
          send (off + Unix.write fd b off (Bytes.length b - off))
      in
      send 0;
      let buf = Buffer.create 256 in
      let chunk = Bytes.create 4096 in
      let newlines () =
        String.fold_left (fun acc c -> if c = '\n' then acc + 1 else acc) 0 (Buffer.contents buf)
      in
      while newlines () < n do
        let r = Unix.read fd chunk 0 (Bytes.length chunk) in
        if r = 0 then Alcotest.fail "connection closed before all replies arrived";
        Buffer.add_subbytes buf chunk 0 r
      done;
      Buffer.contents buf |> String.split_on_char '\n'
      |> List.filter (fun s -> s <> "")
      |> List.map Json.parse_exn)

(* Test-only ops: [block] parks a worker until released (to fill the
   queue deterministically), [boom] crashes (to exercise isolation). *)
let block_m = Mutex.create ()
let block_cv = Condition.create ()
let block_released = ref false
let block_started = Atomic.make 0

let () =
  Serve.register_op "block" (fun _ ->
      Atomic.incr block_started;
      Mutex.lock block_m;
      while not !block_released do
        Condition.wait block_cv block_m
      done;
      Mutex.unlock block_m;
      Serve.Reply_ok [ ("blocked", Json.Bool true) ]);
  Serve.register_op "boom" (fun _ -> failwith "injected test crash")

let release_blocks () =
  Mutex.lock block_m;
  block_released := true;
  Condition.broadcast block_cv;
  Mutex.unlock block_m

let reset_blocks () =
  Mutex.lock block_m;
  block_released := false;
  Mutex.unlock block_m;
  Atomic.set block_started 0

let wait_for_block_started count =
  let rec go tries =
    if Atomic.get block_started < count then begin
      if tries > 1000 then Alcotest.fail "worker never picked up the block request";
      Unix.sleepf 0.01;
      go (tries + 1)
    end
  in
  go 0

(* ------------------------------------------------------------- tests *)

let test_lifecycle () =
  let cfg = test_config () in
  let t = Serve.start ~config:cfg () in
  let reply =
    ok_reply "ping" (Serve.request ~socket:cfg.Serve.socket_path (Json.Obj [ ("op", Json.Str "ping") ]))
  in
  Alcotest.(check string) "ping ok" "ok" (status reply);
  let ops =
    Json.member_exn "ops" reply |> Json.to_list |> List.map Json.to_string
  in
  (* The daemon's op set is fixed; only this file's fake ops join it. *)
  Alcotest.(check (list string))
    "fixed op set"
    [ "flight"; "kron"; "metrics"; "ping"; "simulate"; "size"; "stats" ]
    (List.filter (fun op -> op <> "block" && op <> "boom") ops);
  Serve.stop t;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists cfg.Serve.socket_path);
  Serve.stop t

(* ------------------------------------------------------------- encoder *)

(* The encoder's formatter-based printers as they stood before integers
   took [Int.to_string] and clean strings stopped being copied: every
   daemon reply and [--json] output must keep these exact bytes. *)
let number_repr_reference f =
  if Float.is_integer f && Float.abs f <= 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let escape_reference s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let encoded_number f = Json.encode (Json.Num f)
let number_reference f = if Float.is_finite f then number_repr_reference f else "null"

let test_number_encoder_identity () =
  let check f =
    Alcotest.(check string) (Printf.sprintf "number %h" f) (number_reference f) (encoded_number f)
  in
  let around x = [ x; Float.succ x; Float.pred x; -.x; Float.succ (-.x); Float.pred (-.x) ] in
  List.iter check
    ([ 0.; -0.; Float.nan; -.Float.nan; Float.infinity; Float.neg_infinity; Float.min_float;
       Float.max_float; Float.epsilon; 5e-324; -5e-324; 1e-310; 0.5; 1.5; 2.5; -0.5 ]
    @ around 1e15 @ around 1. @ around 999_999_999_999_999.
    @ List.concat_map around [ 9007199254740992.; 9007199254740993.; 4503599627370496. ]
    @ List.init 64 (fun k -> Float.ldexp 1. k));
  let gen =
    QCheck.make ~print:(Printf.sprintf "%h")
      QCheck.Gen.(
        oneof
          [
            (* integers of every magnitude up to 2^60, both signs *)
            map2
              (fun m e -> Float.round (m *. Float.ldexp 1. e))
              (float_range (-1.) 1.) (int_range 0 60);
            (* integers near 2^53 and near 1e15 *)
            map (fun d -> 9007199254740992. +. float_of_int d) (int_range (-2000) 2000);
            map (fun d -> 1e15 +. float_of_int d) (int_range (-2000) 2000);
            map (fun d -> -1e15 +. float_of_int d) (int_range (-2000) 2000);
            (* subnormals and arbitrary bit patterns *)
            map (fun m -> Int64.float_of_bits (Int64.of_int m)) (int_range 0 (1 lsl 52 - 1));
            map Int64.float_of_bits ui64;
          ])
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:5000 ~name:"number bytes = %.0f / %.17g reference" gen (fun f ->
         encoded_number f = number_reference f))

let test_escape_identity () =
  (* Every byte alone, then random strings over all 256 bytes and over
     the bytes that need no escaping. *)
  for c = 0 to 255 do
    let s = String.make 1 (Char.chr c) in
    Alcotest.(check string) (Printf.sprintf "byte 0x%02x" c) (escape_reference s) (Json.escape s)
  done;
  let any = QCheck.Gen.(string_size ~gen:char (int_range 0 40)) in
  let clean = QCheck.Gen.(string_size ~gen:(char_range ' ' '\xff') (int_range 0 40)) in
  let gen = QCheck.make ~print:(Printf.sprintf "%S") (QCheck.Gen.oneof [ any; clean ]) in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:5000 ~name:"escape bytes = Buffer reference" gen (fun s ->
         Json.escape s = escape_reference s
         && Json.encode (Json.Str s) = "\"" ^ escape_reference s ^ "\""
         && Json.encode (Json.Obj [ (s, Json.Null) ])
            = "{\"" ^ escape_reference s ^ "\":null}"))

(* --------------------------------------------------------- strict parse *)

let rejects what text =
  match Json.parse text with
  | Ok v -> Alcotest.failf "%s: %S parsed as %s" what text (Json.encode v)
  | Error _ -> ()

let parses_to what text want =
  match Json.parse text with
  | Ok got -> Alcotest.(check string) (Printf.sprintf "%s: %S" what text) (Json.encode want) (Json.encode got)
  | Error e -> Alcotest.failf "%s: %S rejected: %s" what text e

let bits = Int64.bits_of_float

let test_strict_numbers () =
  List.iter (rejects "number")
    [ "+1"; "01"; ".5"; "1."; "-.5"; "-"; "--1"; "00"; "-01"; "1e"; "1e+"; "1.e5"; "0x10";
      "1_000"; "Infinity"; "-Infinity"; "NaN"; "[01]"; "[1.]"; {|{"a":+1}|}; {|{"a":.5}|} ];
  List.iter
    (fun (text, want) ->
      match Json.parse text with
      | Ok (Json.Num got) when Int64.equal (bits got) (bits want) -> ()
      | Ok v -> Alcotest.failf "number %S parsed as %s" text (Json.encode v)
      | Error e -> Alcotest.failf "number %S rejected: %s" text e)
    [ ("0", 0.); ("-0", -0.); ("-0.0", -0.); ("7", 7.); ("-12.25E-2", -0.1225); ("1e5", 1e5);
      ("1E+2", 100.); ("2.5e-3", 2.5e-3); ("999999999999999", 999999999999999.);
      ("123456789012345678", 123456789012345678.); ("-9007199254740993", -9007199254740993.) ]

let test_strict_hex4 () =
  List.iter (rejects "\\u escape")
    [ {|"\u00_1"|}; {|"\u0_41"|}; {|"\u12"|}; {|"\u12G4"|}; {|"\u+041"|}; {|"\u-041"|};
      {|"\u 041"|}; {|"\u"|}; {|"\u004"|} ];
  parses_to "\\u escape" {|"\u0041\u004a\u004A"|} (Json.Str "AJJ")

let test_unicode_escapes () =
  List.iter
    (fun (text, utf8) ->
      parses_to "\\u escape" text (Json.Str utf8);
      (* The decoded bytes need no escape: they re-encode as themselves. *)
      Alcotest.(check string) "re-encoded" ("\"" ^ utf8 ^ "\"") (Json.encode (Json.Str utf8)))
    [ ({|"\u00e9"|}, "\xc3\xa9"); ({|"\u00E9"|}, "\xc3\xa9");
      ({|"\u0080"|}, "\xc2\x80"); ({|"\u07ff"|}, "\xdf\xbf");
      ({|"\u0800"|}, "\xe0\xa0\x80"); ({|"\u20AC"|}, "\xe2\x82\xac");
      ({|"\uffff"|}, "\xef\xbf\xbf"); ({|"\ud83d\ude00"|}, "\xf0\x9f\x98\x80");
      ({|"\ud800\udc00"|}, "\xf0\x90\x80\x80"); ({|"\udbff\udfff"|}, "\xf4\x8f\xbf\xbf");
      ({|"a\u00e9b"|}, "a\xc3\xa9b") ]

let test_lone_surrogates () =
  List.iter (rejects "surrogate")
    [ {|"\ud800"|}; {|"\udbff"|}; {|"\udc00"|}; {|"\udfff"|}; {|"\ud800A"|};
      {|"\ud800\u0041"|}; {|"\ud800x"|};
      {|"\ud800\n"|}; {|"\udbff\udbff"|}; {|"\ude00\ud83d"|} ]

let test_raw_control_bytes () =
  for c = 0 to 0x1f do
    rejects "control byte" (Printf.sprintf "\"a%cb\"" (Char.chr c));
    rejects "control byte in a key" (Printf.sprintf "{\"%c\":1}" (Char.chr c))
  done;
  (* DEL and bytes above 0x7f are not control bytes in JSON. *)
  parses_to "raw bytes" "\"a\x7f\xc3\xa9\xffb\"" (Json.Str "a\x7f\xc3\xa9\xffb")

(* ---------------------------------------------- parse and encode, differential *)

(* Floats compared by bits, so -0 and 0 differ. *)
let rec same a b =
  match (a, b) with
  | Json.Num x, Json.Num y -> Int64.equal (bits x) (bits y)
  | Json.List l, Json.List m -> List.equal same l m
  | Json.Obj l, Json.Obj m -> List.equal (fun (k, x) (k', y) -> String.equal k k' && same x y) l m
  | _ -> a = b

(* Random valid JSON text: whitespace between every token, strings whose
   escapes (every short form and [\u] below 0x80, which both parsers
   decode alike) fall at every run boundary, clean runs from 0 bytes to
   a few hundred, raw bytes above 0x7f, and numbers in every form of the
   grammar. *)
let gen_json_text =
  let open QCheck.Gen in
  let ws = oneofl [ ""; ""; ""; " "; "\n"; "\t "; "\r\n  " ] in
  let clean_byte =
    frequency
      [ (8, char_range 'a' 'z'); (2, char_range ' ' '!'); (2, char_range '#' '[');
        (2, char_range ']' '~'); (1, char_range '\x7f' '\xff') ]
  in
  let run =
    frequency
      [ (4, string_size ~gen:clean_byte (int_range 0 9)); (2, string_size ~gen:clean_byte (int_range 7 17));
        (1, string_size ~gen:clean_byte (int_range 60 400)) ]
  in
  let escape =
    frequency
      [ (3, oneofl [ {|\"|}; {|\\|}; {|\/|}; {|\b|}; {|\f|}; {|\n|}; {|\r|}; {|\t|} ]);
        (2, map (Printf.sprintf "\\u%04x") (int_range 0 0x7f));
        (1, map (Printf.sprintf "\\u%04X") (int_range 0 0x7f)) ]
  in
  let str =
    map2
      (fun first pieces -> "\"" ^ first ^ String.concat "" pieces ^ "\"")
      run
      (list_size (int_range 0 6) (map2 ( ^ ) escape run))
  in
  let number =
    oneof
      [ map string_of_int (int_range (-1_000_000) 1_000_000);
        map string_of_int int;
        map (Printf.sprintf "%.17g") (float_range (-1e6) 1e6);
        map
          (fun b ->
            let f = Int64.float_of_bits b in
            Printf.sprintf "%.17g" (if Float.is_finite f then f else 0.5))
          ui64;
        oneofl
          [ "0"; "-0"; "0.0"; "-0.0"; "1e5"; "1E+5"; "2.5e-3"; "-1.25E-07"; "1e400"; "-1e400";
            "999999999999999"; "1000000000000000"; "123456789012345678901234567890"; "0.1e1" ] ]
  in
  let scalar = frequency [ (4, str); (4, number); (1, oneofl [ "true"; "false"; "null" ]) ] in
  let rec value depth =
    if depth = 0 then scalar
    else
      frequency
        [ (3, scalar);
          ( 1,
            map2
              (fun items w -> "[" ^ w ^ String.concat ("," ^ w) items ^ w ^ "]")
              (list_size (int_range 0 5) (map2 ( ^ ) ws (value (depth - 1))))
              ws );
          ( 1,
            map2
              (fun members w -> "{" ^ w ^ String.concat "," members ^ w ^ "}")
              (list_size (int_range 0 5)
                 (map3 (fun k w v -> k ^ w ^ ":" ^ w ^ v) str ws (value (depth - 1))))
              ws ) ]
  in
  map3 (fun a v b -> a ^ v ^ b) ws (value 3) ws

let test_parse_matches_reference () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:3000 ~name:"parse = reference parser on valid JSON"
       (QCheck.make ~print:(Printf.sprintf "%S") gen_json_text)
       (fun text ->
         match (Json.parse text, Reference.Json.parse text) with
         | Ok a, Ok b -> same a b
         | Error e, _ -> QCheck.Test.fail_reportf "rejected: %s" e
         | _, Error e -> QCheck.Test.fail_reportf "reference rejected: %s" e))

(* Random trees: strings over all 256 bytes, numbers of every bit
   pattern (NaN and the infinities included), nesting and empty
   containers. *)
let gen_json_tree =
  let open QCheck.Gen in
  let str = string_size ~gen:char (int_range 0 24) in
  let num =
    oneof
      [ map Int64.float_of_bits ui64; map float_of_int (int_range (-100000) 100000);
        oneofl [ 0.; -0.; Float.nan; Float.infinity; Float.neg_infinity; 1e15; -1e15; 1e15 +. 2. ] ]
  in
  let scalar =
    frequency
      [ (3, map (fun s -> Json.Str s) str); (3, map (fun f -> Json.Num f) num);
        (1, oneofl [ Json.Null; Json.Bool true; Json.Bool false ]) ]
  in
  let rec tree depth =
    if depth = 0 then scalar
    else
      frequency
        [ (3, scalar); (1, map (fun l -> Json.List l) (list_size (int_range 0 5) (tree (depth - 1))));
          (1, map (fun l -> Json.Obj l) (list_size (int_range 0 5) (pair str (tree (depth - 1))))) ]
  in
  tree 4

let test_encode_matches_reference () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:3000 ~name:"encode = reference printer"
       (QCheck.make ~print:Reference.Json.encode gen_json_tree)
       (fun v ->
         let want = Reference.Json.encode v in
         Json.encode v = want && Bytes.to_string (Json.encode_line v) = want ^ "\n"))

let test_size_bitwise () =
  with_server (fun t ->
      let socket = Serve.socket_path t in
      let reply = ok_reply "size" (Serve.request ~socket (size_request ~id:1)) in
      Alcotest.(check string) "status ok" "ok" (status reply);
      Alcotest.(check string) "id echoed" "1" (Json.encode (Json.member_exn "id" reply));
      Alcotest.(check string) "bitwise vs direct Sizing.run" (expected_result ()) (result_str reply))

(* The minor words of one warm [size] hit on the perfbench-shaped
   three-bus spec, in process: the request parse, the spec parse, the
   cache hit and the encoded reply line.  The same steps took 10,041
   words per hit before the one-pass codecs and the payload-built health
   report; the bound is 60% of that. *)
let warm_hit_word_bound = 6000.

let test_warm_hit_allocation () =
  let line =
    Json.encode
      (Json.Obj
         [ ("id", Json.Num 1.); ("op", Json.Str "size"); ("spec", Json.Str Test_specs.three_bus);
           ("budget", Json.Num 64.); ("max_states", Json.Num 40.) ])
  in
  let hit () =
    let req = Json.parse_exn line in
    let _, traffic =
      match Spec_parser.parse (Option.get (Json.mem_string "spec" req)) with
      | Ok a -> a
      | Error e -> Alcotest.failf "spec: %s" e
    in
    let budget = Option.get (Json.mem_int "budget" req) in
    let max_states = Option.get (Json.mem_int "max_states" req) in
    let r = Sizing.run { (Sizing.default_config ~budget) with Sizing.max_states } traffic in
    let reply =
      Json.Obj
        [ ("id", Json.member_exn "id" req); ("op", Json.Str "size"); ("status", Json.Str "ok");
          ("result", Serve.sizing_core_json traffic r);
          ("health", Bufsize_resilience.Resilience.health_json r.Sizing.health);
          ("solver_stats", Serve.solver_stats_json r) ]
    in
    (r.Sizing.cache_hit, Json.encode_line reply)
  in
  ignore (hit ());
  Alcotest.(check bool) "warmed: a hit" true (fst (hit ()));
  let n = 100 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (hit ()))
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  if words > warm_hit_word_bound then
    Alcotest.failf "a warm hit allocates %.0f minor words, above the bound of %.0f" words
      warm_hit_word_bound

let test_typed_errors () =
  with_server (fun t ->
      let socket = Serve.socket_path t in
      let oversized_line =
        Printf.sprintf {|{"id":5,"op":"size","pad":%S}|} (String.make 600 'x')
      in
      let replies =
        raw_exchange ~socket
          [ {|{"id":1,|}; {|{"id":2,"op":"nope"}|}; oversized_line ]
          3
      in
      match replies with
      | [ r1; r2; r3 ] ->
          Alcotest.(check string) "malformed is error" "error" (status r1);
          Alcotest.(check string) "malformed kind" "bad_request" (error_kind r1);
          Alcotest.(check string) "malformed id null" "null" (Json.encode (Json.member_exn "id" r1));
          Alcotest.(check string) "unknown op is error" "error" (status r2);
          Alcotest.(check string) "unknown op kind" "bad_request" (error_kind r2);
          Alcotest.(check string) "unknown op id echoed" "2" (Json.encode (Json.member_exn "id" r2));
          Alcotest.(check string) "oversized kind" "oversized" (error_kind r3);
          Alcotest.(check string) "oversized id null" "null" (Json.encode (Json.member_exn "id" r3))
      | rs -> Alcotest.failf "expected 3 replies, got %d" (List.length rs))

(* Lines that are not JSON by RFC 8259 (but that a lax parser takes)
   each get a typed bad_request, with a null id; the connection then
   still serves. *)
let test_non_json_lines () =
  with_server (fun t ->
      let socket = Serve.socket_path t in
      let bad =
        [ {|{"id":1,"op":"size","arch":"fig1","budget":+1}|}; {|{"id":2,"op":"ping","x":01}|};
          {|{"id":3,"op":"ping","x":.5}|}; {|{"id":4,"op":"ping","x":1.}|};
          {|{"id":5,"op":"ping","x":"\u00_1"}|}; {|{"id":6,"op":"ping","x":"\ud800"}|};
          "{\"id\":7,\"op\":\"ping\",\"x\":\"a\001b\"}" ]
      in
      let replies = raw_exchange ~socket (bad @ [ {|{"id":8,"op":"ping"}|} ]) (List.length bad + 1) in
      List.iteri
        (fun i r ->
          if i < List.length bad then begin
            let what = List.nth bad i in
            Alcotest.(check string) (what ^ ": kind") "bad_request" (error_kind r);
            Alcotest.(check string) (what ^ ": id") "null" (Json.encode (Json.member_exn "id" r))
          end
          else Alcotest.(check string) "ping after" "ok" (status r))
        replies)

(* Request lines that arrive in pieces: a [size] request cut in three
   writes, two lines and the head of a third in one write, and an
   oversized line whose head fits under the cap (one [oversized] reply,
   the rest of it skipped).  The pauses let the daemon read each piece
   on its own. *)
let test_lines_across_reads () =
  with_server (fun t ->
      let socket = Serve.socket_path t in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX socket);
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
          let send s =
            let b = Bytes.of_string s in
            let rec go off =
              if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
            in
            go 0;
            Unix.sleepf 0.05
          in
          let size = Json.encode (size_request ~id:1) in
          let third = String.length size / 3 in
          send (String.sub size 0 third);
          send (String.sub size third third);
          send (String.sub size (2 * third) (String.length size - (2 * third)) ^ "\n");
          send "{\"id\":2,\"op\":\"ping\"}\n{\"id\":3,\"op\":\"ping\"}\n{\"id\":4,";
          send "\"op\":\"ping\"}\n";
          send ("{\"id\":5,\"pad\":\"" ^ String.make 400 'x');
          send (String.make 400 'x');
          send "\"}\n{\"id\":6,\"op\":\"ping\"}\n";
          let buf = Buffer.create 1024 in
          let chunk = Bytes.create 4096 in
          let lines () = List.filter (( <> ) "") (String.split_on_char '\n' (Buffer.contents buf)) in
          while List.length (lines ()) < 6 do
            let r = Unix.read fd chunk 0 (Bytes.length chunk) in
            if r = 0 then Alcotest.fail "connection closed before all replies arrived";
            Buffer.add_subbytes buf chunk 0 r
          done;
          (* Pings are answered inline and the size by a worker, so the
             replies are matched by id, not by order. *)
          let replies = List.map Json.parse_exn (lines ()) in
          let by_id id = List.filter (fun r -> Json.encode (Json.member_exn "id" r) = id) replies in
          (match by_id "1" with
          | [ r ] -> Alcotest.(check string) "size in three pieces" (expected_result ()) (result_str r)
          | _ -> Alcotest.fail "no single reply to the size request");
          List.iter
            (fun id ->
              match by_id id with
              | [ r ] -> Alcotest.(check string) ("ping " ^ id) "ok" (status r)
              | _ -> Alcotest.failf "no single reply to ping %s" id)
            [ "2"; "3"; "4"; "6" ];
          match by_id "null" with
          | [ r ] -> Alcotest.(check string) "oversized in pieces" "oversized" (error_kind r)
          | rs -> Alcotest.failf "expected one oversized reply, got %d" (List.length rs)))

(* A budget below the buffer count is the client's error: bad_request,
   with the message the CLI prints after "error: ". *)
let test_budget_below_buffers () =
  with_server (fun t ->
      let socket = Serve.socket_path t in
      let req =
        match size_request ~id:6 with
        | Json.Obj kvs ->
            Json.Obj (List.map (fun (k, v) -> if k = "budget" then (k, Json.Num 1.) else (k, v)) kvs)
        | _ -> assert false
      in
      let reply = ok_reply "tiny-budget size" (Serve.request ~socket req) in
      Alcotest.(check string) "kind" "bad_request" (error_kind reply);
      Alcotest.(check (option string))
        "message"
        (Some "budget 1 words is below the 4 buffers to size (each needs at least one word)")
        (Option.bind (Json.member "error" reply) (Json.mem_string "message")))

(* A kron cross fraction outside [0, 1] is the client's error too, with
   the message [bufsize kron --cross 1.5] prints. *)
let test_kron_bad_cross () =
  with_server (fun t ->
      let socket = Serve.socket_path t in
      let req =
        Json.Obj [ ("id", Json.Num 7.); ("op", Json.Str "kron"); ("cross", Json.Num 1.5) ]
      in
      let reply = ok_reply "cross 1.5 kron" (Serve.request ~socket req) in
      Alcotest.(check string) "kind" "bad_request" (error_kind reply);
      Alcotest.(check (option string))
        "message" (Some "Monolithic: cross_fraction must be in [0, 1] (got 1.5)")
        (Option.bind (Json.member "error" reply) (Json.mem_string "message")))

let test_deadline_zero () =
  with_server (fun t ->
      let socket = Serve.socket_path t in
      let req =
        match size_request ~id:4 with
        | Json.Obj kvs -> Json.Obj (kvs @ [ ("deadline_ms", Json.Num 0.) ])
        | _ -> assert false
      in
      let reply = ok_reply "deadline-zero size" (Serve.request ~socket req) in
      Alcotest.(check string) "degraded" "degraded" (status reply);
      let reason = Option.value ~default:"" (Json.mem_string "reason" reply) in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "reason mentions the deadline (%S)" reason)
        true (contains reason "deadline"))

let test_crash_isolation () =
  with_server (fun t ->
      let socket = Serve.socket_path t in
      let boom =
        ok_reply "boom" (Serve.request ~socket (Json.Obj [ ("id", Json.Num 7.); ("op", Json.Str "boom") ]))
      in
      Alcotest.(check string) "boom is error" "error" (status boom);
      Alcotest.(check string) "boom kind" "internal_error" (error_kind boom);
      let after = ok_reply "size after crash" (Serve.request ~socket (size_request ~id:8)) in
      Alcotest.(check string) "server survived" "ok" (status after);
      Alcotest.(check string) "answer still bitwise" (expected_result ()) (result_str after))

let test_overload_and_retry () =
  reset_blocks ();
  let cfg = { (test_config ()) with Serve.queue_depth = 1; workers = 1 } in
  with_server ~config:cfg (fun t ->
      let socket = Serve.socket_path t in
      Fun.protect ~finally:release_blocks (fun () ->
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              Unix.connect fd (Unix.ADDR_UNIX socket);
              Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
              let send s =
                let b = Bytes.of_string s in
                let rec go off =
                  if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
                in
                go 0
              in
              let read_reply =
                let buf = Buffer.create 256 in
                fun () ->
                  let chunk = Bytes.create 4096 in
                  let line_done () = String.contains (Buffer.contents buf) '\n' in
                  while not (line_done ()) do
                    let r = Unix.read fd chunk 0 (Bytes.length chunk) in
                    if r = 0 then Alcotest.fail "connection closed mid-test";
                    Buffer.add_subbytes buf chunk 0 r
                  done;
                  let s = Buffer.contents buf in
                  let i = String.index s '\n' in
                  Buffer.clear buf;
                  Buffer.add_string buf (String.sub s (i + 1) (String.length s - i - 1));
                  Json.parse_exn (String.sub s 0 i)
              in
              (* Park the single worker, then fill the one queue slot and
                 pipeline a size request behind it — per-connection line
                 ordering guarantees the size request sees a full queue. *)
              send {|{"id":1,"op":"block"}|};
              send "\n";
              wait_for_block_started 1;
              send ({|{"id":2,"op":"block"}|} ^ "\n"
                   ^ Json.encode (size_request ~id:3) ^ "\n");
              let rejected = read_reply () in
              Alcotest.(check string) "rejected id" "3" (Json.encode (Json.member_exn "id" rejected));
              Alcotest.(check string) "rejected status" "error" (status rejected);
              Alcotest.(check string) "rejected kind" "overloaded" (error_kind rejected);
              let hint =
                Option.value ~default:(-1.)
                  (Option.bind (Json.member "error" rejected) (Json.mem_number "retry_after_ms"))
              in
              Alcotest.(check bool) "retry-after hint present" true (hint >= 1.);
              (* Liveness: ping is answered inline even with the worker
                 parked and the queue full. *)
              let ping =
                ok_reply "ping under load" (Serve.request ~socket (Json.Obj [ ("op", Json.Str "ping") ]))
              in
              Alcotest.(check string) "ping ok under load" "ok" (status ping);
              (* Retry recovers once the congestion clears. *)
              let releaser =
                Domain.spawn (fun () ->
                    Unix.sleepf 0.02;
                    release_blocks ())
              in
              let retried =
                ok_reply "retried size"
                  (Serve.request ~attempts:50 ~base_delay_ms:10. ~seed:7 ~socket
                     (size_request ~id:9))
              in
              Domain.join releaser;
              Alcotest.(check string) "retry recovered" "ok" (status retried);
              Alcotest.(check string) "retried answer bitwise" (expected_result ())
                (result_str retried);
              (* The parked requests were drained, not dropped. *)
              let b1 = read_reply () and b2 = read_reply () in
              let ids = List.sort compare [ Json.encode (Json.member_exn "id" b1);
                                            Json.encode (Json.member_exn "id" b2) ] in
              Alcotest.(check (list string)) "both blocks replied" [ "1"; "2" ] ids;
              Alcotest.(check string) "block 1 ok" "ok" (status b1);
              Alcotest.(check string) "block 2 ok" "ok" (status b2))))

let test_concurrent_bitwise () =
  with_server (fun t ->
      let socket = Serve.socket_path t in
      let expected = expected_result () in
      let domains =
        Array.init 4 (fun i ->
            Domain.spawn (fun () -> Serve.request ~socket (size_request ~id:(10 + i))))
      in
      Array.iteri
        (fun i d ->
          let reply = ok_reply (Printf.sprintf "client %d" i) (Domain.join d) in
          Alcotest.(check string) (Printf.sprintf "client %d ok" i) "ok" (status reply);
          Alcotest.(check string)
            (Printf.sprintf "client %d id" i)
            (string_of_int (10 + i))
            (Json.encode (Json.member_exn "id" reply));
          Alcotest.(check string) (Printf.sprintf "client %d bitwise" i) expected (result_str reply))
        domains)

(* A cold cache answers miss, then hit, hit, with the same result bytes.
   A hit ran no solver, so its replayed diagnostics took no time and
   link to no span. *)
let test_cache_hit_reported () =
  Bufsize_numeric.Solve_cache.clear_all ();
  with_server (fun t ->
      let socket = Serve.socket_path t in
      let replies =
        List.map
          (fun id -> ok_reply "size" (Serve.request ~socket (size_request ~id)))
          [ 1; 2; 3 ]
      in
      let cache r = Json.mem_string "cache" (Json.member_exn "solver_stats" r) in
      Alcotest.(check (list (option string)))
        "miss, hit, hit"
        [ Some "miss"; Some "hit"; Some "hit" ]
        (List.map cache replies);
      let first = result_str (List.hd replies) in
      List.iter
        (fun r -> Alcotest.(check string) "same result bytes" first (result_str r))
        replies;
      let diagnostics r =
        match Json.member_exn "diagnostics" (Json.member_exn "health" r) with
        | Json.List ds -> List.map (Json.member_exn "diagnostic") ds
        | _ -> Alcotest.fail "health.diagnostics not a list"
      in
      List.iter
        (fun r ->
          List.iter
            (fun d ->
              Alcotest.(check (option (float 0.))) "hit: wall_ms 0" (Some 0.)
                (Json.mem_number "wall_ms" d);
              Alcotest.(check string) "hit: no span" "null"
                (Json.encode (Json.member_exn "span" d)))
            (diagnostics r))
        (List.tl replies))

(* ------------------------------------------------- introspection tests *)

let kron_request ~id ?(telemetry = false) () =
  Json.Obj
    ([
       ("id", Json.Num (float_of_int id));
       ("op", Json.Str "kron");
       ("kx", Json.Num 3.);
       ("ky", Json.Num 3.);
     ]
    @ if telemetry then [ ("telemetry", Json.Bool true) ] else [])

let int_field what name r =
  match Json.mem_int name r with
  | Some n -> n
  | None -> Alcotest.failf "%s: no int field %s in %s" what name (Json.encode r)

let test_stats_op () =
  with_server (fun t ->
      let socket = Serve.socket_path t in
      for i = 1 to 3 do
        ignore (ok_reply "size for stats" (Serve.request ~socket (size_request ~id:i)))
      done;
      let boom =
        ok_reply "boom for stats" (Serve.request ~socket (Json.Obj [ ("op", Json.Str "boom") ]))
      in
      Alcotest.(check string) "boom failed" "error" (status boom);
      let stats =
        ok_reply "stats" (Serve.request ~socket (Json.Obj [ ("op", Json.Str "stats") ]))
      in
      Alcotest.(check string) "stats ok" "ok" (status stats);
      let accepted = int_field "stats" "accepted" stats in
      let completed = int_field "stats" "completed" stats in
      let failed = int_field "stats" "failed" stats in
      let in_flight = int_field "stats" "in_flight" stats in
      Alcotest.(check int) "conservation" accepted (completed + failed + in_flight);
      Alcotest.(check int) "quiescent" 0 in_flight;
      Alcotest.(check int) "three sizes completed + boom failed" 4 (completed + failed);
      Alcotest.(check int) "one failure" 1 failed;
      let ops = Json.member_exn "ops" stats in
      let size_stats = Json.member_exn "size" ops in
      Alcotest.(check int) "per-op size completed" 3 (int_field "ops.size" "completed" size_stats);
      let boom_stats = Json.member_exn "boom" ops in
      Alcotest.(check int) "per-op boom failed" 1 (int_field "ops.boom" "failed" boom_stats);
      Alcotest.(check bool) "uptime present" true
        (Option.value ~default:(-1.) (Json.mem_number "uptime_s" stats) >= 0.);
      Alcotest.(check int) "workers echoed" 2 (int_field "stats" "workers" stats))

let strip_telemetry = function
  | Json.Obj kvs -> Json.Obj (List.filter (fun (k, _) -> k <> "telemetry") kvs)
  | v -> v

let test_telemetry_strip_parity () =
  with_server (fun t ->
      let socket = Serve.socket_path t in
      let plain = ok_reply "plain kron" (Serve.request ~socket (kron_request ~id:21 ())) in
      (* The daemon reads the request's model back: (kx + 1) (ky + 1)
         (bridge + 1) joint states, the bridge defaulting to ky. *)
      Alcotest.(check int) "kron states of kx = ky = 3" 64 (int_field "plain kron" "states" plain);
      let tele =
        ok_reply "telemetry kron" (Serve.request ~socket (kron_request ~id:21 ~telemetry:true ()))
      in
      Alcotest.(check string) "telemetry only appends: strip restores the plain reply"
        (Json.encode plain)
        (Json.encode (strip_telemetry tele));
      let tm = Json.member_exn "telemetry" tele in
      Alcotest.(check bool) "request_id positive" true (int_field "telemetry" "request_id" tm > 0);
      Alcotest.(check bool) "queue_ms nonnegative" true
        (Option.value ~default:(-1.) (Json.mem_number "queue_ms" tm) >= 0.);
      Alcotest.(check bool) "service_ms nonnegative" true
        (Option.value ~default:(-1.) (Json.mem_number "service_ms" tm) >= 0.);
      (match Json.member_exn "spans" tm with
      | Json.List spans ->
          Alcotest.(check bool) "captured at least the request span" true (spans <> []);
          List.iter
            (fun s ->
              ignore (int_field "span" "id" s);
              ignore (Json.member_exn "name" s))
            spans
      | _ -> Alcotest.fail "telemetry.spans not a list");
      ignore (Json.member_exn "cache" tm);
      (* A size request's telemetry carries the handler's solver health. *)
      let tele_size =
        match size_request ~id:22 with
        | Json.Obj kvs ->
            ok_reply "telemetry size"
              (Serve.request ~socket (Json.Obj (kvs @ [ ("telemetry", Json.Bool true) ])))
        | _ -> assert false
      in
      let tm2 = Json.member_exn "telemetry" tele_size in
      match Json.member_exn "solvers" tm2 with
      | Json.Obj _ -> ()
      | v -> Alcotest.failf "telemetry.solvers not an object: %s" (Json.encode v))

let test_metrics_op () =
  with_server (fun t ->
      let socket = Serve.socket_path t in
      (* Latency histograms are process-global (registered by name), so
         earlier tests' requests are already in them: assert the delta. *)
      let size_count () =
        let m =
          ok_reply "metrics json" (Serve.request ~socket (Json.Obj [ ("op", Json.Str "metrics") ]))
        in
        Alcotest.(check string) "metrics ok" "ok" (status m);
        match Json.member "serve.latency_ms.size" (Json.member_exn "histograms" (Json.member_exn "metrics" m)) with
        | Some h -> (m, int_field "latency histogram" "count" h)
        | None -> (m, 0)
      in
      let _, before = size_count () in
      ignore (ok_reply "warm size" (Serve.request ~socket (size_request ~id:31)));
      let m, after = size_count () in
      Alcotest.(check int) "one more size observation" (before + 1) after;
      let size_h =
        Json.member_exn "serve.latency_ms.size"
          (Json.member_exn "histograms" (Json.member_exn "metrics" m))
      in
      List.iter
        (fun q ->
          Alcotest.(check bool) (q ^ " present") true
            (Option.is_some (Json.mem_number q size_h)))
        [ "p50"; "p95"; "p99" ];
      let prom =
        ok_reply "metrics prometheus"
          (Serve.request ~socket
             (Json.Obj [ ("op", Json.Str "metrics"); ("prometheus", Json.Bool true) ]))
      in
      let text =
        match Json.member "text" prom with
        | Some (Json.Str s) -> s
        | _ -> Alcotest.fail "prometheus reply has no text member"
      in
      Alcotest.(check (option string)) "content type" (Some "text/plain; version=0.0.4")
        (Json.mem_string "content_type" prom);
      let has_line pred =
        List.exists pred (String.split_on_char '\n' text)
      in
      Alcotest.(check bool) "exposition has the size histogram" true
        (has_line (fun l -> l = "# TYPE serve_latency_ms_size histogram"));
      Alcotest.(check bool) "exposition has cumulative buckets" true
        (has_line (fun l ->
             String.length l > 34
             && String.sub l 0 34 = "serve_latency_ms_size_bucket{le=\"+")))

let test_flight_op_and_cap () =
  (* flight_cap 8 in the test config; send more than that. *)
  with_server (fun t ->
      let socket = Serve.socket_path t in
      for i = 1 to 12 do
        ignore (ok_reply "kron for flight" (Serve.request ~socket (kron_request ~id:i ())))
      done;
      let fl =
        ok_reply "flight" (Serve.request ~socket (Json.Obj [ ("op", Json.Str "flight") ]))
      in
      Alcotest.(check string) "flight ok" "ok" (status fl);
      Alcotest.(check int) "capacity echoed" 8 (int_field "flight" "capacity" fl);
      Alcotest.(check int) "all pushes counted" 12 (int_field "flight" "recorded" fl);
      match Json.member_exn "records" fl with
      | Json.List records ->
          Alcotest.(check int) "ring kept exactly capacity records" 8 (List.length records);
          let rids = List.map (int_field "record" "request_id") records in
          Alcotest.(check (list int)) "newest records, oldest first" (List.sort compare rids) rids;
          List.iter
            (fun r ->
              Alcotest.(check (option string)) "op recorded" (Some "kron") (Json.mem_string "op" r);
              Alcotest.(check (option string)) "outcome ok" (Some "ok")
                (Json.mem_string "outcome" r))
            records
      | _ -> Alcotest.fail "flight.records not a list")

let test_internal_error_dumps_flight () =
  let cfg = test_config () in
  let dump = cfg.Serve.socket_path ^ ".flight.jsonl" in
  with_server ~config:cfg (fun t ->
      let socket = Serve.socket_path t in
      ignore (ok_reply "kron before boom" (Serve.request ~socket (kron_request ~id:41 ())));
      Alcotest.(check bool) "no dump before a crash" false (Sys.file_exists dump);
      let boom =
        ok_reply "boom" (Serve.request ~socket (Json.Obj [ ("id", Json.Num 42.); ("op", Json.Str "boom") ]))
      in
      Alcotest.(check string) "boom kind" "internal_error" (error_kind boom);
      (* The dump is written before the error reply, so it exists now. *)
      Alcotest.(check bool) "dump written on internal_error" true (Sys.file_exists dump);
      let ic = open_in dump in
      let lines = In_channel.input_lines ic in
      close_in ic;
      Sys.remove dump;
      let records = List.map Json.parse_exn (List.filter (fun l -> l <> "") lines) in
      Alcotest.(check int) "dump holds both requests" 2 (List.length records);
      let last = List.nth records 1 in
      Alcotest.(check (option string)) "crash recorded" (Some "internal_error")
        (Json.mem_string "outcome" last);
      Alcotest.(check (option string)) "crashing op recorded" (Some "boom")
        (Json.mem_string "op" last))

(* ------------------------------------------------------------ op table *)

let ops_of_ping what socket =
  let reply = ok_reply what (Serve.request ~socket (Json.Obj [ ("op", Json.Str "ping") ])) in
  Json.member_exn "ops" reply |> Json.to_list |> List.map Json.to_string

let stats_ops what socket =
  let stats = ok_reply what (Serve.request ~socket (Json.Obj [ ("op", Json.Str "stats") ])) in
  match Json.member_exn "ops" stats with
  | Json.Obj per_op -> List.map (fun (op, v) -> (op, int_field op "accepted" v)) per_op
  | v -> Alcotest.failf "%s: stats.ops not an object: %s" what (Json.encode v)

(* A field the op does not take is refused like an unknown op: a
   bad_request that names it and lists the op's fields, the request
   neither queued nor counted. *)
let test_unknown_fields () =
  with_server (fun t ->
      let socket = Serve.socket_path t in
      let replies =
        raw_exchange ~socket
          [ {|{"id":1,"op":"size","arch":"fig1","budgte":40}|}; {|{"id":2,"op":"ping","x":1}|};
            {|{"id":3,"op":"kron","dims":[3,3]}|} ]
          3
      in
      let message r =
        Option.value ~default:"" (Option.bind (Json.member "error" r) (Json.mem_string "message"))
      in
      List.iter2
        (fun r want ->
          Alcotest.(check string) "kind" "bad_request" (error_kind r);
          Alcotest.(check string) "message" want (message r))
        (List.sort
           (fun a b -> compare (Json.mem_int "id" a) (Json.mem_int "id" b))
           replies)
        [
          {|unknown field "budgte" (size takes id, op, deadline_ms, telemetry, arch, spec, budget, max_states)|};
          {|unknown field "x" (ping takes id, op, deadline_ms, telemetry)|};
          {|unknown field "dims" (kron takes id, op, deadline_ms, telemetry, kx, ky, bridge, lambda_x, lambda_y, cross, mu_x, mu_y)|};
        ];
      Alcotest.(check (list (pair string int))) "nothing admitted" [] (stats_ops "stats" socket))

(* Each server counts its own requests. *)
let test_two_servers_stats () =
  with_server (fun a ->
      with_server (fun b ->
          let sa = Serve.socket_path a and sb = Serve.socket_path b in
          for i = 1 to 2 do
            ignore (ok_reply "size on a" (Serve.request ~socket:sa (size_request ~id:i)))
          done;
          ignore (ok_reply "kron on b" (Serve.request ~socket:sb (kron_request ~id:3 ())));
          Alcotest.(check (list (pair string int))) "server a" [ ("size", 2) ] (stats_ops "a" sa);
          Alcotest.(check (list (pair string int))) "server b" [ ("kron", 1) ] (stats_ops "b" sb)))

(* A running server keeps the op table it started with. *)
let test_register_after_start () =
  with_server (fun a ->
      let sa = Serve.socket_path a in
      Serve.register_op "late" (fun _ -> Serve.Reply_ok []);
      Alcotest.(check bool) "not on the running server" false
        (List.mem "late" (ops_of_ping "ping a" sa));
      let refused =
        ok_reply "late on a" (Serve.request ~socket:sa (Json.Obj [ ("op", Json.Str "late") ]))
      in
      Alcotest.(check string) "unknown there" "bad_request" (error_kind refused);
      with_server (fun b ->
          let sb = Serve.socket_path b in
          Alcotest.(check bool) "on the next server" true
            (List.mem "late" (ops_of_ping "ping b" sb));
          let served =
            ok_reply "late on b" (Serve.request ~socket:sb (Json.Obj [ ("op", Json.Str "late") ]))
          in
          Alcotest.(check string) "served there" "ok" (status served)))

let cli = Filename.concat (Filename.concat ".." "bin") "bufsize_cli.exe"

(* [bufsize request] sends only the fields its op takes: its defaults (a
   [size] of the [small] demo), [--op kron] and [--op metrics
   --prometheus] are all answered. *)
let test_cli_request_fields () =
  with_server (fun t ->
      let socket = Serve.socket_path t in
      let out = Filename.temp_file "bufsize-request" ".out" in
      Fun.protect
        ~finally:(fun () -> Sys.remove out)
        (fun () ->
          List.iter
            (fun (flags, starts) ->
              let cmd =
                Printf.sprintf "%s request --socket %s %s > %s" (Filename.quote cli)
                  (Filename.quote socket) flags (Filename.quote out)
              in
              Alcotest.(check int) (flags ^ ": exit code") 0 (Sys.command cmd);
              let text = In_channel.with_open_bin out In_channel.input_all in
              Alcotest.(check string) (flags ^ ": output") starts
                (String.sub text 0 (Int.min (String.length text) (String.length starts))))
            [
              ("", {|{"id":1,"op":"size","status":"ok"|});
              ("--op kron", {|{"id":1,"op":"kron","status":"ok"|});
              ("--op metrics --prometheus", "# TYPE ");
            ]))

(* Every count in the config must be at least 1: [start] refuses the
   config before binding anything. *)
let test_start_rejects (field, value, set) =
  let cfg = set (test_config ()) value in
  (match Serve.start ~config:cfg () with
  | t ->
      Serve.stop t;
      Alcotest.failf "start accepted %s = %d" field value
  | exception Invalid_argument msg ->
      Alcotest.(check string) "rejection names the field"
        (Printf.sprintf "Serve.start: %s must be at least 1, got %d" field value)
        msg);
  Alcotest.(check bool) "nothing bound" false (Sys.file_exists cfg.Serve.socket_path)

let rejected_fields =
  [
    ("workers", 0, fun c v -> { c with Serve.workers = v });
    ("queue_depth", -3, fun c v -> { c with Serve.queue_depth = v });
    ("max_request_bytes", -5, fun c v -> { c with Serve.max_request_bytes = v });
    ("flight_cap", 0, fun c v -> { c with Serve.flight_cap = v });
  ]

(* The CLI turns the same rejection into a usage error, exit 2, without
   starting a daemon. *)
let test_cli_rejects_bad_flags () =
  List.iter
    (fun flags ->
      let cmd =
        Printf.sprintf "%s serve --socket %s %s 2>/dev/null" (Filename.quote cli)
          (Filename.quote (Serve.temp_socket_path ()))
          flags
      in
      Alcotest.(check int) (flags ^ ": exit code") 2 (Sys.command cmd))
    [ "--workers 0"; "--queue=-3 --max-request=-5"; "--flight-cap 0" ]

let () =
  Alcotest.run "serve"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "start, ping, stop, unlink" `Quick test_lifecycle;
          Alcotest.test_case "crash isolation" `Quick test_crash_isolation;
        ] );
      ( "config",
        List.map
          (fun ((field, _, _) as case) ->
            Alcotest.test_case ("start rejects " ^ field ^ " < 1") `Quick (fun () ->
                test_start_rejects case))
          rejected_fields
        @ [ Alcotest.test_case "cli bad flags exit 2" `Quick test_cli_rejects_bad_flags ] );
      ( "encoder",
        [
          Alcotest.test_case "numbers byte-identical to the printf reference" `Quick
            test_number_encoder_identity;
          Alcotest.test_case "escape byte-identical to the buffer reference" `Quick
            test_escape_identity;
          Alcotest.test_case "encode = reference printer (property)" `Quick
            test_encode_matches_reference;
        ] );
      ( "parser",
        [
          Alcotest.test_case "strict: non-JSON numbers rejected" `Quick test_strict_numbers;
          Alcotest.test_case "strict: \\u takes four hex digits" `Quick test_strict_hex4;
          Alcotest.test_case "\\u escapes decode to UTF-8" `Quick test_unicode_escapes;
          Alcotest.test_case "strict: lone surrogates rejected" `Quick test_lone_surrogates;
          Alcotest.test_case "strict: raw control bytes rejected" `Quick test_raw_control_bytes;
          Alcotest.test_case "parse = reference parser (property)" `Quick
            test_parse_matches_reference;
        ] );
      ( "parity",
        [
          Alcotest.test_case "size bitwise vs library" `Quick test_size_bitwise;
          Alcotest.test_case "concurrent clients bitwise" `Quick test_concurrent_bitwise;
          Alcotest.test_case "cache miss, hit, hit" `Quick test_cache_hit_reported;
          Alcotest.test_case "warm hit allocation budget" `Quick test_warm_hit_allocation;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "typed errors" `Quick test_typed_errors;
          Alcotest.test_case "non-JSON lines get bad_request" `Quick test_non_json_lines;
          Alcotest.test_case "lines split across reads" `Quick test_lines_across_reads;
          Alcotest.test_case "deadline zero" `Quick test_deadline_zero;
          Alcotest.test_case "budget below buffers" `Quick test_budget_below_buffers;
          Alcotest.test_case "kron cross fraction above 1" `Quick test_kron_bad_cross;
          Alcotest.test_case "overload and retry" `Quick test_overload_and_retry;
        ] );
      ( "introspection",
        [
          Alcotest.test_case "stats counters conserve" `Quick test_stats_op;
          Alcotest.test_case "telemetry strip parity" `Quick test_telemetry_strip_parity;
          Alcotest.test_case "metrics json and prometheus" `Quick test_metrics_op;
          Alcotest.test_case "flight ring and capacity" `Quick test_flight_op_and_cap;
          Alcotest.test_case "internal_error dumps flight" `Quick
            test_internal_error_dumps_flight;
        ] );
      ( "op table",
        [
          Alcotest.test_case "unknown fields get bad_request" `Quick test_unknown_fields;
          Alcotest.test_case "two servers keep separate stats" `Quick test_two_servers_stats;
          Alcotest.test_case "register_op takes effect at the next start" `Quick
            test_register_after_start;
          Alcotest.test_case "cli request sends only the op's fields" `Quick
            test_cli_request_fields;
        ] );
    ]
