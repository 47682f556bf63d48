(* Former library code kept verbatim as references for the differential
   tests: the JSON parser and printer, the spec tokenizer and parser, the
   per-bus rate aggregation of [Traffic.create] and the largest-remainder
   apportionment as they stood before their one-pass rewrite, and the
   occupation-measure form of a price-path answer block.  Only the module
   paths are adapted, and the aggregation reads the library's routed
   hops. *)

module Json = struct
  open Bufsize_json.Json

  exception Bad of string

  let default_max_depth = 256

  let parse ?(max_depth = default_max_depth) (s : string) : (t, string) result =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some d when d = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" c)
    in
    let literal word v =
      let m = String.length word in
      if !pos + m <= n && String.sub s !pos m = word then begin
        pos := !pos + m;
        v
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let parse_hex4 () =
      if !pos + 4 > n then fail "truncated \\u escape";
      let h = String.sub s !pos 4 in
      pos := !pos + 4;
      match int_of_string_opt ("0x" ^ h) with
      | Some c -> c
      | None -> fail "bad \\u escape"
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec loop () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
            advance ();
            (match peek () with
            | Some '"' -> Buffer.add_char b '"'
            | Some '\\' -> Buffer.add_char b '\\'
            | Some '/' -> Buffer.add_char b '/'
            | Some 'b' -> Buffer.add_char b '\b'
            | Some 'f' -> Buffer.add_char b '\012'
            | Some 'n' -> Buffer.add_char b '\n'
            | Some 'r' -> Buffer.add_char b '\r'
            | Some 't' -> Buffer.add_char b '\t'
            | Some 'u' ->
                advance ();
                let c = parse_hex4 () in
                (* This system only emits code points below 0x80 via \u, so
                   a raw byte is enough here. *)
                if c < 0x80 then Buffer.add_char b (Char.chr c)
                else Buffer.add_string b (Printf.sprintf "\\u%04X" c);
                pos := !pos - 1
            | _ -> fail "bad escape");
            advance ();
            loop ())
        | Some c ->
            Buffer.add_char b c;
            advance ();
            loop ()
      in
      loop ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let num_char c =
        match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
      in
      while (match peek () with Some c -> num_char c | None -> false) do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "bad number"
    in
    let rec parse_value depth =
      if depth > max_depth then fail "nesting too deep";
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value (depth + 1) in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ((k, v) :: acc)
              | Some '}' ->
                  advance ();
                  List.rev ((k, v) :: acc)
              | _ -> fail "expected , or }"
            in
            Obj (members [])
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            List []
          end
          else begin
            let rec elements acc =
              let v = parse_value (depth + 1) in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elements (v :: acc)
              | Some ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> fail "expected , or ]"
            in
            List (elements [])
          end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (parse_number ())
    in
    match
      let v = parse_value 0 in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Bad msg -> Error msg

  let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

  (* A string with nothing to escape (every key, and nearly every value
     this system writes) is returned as it is, without a copy. *)
  let escape s =
    if not (String.exists needs_escape s) then s
    else begin
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
    end

  (* Numbers print with %.17g so every float round-trips bitwise through
     parse.  Integers within 1e15 print as plain digits, matching how ids
     and counts are written by hand elsewhere; they take [Int.to_string]
     (the bytes %.0f would print, without the formatter), and negative
     zero keeps its sign as "-0".  NaN/infinities have no JSON spelling
     and become null. *)
  let number_repr f =
    if Float.is_integer f && Float.abs f <= 1e15 then
      if f = 0. && Float.sign_bit f then "-0" else Int.to_string (int_of_float f)
    else Printf.sprintf "%.17g" f

  let encode_buf buf v =
    let rec go = function
      | Null -> Buffer.add_string buf "null"
      | Bool b -> Buffer.add_string buf (if b then "true" else "false")
      | Num f ->
          Buffer.add_string buf (if Float.is_finite f then number_repr f else "null")
      | Str s ->
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape s);
          Buffer.add_char buf '"'
      | List l ->
          Buffer.add_char buf '[';
          List.iteri
            (fun i x ->
              if i > 0 then Buffer.add_char buf ',';
              go x)
            l;
          Buffer.add_char buf ']'
      | Obj kvs ->
          Buffer.add_char buf '{';
          List.iteri
            (fun i (k, x) ->
              if i > 0 then Buffer.add_char buf ',';
              Buffer.add_char buf '"';
              Buffer.add_string buf (escape k);
              Buffer.add_string buf "\":";
              go x)
            kvs;
          Buffer.add_char buf '}'
    in
    go v

  let encode v =
    let buf = Buffer.create 256 in
    encode_buf buf v;
    Buffer.contents buf
end

module Spec = struct
  module Topology = Bufsize_soc.Topology
  module Traffic = Bufsize_soc.Traffic

  (* The words of a line, split at spaces and tabs.  One backward pass
     conses each word onto the list as its start is found, so the words
     come out in order with no intermediate lists. *)
  let tokenize line =
    let rec scan acc i stop =
      if i < 0 then if stop > 0 then String.sub line 0 stop :: acc else acc
      else
        match String.unsafe_get line i with
        | ' ' | '\t' ->
            let acc = if stop > i + 1 then String.sub line (i + 1) (stop - i - 1) :: acc else acc in
            scan acc (i - 1) i
        | _ -> scan acc (i - 1) stop
    in
    let n = String.length line in
    scan [] (n - 1) n

  let strip_comment line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line

  type statement =
    | Bus of string * float
    | Proc of string * string
    | Bridge of string * string * string
    | Grid of Topology.grid_kind * string * int * int * float
    | Shared of string
    | Flow of string * string * float

  let parse_float ~lineno what s =
    match float_of_string_opt s with
    | Some f when f > 0. -> Ok f
    | Some _ -> Error (Printf.sprintf "line %d: %s must be positive, got %s" lineno what s)
    | None -> Error (Printf.sprintf "line %d: malformed %s %S" lineno what s)

  let parse_int ~lineno what s =
    match int_of_string_opt s with
    | Some i when i > 0 -> Ok i
    | Some _ -> Error (Printf.sprintf "line %d: %s must be positive, got %s" lineno what s)
    | None -> Error (Printf.sprintf "line %d: malformed %s %S" lineno what s)

  let keywords = [ "bus"; "proc"; "bridge"; "mesh"; "torus"; "shared_buffer"; "flow" ]

  (* Hard caps against adversarial input.  The parser feeds on daemon
     requests and user files, so resource use must be bounded before any
     topology is built: a one-line multi-gigabyte "spec", a million-stanza
     flood, or a [mesh] stanza declaring 10^9 buses should all be cheap,
     line-numbered errors — not an allocation storm. *)
  let max_input_bytes = 1 lsl 20
  let max_line_bytes = 4096
  let max_statements = 4096
  let max_token_bytes = 256
  let max_grid_cells = 4096

  let grid_kind_of_keyword = function
    | "mesh" -> Topology.Mesh
    | "torus" -> Topology.Torus
    | kw -> invalid_arg ("not a grid keyword: " ^ kw)

  let check_grid_size ~lineno kw r c =
    if r * c > max_grid_cells then
      Error
        (Printf.sprintf "line %d: %s declares %d cells, more than the cap of %d" lineno kw (r * c)
           max_grid_cells)
    else Ok ()

  let parse_statement lineno tokens =
    match List.find_opt (fun t -> String.length t > max_token_bytes) tokens with
    | Some t ->
        Error
          (Printf.sprintf "line %d: token of %d bytes exceeds the cap of %d" lineno
             (String.length t) max_token_bytes)
    | None -> (
    match tokens with
    | [] -> Ok None
    | [ "bus"; name ] -> Ok (Some (Bus (name, 1.0)))
    | [ "bus"; name; "rate"; rate ] ->
        Result.map (fun r -> Some (Bus (name, r))) (parse_float ~lineno "bus rate" rate)
    | [ "proc"; name; "on"; bus ] -> Ok (Some (Proc (name, bus)))
    | [ "bridge"; name; bus1; bus2 ] -> Ok (Some (Bridge (name, bus1, bus2)))
    | [ (("mesh" | "torus") as kw); name; "rows"; rows; "cols"; cols ] ->
        Result.bind (parse_int ~lineno (kw ^ " rows") rows) (fun r ->
            Result.bind (parse_int ~lineno (kw ^ " cols") cols) (fun c ->
                Result.map
                  (fun () -> Some (Grid (grid_kind_of_keyword kw, name, r, c, 1.0)))
                  (check_grid_size ~lineno kw r c)))
    | [ (("mesh" | "torus") as kw); name; "rows"; rows; "cols"; cols; "rate"; rate ] ->
        Result.bind (parse_int ~lineno (kw ^ " rows") rows) (fun r ->
            Result.bind (parse_int ~lineno (kw ^ " cols") cols) (fun c ->
                Result.bind (check_grid_size ~lineno kw r c) (fun () ->
                    Result.map
                      (fun mu -> Some (Grid (grid_kind_of_keyword kw, name, r, c, mu)))
                      (parse_float ~lineno (kw ^ " rate") rate))))
    | [ "shared_buffer"; bus ] -> Ok (Some (Shared bus))
    | [ "flow"; src; "->"; dst; "rate"; rate ] ->
        Result.map (fun r -> Some (Flow (src, dst, r))) (parse_float ~lineno "flow rate" rate)
    | keyword :: _ when List.mem keyword keywords ->
        Error
          (Printf.sprintf "line %d: malformed %s statement: %S" lineno keyword
             (String.concat " " tokens))
    | keyword :: _ -> Error (Printf.sprintf "line %d: unknown keyword %S" lineno keyword))

  let parse text =
    if String.length text > max_input_bytes then
      Error
        (Printf.sprintf "spec of %d bytes exceeds the cap of %d" (String.length text)
           max_input_bytes)
    else begin
    let lines = String.split_on_char '\n' text in
    let statements = ref [] in
    let nstatements = ref 0 in
    let error = ref None in
    List.iteri
      (fun i line ->
        if !error = None then
          if String.length line > max_line_bytes then
            error :=
              Some
                (Printf.sprintf "line %d: %d bytes exceeds the cap of %d" (i + 1)
                   (String.length line) max_line_bytes)
          else
            match parse_statement (i + 1) (tokenize (strip_comment line)) with
            | Ok None -> ()
            | Ok (Some s) ->
                incr nstatements;
                if !nstatements > max_statements then
                  error :=
                    Some
                      (Printf.sprintf "line %d: more than %d statements" (i + 1) max_statements)
                else statements := (i + 1, s) :: !statements
            | Error e -> error := Some e)
      lines;
    match !error with
    | Some e -> Error e
    | None -> (
        let statements = List.rev !statements in
        let b = Topology.builder () in
        let buses = Hashtbl.create 8 in
        let procs = Hashtbl.create 8 in
        let grid_names = Hashtbl.create 4 in
        let flows = ref [] in
        let build () =
          List.iter
            (fun (lineno, s) ->
              match s with
              | Bus (name, rate) ->
                  if Hashtbl.mem buses name then
                    failwith (Printf.sprintf "line %d: duplicate bus %S" lineno name);
                  Hashtbl.add buses name (Topology.add_bus b ~service_rate:rate name)
              | Proc (name, bus) -> (
                  match Hashtbl.find_opt buses bus with
                  | None -> failwith (Printf.sprintf "line %d: unknown bus %S" lineno bus)
                  | Some bus_id ->
                      if Hashtbl.mem procs name then
                        failwith (Printf.sprintf "line %d: duplicate processor %S" lineno name);
                      Hashtbl.add procs name (Topology.add_processor b ~bus:bus_id name))
              | Bridge (name, bus1, bus2) -> (
                  match (Hashtbl.find_opt buses bus1, Hashtbl.find_opt buses bus2) with
                  | None, _ -> failwith (Printf.sprintf "line %d: unknown bus %S" lineno bus1)
                  | _, None -> failwith (Printf.sprintf "line %d: unknown bus %S" lineno bus2)
                  | Some x, Some y -> (
                      try ignore (Topology.add_bridge b ~between:(x, y) name)
                      with Invalid_argument msg ->
                        failwith (Printf.sprintf "line %d: %s" lineno msg)))
              | Grid (kind, name, rows, cols, rate) ->
                  if Hashtbl.mem grid_names name then
                    failwith (Printf.sprintf "line %d: duplicate grid %S" lineno name);
                  let cells =
                    try
                      match kind with
                      | Topology.Mesh -> Topology.mesh b ~service_rate:rate ~rows ~cols name
                      | Topology.Torus -> Topology.torus b ~service_rate:rate ~rows ~cols name
                    with Invalid_argument msg ->
                      failwith (Printf.sprintf "line %d: %s" lineno msg)
                  in
                  Hashtbl.add grid_names name ();
                  Array.iteri
                    (fun r row ->
                      Array.iteri
                        (fun c id ->
                          Hashtbl.add buses (Printf.sprintf "%s_r%dc%d" name r c) id)
                        row)
                    cells
              | Shared bus -> (
                  match Hashtbl.find_opt buses bus with
                  | None -> failwith (Printf.sprintf "line %d: unknown bus %S" lineno bus)
                  | Some bus_id -> Topology.mark_shared b bus_id)
              | Flow (src, dst, rate) -> (
                  match (Hashtbl.find_opt procs src, Hashtbl.find_opt procs dst) with
                  | None, _ -> failwith (Printf.sprintf "line %d: unknown processor %S" lineno src)
                  | _, None -> failwith (Printf.sprintf "line %d: unknown processor %S" lineno dst)
                  | Some s, Some d ->
                      if s = d then
                        failwith (Printf.sprintf "line %d: flow from %S to itself" lineno src);
                      flows := { Traffic.src = s; dst = d; rate } :: !flows))
            statements;
          if !flows = [] then failwith "no flows defined: nothing to size";
          let topo =
            try Topology.finalize b with Invalid_argument msg -> failwith msg
          in
          let traffic =
            try Traffic.create topo (List.rev !flows)
            with Invalid_argument msg -> failwith msg
          in
          (topo, traffic)
        in
        match build () with
        | result -> Ok result
        | exception Failure msg -> Error msg
        | exception Invalid_argument msg -> Error msg)
    end
end

module Traffic = struct
  open Bufsize_soc.Traffic

  let client_order a b =
    match (a, b) with
    | Proc_client p, Proc_client q -> compare p q
    | Proc_client _, Bridge_client _ -> -1
    | Bridge_client _, Proc_client _ -> 1
    | Bridge_client x, Bridge_client y -> compare (x.bridge, x.into_bus) (y.bridge, y.into_bus)

  (* [create]'s aggregation: every bus's clients and summed rates, given
     the library's routed hops of every flow. *)
  let per_bus topo t =
    let flow_list = flows t in
    let flow_hops = Array.map (hops t) flow_list in
    let nb = Bufsize_soc.Topology.num_buses topo in
    let tables = Array.init nb (fun _ -> Hashtbl.create 8) in
    Array.iteri
      (fun i f ->
        List.iter
          (fun (bus, client) ->
            let tbl = tables.(bus) in
            let prev = Option.value ~default:0. (Hashtbl.find_opt tbl client) in
            Hashtbl.replace tbl client (prev +. f.rate))
          flow_hops.(i))
      flow_list;
    Array.init nb (fun bus ->
        let tbl = tables.(bus) in
        List.iter
          (fun p ->
            let c = Proc_client p.Bufsize_soc.Topology.proc_id in
            if not (Hashtbl.mem tbl c) then Hashtbl.add tbl c 0.)
          (Bufsize_soc.Topology.processors_on_bus topo bus);
        Hashtbl.fold (fun c r acc -> (c, r) :: acc) tbl []
        |> List.sort (fun (a, _) (b, _) -> client_order a b))
end

(* [Apportion.largest_remainder] as it stood before its remainders were
   ranked by sorting one index array. *)
module Apportion = struct
  let largest_remainder ?(minimum = 0) ~budget weights =
    let n = Array.length weights in
    Array.iter (fun w -> if w < 0. then invalid_arg "Apportion: negative weight") weights;
    if budget < minimum * n then invalid_arg "Apportion: budget below per-entry minimum";
    if n = 0 then [||]
    else begin
      let spare = budget - (minimum * n) in
      let total = Array.fold_left ( +. ) 0. weights in
      if total <= 0. then begin
        if spare > 0 && budget > 0 then
          Array.init n (fun i -> minimum + (spare / n) + if i < spare mod n then 1 else 0)
        else Array.make n minimum
      end
      else begin
        let quota = Array.map (fun w -> float_of_int spare *. w /. total) weights in
        let floors = Array.map (fun q -> int_of_float (Float.trunc q)) quota in
        let assigned = Array.fold_left ( + ) 0 floors in
        let leftover = spare - assigned in
        let by_remainder =
          List.init n (fun i -> i)
          |> List.sort (fun i j ->
                 let ri = quota.(i) -. Float.trunc quota.(i)
                 and rj = quota.(j) -. Float.trunc quota.(j) in
                 match compare rj ri with 0 -> compare i j | c -> c)
        in
        let shares = Array.map (fun f -> f) floors in
        List.iteri (fun rank i -> if rank < leftover then shares.(i) <- shares.(i) + 1) by_remainder;
        Array.map2 (fun s _ -> s + minimum) shares weights
      end
    end
end

(* [Constrained.deterministic_solved] and [Constrained.mixed_solved] as
   they stood while an answer block carried its occupation measure x(s,a)
   and a dense policy; the deterministic policy is built by
   [Dense_policy.of_policy], which gives the rows [Policy.deterministic]
   gave. *)
module Constrained = struct
  module Ctmdp = Bufsize_mdp.Ctmdp
  module Policy = Bufsize_verify.Dense_policy

  type solved = {
    gain : float;
    occupation : float array array;
    policy : Policy.t;
    usage : float;
    stationary : Bufsize_numeric.Vec.t option;
  }

  let deterministic_solved m choice =
    let policy = Policy.of_policy m { Bufsize_mdp.Policy.choice; mix = None } in
    let e = Policy.evaluate m policy in
    {
      gain = e.Policy.gain;
      occupation = e.Policy.occupation;
      policy;
      usage = e.Policy.extras.(0);
      stationary = Some e.Policy.state_distribution;
    }

  let mixed_solved m ~alpha ~state a b =
    let occupation =
      Array.map2
        (Array.map2 (fun x y -> (alpha *. x) +. ((1. -. alpha) *. y)))
        a.occupation b.occupation
    in
    let probs =
      Array.mapi
        (fun s row ->
          let mass = Array.fold_left ( +. ) 0. row in
          if s = state && mass > 1e-12 then Array.map (fun x -> x /. mass) row
          else Policy.action_probs b.policy s)
        occupation
    in
    let gain = ref 0. and usage = ref 0. in
    Array.iteri
      (fun s row ->
        Array.iteri
          (fun k x ->
            let i = m.Ctmdp.first_action.(s) + k in
            gain := !gain +. (x *. m.Ctmdp.cost.(i));
            usage := !usage +. (x *. Ctmdp.extra m i 0))
          row)
      occupation;
    {
      gain = !gain;
      occupation;
      policy = Policy.randomized m probs;
      usage = !usage;
      stationary = None;
    }
end
