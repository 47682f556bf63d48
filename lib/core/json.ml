(* A minimal strict JSON parser and printer, dependency-free.

   Originally the test-suite's round-trip checker for the hand-written
   JSON the exporters emit; promoted into the library when the sizing
   service started parsing requests off a socket.  Untrusted input is the
   design point: the parser is strict (no trailing garbage, no unpaired
   surrogates-by-accident), never raises on malformed bytes ([parse]
   returns [Error]), and bounds its recursion with a nesting-depth cap so
   a crafted [[[[... line cannot blow the stack of a server worker. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Bad of string

(* Deep enough for any document this system emits, shallow enough that
   the recursive descent stays well inside the stack. *)
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

let parse_exn s = match parse s with Ok v -> v | Error e -> failwith ("bad JSON: " ^ e)

(* ------------------------------------------------------------ printing *)

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

(* ------------------------------------------------------- accessors *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let member_exn k v =
  match member k v with
  | Some x -> x
  | None -> failwith (Printf.sprintf "missing member %S" k)

let to_string = function Str s -> s | _ -> failwith "expected a string"
let to_number = function Num f -> f | _ -> failwith "expected a number"
let to_list = function List l -> l | _ -> failwith "expected an array"
let to_bool = function Bool b -> b | _ -> failwith "expected a bool"

(* Option-returning lookups for protocol code that must not raise on
   adversarial input. *)
let string_opt = function Str s -> Some s | _ -> None
let number_opt = function Num f -> Some f | _ -> None

let int_opt v =
  match v with
  | Num f when Float.is_integer f && Float.abs f <= 1e9 -> Some (int_of_float f)
  | _ -> None

let mem_string k v = Option.bind (member k v) string_opt
let mem_number k v = Option.bind (member k v) number_opt
let mem_int k v = Option.bind (member k v) int_opt
