(* A minimal strict JSON parser and printer, dependency-free.

   Originally the test-suite's round-trip checker for the hand-written
   JSON the exporters emit; promoted into the library when the sizing
   service started parsing requests off a socket.  Untrusted input is the
   design point: the parser is strict RFC 8259 (the number grammar
   exactly, no trailing garbage, no raw control bytes in strings, [\u]
   escapes of exactly four hex digits with surrogates only in pairs),
   never raises on malformed bytes ([parse] returns [Error]), and bounds
   its recursion with a nesting-depth cap so a crafted [[[[... line
   cannot blow the stack of a server worker.  A [\u] escape decodes to
   the UTF-8 bytes of its code point.

   Both directions run once over the bytes: the parser copies a string's
   unescaped runs whole and reads bytes without boxing them, the printer
   writes escapes, integers and structure straight into one buffer. *)

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

let hex_value = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> -1

let is_digit = function '0' .. '9' -> true | _ -> false

(* The end of the clean run of [s] from [i] below [n]: the index of the
   first quote, backslash or control byte (the bytes a JSON string must
   escape), or [n]. *)
let rec run_end s i n =
  if i >= n then n
  else
    match String.unsafe_get s i with
    | '"' | '\\' | '\000' .. '\031' -> i
    | _ -> run_end s (i + 1) n

let parse ?(max_depth = default_max_depth) (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  (* The byte at [pos], or NUL past the end (a byte no caller of it
     accepts). *)
  let byte () = if !pos < n then String.unsafe_get s !pos else '\000' in
  let at c = !pos < n && String.unsafe_get s !pos = c in
  let rec skip_ws () =
    if !pos < n then
      match String.unsafe_get s !pos with
      | ' ' | '\t' | '\n' | '\r' ->
          incr pos;
          skip_ws ()
      | _ -> ()
  in
  let expect c = if at c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let literal word v =
    let m = String.length word in
    let rec matches k = k = m || (String.unsafe_get s (!pos + k) = word.[k] && matches (k + 1)) in
    if !pos + m <= n && matches 0 then begin
      pos := !pos + m;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  (* The four hex digits after a [\u], [pos] on the first. *)
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let d k = hex_value (String.unsafe_get s (!pos + k)) in
    let d0 = d 0 and d1 = d 1 and d2 = d 2 and d3 = d 3 in
    if d0 < 0 || d1 < 0 || d2 < 0 || d3 < 0 then fail "bad \\u escape";
    pos := !pos + 4;
    (d0 lsl 12) lor (d1 lsl 8) lor (d2 lsl 4) lor d3
  in
  (* A [\u] escape, [pos] on its first hex digit: a surrogate must be
     the high half of a pair whose low half follows as the next escape. *)
  let unicode_escape b =
    let c = hex4 () in
    if c < 0x80 then Buffer.add_char b (Char.unsafe_chr c)
    else if c >= 0xDC00 && c <= 0xDFFF then fail "unpaired surrogate"
    else if c >= 0xD800 && c <= 0xDBFF then begin
      if not (!pos + 1 < n && String.unsafe_get s !pos = '\\' && String.unsafe_get s (!pos + 1) = 'u')
      then fail "unpaired surrogate";
      pos := !pos + 2;
      let lo = hex4 () in
      if lo < 0xDC00 || lo > 0xDFFF then fail "unpaired surrogate";
      Buffer.add_utf_8_uchar b
        (Uchar.unsafe_of_int (0x10000 + ((c - 0xD800) lsl 10) + (lo - 0xDC00)))
    end
    else Buffer.add_utf_8_uchar b (Uchar.unsafe_of_int c)
  in
  (* Escaped strings are assembled here: one buffer per parse, made by
     the first of them and sized to the input left, which bounds every
     string still to come. *)
  let sbuf = ref None in
  let parse_string () =
    expect '"';
    let start = !pos in
    let stop = run_end s start n in
    if stop < n && String.unsafe_get s stop = '"' then begin
      (* No escape: one copy of the run. *)
      pos := stop + 1;
      String.sub s start (stop - start)
    end
    else begin
      let sbuf =
        match !sbuf with
        | Some b ->
            Buffer.clear b;
            b
        | None ->
            let b = Buffer.create (n - start) in
            sbuf := Some b;
            b
      in
      let rec loop start =
        let stop = run_end s start n in
        Buffer.add_substring sbuf s start (stop - start);
        pos := stop;
        if stop >= n then fail "unterminated string";
        match String.unsafe_get s stop with
        | '"' -> incr pos
        | '\\' ->
            pos := stop + 2;
            (match if stop + 1 < n then String.unsafe_get s (stop + 1) else '\000' with
            | '"' -> Buffer.add_char sbuf '"'
            | '\\' -> Buffer.add_char sbuf '\\'
            | '/' -> Buffer.add_char sbuf '/'
            | 'b' -> Buffer.add_char sbuf '\b'
            | 'f' -> Buffer.add_char sbuf '\012'
            | 'n' -> Buffer.add_char sbuf '\n'
            | 'r' -> Buffer.add_char sbuf '\r'
            | 't' -> Buffer.add_char sbuf '\t'
            | 'u' -> unicode_escape sbuf
            | _ ->
                pos := stop + 1;
                fail "bad escape");
            loop !pos
        | _ -> fail "control character in string"
      in
      loop start;
      Buffer.contents sbuf
    end
  in
  let digits () =
    if not (is_digit (byte ())) then fail "bad number";
    while is_digit (byte ()) do
      incr pos
    done
  in
  (* The RFC 8259 grammar: -? (0 | [1-9][0-9]* ) (.[0-9]+)? ([eE][+-]?[0-9]+)?
     An integer of at most 15 digits is exact as a float and is built
     from its digits; anything else takes [float_of_string] of the token,
     which the grammar has already vetted. *)
  let parse_number () =
    let start = !pos in
    let neg = at '-' in
    if neg then incr pos;
    let int_start = !pos in
    if at '0' then incr pos else digits ();
    let int_stop = !pos in
    let integral = ref true in
    if at '.' then begin
      incr pos;
      integral := false;
      digits ()
    end;
    if at 'e' || at 'E' then begin
      incr pos;
      integral := false;
      if at '+' || at '-' then incr pos;
      digits ()
    end;
    if !integral && int_stop - int_start <= 15 then begin
      let v = ref 0 in
      for i = int_start to int_stop - 1 do
        v := (!v * 10) + (Char.code (String.unsafe_get s i) - 48)
      done;
      let f = float_of_int !v in
      if neg then -.f else f
    end
    else
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "bad number"
  in
  let rec parse_value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match String.unsafe_get s !pos with
    | '{' ->
        incr pos;
        skip_ws ();
        if at '}' then begin
          incr pos;
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
            match byte () with
            | ',' ->
                incr pos;
                members ((k, v) :: acc)
            | '}' ->
                incr pos;
                List.rev ((k, v) :: acc)
            | _ -> fail "expected , or }"
          in
          Obj (members [])
        end
    | '[' ->
        incr pos;
        skip_ws ();
        if at ']' then begin
          incr pos;
          List []
        end
        else begin
          let rec elements acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match byte () with
            | ',' ->
                incr pos;
                elements (v :: acc)
            | ']' ->
                incr pos;
                List.rev (v :: acc)
            | _ -> fail "expected , or ]"
          in
          List (elements [])
        end
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> Num (parse_number ())
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

let hex_digits = "0123456789abcdef"

(* The bytes of [s] from [start], escaped: clean runs go in whole,
   escapes as they come. *)
let rec write_escaped buf s start =
  let n = String.length s in
  let stop = run_end s start n in
  Buffer.add_substring buf s start (stop - start);
  if stop < n then begin
    Buffer.add_char buf '\\';
    (match String.unsafe_get s stop with
    | ('"' | '\\') as c -> Buffer.add_char buf c
    | '\n' -> Buffer.add_char buf 'n'
    | '\r' -> Buffer.add_char buf 'r'
    | '\t' -> Buffer.add_char buf 't'
    | c ->
        Buffer.add_string buf "u00";
        Buffer.add_char buf hex_digits.[Char.code c lsr 4];
        Buffer.add_char buf hex_digits.[Char.code c land 15]);
    write_escaped buf s (stop + 1)
  end

let write_string buf s =
  Buffer.add_char buf '"';
  write_escaped buf s 0;
  Buffer.add_char buf '"'

(* A string with nothing to escape (every key, and nearly every value
   this system writes) is returned as it is, without a copy. *)
let escape s =
  if run_end s 0 (String.length s) = String.length s then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    write_escaped b s 0;
    Buffer.contents b
  end

(* The primitive behind [Printf]'s %.17g, without the format
   interpretation around it. *)
external format_float : string -> float -> string = "caml_format_float"

(* The decimal digits of a non-negative int, most significant first. *)
let rec write_digits buf n =
  if n >= 10 then write_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

(* Numbers print with %.17g so every float round-trips bitwise through
   parse.  Integers within 1e15 print as plain digits, matching how ids
   and counts are written by hand elsewhere (the bytes %.0f would print),
   and negative zero keeps its sign as "-0".  NaN/infinities have no JSON
   spelling and become null. *)
let write_number buf f =
  if Float.is_integer f && Float.abs f <= 1e15 then
    if f = 0. && Float.sign_bit f then Buffer.add_string buf "-0"
    else if f < 0. then begin
      Buffer.add_char buf '-';
      write_digits buf (-int_of_float f)
    end
    else write_digits buf (int_of_float f)
  else if Float.is_finite f then Buffer.add_string buf (format_float "%.17g" f)
  else Buffer.add_string buf "null"

let rec encode_buf buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> write_number buf f
  | Str s -> write_string buf s
  | List l ->
      Buffer.add_char buf '[';
      encode_elements buf false l;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      encode_members buf false kvs;
      Buffer.add_char buf '}'

and encode_elements buf comma = function
  | [] -> ()
  | x :: rest ->
      if comma then Buffer.add_char buf ',';
      encode_buf buf x;
      encode_elements buf true rest

and encode_members buf comma = function
  | [] -> ()
  | (k, x) :: rest ->
      if comma then Buffer.add_char buf ',';
      write_string buf k;
      Buffer.add_char buf ':';
      encode_buf buf x;
      encode_members buf true rest

(* Sized for a daemon [size] reply (about 1.5 KB) without growing, and
   still a minor-heap block. *)
let initial_bytes = 2040

let encode v =
  let buf = Buffer.create initial_bytes in
  encode_buf buf v;
  Buffer.contents buf

(* [v] and a newline as one JSON-lines record, ready to write: the only
   copy is the one out of the buffer. *)
let encode_line v =
  let buf = Buffer.create initial_bytes in
  encode_buf buf v;
  Buffer.add_char buf '\n';
  Buffer.to_bytes buf

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
