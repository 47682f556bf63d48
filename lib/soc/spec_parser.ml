(* The words of [line.[start .. stop - 1]], split at spaces and tabs.
   One backward pass from [i] conses each word onto [acc] as its start is
   found ([stop] ends the word being read), so the words come out in
   order with no intermediate lists. *)
let rec words_rev line start acc i stop =
  if i < start then if stop > start then String.sub line start (stop - start) :: acc else acc
  else
    match String.unsafe_get line i with
    | ' ' | '\t' ->
        let acc = if stop > i + 1 then String.sub line (i + 1) (stop - i - 1) :: acc else acc in
        words_rev line start acc (i - 1) i
    | _ -> words_rev line start acc (i - 1) stop

let words line start stop = words_rev line start [] (stop - 1) stop

let tokenize line = words line 0 (String.length line)

(* The first index in [start, stop) holding [c], or [stop]. *)
let rec index_in text c i stop =
  if i >= stop || String.unsafe_get text i = c then i else index_in text c (i + 1) stop

(* Name tables: string keys hashed and compared as strings. *)
module Names = Hashtbl.Make (String)

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
    let b = Topology.builder () in
    let buses = Names.create 8 in
    let procs = Names.create 8 in
    let grid_names = Names.create 4 in
    let flows = ref [] in
    (* One statement into the topology under construction; raises
       [Failure] or [Invalid_argument] with the error text. *)
    let add lineno = function
      | Bus (name, rate) ->
          if Names.mem buses name then
            failwith (Printf.sprintf "line %d: duplicate bus %S" lineno name);
          Names.add buses name (Topology.add_bus b ~service_rate:rate name)
      | Proc (name, bus) -> (
          match Names.find_opt buses bus with
          | None -> failwith (Printf.sprintf "line %d: unknown bus %S" lineno bus)
          | Some bus_id ->
              if Names.mem procs name then
                failwith (Printf.sprintf "line %d: duplicate processor %S" lineno name);
              Names.add procs name (Topology.add_processor b ~bus:bus_id name))
      | Bridge (name, bus1, bus2) -> (
          match (Names.find_opt buses bus1, Names.find_opt buses bus2) with
          | None, _ -> failwith (Printf.sprintf "line %d: unknown bus %S" lineno bus1)
          | _, None -> failwith (Printf.sprintf "line %d: unknown bus %S" lineno bus2)
          | Some x, Some y -> (
              try ignore (Topology.add_bridge b ~between:(x, y) name)
              with Invalid_argument msg -> failwith (Printf.sprintf "line %d: %s" lineno msg)))
      | Grid (kind, name, rows, cols, rate) ->
          if Names.mem grid_names name then
            failwith (Printf.sprintf "line %d: duplicate grid %S" lineno name);
          let cells =
            try
              match kind with
              | Topology.Mesh -> Topology.mesh b ~service_rate:rate ~rows ~cols name
              | Topology.Torus -> Topology.torus b ~service_rate:rate ~rows ~cols name
            with Invalid_argument msg -> failwith (Printf.sprintf "line %d: %s" lineno msg)
          in
          Names.add grid_names name ();
          Array.iteri
            (fun r row ->
              Array.iteri (fun c id -> Names.add buses (Printf.sprintf "%s_r%dc%d" name r c) id) row)
            cells
      | Shared bus -> (
          match Names.find_opt buses bus with
          | None -> failwith (Printf.sprintf "line %d: unknown bus %S" lineno bus)
          | Some bus_id -> Topology.mark_shared b bus_id)
      | Flow (src, dst, rate) -> (
          match (Names.find_opt procs src, Names.find_opt procs dst) with
          | None, _ -> failwith (Printf.sprintf "line %d: unknown processor %S" lineno src)
          | _, None -> failwith (Printf.sprintf "line %d: unknown processor %S" lineno dst)
          | Some s, Some d ->
              if s = d then failwith (Printf.sprintf "line %d: flow from %S to itself" lineno src);
              flows := { Traffic.src = s; dst = d; rate } :: !flows)
    in
    (* Statements are built as their lines are read.  The first statement
       that fails to build stops the building, not the reading: a
       malformed line anywhere in the text outranks it. *)
    let build_error = ref None in
    let n = String.length text in
    (* One line per pass, from [start] to the next newline; a text ending
       in a newline has a last, empty line, as [String.split_on_char]
       would cut it.  The result is the first malformed line's error. *)
    let rec scan_lines start lineno nstatements =
      let stop = index_in text '\n' start n in
      let len = stop - start in
      if len > max_line_bytes then
        Some (Printf.sprintf "line %d: %d bytes exceeds the cap of %d" lineno len max_line_bytes)
      else
        match parse_statement lineno (words text start (index_in text '#' start stop)) with
        | Ok None -> next stop lineno nstatements
        | Ok (Some st) ->
            if nstatements + 1 > max_statements then
              Some (Printf.sprintf "line %d: more than %d statements" lineno max_statements)
            else begin
              (if !build_error = None then
                 try add lineno st with Failure msg | Invalid_argument msg -> build_error := Some msg);
              next stop lineno (nstatements + 1)
            end
        | Error e -> Some e
    and next stop lineno nstatements =
      if stop < n then scan_lines (stop + 1) (lineno + 1) nstatements else None
    in
    match scan_lines 0 1 0 with
    | Some e -> Error e
    | None -> (
        match !build_error with
        | Some e -> Error e
        | None when !flows = [] -> Error "no flows defined: nothing to size"
        | None -> (
            match
              let topo = Topology.finalize b in
              (topo, Traffic.create topo (List.rev !flows))
            with
            | result -> Ok result
            | exception Invalid_argument msg -> Error msg))
  end

let parse_file path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let len = in_channel_length ic in
      let text = really_input_string ic len in
      close_in ic;
      parse text

let to_string topo traffic =
  let buf = Buffer.create 512 in
  (* Grid members get their stanza, not individual bus/bridge lines; the
     deterministic member naming makes this lossless. *)
  let nb = Topology.num_buses topo in
  let nbr = Topology.num_bridges topo in
  let in_grid_bus = Array.make nb false in
  let in_grid_bridge = Array.make (Int.max 1 nbr) false in
  Array.iter
    (fun (g : Topology.grid) ->
      Array.iter (Array.iter (fun id -> in_grid_bus.(id) <- true)) g.Topology.cells;
      let mark = Array.iter (Array.iter (fun id -> if id >= 0 then in_grid_bridge.(id) <- true)) in
      mark g.Topology.h_bridges;
      mark g.Topology.v_bridges)
    (Topology.grids topo);
  Array.iter
    (fun (g : Topology.grid) ->
      Buffer.add_string buf
        (Printf.sprintf "%s %s rows %d cols %d rate %g\n"
           (match g.Topology.grid_kind with Topology.Mesh -> "mesh" | Topology.Torus -> "torus")
           g.Topology.grid_name g.Topology.rows g.Topology.cols g.Topology.grid_rate))
    (Topology.grids topo);
  Array.iter
    (fun (b : Topology.bus) ->
      if not in_grid_bus.(b.Topology.bus_id) then
        Buffer.add_string buf
          (Printf.sprintf "bus %s rate %g\n" b.Topology.bus_name b.Topology.service_rate))
    (Topology.buses topo);
  Array.iter
    (fun (p : Topology.processor) ->
      Buffer.add_string buf
        (Printf.sprintf "proc %s on %s\n" p.Topology.proc_name
           (Topology.bus topo p.Topology.home_bus).Topology.bus_name))
    (Topology.processors topo);
  Array.iter
    (fun (br : Topology.bridge) ->
      if not in_grid_bridge.(br.Topology.bridge_id) then
        let x, y = br.Topology.endpoints in
        Buffer.add_string buf
          (Printf.sprintf "bridge %s %s %s\n" br.Topology.bridge_name
             (Topology.bus topo x).Topology.bus_name
             (Topology.bus topo y).Topology.bus_name))
    (Topology.bridges topo);
  List.iter
    (fun id ->
      Buffer.add_string buf
        (Printf.sprintf "shared_buffer %s\n" (Topology.bus topo id).Topology.bus_name))
    (Topology.shared_buses topo);
  Array.iter
    (fun (f : Traffic.flow) ->
      Buffer.add_string buf
        (Printf.sprintf "flow %s -> %s rate %g\n"
           (Topology.processor topo f.Traffic.src).Topology.proc_name
           (Topology.processor topo f.Traffic.dst).Topology.proc_name
           f.Traffic.rate))
    (Traffic.flows traffic);
  Buffer.contents buf
