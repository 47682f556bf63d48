type bus_id = int
type proc_id = int
type bridge_id = int

type bus = { bus_id : bus_id; bus_name : string; service_rate : float }
type processor = { proc_id : proc_id; proc_name : string; home_bus : bus_id }

type bridge = {
  bridge_id : bridge_id;
  bridge_name : string;
  endpoints : bus_id * bus_id;
}

type grid_kind = Mesh | Torus

type grid = {
  grid_name : string;
  grid_kind : grid_kind;
  rows : int;
  cols : int;
  grid_rate : float;
  cells : bus_id array array;  (* rows x cols *)
  (* h_bridges.(r).(c) connects (r,c) to (r,(c+1) mod cols); -1 when absent.
     v_bridges.(r).(c) connects (r,c) to ((r+1) mod rows,c); -1 when absent. *)
  h_bridges : bridge_id array array;
  v_bridges : bridge_id array array;
}

module Names = Hashtbl.Make (String)

type builder = {
  mutable b_buses : bus list;  (* reversed; the ids count them *)
  mutable b_nbuses : int;
  mutable b_procs : processor list;
  mutable b_nprocs : int;
  mutable b_bridges : bridge list;
  mutable b_nbridges : int;
  mutable b_grids : grid list;  (* reversed *)
  mutable b_shared : bus_id list;
  names : unit Names.t;
}

type t = {
  t_buses : bus array;
  t_procs : processor array;
  t_bridges : bridge array;
  t_grids : grid array;
  by_bus : processor list array;  (* processors per bus *)
  bridges_by_bus : bridge list array;
  cell_of_bus : (int * int * int) option array;  (* grid index, row, col *)
  t_shared : bool array;
}

let builder () =
  {
    b_buses = [];
    b_nbuses = 0;
    b_procs = [];
    b_nprocs = 0;
    b_bridges = [];
    b_nbridges = 0;
    b_grids = [];
    b_shared = [];
    names = Names.create 16;
  }

let check_name b name =
  if Names.mem b.names name then
    invalid_arg (Printf.sprintf "Topology: duplicate name %S" name);
  Names.add b.names name ()

let add_bus b ?(service_rate = 1.0) name =
  if service_rate <= 0. then invalid_arg "Topology.add_bus: nonpositive service rate";
  check_name b name;
  let id = b.b_nbuses in
  b.b_buses <- { bus_id = id; bus_name = name; service_rate } :: b.b_buses;
  b.b_nbuses <- id + 1;
  id

let known_bus b id =
  if id < 0 || id >= b.b_nbuses then invalid_arg (Printf.sprintf "Topology: unknown bus %d" id)

let add_processor b ~bus name =
  known_bus b bus;
  check_name b name;
  let id = b.b_nprocs in
  b.b_procs <- { proc_id = id; proc_name = name; home_bus = bus } :: b.b_procs;
  b.b_nprocs <- id + 1;
  id

let add_bridge b ~between name =
  let x, y = between in
  known_bus b x;
  known_bus b y;
  if x = y then invalid_arg "Topology.add_bridge: endpoints coincide";
  check_name b name;
  let id = b.b_nbridges in
  b.b_bridges <- { bridge_id = id; bridge_name = name; endpoints = between } :: b.b_bridges;
  b.b_nbridges <- id + 1;
  id

let mark_shared b bus =
  known_bus b bus;
  if not (List.mem bus b.b_shared) then b.b_shared <- bus :: b.b_shared

(* Grid cell buses are named <grid>_r<r>c<c>, the bridge leaving (r,c)
   rightwards <grid>_h_r<r>c<c> and downwards <grid>_v_r<r>c<c>.  The
   deterministic scheme is what makes the spec-text round-trip lossless:
   the parser can re-derive every member name from the stanza alone. *)
let add_grid b kind ?(service_rate = 1.0) ~rows ~cols name =
  let what = match kind with Mesh -> "mesh" | Torus -> "torus" in
  if rows < 1 || cols < 1 then
    invalid_arg (Printf.sprintf "Topology.%s: rows and cols must be >= 1" what);
  if rows * cols < 2 then
    invalid_arg (Printf.sprintf "Topology.%s: a grid needs at least 2 cells" what);
  if service_rate <= 0. then
    invalid_arg (Printf.sprintf "Topology.%s: nonpositive service rate" what);
  check_name b name;
  let cells =
    Array.init rows (fun r ->
        Array.init cols (fun c ->
            add_bus b ~service_rate (Printf.sprintf "%s_r%dc%d" name r c)))
  in
  let h = Array.make_matrix rows cols (-1) in
  let v = Array.make_matrix rows cols (-1) in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then
        h.(r).(c) <-
          add_bridge b
            ~between:(cells.(r).(c), cells.(r).(c + 1))
            (Printf.sprintf "%s_h_r%dc%d" name r c);
      if r + 1 < rows then
        v.(r).(c) <-
          add_bridge b
            ~between:(cells.(r).(c), cells.(r + 1).(c))
            (Printf.sprintf "%s_v_r%dc%d" name r c)
    done
  done;
  (* Wrap-around links; skipped when the dimension has length <= 2, where
     they would merely duplicate an existing mesh edge. *)
  if kind = Torus then begin
    if cols > 2 then
      for r = 0 to rows - 1 do
        h.(r).(cols - 1) <-
          add_bridge b
            ~between:(cells.(r).(cols - 1), cells.(r).(0))
            (Printf.sprintf "%s_h_r%dc%d" name r (cols - 1))
      done;
    if rows > 2 then
      for c = 0 to cols - 1 do
        v.(rows - 1).(c) <-
          add_bridge b
            ~between:(cells.(rows - 1).(c), cells.(0).(c))
            (Printf.sprintf "%s_v_r%dc%d" name (rows - 1) c)
      done
  end;
  b.b_grids <-
    {
      grid_name = name;
      grid_kind = kind;
      rows;
      cols;
      grid_rate = service_rate;
      cells;
      h_bridges = h;
      v_bridges = v;
    }
    :: b.b_grids;
  cells

let mesh b ?service_rate ~rows ~cols name = add_grid b Mesh ?service_rate ~rows ~cols name
let torus b ?service_rate ~rows ~cols name = add_grid b Torus ?service_rate ~rows ~cols name

let finalize b =
  let t_buses = Array.of_list (List.rev b.b_buses) in
  let t_procs = Array.of_list (List.rev b.b_procs) in
  let t_bridges = Array.of_list (List.rev b.b_bridges) in
  let t_grids = Array.of_list (List.rev b.b_grids) in
  let nb = Array.length t_buses in
  let by_bus = Array.make nb [] in
  Array.iter (fun p -> by_bus.(p.home_bus) <- p :: by_bus.(p.home_bus)) t_procs;
  Array.iteri (fun i ps -> by_bus.(i) <- List.rev ps) by_bus;
  let bridges_by_bus = Array.make nb [] in
  Array.iter
    (fun br ->
      let x, y = br.endpoints in
      bridges_by_bus.(x) <- br :: bridges_by_bus.(x);
      bridges_by_bus.(y) <- br :: bridges_by_bus.(y))
    t_bridges;
  Array.iteri (fun i bs -> bridges_by_bus.(i) <- List.rev bs) bridges_by_bus;
  (* Connectivity validation: a disconnected bus graph can never route the
     cross-component flows a spec will ask for, so fail now with the
     component list instead of letting routing fail later. *)
  if nb > 1 then begin
    let comp = Array.make nb (-1) in
    let ncomp = ref 0 in
    for s = 0 to nb - 1 do
      if comp.(s) < 0 then begin
        let c = !ncomp in
        incr ncomp;
        let q = Queue.create () in
        comp.(s) <- c;
        Queue.add s q;
        while not (Queue.is_empty q) do
          let u = Queue.pop q in
          List.iter
            (fun br ->
              let x, y = br.endpoints in
              let v = if x = u then y else x in
              if comp.(v) < 0 then begin
                comp.(v) <- c;
                Queue.add v q
              end)
            bridges_by_bus.(u)
        done
      end
    done;
    if !ncomp > 1 then begin
      let members = Array.make !ncomp [] in
      for i = nb - 1 downto 0 do
        members.(comp.(i)) <- t_buses.(i).bus_name :: members.(comp.(i))
      done;
      let show names = "[" ^ String.concat " " names ^ "]" in
      invalid_arg
        (Printf.sprintf
           "Topology.finalize: disconnected bus graph: %d components: %s (add bridges to \
            connect them)"
           !ncomp
           (String.concat "; " (Array.to_list (Array.map show members))))
    end
  end;
  let cell_of_bus = Array.make nb None in
  Array.iteri
    (fun gi g ->
      Array.iteri
        (fun r row -> Array.iteri (fun c bus -> cell_of_bus.(bus) <- Some (gi, r, c)) row)
        g.cells)
    t_grids;
  let t_shared = Array.make nb false in
  List.iter (fun i -> t_shared.(i) <- true) b.b_shared;
  { t_buses; t_procs; t_bridges; t_grids; by_bus; bridges_by_bus; cell_of_bus; t_shared }

let num_buses t = Array.length t.t_buses
let num_processors t = Array.length t.t_procs
let num_bridges t = Array.length t.t_bridges
let bus t id = t.t_buses.(id)
let processor t id = t.t_procs.(id)
let bridge t id = t.t_bridges.(id)
let buses t = Array.copy t.t_buses
let processors t = Array.copy t.t_procs
let bridges t = Array.copy t.t_bridges
let grids t = Array.copy t.t_grids
let grid_cell t id = t.cell_of_bus.(id)
let shared_buffer t id = t.t_shared.(id)

let shared_buses t =
  let acc = ref [] in
  for i = Array.length t.t_shared - 1 downto 0 do
    if t.t_shared.(i) then acc := i :: !acc
  done;
  !acc

let processors_on_bus t id = t.by_bus.(id)
let bridges_of_bus t id = t.bridges_by_bus.(id)

let find_bus t name =
  match Array.find_opt (fun b -> b.bus_name = name) t.t_buses with
  | Some b -> b.bus_id
  | None -> raise Not_found

let find_processor t name =
  match Array.find_opt (fun p -> p.proc_name = name) t.t_procs with
  | Some p -> p.proc_id
  | None -> raise Not_found

(* Dimension-order (XY) routing inside one grid: adjust the column first,
   then the row.  On a torus the wrapping direction is the shorter one,
   ties broken towards increasing index.  Wrap links are only present when
   the dimension has length > 2, so shorter-side arithmetic degenerates to
   mesh stepping exactly when it has to. *)
let grid_route g r1 c1 r2 c2 =
  let steps dim wrapped from_ to_ =
    if from_ = to_ then []
    else begin
      let dir =
        if not wrapped then if to_ > from_ then 1 else -1
        else
          let fwd = ((to_ - from_) mod dim + dim) mod dim in
          if fwd <= dim - fwd then 1 else -1
      in
      let rec go x acc =
        if x = to_ then List.rev acc
        else
          let nx = ((x + dir) mod dim + dim) mod dim in
          go nx ((x, nx) :: acc)
      in
      go from_ []
    end
  in
  (* The link between adjacent indices x and nx lives at index [lo] where
     the bridge points lo -> (lo+1) mod dim.  Without wrap links this is
     always [min x nx]; with them (dim > 2) the direction test is
     unambiguous. *)
  let link_index wrapped dim x nx =
    if wrapped then if (x + 1) mod dim = nx then x else nx else Int.min x nx
  in
  let wrap_cols = g.grid_kind = Torus && g.cols > 2 in
  let wrap_rows = g.grid_kind = Torus && g.rows > 2 in
  let h_moves =
    steps g.cols wrap_cols c1 c2
    |> List.map (fun (x, nx) -> g.h_bridges.(r1).(link_index wrap_cols g.cols x nx))
  in
  let v_moves =
    steps g.rows wrap_rows r1 r2
    |> List.map (fun (x, nx) -> g.v_bridges.(link_index wrap_rows g.rows x nx).(c2))
  in
  h_moves @ v_moves

(* BFS over the bus graph; parents record the bridge used to reach a bus. *)
let bfs_route t src dst =
  let n = num_buses t in
  let parent = Array.make n None in
  let visited = Array.make n false in
  visited.(src) <- true;
  let q = Queue.create () in
  Queue.add src q;
  let found = ref false in
  while (not !found) && not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun br ->
        let x, y = br.endpoints in
        let v = if x = u then y else x in
        if not visited.(v) then begin
          visited.(v) <- true;
          parent.(v) <- Some (u, br.bridge_id);
          if v = dst then found := true else Queue.add v q
        end)
      t.bridges_by_bus.(u)
  done;
  if not !found then None
  else begin
    let rec collect v acc =
      match parent.(v) with None -> acc | Some (u, br) -> collect u (br :: acc)
    in
    Some (collect dst [])
  end

let route t src dst =
  if src = dst then Some []
  else
    match (t.cell_of_bus.(src), t.cell_of_bus.(dst)) with
    | Some (g1, r1, c1), Some (g2, r2, c2) when g1 = g2 ->
        Some (grid_route t.t_grids.(g1) r1 c1 r2 c2)
    | _ -> bfs_route t src dst

let bus_path t src dst =
  match route t src dst with
  | None -> None
  | Some brs ->
      let step current br_id =
        let x, y = (bridge t br_id).endpoints in
        if x = current then y else x
      in
      let rec walk current = function
        | [] -> []
        | br :: rest ->
            let next = step current br in
            next :: walk next rest
      in
      Some (src :: walk src brs)

let is_connected t =
  let n = num_buses t in
  n <= 1
  ||
  let ok = ref true in
  for v = 1 to n - 1 do
    if route t 0 v = None then ok := false
  done;
  !ok

let pp ppf t =
  Format.fprintf ppf "@[<v>topology: %d buses, %d processors, %d bridges" (num_buses t)
    (num_processors t) (num_bridges t);
  Array.iter
    (fun g ->
      Format.fprintf ppf "@,  %s %s: %dx%d (mu=%.3g)"
        (match g.grid_kind with Mesh -> "mesh" | Torus -> "torus")
        g.grid_name g.rows g.cols g.grid_rate)
    t.t_grids;
  Array.iter
    (fun b ->
      let procs = processors_on_bus t b.bus_id |> List.map (fun p -> p.proc_name) in
      Format.fprintf ppf "@,  bus %s (mu=%.3g)%s: procs [%s]" b.bus_name b.service_rate
        (if shared_buffer t b.bus_id then " [shared]" else "")
        (String.concat "; " procs))
    t.t_buses;
  Array.iter
    (fun br ->
      let x, y = br.endpoints in
      Format.fprintf ppf "@,  bridge %s: %s <-> %s" br.bridge_name (bus t x).bus_name
        (bus t y).bus_name)
    t.t_bridges;
  Format.fprintf ppf "@]"
