module Rng = Bufsize_prob.Rng
module Topology = Bufsize_soc.Topology
module Traffic = Bufsize_soc.Traffic
module Spec_parser = Bufsize_soc.Spec_parser
module Monolithic = Bufsize_soc.Monolithic
module Ctmdp = Bufsize_mdp.Ctmdp

(* Round to 3 decimals: keeps generated instances printable/re-parseable
   without loss and avoids adversarially ill-conditioned coefficients. *)
let round3 x = Float.round (x *. 1000.) /. 1000.

let float_in rng lo hi = round3 (Rng.float_range rng lo hi)

(* ------------------------------------------------------- architectures *)

type arch_knobs = {
  max_buses : int;
  max_procs_per_bus : int;
  max_extra_bridges : int;
  max_flows_per_proc : int;
  min_service : float;
  max_service : float;
  min_rate : float;
  max_rate : float;
  max_utilization : float;
}

let default_arch_knobs =
  {
    max_buses = 3;
    max_procs_per_bus = 2;
    max_extra_bridges = 1;
    max_flows_per_proc = 2;
    min_service = 1.0;
    max_service = 6.0;
    min_rate = 0.1;
    max_rate = 2.0;
    max_utilization = 0.9;
  }

let arch ?(knobs = default_arch_knobs) rng =
  if knobs.max_buses < 1 || knobs.max_procs_per_bus < 1 then
    invalid_arg "Gen_model.arch: degenerate knobs";
  let nbuses = 1 + Rng.int rng knobs.max_buses in
  let b = Topology.builder () in
  let buses =
    Array.init nbuses (fun i ->
        Topology.add_bus b
          ~service_rate:(float_in rng knobs.min_service knobs.max_service)
          (Printf.sprintf "b%d" i))
  in
  (* A spanning tree keeps the bus graph connected; extra bridges add
     alternative routes (and exercise the BFS tie-breaking). *)
  let bridged = Hashtbl.create 8 in
  let nbridges = ref 0 in
  let add_bridge x y =
    let key = (Int.min x y, Int.max x y) in
    if x <> y && not (Hashtbl.mem bridged key) then begin
      Hashtbl.add bridged key ();
      ignore
        (Topology.add_bridge b
           ~between:(buses.(x), buses.(y))
           (Printf.sprintf "br%d" !nbridges));
      incr nbridges
    end
  in
  for i = 1 to nbuses - 1 do
    add_bridge (Rng.int rng i) i
  done;
  if nbuses >= 2 then
    for _ = 1 to Rng.int rng (knobs.max_extra_bridges + 1) do
      add_bridge (Rng.int rng nbuses) (Rng.int rng nbuses)
    done;
  let procs = ref [] in
  let nprocs = ref 0 in
  let add_proc bus =
    procs := Topology.add_processor b ~bus:buses.(bus) (Printf.sprintf "p%d" !nprocs) :: !procs;
    incr nprocs
  in
  for bus = 0 to nbuses - 1 do
    for _ = 1 to 1 + Rng.int rng knobs.max_procs_per_bus do
      add_proc bus
    done
  done;
  (* Flows need two distinct endpoints. *)
  if !nprocs < 2 then add_proc 0;
  let procs = Array.of_list (List.rev !procs) in
  let np = Array.length procs in
  let flows = ref [] in
  Array.iter
    (fun src ->
      (* Every processor emits at least one flow, so every bus that has
         processors carries a loaded client (Bus_model.build requires one
         per subsystem). *)
      for _ = 1 to 1 + Rng.int rng knobs.max_flows_per_proc do
        let dst = ref src in
        while !dst = src do
          dst := procs.(Rng.int rng np)
        done;
        flows :=
          { Traffic.src; dst = !dst; rate = float_in rng knobs.min_rate knobs.max_rate }
          :: !flows
      done)
    procs;
  let topo = Topology.finalize b in
  let traffic = Traffic.create topo (List.rev !flows) in
  (* Rescale so the busiest bus stays below the utilization knob: heavily
     overloaded subsystems make the sizing LPs uninformative. *)
  let max_rho = ref 0. in
  Array.iter
    (fun (bus : Topology.bus) ->
      max_rho := Float.max !max_rho (Traffic.bus_utilization traffic bus.Topology.bus_id))
    (Topology.buses topo);
  if !max_rho <= knobs.max_utilization then (topo, traffic)
  else begin
    let f = knobs.max_utilization /. !max_rho in
    (* Round scaled rates DOWN so rounding never pushes a bus back above
       the cap; only the 0.001 floor can, by a hair per tiny flow. *)
    let scaled =
      List.map
        (fun (fl : Traffic.flow) ->
          { fl with Traffic.rate = Float.max 0.001 (Float.of_int (int_of_float (fl.Traffic.rate *. f *. 1000.)) /. 1000.) })
        (List.rev !flows)
    in
    (topo, Traffic.create topo scaled)
  end

let arch_text ?knobs rng =
  let topo, traffic = arch ?knobs rng in
  Spec_parser.to_string topo traffic

(* ---------------------------------------------------- grid architectures *)

type topo_knobs = {
  max_grid_dim : int;
  max_flows_per_ni : int;
  grid_min_service : float;
  grid_max_service : float;
  grid_min_rate : float;
  grid_max_rate : float;
  grid_max_utilization : float;
}

let default_topo_knobs =
  {
    max_grid_dim = 3;
    max_flows_per_ni = 2;
    grid_min_service = 2.0;
    grid_max_service = 6.0;
    grid_min_rate = 0.05;
    grid_max_rate = 0.4;
    grid_max_utilization = 0.85;
  }

let topo_arch ?(knobs = default_topo_knobs) rng =
  if knobs.max_grid_dim < 2 then invalid_arg "Gen_model.topo_arch: need dims >= 2";
  let rows = 2 + Rng.int rng (knobs.max_grid_dim - 1) in
  let cols = 2 + Rng.int rng (knobs.max_grid_dim - 1) in
  let kind = if Rng.bool rng then Topology.Mesh else Topology.Torus in
  let b = Topology.builder () in
  let service_rate = float_in rng knobs.grid_min_service knobs.grid_max_service in
  let cells =
    (match kind with Topology.Mesh -> Topology.mesh | Topology.Torus -> Topology.torus)
      b ~service_rate ~rows ~cols "g"
  in
  let n = rows * cols in
  (* At least one router draws from a shared pool; the others flip coins,
     so mixed static/shared instances are common. *)
  let forced_shared = Rng.int rng n in
  for i = 0 to n - 1 do
    if i = forced_shared || Rng.bool rng then
      Topology.mark_shared b cells.(i / cols).(i mod cols)
  done;
  let procs =
    Array.init n (fun i ->
        Topology.add_processor b ~bus:cells.(i / cols).(i mod cols)
          (Printf.sprintf "ni%d" i))
  in
  let flows = ref [] in
  (* Every network interface emits at least one flow, so every cell bus
     carries a loaded client (Bus_model.build requires one per
     subsystem). *)
  Array.iteri
    (fun i src ->
      for _ = 1 to 1 + Rng.int rng knobs.max_flows_per_ni do
        let dst = ref i in
        while !dst = i do
          dst := Rng.int rng n
        done;
        flows :=
          {
            Traffic.src;
            dst = procs.(!dst);
            rate = float_in rng knobs.grid_min_rate knobs.grid_max_rate;
          }
          :: !flows
      done)
    procs;
  let topo = Topology.finalize b in
  let flows = List.rev !flows in
  let traffic = Traffic.create topo flows in
  (* Transit load concentrates on interior routers; rescale like {!arch}
     so the busiest bus stays below the utilization knob. *)
  let max_rho = ref 0. in
  Array.iter
    (fun (bus : Topology.bus) ->
      max_rho := Float.max !max_rho (Traffic.bus_utilization traffic bus.Topology.bus_id))
    (Topology.buses topo);
  if !max_rho <= knobs.grid_max_utilization then (topo, traffic)
  else begin
    let f = knobs.grid_max_utilization /. !max_rho in
    let scaled =
      List.map
        (fun (fl : Traffic.flow) ->
          { fl with Traffic.rate = Float.max 0.001 (Float.of_int (int_of_float (fl.Traffic.rate *. f *. 1000.)) /. 1000.) })
        flows
    in
    (topo, Traffic.create topo scaled)
  end

(* --------------------------------------------------------------- CTMDPs *)

type ctmdp_knobs = {
  max_states : int;
  max_actions : int;
  max_fanout : int;
  min_trans_rate : float;
  max_trans_rate : float;
  max_cost : float;
  max_extra : float;
}

let default_ctmdp_knobs =
  {
    max_states = 6;
    max_actions = 3;
    max_fanout = 2;
    min_trans_rate = 0.2;
    max_trans_rate = 4.0;
    max_cost = 5.0;
    max_extra = 4.0;
  }

type ctmdp_case = {
  num_states : int;
  actions : (string * (int * float) list * float * float) list array;
}

let ctmdp_case ?(knobs = default_ctmdp_knobs) rng =
  if knobs.max_states < 2 then invalid_arg "Gen_model.ctmdp_case: need >= 2 states";
  let n = 2 + Rng.int rng (knobs.max_states - 1) in
  let actions =
    Array.init n (fun s ->
        let na = 1 + Rng.int rng knobs.max_actions in
        List.init na (fun a ->
            (* Accumulate rates per target; the mandatory cycle edge
               [s -> s+1 mod n] makes every deterministic policy's chain
               irreducible, so policy iteration's evaluation system is
               never singular. *)
            let tbl = Hashtbl.create 4 in
            let add t r =
              Hashtbl.replace tbl t (r +. Option.value ~default:0. (Hashtbl.find_opt tbl t))
            in
            add ((s + 1) mod n) (float_in rng knobs.min_trans_rate knobs.max_trans_rate);
            for _ = 1 to Rng.int rng (knobs.max_fanout + 1) do
              let t = Rng.int rng n in
              if t <> s then add t (float_in rng knobs.min_trans_rate knobs.max_trans_rate)
            done;
            let transitions =
              Hashtbl.fold (fun t r acc -> (t, r) :: acc) tbl []
              |> List.sort (fun (a, _) (b, _) -> compare a b)
            in
            ( Printf.sprintf "a%d" a,
              transitions,
              float_in rng 0. knobs.max_cost,
              float_in rng 0. knobs.max_extra )))
  in
  { num_states = n; actions }

let ctmdp_of_case c =
  Ctmdp.create ~num_extras:1 (Array.length c.actions) (fun b s ->
      List.iter
        (fun (label, transitions, cost, extra) ->
          Ctmdp.add_action b ~label ~cost ~extras:[| extra |];
          List.iter (fun (j, r) -> Ctmdp.add_transition b j r) transitions)
        c.actions.(s))

(* Lossless float printing for repro files: %g where it round-trips (the
   common round3 case), full precision otherwise (coefficients summed
   during generation or shrinking need not land on 3 decimals). *)
let fstr x =
  let s = Printf.sprintf "%g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

let fstr_signed x = if x >= 0. then "+" ^ fstr x else fstr x

let ctmdp_case_to_string c =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "ctmdp states %d extras 1\n" c.num_states);
  Array.iteri
    (fun s acts ->
      List.iter
        (fun (label, transitions, cost, extra) ->
          Buffer.add_string buf
            (Printf.sprintf "state %d action %s cost %s extra %s :%s\n" s label (fstr cost)
               (fstr extra)
               (String.concat ""
                  (List.map (fun (t, r) -> Printf.sprintf " ->%d@%s" t (fstr r)) transitions))))
        acts)
    c.actions;
  Buffer.contents buf

let ctmdp ?knobs rng = ctmdp_of_case (ctmdp_case ?knobs rng)

(* ------------------------------------------------------ linear programs *)

type lp_knobs = {
  max_vars : int;
  max_rows : int;
  max_terms : int;
  free_var_freq : int;
  max_coeff : float;
}

let default_lp_knobs =
  { max_vars = 5; max_rows = 4; max_terms = 3; free_var_freq = 6; max_coeff = 3.0 }

type lp_case = {
  maximize : bool;
  lbs : float array;
  obj : float array;
  rows : ((int * float) list * Lp.sense * float) list;
}

let lp_case ?(knobs = default_lp_knobs) rng =
  let n = 1 + Rng.int rng knobs.max_vars in
  let lbs =
    Array.init n (fun _ ->
        if knobs.free_var_freq > 0 && Rng.int rng knobs.free_var_freq = 0 then neg_infinity
        else if Rng.int rng 4 = 0 then float_in rng (-2.) 2.
        else 0.)
  in
  let obj = Array.init n (fun _ -> float_in rng (-.knobs.max_coeff) knobs.max_coeff) in
  (* One box row per variable keeps most instances bounded; extra rows mix
     senses and signs, so infeasible (and occasionally unbounded, via free
     variables) classifications are exercised too. *)
  let box =
    List.init n (fun j -> ([ (j, 1.) ], Lp.Le, float_in rng 1. 10.))
  in
  let nrows = Rng.int rng (knobs.max_rows + 1) in
  let extra =
    List.init nrows (fun _ ->
        let nterms = 1 + Rng.int rng knobs.max_terms in
        let tbl = Hashtbl.create 4 in
        for _ = 1 to nterms do
          let j = Rng.int rng n in
          let c = float_in rng (-.knobs.max_coeff) knobs.max_coeff in
          if c <> 0. then
            Hashtbl.replace tbl j (c +. Option.value ~default:0. (Hashtbl.find_opt tbl j))
        done;
        let terms =
          Hashtbl.fold (fun j c acc -> (j, c) :: acc) tbl []
          |> List.sort (fun (a, _) (b, _) -> compare a b)
        in
        let sense =
          match Rng.int rng 5 with 0 -> Lp.Eq | 1 | 2 -> Lp.Ge | _ -> Lp.Le
        in
        let rhs =
          (* Bias right-hand sides toward feasibility (Le rows nonnegative,
             Ge rows small) so most instances are Optimal. *)
          match sense with
          | Lp.Le -> float_in rng 0. 8.
          | Lp.Ge -> float_in rng (-4.) 2.
          | Lp.Eq -> float_in rng (-1.) 3.
        in
        (terms, sense, rhs))
  in
  { maximize = Rng.bool rng; lbs; obj; rows = box @ extra }

let lp_of_case c =
  let m = Lp.create (if c.maximize then Lp.Maximize else Lp.Minimize) in
  let vars =
    Array.mapi (fun j lb -> Lp.add_var ~name:(Printf.sprintf "x%d" j) ~lb m) c.lbs
  in
  Lp.set_objective m (Array.to_list (Array.mapi (fun j cj -> (cj, vars.(j))) c.obj));
  List.iter
    (fun (terms, sense, rhs) ->
      match terms with
      | [] -> ()
      | _ -> Lp.add_constraint m (List.map (fun (j, cf) -> (cf, vars.(j))) terms) sense rhs)
    c.rows;
  m

let lp_case_to_string c =
  let buf = Buffer.create 256 in
  let n = Array.length c.obj in
  Buffer.add_string buf
    (Printf.sprintf "lp %s vars %d\n" (if c.maximize then "maximize" else "minimize") n);
  Buffer.add_string buf "objective:";
  Array.iteri (fun j cj -> Buffer.add_string buf (Printf.sprintf " %s x%d" (fstr_signed cj) j)) c.obj;
  Buffer.add_char buf '\n';
  Array.iteri
    (fun j lb ->
      if lb <> 0. then
        Buffer.add_string buf
          (if lb = neg_infinity then Printf.sprintf "x%d free\n" j
           else Printf.sprintf "x%d >= %s\n" j (fstr lb)))
    c.lbs;
  List.iter
    (fun (terms, sense, rhs) ->
      Buffer.add_string buf "row:";
      List.iter
        (fun (j, cf) -> Buffer.add_string buf (Printf.sprintf " %s x%d" (fstr_signed cf) j))
        terms;
      let s = match sense with Lp.Le -> "<=" | Lp.Eq -> "=" | Lp.Ge -> ">=" in
      Buffer.add_string buf (Printf.sprintf " %s %s\n" s (fstr rhs)))
    c.rows;
  Buffer.contents buf

(* --------------------------------------------------- queues and bridges *)

type mm1k_case = { lambda : float; mu : float; k : int; sim_seed : int }

let mm1k_case rng =
  let mu = float_in rng 0.5 4.0 in
  let rho = Rng.float_range rng 0.2 1.2 in
  let lambda = Float.max 0.05 (round3 (rho *. mu)) in
  { lambda; mu; k = 1 + Rng.int rng 8; sim_seed = 1 + Rng.int rng 1_000_000 }

let monolithic_spec rng =
  let mu_x = float_in rng 1.0 4.0 and mu_y = float_in rng 1.0 4.0 in
  let lambda_x = Float.max 0.05 (round3 (Rng.float_range rng 0.15 0.85 *. mu_x)) in
  let lambda_y = Float.max 0.05 (round3 (Rng.float_range rng 0.15 0.85 *. mu_y)) in
  let cross_fraction = if Rng.int rng 4 = 0 then 0. else float_in rng 0. 0.25 in
  {
    Monolithic.kx = 1 + Rng.int rng 4;
    ky = 1 + Rng.int rng 4;
    lambda_x;
    lambda_y;
    cross_fraction;
    mu_x;
    mu_y;
  }

let monolithic_to_string (s : Monolithic.spec) =
  Printf.sprintf
    "monolithic kx %d ky %d lambda_x %s lambda_y %s cross_fraction %s mu_x %s mu_y %s\n"
    s.Monolithic.kx s.Monolithic.ky
    (fstr s.Monolithic.lambda_x)
    (fstr s.Monolithic.lambda_y)
    (fstr s.Monolithic.cross_fraction)
    (fstr s.Monolithic.mu_x) (fstr s.Monolithic.mu_y)

(* ------------------------------------------------------- repro parsing *)

(* Inverses of the printers above, for `bufsize verify --replay`.  All
   parsers skip blank and '#' comment lines and return [Error] with the
   offending line instead of raising. *)

let repro_lines text =
  String.split_on_char '\n' text
  |> List.map String.trim
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')

let tokens line = String.split_on_char ' ' line |> List.filter (fun t -> t <> "")

(* A finite number; [nan] and [inf] tokens do not parse, so a repro can
   only declare -inf through a [free] line. *)
let float_token tok =
  match float_of_string_opt tok with Some x when Float.is_finite x -> Some x | _ -> None

(* "x3" -> Some 3 *)
let parse_var_tok n tok =
  if String.length tok >= 2 && tok.[0] = 'x' then
    match int_of_string_opt (String.sub tok 1 (String.length tok - 1)) with
    | Some j when j >= 0 && j < n -> Some j
    | _ -> None
  else None

(* coefficient/variable pairs, optionally ending in a sense and rhs *)
let rec parse_terms n acc = function
  | [] -> Some (List.rev acc, None)
  | [ sense; rhs ] when sense = "<=" || sense = "=" || sense = ">=" -> (
      match float_token rhs with
      | Some r ->
          let s = match sense with "<=" -> Lp.Le | ">=" -> Lp.Ge | _ -> Lp.Eq in
          Some (List.rev acc, Some (s, r))
      | None -> None)
  | coef :: var :: tl -> (
      match (float_token coef, parse_var_tok n var) with
      | Some c, Some v -> parse_terms n ((v, c) :: acc) tl
      | _ -> None)
  | _ -> None

let lp_case_of_string text =
  match repro_lines text with
  | [] -> Error "lp: empty repro"
  | header :: rest -> (
      match tokens header with
      | [ "lp"; dir; "vars"; nv ] when dir = "maximize" || dir = "minimize" -> (
          match int_of_string_opt nv with
          | Some n when n >= 1 -> (
              let lbs = Array.make n 0. in
              let obj = Array.make n 0. in
              let rows = ref [] in
              let error = ref None in
              let fail msg = if !error = None then error := Some msg in
              List.iter
                (fun line ->
                  match tokens line with
                  | "objective:" :: tl -> (
                      match parse_terms n [] tl with
                      | Some (terms, None) -> List.iter (fun (v, c) -> obj.(v) <- c) terms
                      | _ -> fail ("lp: bad objective line: " ^ line))
                  | [ v; "free" ] -> (
                      match parse_var_tok n v with
                      | Some j -> lbs.(j) <- neg_infinity
                      | None -> fail ("lp: bad free line: " ^ line))
                  | [ v; ">="; b ] -> (
                      match (parse_var_tok n v, float_token b) with
                      | Some j, Some lb -> lbs.(j) <- lb
                      | _ -> fail ("lp: bad bound line: " ^ line))
                  | "row:" :: tl -> (
                      match parse_terms n [] tl with
                      | Some (terms, Some (sense, rhs)) -> rows := (terms, sense, rhs) :: !rows
                      | _ -> fail ("lp: bad row line: " ^ line))
                  | _ -> fail ("lp: unrecognized line: " ^ line))
                rest;
              match !error with
              | Some e -> Error e
              | None -> Ok { maximize = dir = "maximize"; lbs; obj; rows = List.rev !rows })
          | _ -> Error ("lp: bad variable count: " ^ nv))
      | _ -> Error ("lp: bad header: " ^ header))

(* "->3@1.5" -> Some (3, 1.5) *)
let parse_transition_tok tok =
  if String.length tok > 2 && tok.[0] = '-' && tok.[1] = '>' then
    match String.index_opt tok '@' with
    | Some at -> (
        match
          ( int_of_string_opt (String.sub tok 2 (at - 2)),
            float_token (String.sub tok (at + 1) (String.length tok - at - 1)) )
        with
        | Some t, Some r -> Some (t, r)
        | _ -> None)
    | None -> None
  else None

let ctmdp_case_of_string text =
  match repro_lines text with
  | [] -> Error "ctmdp: empty repro"
  | header :: rest -> (
      match tokens header with
      | [ "ctmdp"; "states"; nv; "extras"; _ ] -> (
          match int_of_string_opt nv with
          | Some n when n >= 1 -> (
              (* Reversed per-state action lists, un-reversed at the end. *)
              let actions = Array.make n [] in
              let error = ref None in
              let fail msg = if !error = None then error := Some msg in
              List.iter
                (fun line ->
                  match tokens line with
                  | "state" :: s :: "action" :: label :: "cost" :: c :: "extra" :: e :: ":"
                    :: trans -> (
                      let transitions =
                        List.fold_left
                          (fun acc tok ->
                            match (acc, parse_transition_tok tok) with
                            | Some acc, Some (t, r) when t >= 0 && t < n ->
                                Some ((t, r) :: acc)
                            | _ -> None)
                          (Some []) trans
                      in
                      match (int_of_string_opt s, float_token c, float_token e, transitions) with
                      | Some s, Some cost, Some extra, Some ts when s >= 0 && s < n ->
                          actions.(s) <- (label, List.rev ts, cost, extra) :: actions.(s)
                      | _ -> fail ("ctmdp: bad action line: " ^ line))
                  | _ -> fail ("ctmdp: unrecognized line: " ^ line))
                rest;
              match !error with
              | Some e -> Error e
              | None ->
                  let actions = Array.map List.rev actions in
                  if Array.exists (fun acts -> acts = []) actions then
                    Error "ctmdp: some state has no actions"
                  else Ok { num_states = n; actions })
          | _ -> Error ("ctmdp: bad state count: " ^ nv))
      | _ -> Error ("ctmdp: bad header: " ^ header))

let monolithic_of_string text =
  match repro_lines text with
  | [ line ] -> (
      match tokens line with
      | [
       "monolithic"; "kx"; kx; "ky"; ky; "lambda_x"; lx; "lambda_y"; ly; "cross_fraction"; cf;
       "mu_x"; mx; "mu_y"; my;
      ] -> (
          match
            ( int_of_string_opt kx,
              int_of_string_opt ky,
              float_token lx,
              float_token ly,
              float_token cf,
              float_token mx,
              float_token my )
          with
          | Some kx, Some ky, Some lambda_x, Some lambda_y, Some cross_fraction, Some mu_x, Some mu_y
            ->
              Ok
                {
                  Monolithic.kx;
                  ky;
                  lambda_x;
                  lambda_y;
                  cross_fraction;
                  mu_x;
                  mu_y;
                }
          | _ -> Error ("monolithic: bad field: " ^ line))
      | _ -> Error ("monolithic: unrecognized line: " ^ line))
  | [] -> Error "monolithic: empty repro"
  | _ -> Error "monolithic: expected exactly one spec line"

(* ----------------------------------------------------- SAN descriptors *)

module San = Bufsize_prob.San

type san_knobs = {
  max_automata : int;
  max_size : int;
  max_extra_local : int;
  max_events : int;
  min_rate : float;
  max_rate : float;
}

let default_san_knobs =
  {
    max_automata = 3;
    max_size = 4;
    max_extra_local = 2;
    max_events = 2;
    min_rate = 0.1;
    max_rate = 2.0;
  }

type san_case = { automata : San.automaton list; events : San.event list }

let san_case ?(knobs = default_san_knobs) rng =
  if knobs.max_automata < 2 || knobs.max_size < 2 then
    invalid_arg "Gen_model.san_case: degenerate knobs";
  let n_aut = 2 + Rng.int rng (knobs.max_automata - 1) in
  let automata =
    List.init n_aut (fun i ->
        let d = 2 + Rng.int rng (knobs.max_size - 1) in
        (* The local cycle s -> s+1 mod d visits every local state under
           local transitions alone, so the joint chain is irreducible no
           matter what the events do — the stationary cross-check never
           chases closed-class ambiguity. *)
        let cycle =
          List.init d (fun s -> (s, (s + 1) mod d, float_in rng knobs.min_rate knobs.max_rate))
        in
        let extras =
          List.init
            (Rng.int rng (knobs.max_extra_local + 1))
            (fun _ ->
              let f = Rng.int rng d in
              let t = ref (Rng.int rng d) in
              while !t = f do
                t := Rng.int rng d
              done;
              (f, !t, float_in rng knobs.min_rate knobs.max_rate))
        in
        { San.name = Printf.sprintf "a%d" i; size = d; local = cycle @ extras })
  in
  let sizes = Array.of_list (List.map (fun a -> a.San.size) automata) in
  let events =
    List.init
      (Rng.int rng (knobs.max_events + 1))
      (fun e ->
        let participates = Array.init n_aut (fun _ -> Rng.bool rng) in
        if Array.for_all not participates then participates.(Rng.int rng n_aut) <- true;
        let routing =
          List.init n_aut Fun.id
          |> List.filter_map (fun a ->
                 if not participates.(a) then None
                 else begin
                   let d = sizes.(a) in
                   let rows =
                     List.init d (fun s ->
                         if Rng.int rng 3 = 0 then None
                         else Some (s, Rng.int rng d, float_in rng 0.1 1.0))
                     |> List.filter_map Fun.id
                   in
                   (* A participant with no routing rows would disable the
                      event everywhere; keep at least one row. *)
                   let rows =
                     if rows = [] then [ (0, Rng.int rng d, float_in rng 0.1 1.0) ] else rows
                   in
                   Some (a, rows)
                 end)
        in
        let scaling =
          List.init n_aut Fun.id
          |> List.filter_map (fun a ->
                 if participates.(a) || Rng.int rng 3 <> 0 then None
                 else Some (a, Array.init sizes.(a) (fun _ -> float_in rng 0. 1.5)))
        in
        {
          San.label = Printf.sprintf "e%d" e;
          rate = float_in rng knobs.min_rate knobs.max_rate;
          routing;
          scaling;
        })
  in
  { automata; events }

let san_of_case c = San.create c.automata c.events

let san_case_to_string c =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "san automata %d\n" (List.length c.automata));
  Buffer.add_string buf "sizes:";
  List.iter (fun a -> Buffer.add_string buf (Printf.sprintf " %d" a.San.size)) c.automata;
  Buffer.add_char buf '\n';
  let edges rows =
    String.concat ""
      (List.map (fun (f, t, r) -> Printf.sprintf " %d->%d@%s" f t (fstr r)) rows)
  in
  List.iteri
    (fun i a ->
      if a.San.local <> [] then
        Buffer.add_string buf (Printf.sprintf "local %d :%s\n" i (edges a.San.local)))
    c.automata;
  List.iter
    (fun e ->
      Buffer.add_string buf (Printf.sprintf "event %s rate %s\n" e.San.label (fstr e.San.rate));
      List.iter
        (fun (a, rows) -> Buffer.add_string buf (Printf.sprintf "route %d :%s\n" a (edges rows)))
        e.San.routing;
      List.iter
        (fun (a, mult) ->
          Buffer.add_string buf (Printf.sprintf "scale %d :" a);
          Array.iter (fun m -> Buffer.add_string buf (" " ^ fstr m)) mult;
          Buffer.add_char buf '\n')
        e.San.scaling)
    c.events;
  Buffer.contents buf

(* "2->0@1.5" -> Some (2, 0, 1.5) *)
let parse_edge_tok tok =
  let len = String.length tok in
  let rec arrow i =
    if i + 1 >= len then None
    else if tok.[i] = '-' && tok.[i + 1] = '>' then Some i
    else arrow (i + 1)
  in
  match arrow 0 with
  | None -> None
  | Some i -> (
      match String.index_from_opt tok i '@' with
      | None -> None
      | Some at -> (
          match
            ( int_of_string_opt (String.sub tok 0 i),
              int_of_string_opt (String.sub tok (i + 2) (at - i - 2)),
              float_token (String.sub tok (at + 1) (len - at - 1)) )
          with
          | Some f, Some t, Some r -> Some (f, t, r)
          | _ -> None))

let san_case_of_string text =
  match repro_lines text with
  | [] -> Error "san: empty repro"
  | header :: rest -> (
      match tokens header with
      | [ "san"; "automata"; na ] -> (
          match int_of_string_opt na with
          | Some n_aut when n_aut >= 1 ->
              let sizes = ref [||] in
              let locals = ref [||] in
              let events = ref [] in
              let current = ref None in
              let error = ref None in
              let fail msg = if !error = None then error := Some msg in
              let flush () =
                match !current with
                | Some (label, rate, routing, scaling) ->
                    events :=
                      {
                        San.label;
                        rate;
                        routing = List.rev routing;
                        scaling = List.rev scaling;
                      }
                      :: !events;
                    current := None
                | None -> ()
              in
              let parse_edges line tl =
                List.fold_left
                  (fun acc tok ->
                    match (acc, parse_edge_tok tok) with
                    | Some acc, Some e -> Some (e :: acc)
                    | _ ->
                        fail ("san: bad edge token in: " ^ line);
                        None)
                  (Some []) tl
                |> Option.map List.rev
              in
              let automaton_index line a =
                match int_of_string_opt a with
                | Some i when i >= 0 && i < n_aut -> Some i
                | _ ->
                    fail ("san: automaton index out of range in: " ^ line);
                    None
              in
              List.iter
                (fun line ->
                  match tokens line with
                  | "sizes:" :: tl ->
                      let parsed = List.filter_map int_of_string_opt tl in
                      if List.length parsed <> n_aut || List.exists (fun d -> d < 1) parsed
                      then fail ("san: bad sizes line: " ^ line)
                      else begin
                        sizes := Array.of_list parsed;
                        locals := Array.make n_aut []
                      end
                  | "local" :: a :: ":" :: tl -> (
                      match (automaton_index line a, parse_edges line tl) with
                      | Some i, Some edges ->
                          if Array.length !locals = 0 then
                            fail "san: local line before sizes"
                          else !locals.(i) <- edges
                      | _ -> ())
                  | [ "event"; label; "rate"; r ] -> (
                      match float_token r with
                      | Some rate ->
                          flush ();
                          current := Some (label, rate, [], [])
                      | None -> fail ("san: bad event line: " ^ line))
                  | "route" :: a :: ":" :: tl -> (
                      match (!current, automaton_index line a, parse_edges line tl) with
                      | Some (label, rate, routing, scaling), Some i, Some edges ->
                          current := Some (label, rate, (i, edges) :: routing, scaling)
                      | None, _, _ -> fail ("san: route line outside an event: " ^ line)
                      | _ -> ())
                  | "scale" :: a :: ":" :: tl -> (
                      let mult = List.filter_map float_token tl in
                      match (!current, automaton_index line a) with
                      | Some (label, rate, routing, scaling), Some i ->
                          if List.length mult <> List.length tl then
                            fail ("san: bad scale line: " ^ line)
                          else
                            current :=
                              Some (label, rate, routing, (i, Array.of_list mult) :: scaling)
                      | None, _ -> fail ("san: scale line outside an event: " ^ line)
                      | _ -> ())
                  | _ -> fail ("san: unrecognized line: " ^ line))
                rest;
              flush ();
              if Array.length !sizes = 0 then fail "san: missing sizes line";
              (match !error with
              | Some e -> Error e
              | None ->
                  let automata =
                    List.init n_aut (fun i ->
                        {
                          San.name = Printf.sprintf "a%d" i;
                          size = !sizes.(i);
                          local = !locals.(i);
                        })
                  in
                  Ok { automata; events = List.rev !events })
          | _ -> Error ("san: bad automata count: " ^ na))
      | _ -> Error ("san: bad header: " ^ header))
