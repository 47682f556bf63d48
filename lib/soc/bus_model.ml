module Ctmdp = Bufsize_mdp.Ctmdp
module Policy = Bufsize_mdp.Policy

type client_model = {
  client : Traffic.client;
  arrival_rate : float;
  levels : int;
  weight : float;
}

type t = {
  sub : Splitting.subsystem;
  all_clients : client_model array;
  loaded : client_model array;  (* levels >= 1, arrival_rate > 0 *)
  radix : int array;  (* levels + 1 per loaded client *)
  model : Ctmdp.t;
}

let choose_levels ?(base = 1) ?(max_states = 256) ?(max_levels = 6) clients =
  let n = List.length clients in
  let rates = Array.of_list (List.map snd clients) in
  let levels = Array.map (fun r -> if r > 0. then base else 0) rates in
  let product () =
    Array.fold_left (fun acc l -> if l > 0 then acc * (l + 1) else acc) 1 levels
  in
  if product () > max_states then
    (* Too many loaded clients for the cap even at the base level; shrink
       the base for the lightest clients until it fits. *)
    begin
      let order = Array.init n (fun i -> i) in
      Array.sort (fun i j -> compare rates.(i) rates.(j)) order;
      let idx = ref 0 in
      while product () > max_states && !idx < n do
        let i = order.(!idx) in
        if levels.(i) > 1 then levels.(i) <- 1 else incr idx
      done
    end;
  (* Greedy refinement: grow the level count of the client with the largest
     arrival rate per level while the state space stays under the cap. *)
  let continue = ref true in
  while !continue do
    let best = ref (-1) in
    let best_score = ref 0. in
    for i = 0 to n - 1 do
      if levels.(i) > 0 && levels.(i) < max_levels then begin
        let grown = product () / (levels.(i) + 1) * (levels.(i) + 2) in
        let score = rates.(i) /. float_of_int levels.(i) in
        if grown <= max_states && score > !best_score then begin
          best := i;
          best_score := score
        end
      end
    done;
    if !best >= 0 then levels.(!best) <- levels.(!best) + 1 else continue := false
  done;
  levels

let build ?(weights = fun _ -> 1.) ?levels ?max_states sub =
  let client_list = sub.Splitting.clients in
  let level_vector =
    match levels with
    | Some ls ->
        if Array.length ls <> List.length client_list then
          invalid_arg "Bus_model.build: levels length mismatch";
        List.iteri
          (fun i (_, r) ->
            if r <= 0. && ls.(i) <> 0 then
              invalid_arg "Bus_model.build: positive levels for unloaded client";
            if r > 0. && ls.(i) < 1 then
              invalid_arg "Bus_model.build: loaded client needs at least one level")
          client_list;
        ls
    | None ->
        (* Model resolution follows weighted importance: a client whose
           losses weigh more deserves a finer occupancy discretization. *)
        let importance =
          List.map (fun (c, r) -> (c, r *. Float.max 1e-6 (weights c))) client_list
        in
        choose_levels ?max_states importance
  in
  let all_clients =
    Array.of_list
      (List.mapi
         (fun i (c, r) ->
           { client = c; arrival_rate = r; levels = level_vector.(i); weight = weights c })
         client_list)
  in
  let loaded = Array.of_list (List.filter (fun c -> c.levels > 0) (Array.to_list all_clients)) in
  if Array.length loaded = 0 then
    invalid_arg "Bus_model.build: subsystem has no loaded client";
  let radix = Array.map (fun c -> c.levels + 1) loaded in
  let nl = Array.length loaded in
  let num_states = Array.fold_left ( * ) 1 radix in
  let encode k =
    let s = ref 0 in
    for i = 0 to nl - 1 do
      if k.(i) < 0 || k.(i) >= radix.(i) then invalid_arg "Bus_model: occupancy out of range";
      s := (!s * radix.(i)) + k.(i)
    done;
    !s
  in
  let decode s =
    let k = Array.make nl 0 in
    let rest = ref s in
    for i = nl - 1 downto 0 do
      k.(i) <- !rest mod radix.(i);
      rest := !rest / radix.(i)
    done;
    k
  in
  let mu = sub.Splitting.service_rate in
  (* Cost rate: weighted arrival streams currently blocked (full buffers). *)
  let cost_of k =
    let acc = ref 0. in
    for i = 0 to nl - 1 do
      if k.(i) = loaded.(i).levels then acc := !acc +. (loaded.(i).weight *. loaded.(i).arrival_rate)
    done;
    !acc
  in
  let occupied k =
    let acc = ref 0 in
    for i = 0 to nl - 1 do
      acc := !acc + k.(i)
    done;
    float_of_int !acc
  in
  let arrival_transitions k =
    let acc = ref [] in
    for i = 0 to nl - 1 do
      if k.(i) < loaded.(i).levels then begin
        let k' = Array.copy k in
        k'.(i) <- k.(i) + 1;
        acc := (encode k', loaded.(i).arrival_rate) :: !acc
      end
    done;
    !acc
  in
  let actions =
    Array.init num_states (fun s ->
        let k = decode s in
        let cost = cost_of k in
        let extras = [| occupied k |] in
        let arrivals = arrival_transitions k in
        let serve_actions =
          List.concat
            (List.init nl (fun i ->
                 if k.(i) > 0 then begin
                   let k' = Array.copy k in
                   k'.(i) <- k.(i) - 1;
                   [
                     {
                       Ctmdp.label = Printf.sprintf "serve%d" i;
                       transitions = (encode k', mu) :: arrivals;
                       cost;
                       extras;
                     };
                   ]
                 end
                 else []))
        in
        match serve_actions with
        | [] -> [| { Ctmdp.label = "idle"; transitions = arrivals; cost; extras } |]
        | _ :: _ -> Array.of_list serve_actions)
  in
  let state_labels =
    Array.init num_states (fun s ->
        let k = decode s in
        "("
        ^ String.concat "," (Array.to_list (Array.map string_of_int k))
        ^ ")")
  in
  let model = Ctmdp.create ~state_labels ~num_extras:1 actions in
  { sub; all_clients; loaded; radix; model }

let subsystem t = t.sub
let clients t = Array.copy t.all_clients
let loaded_clients t = Array.copy t.loaded
let ctmdp t = t.model
let num_states t = Ctmdp.num_states t.model

let encode t k =
  let nl = Array.length t.loaded in
  if Array.length k <> nl then invalid_arg "Bus_model.encode: vector length mismatch";
  let s = ref 0 in
  for i = 0 to nl - 1 do
    if k.(i) < 0 || k.(i) >= t.radix.(i) then invalid_arg "Bus_model.encode: occupancy out of range";
    s := (!s * t.radix.(i)) + k.(i)
  done;
  !s

let decode t s =
  let nl = Array.length t.loaded in
  let k = Array.make nl 0 in
  let rest = ref s in
  for i = nl - 1 downto 0 do
    k.(i) <- !rest mod t.radix.(i);
    rest := !rest / t.radix.(i)
  done;
  k

let occupancy_distribution t policy =
  let pi = Policy.stationary t.model policy in
  let nl = Array.length t.loaded in
  let marginals = Array.init nl (fun i -> Array.make (t.loaded.(i).levels + 1) 0.) in
  Array.iteri
    (fun s p ->
      let k = decode t s in
      for i = 0 to nl - 1 do
        marginals.(i).(k.(i)) <- marginals.(i).(k.(i)) +. p
      done)
    pi;
  marginals

let total_levels t = Array.fold_left (fun acc c -> acc + c.levels) 0 t.loaded

module Shared = struct
  type t = {
    sh_sub : Splitting.subsystem;
    sh_all : client_model array;
    sh_loaded : client_model array;  (* arrival_rate > 0, in client order *)
    capacity : int;
    states : int array array;  (* state -> pool occupancy vector, lex order *)
    sh_model : Ctmdp.t;
  }

  let state_count ~capacity n =
    (* C(capacity + n, n), saturating *)
    let acc = ref 1 in
    for i = 1 to n do
      acc := !acc * (capacity + i) / i;
      if !acc > 1 lsl 40 then acc := 1 lsl 40
    done;
    !acc

  let choose_capacity ?(max_states = 256) n =
    if n < 1 then invalid_arg "Bus_model.Shared.choose_capacity: no clients";
    let k = ref 1 in
    while state_count ~capacity:(!k + 1) n <= max_states do
      incr k
    done;
    !k

  let enumerate n capacity =
    let acc = ref [] in
    let k = Array.make n 0 in
    let rec go i remaining =
      if i = n then acc := Array.copy k :: !acc
      else
        for v = 0 to remaining do
          k.(i) <- v;
          go (i + 1) (remaining - v)
        done
    in
    go 0 capacity;
    Array.of_list (List.rev !acc)

  let build ?(weights = fun _ -> 1.) ?static_levels ?(max_states = 10_000) ~capacity sub =
    if capacity < 1 then invalid_arg "Bus_model.Shared.build: capacity must be >= 1";
    let client_list = sub.Splitting.clients in
    let sh_all =
      Array.of_list
        (List.map
           (fun (c, r) -> { client = c; arrival_rate = r; levels = capacity; weight = weights c })
           client_list)
    in
    let sh_loaded =
      Array.of_list (List.filter (fun c -> c.arrival_rate > 0.) (Array.to_list sh_all))
    in
    let n = Array.length sh_loaded in
    if n = 0 then invalid_arg "Bus_model.Shared.build: subsystem has no loaded client";
    if state_count ~capacity n > max_states then
      invalid_arg
        (Printf.sprintf "Bus_model.Shared.build: %d clients at capacity %d need %d states (cap %d)"
           n capacity (state_count ~capacity n) max_states);
    (* Static level vector of the partition to mimic, restricted to loaded
       clients; its induced admission rule "admit i iff its static queue
       has room" is added to every state's admission alternatives, which
       makes the static-partition optimum representable in this model. *)
    let mimic =
      match static_levels with
      | None -> None
      | Some ls ->
          if Array.length ls <> List.length client_list then
            invalid_arg "Bus_model.Shared.build: static_levels length mismatch";
          let picked = ref [] in
          List.iteri
            (fun i (_, r) -> if r > 0. then picked := ls.(i) :: !picked)
            client_list;
          Some (Array.of_list (List.rev !picked))
    in
    let states = enumerate n capacity in
    let index = Hashtbl.create (Array.length states * 2) in
    Array.iteri (fun s k -> Hashtbl.replace index k s) states;
    let encode k =
      match Hashtbl.find_opt index k with
      | Some s -> s
      | None -> invalid_arg "Bus_model.Shared: occupancy out of range"
    in
    let mu = sub.Splitting.service_rate in
    let full_set = List.init n (fun i -> i) in
    (* Admission alternatives: admit-all, admit-all-but-one (reserve a slot
       against one stream), and — when mimicking — the static partition's
       rule.  Enumerating all 2^n subsets would square the LP for nothing:
       these already include every undominated single-slot reservation. *)
    let admissions k =
      let cands =
        full_set :: List.map (fun i -> List.filter (fun j -> j <> i) full_set) full_set
      in
      let cands =
        match mimic with
        | None -> cands
        | Some ls ->
            let a = List.filter (fun i -> k.(i) < ls.(i)) full_set in
            a :: cands
      in
      List.sort_uniq compare cands
    in
    let num_states = Array.length states in
    let actions =
      Array.init num_states (fun s ->
          let k = states.(s) in
          let total = Array.fold_left ( + ) 0 k in
          let extras = [| float_of_int total |] in
          let serve_bases =
            List.concat
              (List.init n (fun j ->
                   if k.(j) > 0 then begin
                     let k' = Array.copy k in
                     k'.(j) <- k.(j) - 1;
                     [ (Printf.sprintf "serve%d" j, [ (encode k', mu) ]) ]
                   end
                   else []))
          in
          let bases = if serve_bases = [] then [ ("idle", []) ] else serve_bases in
          let acts =
            if total = capacity then
              (* Pool full: every arrival is lost no matter what. *)
              let cost =
                Array.fold_left (fun acc c -> acc +. (c.weight *. c.arrival_rate)) 0. sh_loaded
              in
              List.filter_map
                (fun (label, moves) ->
                  if moves = [] then None
                  else Some { Ctmdp.label; transitions = moves; cost; extras })
                bases
            else
              List.concat_map
                (fun (base_label, moves) ->
                  List.filter_map
                    (fun adm ->
                      let arrivals =
                        List.map
                          (fun i ->
                            let k' = Array.copy k in
                            k'.(i) <- k.(i) + 1;
                            (encode k', sh_loaded.(i).arrival_rate))
                          adm
                      in
                      let transitions = moves @ arrivals in
                      if transitions = [] then None
                      else begin
                        let cost =
                          List.fold_left
                            (fun acc i ->
                              if List.mem i adm then acc
                              else acc +. (sh_loaded.(i).weight *. sh_loaded.(i).arrival_rate))
                            0. full_set
                        in
                        let label =
                          if adm = full_set then base_label
                          else
                            base_label ^ "_adm"
                            ^ String.concat "" (List.map string_of_int adm)
                        in
                        Some { Ctmdp.label; transitions; cost; extras }
                      end)
                    (admissions k))
                bases
          in
          Array.of_list acts)
    in
    let state_labels =
      Array.map
        (fun k -> "(" ^ String.concat "," (Array.to_list (Array.map string_of_int k)) ^ ")")
        states
    in
    let sh_model = Ctmdp.create ~state_labels ~num_extras:1 actions in
    { sh_sub = sub; sh_all; sh_loaded; capacity; states; sh_model }

  let subsystem t = t.sh_sub
  let clients t = Array.copy t.sh_all
  let loaded_clients t = Array.copy t.sh_loaded
  let ctmdp t = t.sh_model
  let num_states t = Array.length t.states
  let capacity t = t.capacity
  let state t s = Array.copy t.states.(s)

  let pool_distribution t policy =
    let pi = Policy.stationary t.sh_model policy in
    let dist = Array.make (t.capacity + 1) 0. in
    Array.iteri
      (fun s p ->
        let total = Array.fold_left ( + ) 0 t.states.(s) in
        dist.(total) <- dist.(total) +. p)
      pi;
    dist

  let expected_total t policy =
    let dist = pool_distribution t policy in
    let acc = ref 0. in
    Array.iteri (fun l p -> acc := !acc +. (float_of_int l *. p)) dist;
    !acc

  let pp ppf t =
    Format.fprintf ppf
      "@[<v>shared bus model %s: %d loaded clients, pool capacity %d, %d states"
      t.sh_sub.Splitting.bus_name (Array.length t.sh_loaded) t.capacity (num_states t);
    Array.iter
      (fun c ->
        Format.fprintf ppf "@,  client rate=%.3g weight=%.3g" c.arrival_rate c.weight)
      t.sh_loaded;
    Format.fprintf ppf "@]"
end

let pp ppf t =
  Format.fprintf ppf "@[<v>bus model %s: %d loaded clients, %d states" t.sub.Splitting.bus_name
    (Array.length t.loaded) (num_states t);
  Array.iter
    (fun c ->
      Format.fprintf ppf "@,  client rate=%.3g levels=%d weight=%.3g" c.arrival_rate c.levels
        c.weight)
    t.loaded;
  Format.fprintf ppf "@]"
