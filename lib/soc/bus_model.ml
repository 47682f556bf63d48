module Ctmdp = Bufsize_mdp.Ctmdp

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
  (* Mixed-radix strides: client i's occupancy moves a state index by
     stride.(i) (client 0 most significant). *)
  let stride = Array.make nl 1 in
  for i = nl - 2 downto 0 do
    stride.(i) <- stride.(i + 1) * radix.(i + 1)
  done;
  let serve_labels = Array.init nl (Printf.sprintf "serve%d") in
  let state_label s =
    "(" ^ String.concat "," (Array.to_list (Array.map string_of_int (decode s))) ^ ")"
  in
  let model =
    Ctmdp.create ~state_label ~num_extras:1 num_states (fun b s ->
        let k = decode s and occupied = ref 0 and cost = ref 0. in
        (* Cost rate: weighted arrival streams currently blocked (full
           buffers); extra 0: the occupied levels. *)
        for i = 0 to nl - 1 do
          if k.(i) = loaded.(i).levels then
            cost := !cost +. (loaded.(i).weight *. loaded.(i).arrival_rate);
          occupied := !occupied + k.(i)
        done;
        let cost = !cost and extras = [| float_of_int !occupied |] in
        (* Every action ends with the arrivals, last client first. *)
        let arrivals () =
          for i = nl - 1 downto 0 do
            if k.(i) < loaded.(i).levels then
              Ctmdp.add_transition b (s + stride.(i)) loaded.(i).arrival_rate
          done
        in
        let served = ref false in
        for i = 0 to nl - 1 do
          if k.(i) > 0 then begin
            served := true;
            Ctmdp.add_action b ~label:serve_labels.(i) ~cost ~extras;
            Ctmdp.add_transition b (s - stride.(i)) mu;
            arrivals ()
          end
        done;
        if not !served then begin
          Ctmdp.add_action b ~label:"idle" ~cost ~extras;
          arrivals ()
        end)
  in
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

let occupancy_distribution t pi =
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
    (* A state's index is its rank in the lexicographic enumeration:
       below[m].(r) counts the vectors of m clients holding at most r
       levels between them, C(r + m, m), summed over r' <= r — so the
       vectors that precede k at position i with the same prefix number
       below[n-1-i].(rem) - below[n-1-i].(rem - k_i). *)
    let below =
      Array.init n (fun m ->
          let acc = ref 0 in
          Array.init (capacity + 1) (fun r ->
              acc := !acc + state_count ~capacity:r m;
              !acc))
    in
    let encode k =
      let rank = ref 0 and rem = ref capacity in
      for i = 0 to n - 1 do
        let c = below.(n - 1 - i) in
        if k.(i) > 0 then rank := !rank + c.(!rem) - c.(!rem - k.(i));
        rem := !rem - k.(i)
      done;
      !rank
    in
    let mu = sub.Splitting.service_rate in
    let full_set = List.init n (fun i -> i) in
    (* Admission alternatives: admit-all, admit-all-but-one (reserve a slot
       against one stream), and — when mimicking — the static partition's
       rule, in the order of their sorted client lists.  Enumerating all
       2^n subsets would square the LP for nothing: these already include
       every undominated single-slot reservation.  A state's alternatives
       depend on it only through the mimicked rule, so they are made once
       per distinct rule: each with its cost rate (the weighted rejected
       streams) and its shared label per served client ([idle] last). *)
    let fixed = full_set :: List.map (fun i -> List.filter (fun j -> j <> i) full_set) full_set in
    let serve_labels = Array.init n (Printf.sprintf "serve%d") in
    let alternative adm =
      let cost =
        List.fold_left
          (fun acc i ->
            if List.mem i adm then acc
            else acc +. (sh_loaded.(i).weight *. sh_loaded.(i).arrival_rate))
          0. full_set
      in
      let label base =
        if adm = full_set then base
        else base ^ "_adm" ^ String.concat "" (List.map string_of_int adm)
      in
      (Array.of_list adm, cost, Array.append (Array.map label serve_labels) [| label "idle" |])
    in
    let alternatives = Hashtbl.create 8 in
    let admissions rule =
      match Hashtbl.find_opt alternatives rule with
      | Some a -> a
      | None ->
          let cands =
            if rule < 0 then fixed
            else List.filter (fun i -> rule land (1 lsl i) <> 0) full_set :: fixed
          in
          let a = Array.of_list (List.map alternative (List.sort_uniq compare cands)) in
          Hashtbl.add alternatives rule a;
          a
    in
    let full_cost =
      Array.fold_left (fun acc c -> acc +. (c.weight *. c.arrival_rate)) 0. sh_loaded
    in
    let state_label s =
      "(" ^ String.concat "," (Array.to_list (Array.map string_of_int states.(s))) ^ ")"
    in
    let sh_model =
      Ctmdp.create ~state_label ~num_extras:1 (Array.length states) (fun b s ->
          let k = states.(s) in
          let total = Array.fold_left ( + ) 0 k in
          let extras = [| float_of_int total |] in
          (* The served client's departure (none when idle), then the
             admitted arrivals in client order. *)
          let serve j =
            k.(j) <- k.(j) - 1;
            Ctmdp.add_transition b (encode k) mu;
            k.(j) <- k.(j) + 1
          in
          let arrive i =
            k.(i) <- k.(i) + 1;
            Ctmdp.add_transition b (encode k) sh_loaded.(i).arrival_rate;
            k.(i) <- k.(i) - 1
          in
          if total = capacity then
            (* Pool full: every arrival is lost no matter what. *)
            for j = 0 to n - 1 do
              if k.(j) > 0 then begin
                Ctmdp.add_action b ~label:serve_labels.(j) ~cost:full_cost ~extras;
                serve j
              end
            done
          else begin
            let rule =
              match mimic with
              | None -> -1
              | Some ls ->
                  let r = ref 0 in
                  for i = n - 1 downto 0 do
                    r := (2 * !r) + if k.(i) < ls.(i) then 1 else 0
                  done;
                  !r
            in
            let alts = admissions rule in
            let offer j =
              Array.iter
                (fun (adm, cost, labels) ->
                  if j < n || Array.length adm > 0 then begin
                    Ctmdp.add_action b ~label:labels.(j) ~cost ~extras;
                    if j < n then serve j;
                    Array.iter arrive adm
                  end)
                alts
            in
            let idle = ref true in
            for j = 0 to n - 1 do
              if k.(j) > 0 then begin
                idle := false;
                offer j
              end
            done;
            if !idle then offer n
          end)
    in
    { sh_sub = sub; sh_all; sh_loaded; capacity; states; sh_model }

  let subsystem t = t.sh_sub
  let clients t = Array.copy t.sh_all
  let loaded_clients t = Array.copy t.sh_loaded
  let ctmdp t = t.sh_model
  let num_states t = Array.length t.states
  let capacity t = t.capacity
  let state t s = Array.copy t.states.(s)

  let pool_distribution t pi =
    let dist = Array.make (t.capacity + 1) 0. in
    Array.iteri
      (fun s p ->
        let total = Array.fold_left ( + ) 0 t.states.(s) in
        dist.(total) <- dist.(total) +. p)
      pi;
    dist

  let expected_total t pi =
    let dist = pool_distribution t pi in
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
