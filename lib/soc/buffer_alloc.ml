module Apportion = Bufsize_numeric.Apportion

type entry = { bus : Topology.bus_id; client : Traffic.client; words : int }

type t = { entries : entry array; total : int }

let make triples =
  let seen = Hashtbl.create 16 in
  let entries =
    List.map
      (fun (bus, client, words) ->
        if words < 0 then invalid_arg "Buffer_alloc.make: negative words";
        let key = (bus, client) in
        if Hashtbl.mem seen key then invalid_arg "Buffer_alloc.make: duplicate client";
        Hashtbl.add seen key ();
        { bus; client; words })
      triples
    |> Array.of_list
  in
  { entries; total = Array.fold_left (fun acc e -> acc + e.words) 0 entries }

let lookup t bus client =
  match
    Array.find_opt (fun e -> e.bus = bus && Traffic.client_equal e.client client) t.entries
  with
  | Some e -> e.words
  | None -> 0

let total t = t.total
let num_buffers t = Array.length t.entries

let check_budget traffic ~budget =
  let buffers = ref 0 in
  for bus = 0 to Topology.num_buses (Traffic.topology traffic) - 1 do
    buffers := !buffers + List.length (Traffic.clients_of_bus traffic bus)
  done;
  let buffers = !buffers in
  if budget < buffers then
    invalid_arg
      (Printf.sprintf "budget %d words is below the %d buffers to size (each needs at least one word)"
         budget buffers)

let allocate traffic ~budget weights_of =
  check_budget traffic ~budget;
  let keys = Traffic.all_clients traffic in
  let weights = Array.of_list (List.map weights_of keys) in
  let shares = Apportion.largest_remainder ~minimum:1 ~budget weights in
  let entries =
    List.mapi (fun i (bus, c, _) -> { bus; client = c; words = shares.(i) }) keys
  in
  { entries = Array.of_list entries; total = budget }

let uniform traffic ~budget = allocate traffic ~budget (fun _ -> 1.)

let traffic_proportional traffic ~budget = allocate traffic ~budget (fun (_, _, r) -> r)

(* The first requirement listed for [c] on [bus], or 0. *)
let rec requirement bus c = function
  | [] -> 0.
  | (b, rc, r) :: rest ->
      if b = bus && Traffic.client_equal rc c then Float.max 0. r else requirement bus c rest

let of_requirements traffic ~budget reqs =
  (* Demand-capped apportionment: when the budget covers the modeled
     demands, meet them and spread the surplus proportionally — straight
     proportional division would inflate the largest demands far beyond
     what the model asked for and starve everyone else. *)
  let keys = Traffic.all_clients traffic in
  let demands =
    Array.of_list (List.map (fun (bus, c, _) -> int_of_float (ceil (requirement bus c reqs))) keys)
  in
  let shares = Apportion.proportional_caps ~minimum:1 ~budget ~demands () in
  let entries =
    List.mapi (fun i (bus, c, _) -> { bus; client = c; words = shares.(i) }) keys
  in
  { entries = Array.of_list entries; total = Array.fold_left ( + ) 0 shares }

let scale_budget t ~budget =
  let weights = Array.map (fun e -> float_of_int e.words) t.entries in
  let shares = Apportion.largest_remainder ~minimum:1 ~budget weights in
  let entries = Array.mapi (fun i e -> { e with words = shares.(i) }) t.entries in
  { entries; total = budget }

let pp topo ppf t =
  Format.fprintf ppf "@[<v>allocation: %d words over %d buffers" t.total (num_buffers t);
  Array.iter
    (fun e ->
      Format.fprintf ppf "@,  %-18s on %-8s : %3d"
        (Traffic.client_label topo e.client)
        (Topology.bus topo e.bus).Topology.bus_name e.words)
    t.entries;
  Format.fprintf ppf "@]"
