type flow = { src : Topology.proc_id; dst : Topology.proc_id; rate : float }

type client =
  | Proc_client of Topology.proc_id
  | Bridge_client of { bridge : Topology.bridge_id; into_bus : Topology.bus_id }

type t = {
  topo : Topology.t;
  flow_list : flow array;
  flow_hops : (Topology.bus_id * client) list array;  (* aligned with flow_list *)
  per_bus : (client * float) list array;  (* aggregated, deterministic order *)
}

let client_equal a b =
  match (a, b) with
  | Proc_client p, Proc_client q -> p = q
  | Bridge_client x, Bridge_client y -> x.bridge = y.bridge && x.into_bus = y.into_bus
  | Proc_client _, Bridge_client _ | Bridge_client _, Proc_client _ -> false

let client_order a b =
  match (a, b) with
  | Proc_client p, Proc_client q -> Int.compare p q
  | Proc_client _, Bridge_client _ -> -1
  | Bridge_client _, Proc_client _ -> 1
  | Bridge_client x, Bridge_client y ->
      let c = Int.compare x.bridge y.bridge in
      if c <> 0 then c else Int.compare x.into_bus y.into_bus

let route_flow topo f =
  if f.rate <= 0. then invalid_arg "Traffic.create: nonpositive flow rate";
  if f.src = f.dst then invalid_arg "Traffic.create: self flow";
  if f.src < 0 || f.src >= Topology.num_processors topo then
    invalid_arg "Traffic.create: unknown source processor";
  if f.dst < 0 || f.dst >= Topology.num_processors topo then
    invalid_arg "Traffic.create: unknown destination processor";
  let src_bus = (Topology.processor topo f.src).Topology.home_bus in
  let dst_bus = (Topology.processor topo f.dst).Topology.home_bus in
  match Topology.route topo src_bus dst_bus with
  | None ->
      invalid_arg
        (Printf.sprintf "Traffic.create: no route between processors %d and %d" f.src f.dst)
  | Some bridges_on_path ->
      let first_hop = (src_bus, Proc_client f.src) in
      let rec follow current = function
        | [] -> []
        | br_id :: rest ->
            let x, y = (Topology.bridge topo br_id).Topology.endpoints in
            let next = if x = current then y else x in
            (next, Bridge_client { bridge = br_id; into_bus = next }) :: follow next rest
      in
      first_hop :: follow src_bus bridges_on_path

(* A client's running rate sum on one bus.  One flat float cell, so an
   addition allocates nothing. *)
type sum = { client : client; total : float array }

(* Add [rate] to [client]'s sum; false when the bus has no sum for it yet. *)
let rec bump client rate = function
  | [] -> false
  | s :: rest ->
      if client_equal s.client client then begin
        s.total.(0) <- s.total.(0) +. rate;
        true
      end
      else bump client rate rest

let rec insert s = function
  | x :: rest when client_order x.client s.client < 0 -> x :: insert s rest
  | l -> s :: l

(* Each hop of a flow of [rate] adds it to that client's sum on that bus. *)
let rec add_hops sums rate = function
  | [] -> ()
  | (bus, client) :: rest ->
      if not (bump client rate sums.(bus)) then
        sums.(bus) <- insert { client; total = [| rate |] } sums.(bus);
      add_hops sums rate rest

let create topo flow_list =
  let flow_list = Array.of_list flow_list in
  let flow_hops = Array.map (route_flow topo) flow_list in
  let nb = Topology.num_buses topo in
  (* Aggregate client arrival rates per bus, each client's in flow order,
     the clients kept in [client_order].  Every homed processor appears,
     possibly at rate 0. *)
  let sums =
    Array.init nb (fun bus ->
        List.map
          (fun p -> { client = Proc_client p.Topology.proc_id; total = [| 0. |] })
          (Topology.processors_on_bus topo bus))
  in
  Array.iteri (fun i f -> add_hops sums f.rate flow_hops.(i)) flow_list;
  let per_bus = Array.map (List.map (fun s -> (s.client, s.total.(0)))) sums in
  { topo; flow_list; flow_hops; per_bus }

let topology t = t.topo
let flows t = Array.copy t.flow_list

let total_offered t = Array.fold_left (fun acc f -> acc +. f.rate) 0. t.flow_list

let offered_by_proc t p =
  Array.fold_left (fun acc f -> if f.src = p then acc +. f.rate else acc) 0. t.flow_list

let hops t f =
  let rec find i =
    if i >= Array.length t.flow_list then raise Not_found
    else if t.flow_list.(i) = f then t.flow_hops.(i)
    else find (i + 1)
  in
  find 0

let clients_of_bus t bus = t.per_bus.(bus)

let all_clients t =
  List.concat
    (List.init
       (Array.length t.per_bus)
       (fun bus -> List.map (fun (c, r) -> (bus, c, r)) t.per_bus.(bus)))

let client_label topo = function
  | Proc_client p -> (Topology.processor topo p).Topology.proc_name
  | Bridge_client { bridge; into_bus } ->
      String.concat "->"
        [
          (Topology.bridge topo bridge).Topology.bridge_name;
          (Topology.bus topo into_bus).Topology.bus_name;
        ]

let bus_utilization t bus =
  let offered = List.fold_left (fun acc (_, r) -> acc +. r) 0. t.per_bus.(bus) in
  offered /. (Topology.bus t.topo bus).Topology.service_rate

let pp ppf t =
  Format.fprintf ppf "@[<v>traffic: %d flows, total rate %.4g" (Array.length t.flow_list)
    (total_offered t);
  Array.iteri
    (fun bus clients ->
      let name = (Topology.bus t.topo bus).Topology.bus_name in
      Format.fprintf ppf "@,  bus %s (rho=%.3f):" name (bus_utilization t bus);
      List.iter
        (fun (c, r) -> Format.fprintf ppf " %s@%.3g" (client_label t.topo c) r)
        clients)
    t.per_bus;
  Format.fprintf ppf "@]"
