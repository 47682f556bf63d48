type subsystem = {
  index : int;
  bus : Topology.bus_id;
  bus_name : string;
  service_rate : float;
  clients : (Traffic.client * float) list;
}

type t = {
  subsystems : subsystem array;
  inserted_buffers : (Topology.bridge_id * Topology.bus_id) list;
  coupling_points : int;
}

let split traffic =
  let topo = Traffic.topology traffic in
  let nb = Topology.num_buses topo in
  let subsystems = ref [] in
  let inserted = ref [] in
  for bus = nb - 1 downto 0 do
    let clients = Traffic.clients_of_bus traffic bus in
    List.iter
      (fun (c, _) ->
        match c with
        | Traffic.Bridge_client { bridge; into_bus } -> inserted := (bridge, into_bus) :: !inserted
        | Traffic.Proc_client _ -> ())
      clients;
    if clients <> [] then begin
      let b = Topology.bus topo bus in
      subsystems :=
        {
          index = 0;
          bus;
          bus_name = b.Topology.bus_name;
          service_rate = b.Topology.service_rate;
          clients;
        }
        :: !subsystems
    end
  done;
  let subsystems = Array.of_list !subsystems in
  Array.iteri (fun i s -> subsystems.(i) <- { s with index = i }) subsystems;
  let inserted = List.sort_uniq compare !inserted in
  { subsystems; inserted_buffers = inserted; coupling_points = List.length inserted }

(* Fold every routed flow along its hop sequence: the transit rate of the
   directed edge (bridge, into_bus) is the sum of the rates of all flows
   whose path crosses that bridge in that direction.  This is the quantity
   the split turns into a bridge client, so it must agree with
   [Traffic.clients_of_bus] — the [topo] verify oracle checks exactly
   that. *)
let edge_flows traffic =
  let table = Hashtbl.create 16 in
  Array.iter
    (fun (f : Traffic.flow) ->
      List.iter
        (fun (_, client) ->
          match client with
          | Traffic.Bridge_client { bridge; into_bus } ->
              let key = (bridge, into_bus) in
              let prev = Option.value ~default:0. (Hashtbl.find_opt table key) in
              Hashtbl.replace table key (prev +. f.Traffic.rate)
          | Traffic.Proc_client _ -> ())
        (Traffic.hops traffic f))
    (Traffic.flows traffic);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let is_linear_without_split traffic =
  List.for_all
    (fun (_, c, _) ->
      match c with Traffic.Proc_client _ -> true | Traffic.Bridge_client _ -> false)
    (Traffic.all_clients traffic)

let total_clients t =
  Array.fold_left (fun acc s -> acc + List.length s.clients) 0 t.subsystems

let pp ppf topo t =
  Format.fprintf ppf "@[<v>split: %d subsystem(s), %d inserted buffer(s), %d coupling point(s)"
    (Array.length t.subsystems)
    (List.length t.inserted_buffers)
    t.coupling_points;
  Array.iter
    (fun s ->
      Format.fprintf ppf "@,  subsystem %d = bus %s:" s.index s.bus_name;
      List.iter
        (fun (c, r) -> Format.fprintf ppf " %s@%.3g" (Traffic.client_label topo c) r)
        s.clients)
    t.subsystems;
  List.iter
    (fun (br, into_bus) ->
      Format.fprintf ppf "@,  buffer inserted: %s feeding %s"
        (Topology.bridge topo br).Topology.bridge_name
        (Topology.bus topo into_bus).Topology.bus_name)
    t.inserted_buffers;
  Format.fprintf ppf "@]"
