(* Tests for the SoC layer: topology building and routing, traffic
   derivation, bridge splitting, the bus CTMDP model, allocations, the
   monolithic quadratic formulation, and end-to-end sizing. *)

module Topology = Bufsize_soc.Topology
module Traffic = Bufsize_soc.Traffic
module Splitting = Bufsize_soc.Splitting
module Bus_model = Bufsize_soc.Bus_model
module Buffer_alloc = Bufsize_soc.Buffer_alloc
module Sizing = Bufsize_soc.Sizing
module Monolithic = Bufsize_soc.Monolithic
module Fig1 = Bufsize_soc.Fig1
module Netproc = Bufsize_soc.Netproc
module Policy = Bufsize_mdp.Policy
module Birth_death = Bufsize_prob.Birth_death

let check_close tol = Alcotest.(check (float tol))

(* A linear three-bus chain used by several tests: P0 on bus0, P1 on bus1,
   P2 on bus2, bridges bus0-bus1-bus2. *)
let chain () =
  let b = Topology.builder () in
  let bus0 = Topology.add_bus b ~service_rate:3.0 "bus0" in
  let bus1 = Topology.add_bus b ~service_rate:4.0 "bus1" in
  let bus2 = Topology.add_bus b ~service_rate:3.5 "bus2" in
  let p0 = Topology.add_processor b ~bus:bus0 "P0" in
  let p1 = Topology.add_processor b ~bus:bus1 "P1" in
  let p2 = Topology.add_processor b ~bus:bus2 "P2" in
  let br01 = Topology.add_bridge b ~between:(bus0, bus1) "br01" in
  let br12 = Topology.add_bridge b ~between:(bus1, bus2) "br12" in
  (Topology.finalize b, (bus0, bus1, bus2), (p0, p1, p2), (br01, br12))

(* ------------------------------------------------------------- topology *)

let test_topology_accessors () =
  let topo, (bus0, bus1, _), (p0, _, _), _ = chain () in
  Alcotest.(check int) "buses" 3 (Topology.num_buses topo);
  Alcotest.(check int) "procs" 3 (Topology.num_processors topo);
  Alcotest.(check int) "bridges" 2 (Topology.num_bridges topo);
  Alcotest.(check string) "bus name" "bus0" (Topology.bus topo bus0).Topology.bus_name;
  Alcotest.(check int) "home bus" bus0 (Topology.processor topo p0).Topology.home_bus;
  Alcotest.(check int) "find" bus1 (Topology.find_bus topo "bus1");
  Alcotest.(check int) "find proc" p0 (Topology.find_processor topo "P0");
  Alcotest.(check int) "procs on bus0" 1 (List.length (Topology.processors_on_bus topo bus0));
  Alcotest.(check int) "bridges of bus1" 2 (List.length (Topology.bridges_of_bus topo bus1))

let test_topology_validation () =
  let b = Topology.builder () in
  let bus0 = Topology.add_bus b "x" in
  Alcotest.check_raises "duplicate name" (Invalid_argument "Topology: duplicate name \"x\"")
    (fun () -> ignore (Topology.add_bus b "x"));
  Alcotest.check_raises "self bridge" (Invalid_argument "Topology.add_bridge: endpoints coincide")
    (fun () -> ignore (Topology.add_bridge b ~between:(bus0, bus0) "loop"))

let test_topology_routing () =
  let topo, (bus0, bus1, bus2), _, (br01, br12) = chain () in
  Alcotest.(check (option (list int))) "self route" (Some []) (Topology.route topo bus0 bus0);
  Alcotest.(check (option (list int))) "one hop" (Some [ br01 ]) (Topology.route topo bus0 bus1);
  Alcotest.(check (option (list int)))
    "two hops" (Some [ br01; br12 ]) (Topology.route topo bus0 bus2);
  Alcotest.(check (option (list int)))
    "bus path" (Some [ bus2; bus1; bus0 ]) (Topology.bus_path topo bus2 bus0);
  Alcotest.(check bool) "connected" true (Topology.is_connected topo)

let test_topology_disconnected () =
  (* Finalizing a disconnected bus graph is rejected with a message naming
     the components. *)
  let b = Topology.builder () in
  let bus0 = Topology.add_bus b "a" in
  let _ = Topology.add_bus b "b" in
  let _ = Topology.add_processor b ~bus:bus0 "p" in
  Alcotest.check_raises "finalize rejects"
    (Invalid_argument
       "Topology.finalize: disconnected bus graph: 2 components: [a]; [b] (add bridges to \
        connect them)")
    (fun () -> ignore (Topology.finalize b))

let test_topology_mesh () =
  let b = Topology.builder () in
  let cells = Topology.mesh b ~service_rate:2.0 ~rows:2 ~cols:3 "m" in
  let topo = Topology.finalize b in
  Alcotest.(check int) "buses" 6 (Topology.num_buses topo);
  (* 2x3 mesh: 2*(3-1) horizontal + (2-1)*3 vertical links. *)
  Alcotest.(check int) "bridges" 7 (Topology.num_bridges topo);
  Alcotest.(check string) "derived cell name" "m_r1c2"
    (Topology.bus topo cells.(1).(2)).Topology.bus_name;
  check_close 1e-12 "cell rate" 2.0 (Topology.bus topo cells.(0).(1)).Topology.service_rate;
  (match Topology.grid_cell topo cells.(1).(2) with
  | Some (0, 1, 2) -> ()
  | _ -> Alcotest.fail "grid_cell lookup");
  (* XY: column first, then row. *)
  match Topology.route topo cells.(0).(0) cells.(1).(2) with
  | Some [ h1; h2; v1 ] ->
      let name id = (Topology.bridge topo id).Topology.bridge_name in
      Alcotest.(check string) "first hop east" "m_h_r0c0" (name h1);
      Alcotest.(check string) "second hop east" "m_h_r0c1" (name h2);
      Alcotest.(check string) "then south" "m_v_r0c2" (name v1)
  | Some l -> Alcotest.failf "expected 3 hops, got %d" (List.length l)
  | None -> Alcotest.fail "unroutable"

let test_topology_torus_wrap () =
  let b = Topology.builder () in
  let cells = Topology.torus b ~rows:3 ~cols:4 "t" in
  let topo = Topology.finalize b in
  (* Every dimension longer than 2 wraps: 3*4 horizontal + 3*4 vertical. *)
  Alcotest.(check int) "bridges" 24 (Topology.num_bridges topo);
  let name id = (Topology.bridge topo id).Topology.bridge_name in
  (* (0,0) -> (0,3): the wrap link is shorter than walking east. *)
  (match Topology.route topo cells.(0).(0) cells.(0).(3) with
  | Some [ br ] -> Alcotest.(check string) "wrap link" "t_h_r0c3" (name br)
  | Some l -> Alcotest.failf "expected 1 hop, got %d" (List.length l)
  | None -> Alcotest.fail "unroutable");
  (* (0,0) -> (0,2): two hops either way; ties go towards increasing
     index, so the route starts east through c0's link. *)
  match Topology.route topo cells.(0).(0) cells.(0).(2) with
  | Some [ b1; _ ] -> Alcotest.(check string) "tie breaks east" "t_h_r0c0" (name b1)
  | Some l -> Alcotest.failf "expected 2 hops, got %d" (List.length l)
  | None -> Alcotest.fail "unroutable"

let test_topology_torus_2x2_no_wrap () =
  (* Wraps on a dimension of length 2 would duplicate the mesh edges. *)
  let b = Topology.builder () in
  let _ = Topology.torus b ~rows:2 ~cols:2 "t" in
  let topo = Topology.finalize b in
  Alcotest.(check int) "same links as the 2x2 mesh" 4 (Topology.num_bridges topo)

let test_topology_shared_buffer () =
  let b = Topology.builder () in
  let bus0 = Topology.add_bus b "x" in
  let bus1 = Topology.add_bus b "y" in
  let _ = Topology.add_bridge b ~between:(bus0, bus1) "br" in
  Topology.mark_shared b bus1;
  Topology.mark_shared b bus1;
  let topo = Topology.finalize b in
  Alcotest.(check bool) "y shared" true (Topology.shared_buffer topo bus1);
  Alcotest.(check bool) "x static" false (Topology.shared_buffer topo bus0);
  Alcotest.(check (list int)) "shared list" [ bus1 ] (Topology.shared_buses topo)

let test_topology_shortest_path () =
  (* A triangle plus a long way around: BFS must take the direct bridge. *)
  let b = Topology.builder () in
  let x = Topology.add_bus b "x" in
  let y = Topology.add_bus b "y" in
  let z = Topology.add_bus b "z" in
  let direct = Topology.add_bridge b ~between:(x, z) "direct" in
  let _xy = Topology.add_bridge b ~between:(x, y) "xy" in
  let _yz = Topology.add_bridge b ~between:(y, z) "yz" in
  let topo = Topology.finalize b in
  Alcotest.(check (option (list int))) "direct" (Some [ direct ]) (Topology.route topo x z)

(* -------------------------------------------------------------- traffic *)

let test_traffic_local_flow () =
  let topo, (bus0, _, _), (p0, _, _), _ = chain () in
  let b = Topology.builder () in
  ignore b;
  (* A second processor on bus0 for a local flow. *)
  let traffic = Traffic.create topo [ { Traffic.src = p0; dst = p0 + 1; rate = 1.0 } ] in
  (* p0+1 = P1 on bus1: crosses one bridge. *)
  let hops = Traffic.hops traffic { Traffic.src = p0; dst = p0 + 1; rate = 1.0 } in
  Alcotest.(check int) "two hops" 2 (List.length hops);
  (match hops with
  | (b0, Traffic.Proc_client p) :: (b1, Traffic.Bridge_client _) :: [] ->
      Alcotest.(check int) "first hop bus" bus0 b0;
      Alcotest.(check int) "first hop client" p0 p;
      Alcotest.(check int) "second hop bus" (bus0 + 1) b1
  | _ -> Alcotest.fail "unexpected hop structure")

let test_traffic_aggregation () =
  let topo, (bus0, bus1, bus2), (p0, p1, p2), _ = chain () in
  ignore bus0;
  let traffic =
    Traffic.create topo
      [
        { Traffic.src = p0; dst = p2; rate = 0.5 };
        { Traffic.src = p1; dst = p2; rate = 0.7 };
        { Traffic.src = p0; dst = p1; rate = 0.3 };
      ]
  in
  check_close 1e-12 "total" 1.5 (Traffic.total_offered traffic);
  check_close 1e-12 "offered by p0" 0.8 (Traffic.offered_by_proc traffic p0);
  (* bus1 clients: P1 (0.7), bridge from bus0 (0.5 + 0.3 = 0.8). *)
  let clients = Traffic.clients_of_bus traffic bus1 in
  Alcotest.(check int) "two clients on bus1" 2 (List.length clients);
  let bridge_rate =
    List.fold_left
      (fun acc (c, r) ->
        match c with Traffic.Bridge_client _ -> acc +. r | Traffic.Proc_client _ -> acc)
      0. clients
  in
  check_close 1e-12 "bridge load aggregates" 0.8 bridge_rate;
  (* bus2: bridge from bus1 carries 0.5 + 0.7. *)
  let clients2 = Traffic.clients_of_bus traffic bus2 in
  let bridge_rate2 =
    List.fold_left
      (fun acc (c, r) ->
        match c with Traffic.Bridge_client _ -> acc +. r | Traffic.Proc_client _ -> acc)
      0. clients2
  in
  check_close 1e-12 "transit load" 1.2 bridge_rate2

let test_traffic_validation () =
  let topo, _, (p0, _, _), _ = chain () in
  (match Traffic.create topo [ { Traffic.src = p0; dst = p0; rate = 1. } ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "self flow accepted");
  match Traffic.create topo [ { Traffic.src = p0; dst = p0 + 1; rate = 0. } ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero rate accepted"

let test_traffic_utilization () =
  let topo, (bus0, _, _), (p0, p1, _), _ = chain () in
  let traffic = Traffic.create topo [ { Traffic.src = p0; dst = p1; rate = 1.5 } ] in
  (* bus0 rho = 1.5 / 3.0. *)
  check_close 1e-12 "rho" 0.5 (Traffic.bus_utilization traffic bus0)

(* ------------------------------------------------------------ splitting *)

let test_split_fig1 () =
  let topo, traffic = Fig1.create () in
  let split = Splitting.split traffic in
  (* The paper's Figure 2: the architecture splits into 4 subsystems. *)
  Alcotest.(check int) "four subsystems" 4 (Array.length split.Splitting.subsystems);
  Alcotest.(check bool) "couplings present" true (split.Splitting.coupling_points > 0);
  Alcotest.(check bool) "not linear monolithically" false
    (Splitting.is_linear_without_split traffic);
  (* Every inserted buffer corresponds to a bridge client somewhere. *)
  List.iter
    (fun (br, into_bus) ->
      let clients = Traffic.clients_of_bus traffic into_bus in
      let present =
        List.exists
          (fun (c, _) ->
            match c with
            | Traffic.Bridge_client { bridge; into_bus = ib } -> bridge = br && ib = into_bus
            | Traffic.Proc_client _ -> false)
          clients
      in
      Alcotest.(check bool) "inserted buffer is a client" true present)
    split.Splitting.inserted_buffers;
  ignore topo

let test_split_local_only () =
  (* Single bus: no bridges crossed, split is trivial and linear. *)
  let b = Topology.builder () in
  let bus0 = Topology.add_bus b "only" in
  let p0 = Topology.add_processor b ~bus:bus0 "A" in
  let p1 = Topology.add_processor b ~bus:bus0 "B" in
  let topo = Topology.finalize b in
  let traffic = Traffic.create topo [ { Traffic.src = p0; dst = p1; rate = 1. } ] in
  let split = Splitting.split traffic in
  Alcotest.(check int) "one subsystem" 1 (Array.length split.Splitting.subsystems);
  Alcotest.(check int) "no couplings" 0 split.Splitting.coupling_points;
  Alcotest.(check bool) "linear already" true (Splitting.is_linear_without_split traffic)

let test_split_netproc_covers_processors () =
  let _, traffic = Netproc.create () in
  let split = Splitting.split traffic in
  let covered =
    Array.to_list split.Splitting.subsystems
    |> List.concat_map (fun s ->
           List.filter_map
             (fun (c, _) ->
               match c with Traffic.Proc_client p -> Some p | Traffic.Bridge_client _ -> None)
             s.Splitting.clients)
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "all 17 processors appear" 17 (List.length covered)

(* ------------------------------------------------------------ bus model *)

let test_choose_levels_respects_cap () =
  let clients = [ (Traffic.Proc_client 0, 2.0); (Traffic.Proc_client 1, 1.0) ] in
  let levels = Bus_model.choose_levels ~max_states:36 clients in
  let states = Array.fold_left (fun acc l -> acc * (l + 1)) 1 levels in
  Alcotest.(check bool) "within cap" true (states <= 36);
  Alcotest.(check bool) "heavy client finer" true (levels.(0) >= levels.(1))

let test_choose_levels_zero_rate () =
  let levels =
    Bus_model.choose_levels ~max_states:16
      [ (Traffic.Proc_client 0, 1.0); (Traffic.Proc_client 1, 0.) ]
  in
  Alcotest.(check int) "unloaded client gets no levels" 0 levels.(1)

let test_bus_model_single_client_is_mm1k () =
  (* One client with L levels on a bus = M/M/1/L; the model's optimal gain
     must match the closed form. *)
  let b = Topology.builder () in
  let bus0 = Topology.add_bus b ~service_rate:3.0 "solo" in
  let p0 = Topology.add_processor b ~bus:bus0 "A" in
  let p1 = Topology.add_processor b ~bus:bus0 "B" in
  let topo = Topology.finalize b in
  let traffic = Traffic.create topo [ { Traffic.src = p0; dst = p1; rate = 2.0 } ] in
  let split = Splitting.split traffic in
  let model = Bus_model.build ~levels:[| 4; 0 |] split.Splitting.subsystems.(0) in
  Alcotest.(check int) "states" 5 (Bus_model.num_states model);
  match Bufsize_verify.Lp_formulation.solve (Bus_model.ctmdp model) with
  | Bufsize_verify.Lp_formulation.Optimal s ->
      check_close 1e-7 "gain = MM1K loss"
        (Birth_death.Mm1k.loss_rate ~lambda:2.0 ~mu:3.0 ~k:4)
        s.Bufsize_verify.Lp_formulation.gain
  | _ -> Alcotest.fail "LP failed"

let test_bus_model_encode_decode () =
  let topo, _, (p0, p1, p2), _ = chain () in
  ignore topo;
  let _, traffic =
    let topo, (b0, b1, _), _, _ = (fun () -> chain ()) () in
    ignore b0;
    ignore b1;
    ( topo,
      Traffic.create topo
        [
          { Traffic.src = p0; dst = p1; rate = 1.0 };
          { Traffic.src = p1; dst = p2; rate = 0.5 };
        ] )
  in
  let split = Splitting.split traffic in
  let sub = split.Splitting.subsystems.(1) in
  let model = Bus_model.build ~max_states:64 sub in
  for s = 0 to Bus_model.num_states model - 1 do
    Alcotest.(check int) "roundtrip" s (Bus_model.encode model (Bus_model.decode model s))
  done

let test_bus_model_occupancy_distribution () =
  let b = Topology.builder () in
  let bus0 = Topology.add_bus b ~service_rate:3.0 "solo" in
  let p0 = Topology.add_processor b ~bus:bus0 "A" in
  let p1 = Topology.add_processor b ~bus:bus0 "B" in
  let topo = Topology.finalize b in
  let traffic = Traffic.create topo [ { Traffic.src = p0; dst = p1; rate = 2.0 } ] in
  let split = Splitting.split traffic in
  let model = Bus_model.build ~levels:[| 4; 0 |] split.Splitting.subsystems.(0) in
  let policy = { Policy.choice = Array.make 5 0; mix = None } in
  let marginals =
    Bus_model.occupancy_distribution model (Policy.stationary (Bus_model.ctmdp model) policy)
  in
  Alcotest.(check int) "one loaded client" 1 (Array.length marginals);
  let expected = Birth_death.stationary (Birth_death.mm1k ~lambda:2.0 ~mu:3.0 ~k:4) in
  Array.iteri
    (fun l p -> check_close 1e-9 (Printf.sprintf "marginal %d" l) expected.(l) p)
    marginals.(0)

(* Shared-pool (DAMQ) model: a two-client bus with a shared pool of the
   same total capacity must never lose more than the static partition —
   the partition's admission rule is one of the pool's actions. *)
let shared_two_client_arch () =
  let b = Topology.builder () in
  let bus0 = Topology.add_bus b ~service_rate:3.0 "bus" in
  let p0 = Topology.add_processor b ~bus:bus0 "A" in
  let p1 = Topology.add_processor b ~bus:bus0 "B" in
  let p2 = Topology.add_processor b ~bus:bus0 "C" in
  Topology.mark_shared b bus0;
  let topo = Topology.finalize b in
  let traffic =
    Traffic.create topo
      [
        { Traffic.src = p0; dst = p2; rate = 1.4 };
        { Traffic.src = p1; dst = p2; rate = 0.6 };
      ]
  in
  (Splitting.split traffic).Splitting.subsystems.(0)

let test_shared_model_shape () =
  let sub = shared_two_client_arch () in
  let shared = Bus_model.Shared.build ~capacity:3 sub in
  Alcotest.(check int) "capacity" 3 (Bus_model.Shared.capacity shared);
  (* Occupancy vectors (k0, k1) with k0 + k1 <= 3 over two loaded
     clients: C(3 + 2, 2) = 10 states. *)
  Alcotest.(check int) "states" 10 (Bus_model.Shared.num_states shared);
  Alcotest.(check int) "loaded clients" 2 (Array.length (Bus_model.Shared.loaded_clients shared));
  for s = 0 to Bus_model.Shared.num_states shared - 1 do
    let k = Bus_model.Shared.state shared s in
    Alcotest.(check bool) "within pool" true (k.(0) + k.(1) <= 3)
  done

let test_shared_never_worse_than_static () =
  let sub = shared_two_client_arch () in
  let levels = Bus_model.choose_levels ~max_states:24 sub.Splitting.clients in
  let static_model = Bus_model.build ~levels sub in
  let capacity = Bus_model.total_levels static_model in
  let shared = Bus_model.Shared.build ~static_levels:levels ~capacity sub in
  let solve ctmdp =
    match Bufsize_verify.Lp_formulation.solve ctmdp with
    | Bufsize_verify.Lp_formulation.Optimal s -> s.Bufsize_verify.Lp_formulation.gain
    | _ -> Alcotest.fail "LP failed"
  in
  let static_loss = solve (Bus_model.ctmdp static_model) in
  let damq_loss = solve (Bus_model.Shared.ctmdp shared) in
  Alcotest.(check bool) "damq <= static" true (damq_loss <= static_loss +. 1e-9);
  Alcotest.(check bool) "nonnegative" true (damq_loss >= -1e-9)

let test_shared_capacity_guard () =
  let sub = shared_two_client_arch () in
  (match Bus_model.Shared.build ~capacity:0 sub with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 accepted");
  match Bus_model.Shared.build ~max_states:5 ~capacity:3 sub with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "state guard ignored"

(* ----------------------------------------------------------- allocation *)

let test_alloc_uniform () =
  let _, traffic = Fig1.create () in
  let a = Buffer_alloc.uniform traffic ~budget:20 in
  Alcotest.(check int) "total" 20 (Buffer_alloc.total a);
  Array.iter
    (fun e -> Alcotest.(check bool) "roughly even" true (e.Buffer_alloc.words >= 1))
    a.Buffer_alloc.entries

let test_alloc_traffic_proportional () =
  let _, traffic = Fig1.create () in
  let a = Buffer_alloc.traffic_proportional traffic ~budget:50 in
  Alcotest.(check int) "total" 50 (Buffer_alloc.total a);
  (* The heaviest client should get at least as much as the lightest. *)
  let words = Array.map (fun e -> e.Buffer_alloc.words) a.Buffer_alloc.entries in
  let mn = Array.fold_left Int.min max_int words in
  let mx = Array.fold_left Int.max 0 words in
  Alcotest.(check bool) "spread exists" true (mx >= mn)

let test_alloc_lookup_missing () =
  let _, traffic = Fig1.create () in
  let a = Buffer_alloc.uniform traffic ~budget:20 in
  Alcotest.(check int) "missing client" 0 (Buffer_alloc.lookup a 0 (Traffic.Proc_client 999))

let test_alloc_scale_budget () =
  let _, traffic = Fig1.create () in
  let a = Buffer_alloc.traffic_proportional traffic ~budget:40 in
  let b = Buffer_alloc.scale_budget a ~budget:80 in
  Alcotest.(check int) "rescaled" 80 (Buffer_alloc.total b);
  Alcotest.(check int) "same buffers" (Buffer_alloc.num_buffers a) (Buffer_alloc.num_buffers b)

let test_alloc_duplicate_rejected () =
  match
    Buffer_alloc.make
      [ (0, Traffic.Proc_client 0, 1); (0, Traffic.Proc_client 0, 2) ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate accepted"

(* ----------------------------------------------------------- monolithic *)

let default_spec =
  {
    Monolithic.kx = 3;
    ky = 3;
    lambda_x = 2.0;
    lambda_y = 1.5;
    cross_fraction = 0.5;
    mu_x = 2.5;
    mu_y = 2.2;
  }

(* Strong bidirectional coupling: the regime where the quadratic closure
   has coexisting light-traffic and congestion-collapse roots. *)
let coupled_spec =
  {
    Monolithic.kx = 8;
    ky = 8;
    lambda_x = 3.5;
    lambda_y = 3.0;
    cross_fraction = 0.95;
    mu_x = 2.5;
    mu_y = 2.0;
  }

let test_monolithic_residual_dimension () =
  let v = Array.make (Monolithic.dim default_spec) 0.2 in
  let r = Monolithic.residual default_spec v in
  Alcotest.(check int) "square system" (Monolithic.dim default_spec) (Array.length r);
  Alcotest.(check bool) "has quadratic terms" true
    (Monolithic.quadratic_term_count default_spec > 0)

let test_monolithic_newton_struggles () =
  (* The paper's observation, qualitatively: generic starts do not reliably
     solve the quadratic system.  We assert that at least one generic start
     fails to produce a valid solution under strong coupling. *)
  let report = Monolithic.attempt ~starts:25 coupled_spec in
  Alcotest.(check int) "all starts accounted" 25
    (report.Monolithic.converged_valid + report.Monolithic.converged_invalid
    + report.Monolithic.failed);
  Alcotest.(check bool) "not universally solvable" true
    (report.Monolithic.converged_valid < report.Monolithic.starts);
  (* The modern damped iteration is not a cure either. *)
  let damped = Monolithic.attempt ~starts:25 ~damped:true coupled_spec in
  Alcotest.(check bool) "damped also misses starts" true
    (damped.Monolithic.converged_valid < damped.Monolithic.starts)

let test_monolithic_split_always_works () =
  let s = Monolithic.solve_split default_spec in
  let sum v = Array.fold_left ( +. ) 0. v in
  check_close 1e-9 "x normalized" 1. (sum s.Monolithic.x_dist);
  check_close 1e-9 "y normalized" 1. (sum s.Monolithic.y_dist);
  check_close 1e-9 "bridge normalized" 1. (sum s.Monolithic.bridge_dist);
  Alcotest.(check bool) "losses nonnegative" true
    (s.Monolithic.x_loss >= 0. && s.Monolithic.y_loss >= 0. && s.Monolithic.bridge_loss >= 0.)

let test_monolithic_split_matches_mm1k_on_x () =
  (* Bus X after splitting is exactly M/M/1/Kx. *)
  let s = Monolithic.solve_split default_spec in
  let expected =
    Birth_death.stationary
      (Birth_death.mm1k ~lambda:default_spec.Monolithic.lambda_x
         ~mu:default_spec.Monolithic.mu_x ~k:default_spec.Monolithic.kx)
  in
  Array.iteri
    (fun i p -> check_close 1e-9 (Printf.sprintf "x[%d]" i) expected.(i) p)
    s.Monolithic.x_dist

(* ------------------------------------------------------------------ dot *)

let contains needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let test_dot_topology () =
  let topo, _ = Fig1.create () in
  let s = Bufsize_soc.Dot.topology topo in
  Alcotest.(check bool) "digraph" true (contains "digraph" s);
  Alcotest.(check bool) "bus a present" true (contains "\"a\\nmu=" s);
  Alcotest.(check bool) "bridge b1 present" true (contains "b1" s);
  Alcotest.(check bool) "processor present" true (contains "P1" s)

let test_dot_with_allocation () =
  let topo, traffic = Fig1.create () in
  let alloc = Buffer_alloc.uniform traffic ~budget:20 in
  let s = Bufsize_soc.Dot.with_allocation topo traffic alloc in
  Alcotest.(check bool) "words annotated" true (contains "words" s);
  Alcotest.(check bool) "bridge buffer node" true (contains "house" s);
  Alcotest.(check bool) "utilization annotated" true (contains "rho=" s)

let test_dot_with_routes () =
  let b = Topology.builder () in
  let cells = Topology.mesh b ~rows:2 ~cols:2 "m" in
  let src = Topology.add_processor b ~bus:cells.(0).(0) "src" in
  let dst = Topology.add_processor b ~bus:cells.(1).(1) "dst" in
  Topology.mark_shared b cells.(1).(1);
  let topo = Topology.finalize b in
  let traffic = Traffic.create topo [ { Traffic.src; dst; rate = 0.5 } ] in
  let s = Bufsize_soc.Dot.with_routes traffic in
  (* The XY route src -> dst visits r0c0 (home), r0c1, r1c1: a 4-edge
     dashed chain, rate on the first edge, shared fill on the marked bus. *)
  Alcotest.(check bool) "dashed overlay" true (contains "style=dashed" s);
  Alcotest.(check bool) "rate labelled" true (contains "label=\"0.5/s\"" s);
  Alcotest.(check bool) "layout preserved" true (contains "constraint=false" s);
  Alcotest.(check bool) "shared pool annotated" true (contains "shared pool" s);
  Alcotest.(check bool) "shared fill" true (contains "lightsalmon" s)

let test_route_length_on_random_chains () =
  (* Property: on a line of n buses, the route from bus 0 to bus k crosses
     exactly k bridges and the bus path visits k+1 buses. *)
  let gen = QCheck.make QCheck.Gen.(int_range 2 12) in
  let prop n =
    let b = Topology.builder () in
    let buses = Array.init n (fun i -> Topology.add_bus b (Printf.sprintf "bus%d" i)) in
    for i = 0 to n - 2 do
      ignore (Topology.add_bridge b ~between:(buses.(i), buses.(i + 1)) (Printf.sprintf "br%d" i))
    done;
    let topo = Topology.finalize b in
    let ok = ref true in
    for k = 0 to n - 1 do
      (match Topology.route topo buses.(0) buses.(k) with
      | Some path -> if List.length path <> k then ok := false
      | None -> ok := false);
      match Topology.bus_path topo buses.(0) buses.(k) with
      | Some path -> if List.length path <> k + 1 then ok := false
      | None -> ok := false
    done;
    !ok
  in
  QCheck.Test.check_exn (QCheck.Test.make ~count:50 ~name:"chain routing" gen prop)

let test_traffic_flow_conservation_property () =
  (* Property: total client arrival rate over all buses equals the sum over
     flows of rate x hop count (each hop loads exactly one client). *)
  let gen =
    QCheck.make
      QCheck.Gen.(
        let* n_flows = int_range 1 8 in
        let* specs =
          list_size (return n_flows)
            (let* src = int_range 0 2 in
             let* dst = int_range 0 2 in
             let* rate = float_range 0.1 2. in
             return (src, dst, rate))
        in
        return specs)
  in
  let prop specs =
    let topo, _, (p0, p1, p2), _ = chain () in
    let procs = [| p0; p1; p2 |] in
    let flows =
      List.filter_map
        (fun (s, d, rate) ->
          if s = d then None else Some { Traffic.src = procs.(s); dst = procs.(d); rate })
        specs
    in
    flows = []
    ||
    let traffic = Traffic.create topo flows in
    let total_clients =
      List.fold_left (fun acc (_, _, r) -> acc +. r) 0. (Traffic.all_clients traffic)
    in
    let total_hops =
      List.fold_left
        (fun acc f -> acc +. (f.Traffic.rate *. float_of_int (List.length (Traffic.hops traffic f))))
        0. flows
    in
    Float.abs (total_clients -. total_hops) < 1e-9
  in
  QCheck.Test.check_exn (QCheck.Test.make ~count:100 ~name:"flow conservation" gen prop)

let test_netproc_stable () =
  (* The calibrated testbench must be stable (rho < 1 on every bus) so
     that losses come from finite buffers, not raw overload. *)
  let topo, traffic = Netproc.create () in
  Array.iter
    (fun (bus : Topology.bus) ->
      let rho = Traffic.bus_utilization traffic bus.Topology.bus_id in
      Alcotest.(check bool)
        (Printf.sprintf "bus %s rho=%.3f < 1" bus.Topology.bus_name rho)
        true (rho < 1.))
    (Topology.buses topo)

let test_fig1_rate_scale_validation () =
  Alcotest.check_raises "bad scale" (Invalid_argument "Fig1.create: rate_scale must be positive")
    (fun () -> ignore (Fig1.create ~rate_scale:0. ()))

let test_amba_shape () =
  let topo, traffic = Bufsize_soc.Amba.create () in
  Alcotest.(check int) "two buses" 2 (Topology.num_buses topo);
  Alcotest.(check int) "eight components" 8 (Topology.num_processors topo);
  Alcotest.(check int) "one bridge" 1 (Topology.num_bridges topo);
  (* Both buses loaded but stable; the bridge is the dominant APB client. *)
  let apb = Topology.find_bus topo "APB" in
  let rho = Traffic.bus_utilization traffic apb in
  Alcotest.(check bool) "APB busy but stable" true (rho > 0.5 && rho < 1.);
  let bridge_rate =
    List.fold_left
      (fun acc (c, r) ->
        match c with Traffic.Bridge_client _ -> Float.max acc r | Traffic.Proc_client _ -> acc)
      0.
      (Traffic.clients_of_bus traffic apb)
  in
  List.iter
    (fun (c, r) ->
      match c with
      | Traffic.Proc_client _ ->
          Alcotest.(check bool) "bridge dominates peripherals" true (bridge_rate >= r)
      | Traffic.Bridge_client _ -> ())
    (Traffic.clients_of_bus traffic apb)

let test_amba_sizing_favours_bridge () =
  let _, traffic = Bufsize_soc.Amba.create () in
  let r =
    Sizing.run { (Sizing.default_config ~budget:24) with Sizing.max_states = 96 } traffic
  in
  let topo = Traffic.topology traffic in
  let apb = Topology.find_bus topo "APB" in
  let bridge_words =
    Array.fold_left
      (fun acc (e : Buffer_alloc.entry) ->
        match e.Buffer_alloc.client with
        | Traffic.Bridge_client { into_bus; _ } when into_bus = apb ->
            Int.max acc e.Buffer_alloc.words
        | Traffic.Bridge_client _ | Traffic.Proc_client _ -> acc)
      0 r.Sizing.allocation.Buffer_alloc.entries
  in
  (* The AHB->APB bridge buffer gets more than the uniform share. *)
  Alcotest.(check bool) "bridge above uniform share" true (bridge_words > 24 / 10)

(* ---------------------------------------------------------- spec parser *)

module Spec_parser = Bufsize_soc.Spec_parser

let sample_spec =
  {|
# a two-bus architecture
bus core rate 20.0
bus io
proc cpu on core
proc dma on io
bridge br0 core io
flow cpu -> dma rate 1.5
flow dma -> cpu rate 0.5
|}

let test_spec_parse_ok () =
  match Spec_parser.parse sample_spec with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok (topo, traffic) ->
      Alcotest.(check int) "buses" 2 (Topology.num_buses topo);
      Alcotest.(check int) "procs" 2 (Topology.num_processors topo);
      Alcotest.(check int) "bridges" 1 (Topology.num_bridges topo);
      Alcotest.(check int) "flows" 2 (Array.length (Traffic.flows traffic));
      check_close 1e-9 "default bus rate" 1.0
        (Topology.bus topo (Topology.find_bus topo "io")).Topology.service_rate;
      check_close 1e-9 "explicit bus rate" 20.0
        (Topology.bus topo (Topology.find_bus topo "core")).Topology.service_rate

let contains needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let expect_error fragment text =
  match Spec_parser.parse text with
  | Ok _ -> Alcotest.failf "expected error mentioning %S" fragment
  | Error msg ->
      Alcotest.(check bool) (Printf.sprintf "error %S mentions %S" msg fragment) true
        (contains fragment msg)

let test_spec_parse_errors () =
  expect_error "unknown keyword" "bogus line here";
  expect_error "unknown bus" "proc p on nowhere\nflow p -> p rate 1.";
  expect_error "malformed flow" "bus a\nproc p on a\nproc q on a\nflow p q rate 1.";
  expect_error "malformed bus rate" "bus a rate fast";
  expect_error "must be positive" "bus a rate -2";
  expect_error "duplicate bus" "bus a\nbus a";
  expect_error "no flows" "bus a\nproc p on a";
  expect_error "line 3" "bus a\nproc p on a\nproc p on a"

let test_spec_roundtrip () =
  let topo, traffic = Fig1.create () in
  let text = Spec_parser.to_string topo traffic in
  match Spec_parser.parse text with
  | Error e -> Alcotest.failf "roundtrip failed: %s" e
  | Ok (topo2, traffic2) ->
      Alcotest.(check int) "buses" (Topology.num_buses topo) (Topology.num_buses topo2);
      Alcotest.(check int) "procs" (Topology.num_processors topo)
        (Topology.num_processors topo2);
      Alcotest.(check int) "bridges" (Topology.num_bridges topo) (Topology.num_bridges topo2);
      check_close 1e-9 "offered traffic" (Traffic.total_offered traffic)
        (Traffic.total_offered traffic2)

let test_spec_parse_file_missing () =
  match Spec_parser.parse_file "/nonexistent/arch.txt" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected I/O error"

(* Error paths through parse_file: the same diagnostics (with line
   numbers) must surface when the text arrives from disk. *)
let expect_file_error fragment text =
  let path = Filename.temp_file "bufsize_spec" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      match Spec_parser.parse_file path with
      | Ok _ -> Alcotest.failf "expected file error mentioning %S" fragment
      | Error msg ->
          Alcotest.(check bool) (Printf.sprintf "error %S mentions %S" msg fragment) true
            (contains fragment msg))

let test_spec_parse_file_errors () =
  expect_file_error "no flows" "";
  expect_file_error "unknown bus" "proc p on nowhere\nflow p -> p rate 1.";
  expect_file_error "duplicate processor" "bus a\nproc p on a\nproc p on a";
  expect_file_error "malformed flow rate" "bus a\nproc p on a\nproc q on a\nflow p -> q rate fast"

let grid_spec =
  {|
mesh noc rows 2 cols 2 rate 2.0
shared_buffer noc_r0c0
proc a on noc_r0c0
proc b on noc_r1c1
flow a -> b rate 0.3
flow b -> a rate 0.2
|}

let test_spec_parse_grid () =
  match Spec_parser.parse grid_spec with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok (topo, traffic) ->
      Alcotest.(check int) "buses" 4 (Topology.num_buses topo);
      Alcotest.(check int) "bridges" 4 (Topology.num_bridges topo);
      Alcotest.(check int) "grids" 1 (Array.length (Topology.grids topo));
      Alcotest.(check bool) "r0c0 shared" true
        (Topology.shared_buffer topo (Topology.find_bus topo "noc_r0c0"));
      check_close 1e-9 "cell rate" 2.0
        (Topology.bus topo (Topology.find_bus topo "noc_r1c1")).Topology.service_rate;
      Alcotest.(check int) "flows" 2 (Array.length (Traffic.flows traffic));
      (* The canonical print is a parse fixed point: parse o to_string = id. *)
      let text = Spec_parser.to_string topo traffic in
      (match Spec_parser.parse text with
      | Error e -> Alcotest.failf "round-trip parse: %s" e
      | Ok (topo2, traffic2) ->
          Alcotest.(check string) "fixed point" text (Spec_parser.to_string topo2 traffic2))

let test_spec_grid_errors () =
  (* Malformed grid stanzas report their line numbers. *)
  expect_error "line 1" "mesh m rows 0 cols 2";
  expect_error "mesh rows must be positive" "mesh m rows 0 cols 2\nbus a";
  expect_error "malformed torus cols \"x\"" "bus a\ntorus t rows 2 cols x";
  expect_error "line 2" "bus a\ntorus t rows 2 cols x";
  expect_error "malformed mesh statement" "mesh m rows 2";
  expect_error "malformed shared_buffer statement" "shared_buffer a b";
  expect_error "line 2: duplicate grid \"m\"" "mesh m rows 2 cols 2\nmesh m rows 2 cols 2";
  expect_error "line 1: unknown bus \"nowhere\"" "shared_buffer nowhere";
  expect_error "line 1: mesh rate must be positive" "mesh m rows 2 cols 2 rate -1"

(* Adversarial-input caps: each resource bound fires as a line-numbered
   error, cheaply, instead of an allocation storm. *)
(* The list-based tokenizer the one-pass [Spec_parser.tokenize]
   replaced, kept as its reference. *)
let tokenize_reference line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let test_tokenize_identity () =
  List.iter
    (fun line ->
      Alcotest.(check (list string)) (Printf.sprintf "%S" line) (tokenize_reference line)
        (Spec_parser.tokenize line))
    [ ""; " "; "\t"; "a"; " a"; "a "; "\ta\t"; "a b"; "a  \t b"; "flow a -> b rate 1.5" ];
  let piece =
    QCheck.Gen.(
      oneof
        [
          oneofl [ " "; "\t"; "  "; " \t "; "bus"; "flow"; "->"; "rate"; "1.5"; "#"; "x_r0c1" ];
          string_size ~gen:(oneofl [ ' '; '\t'; 'a'; 'b'; '#'; '\r'; '\n'; '\xff' ]) (int_range 0 6);
        ])
  in
  let gen =
    QCheck.make ~print:(Printf.sprintf "%S")
      QCheck.Gen.(map (String.concat "") (list_size (int_range 0 12) piece))
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:3000 ~name:"tokenize = split-and-filter reference" gen (fun line ->
         let words = Spec_parser.tokenize line in
         words = tokenize_reference line && words = Reference.Spec.tokenize line))

let test_spec_parser_caps () =
  expect_error "exceeds the cap" (String.make ((1 lsl 20) + 1) 'a');
  expect_error "line 2: 5004 bytes exceeds the cap of 4096"
    ("bus a\nbus " ^ String.make 5000 'b');
  expect_error "line 1: token of 300 bytes exceeds the cap of 256"
    ("bus " ^ String.make 300 'b');
  expect_error "line 1: mesh declares 10000 cells, more than the cap of 4096"
    "mesh m rows 100 cols 100";
  expect_error "line 1: torus declares 8192 cells" "torus t rows 2 cols 4096";
  let flood =
    String.concat "\n" (List.init 4200 (fun i -> Printf.sprintf "bus b%d" i))
  in
  expect_error "more than 4096 statements" flood;
  (* At the caps, parsing still works. *)
  match Spec_parser.parse ("bus a\nproc p on a\nproc q on a\nflow p -> q rate 1.\n# "
                           ^ String.make 4000 'x') with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "cap-sized comment should parse: %s" e

(* Fuzz: the parser must classify, never crash — on arbitrary bytes and
   on valid specs truncated mid-text (a daemon client dying mid-send). *)
let test_spec_parser_fuzz () =
  let arb_bytes =
    QCheck.make ~print:String.escaped
      QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 400))
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:500 ~name:"random bytes never crash" arb_bytes (fun text ->
         match Spec_parser.parse text with Ok _ | Error _ -> true));
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"truncated valid specs never crash"
       Bufsize_verify_qcheck.Verify_arbitrary.spec_text (fun (seed, text) ->
         let cut = abs seed mod (String.length text + 1) in
         match Spec_parser.parse (String.sub text 0 cut) with Ok _ | Error _ -> true))

(* Random spec texts for the differential tests: mostly valid
   architectures (buses chained by bridges, at times a mesh or torus with
   shared buffers, processors, flows), laced with comments, tabs, blank
   lines, carriage returns and malformed or conflicting lines at random
   places; a few hit the token, line or grid cap. *)
let gen_spec_text : string QCheck.Gen.t =
 fun st ->
  let int n = Random.State.int st n in
  let pick a = a.(int (Array.length a)) in
  let sep () = pick [| " "; " "; " "; "\t"; "  "; " \t " |] in
  let comment () = "#" ^ pick [| ""; " note"; " bus x rate 2"; "flow a -> b"; "##" |] in
  let line words =
    (if int 8 = 0 then sep () else "")
    ^ String.concat "" (List.mapi (fun i w -> if i = 0 then w else sep () ^ w) words)
    ^ (if int 6 = 0 then sep () ^ comment () else "")
    ^ if int 20 = 0 then "\r" else ""
  in
  let rate () = pick [| "1.5"; "2"; "0.75"; "3e0"; "10"; "0.125"; "7.25" |] in
  let bad_number () = pick [| "0"; "-1"; "abc"; "nan"; "-inf"; "1_0"; "0x1p1"; "1e999"; "+2"; "" |] in
  let nbus = 1 + int 4 in
  let bus i = "b" ^ string_of_int i in
  let grid = match int 4 with 0 -> Some ("mesh", 2, 2) | 1 -> Some ("torus", 1 + int 2, 3) | _ -> None in
  let cells =
    match grid with
    | None -> [||]
    | Some (_, r, c) -> Array.init (r * c) (fun k -> Printf.sprintf "g_r%dc%d" (k / c) (k mod c))
  in
  let homes = Array.append (Array.init nbus bus) cells in
  let nproc = 2 + int 5 in
  let stmts =
    List.init nbus (fun i ->
        if int 2 = 0 then [ "bus"; bus i ] else [ "bus"; bus i; "rate"; rate () ])
    @ (match grid with
      | None -> []
      | Some (kw, r, c) ->
          [ [ kw; "g"; "rows"; string_of_int r; "cols"; string_of_int c ]
            @ if int 2 = 0 then [ "rate"; rate () ] else [] ]
          @ [ [ "bridge"; "rg"; bus 0; cells.(0) ] ]
          @ List.init (int 3) (fun _ -> [ "shared_buffer"; pick cells ]))
    @ List.init (nbus - 1) (fun i -> [ "bridge"; "r" ^ string_of_int i; bus i; bus (i + 1) ])
    @ List.init nproc (fun i -> [ "proc"; "p" ^ string_of_int i; "on"; pick homes ])
    @ List.init (1 + int 8) (fun _ ->
          let a = int nproc in
          let b = (a + 1 + int (nproc - 1)) mod nproc in
          [ "flow"; "p" ^ string_of_int a; "->"; "p" ^ string_of_int b; "rate"; rate () ])
  in
  let noise () =
    match int 14 with
    | 0 -> [ "bus" ]
    | 1 -> [ "proc"; "p0"; "on" ]
    | 2 -> [ "flow"; "p0"; "p1"; "rate"; "1" ]
    | 3 -> [ pick [| "wire"; "Bus"; "->"; "rate" |]; "x" ]
    | 4 -> [ "bus"; bus (int (nbus + 1)) ]
    | 5 -> [ "proc"; "p" ^ string_of_int (int (nproc + 1)); "on"; pick [| bus 0; "nowhere" |] ]
    | 6 -> [ "flow"; "p0"; "->"; "p0"; "rate"; "1" ]
    | 7 -> [ "flow"; "p1"; "->"; "p9"; "rate"; "1" ]
    | 8 -> [ "bus"; "z"; "rate"; bad_number () ]
    | 9 -> [ "flow"; "p0"; "->"; "p1"; "rate"; bad_number () ]
    | 10 -> [ pick [| "mesh"; "torus" |]; "h"; "rows"; bad_number (); "cols"; "2" ]
    | 11 -> [ "bridge"; "rx"; bus 0; pick [| bus 0; "nowhere"; bus (nbus - 1) |] ]
    | 12 -> [ "shared_buffer"; pick [| "nowhere"; bus 0 |] ]
    | _ -> [ "bus"; "b0"; "rate" ]
  in
  let cap () =
    match int 3 with
    | 0 -> [ "bus"; String.make (250 + int 20) 't' ]
    | 1 -> [ "#" ^ String.make (4090 + int 12) 'c' ]
    | _ -> [ "mesh"; "big"; "rows"; "64"; "cols"; string_of_int (63 + int 3) ]
  in
  let lines = Array.of_list (List.map line stmts) in
  let extra =
    List.init (if int 3 = 0 then 1 + int 2 else 0) (fun _ -> line (noise ()))
    @ List.init (if int 40 = 0 then 1 else 0) (fun _ -> line (cap ()))
    @ List.init (int 3) (fun _ -> pick [| ""; " "; "\t"; comment () |])
  in
  let all =
    List.fold_left
      (fun acc l ->
        let k = int (List.length acc + 1) in
        List.filteri (fun i _ -> i < k) acc @ (l :: List.filteri (fun i _ -> i >= k) acc))
      (Array.to_list lines) extra
  in
  String.concat "\n" all ^ if int 2 = 0 then "\n" else ""

(* Per-bus clients and rates, rates compared by bits. *)
let same_clients a b =
  List.equal
    (fun (c, r) (c', r') ->
      Traffic.client_equal c c' && Int64.equal (Int64.bits_of_float r) (Int64.bits_of_float r'))
    a b

let parse_matches_reference text =
  match (Spec_parser.parse text, Reference.Spec.parse text) with
  | Ok (topo, traffic), Ok (topo', traffic') ->
      let printed = Spec_parser.to_string topo traffic in
      if printed <> Spec_parser.to_string topo' traffic' then
        QCheck.Test.fail_reportf "printed specs differ:\n%s" printed
      else if Traffic.flows traffic <> Traffic.flows traffic' then
        QCheck.Test.fail_reportf "flows differ"
      else
        (* The aggregation against [Traffic.create]'s former Hashtbl and
           sort, over the same routed hops. *)
        let reference = Reference.Traffic.per_bus topo traffic in
        Array.for_all Fun.id
          (Array.mapi (fun bus want -> same_clients want (Traffic.clients_of_bus traffic bus)) reference)
        || QCheck.Test.fail_reportf "per-bus clients differ from the reference aggregation"
  | Error e, Error e' -> e = e' || QCheck.Test.fail_reportf "errors differ:\n%s\n%s" e e'
  | Ok _, Error e -> QCheck.Test.fail_reportf "accepted; the reference says %s" e
  | Error e, Ok _ -> QCheck.Test.fail_reportf "rejected (%s); the reference accepts" e

let test_spec_parse_matches_reference () =
  (* Every cap, at and past its bound. *)
  let base = "bus a\nproc p on a\nproc q on a\nflow p -> q rate 1.\n" in
  List.iter
    (fun text -> ignore (parse_matches_reference text))
    [ ""; "\n"; base; String.make ((1 lsl 20) + 1) '#'; base ^ "#" ^ String.make 4095 'x';
      base ^ "#" ^ String.make 4096 'x'; base ^ "bus " ^ String.make 256 'b';
      base ^ "bus " ^ String.make 257 'b'; base ^ "mesh m rows 64 cols 64";
      base ^ "torus t rows 64 cols 65";
      String.concat "\n" (List.init 4096 (fun i -> Printf.sprintf "bus b%d" i)) ^ "\n" ^ base;
      String.concat "\n" (List.init 4093 (fun i -> Printf.sprintf "bus b%d" i)) ^ "\n" ^ base ];
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:2000 ~name:"spec parse = reference parser"
       (QCheck.make ~print:(Printf.sprintf "%S") gen_spec_text)
       parse_matches_reference);
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"spec parse = reference parser on generated architectures"
       Bufsize_verify_qcheck.Verify_arbitrary.spec_text (fun (_, text) ->
         parse_matches_reference text))

(* Round-trip property over random generated architectures: to_string
   output re-parses to an architecture with identical shape and load. *)
let test_spec_roundtrip_property () =
  let prop (_seed, text) =
    match Spec_parser.parse text with
    | Error e -> QCheck.Test.fail_reportf "generated spec does not parse: %s" e
    | Ok (topo, traffic) -> (
        match Spec_parser.parse (Spec_parser.to_string topo traffic) with
        | Error e -> QCheck.Test.fail_reportf "round-trip does not parse: %s" e
        | Ok (topo2, traffic2) ->
            Topology.num_buses topo = Topology.num_buses topo2
            && Topology.num_processors topo = Topology.num_processors topo2
            && Topology.num_bridges topo = Topology.num_bridges topo2
            && Array.length (Traffic.flows traffic) = Array.length (Traffic.flows traffic2)
            && Float.abs (Traffic.total_offered traffic -. Traffic.total_offered traffic2)
               < 1e-9)
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:100 ~name:"spec round-trip"
       Bufsize_verify_qcheck.Verify_arbitrary.spec_text prop)

(* Stronger property over grid specs (mesh/torus/shared_buffer stanzas):
   the canonical print is a literal parse fixed point. *)
let test_spec_grid_roundtrip_property () =
  let prop (_seed, text) =
    match Spec_parser.parse text with
    | Error e -> QCheck.Test.fail_reportf "generated grid spec does not parse: %s" e
    | Ok (topo, traffic) ->
        let printed = Spec_parser.to_string topo traffic in
        if printed <> text then
          QCheck.Test.fail_reportf "print is not a fixed point:\n%s\nvs\n%s" printed text
        else true
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:100 ~name:"grid spec round-trip"
       Bufsize_verify_qcheck.Verify_arbitrary.topo_spec_text prop)

(* --------------------------------------------------------------- sizing *)

let test_sizing_fig1_end_to_end () =
  let _, traffic = Fig1.create () in
  let config = { (Sizing.default_config ~budget:40) with Sizing.max_states = 64 } in
  let r = Sizing.run config traffic in
  Alcotest.(check int) "budget distributed" 40 (Buffer_alloc.total r.Sizing.allocation);
  Alcotest.(check bool) "loss prediction finite" true (Float.is_finite r.Sizing.predicted_loss_rate);
  Alcotest.(check bool) "nonnegative loss" true (r.Sizing.predicted_loss_rate >= 0.);
  Array.iter
    (fun (sol : Sizing.subsystem_solution) ->
      let m = Bus_model.ctmdp sol.Sizing.model in
      match Bufsize_verify.Kswitching.check_answer m sol.Sizing.solved with
      | Ok _ -> ()
      | Error why -> Alcotest.fail why)
    r.Sizing.solutions

let test_sizing_separate_solver () =
  let _, traffic = Fig1.create () in
  let config =
    { (Sizing.default_config ~budget:40) with Sizing.max_states = 64; solver = Sizing.Separate }
  in
  let r = Sizing.run config traffic in
  Alcotest.(check int) "budget distributed" 40 (Buffer_alloc.total r.Sizing.allocation)

let test_sizing_more_budget_less_loss () =
  let _, traffic = Fig1.create () in
  let loss budget =
    let config = { (Sizing.default_config ~budget) with Sizing.max_states = 48 } in
    (Sizing.run config traffic).Sizing.predicted_loss_rate
  in
  (* The predicted loss with a generous occupancy budget is no worse than
     with a tight one (same state space, looser constraint). *)
  Alcotest.(check bool) "monotone in budget" true (loss 80 <= loss 20 +. 1e-9)

let test_sizing_weighted_losses () =
  (* The paper's closing remark as a feature: weighting one processor's
     losses shifts buffer space toward it. *)
  let _, traffic = Fig1.create () in
  let p3 = 2 in
  (* processor P3 on bus b *)
  let base = { (Sizing.default_config ~budget:40) with Sizing.max_states = 48 } in
  let weighted =
    {
      base with
      Sizing.client_weight =
        (fun c ->
          match c with
          | Traffic.Proc_client p when p = p3 -> 10.
          | Traffic.Proc_client _ | Traffic.Bridge_client _ -> 1.);
    }
  in
  let alloc_of config =
    let r = Sizing.run config traffic in
    let topo = Traffic.topology traffic in
    let home = (Topology.processor topo p3).Topology.home_bus in
    Buffer_alloc.lookup r.Sizing.allocation home (Traffic.Proc_client p3)
  in
  Alcotest.(check bool) "weighted processor gets at least as much" true
    (alloc_of weighted >= alloc_of base)

(* The subsystem CTMDPs [Sizing.run] builds for [config], their level
   counts, and the occupancy bound in levels it poses — so a test can call
   the LP on exactly the problem the sizing path solves. *)
let sizing_blocks config traffic =
  let models =
    Array.map
      (fun s ->
        Bus_model.build ~weights:config.Sizing.client_weight ~max_states:config.Sizing.max_states s)
      (Splitting.split traffic).Splitting.subsystems
  in
  let total = Array.fold_left (fun acc m -> acc + Bus_model.total_levels m) 0 models in
  let words_per_level = float_of_int config.Sizing.budget /. float_of_int total in
  let bound =
    config.Sizing.occupancy_fraction *. float_of_int config.Sizing.budget /. words_per_level
  in
  (models, bound)

let le value = [| { Bufsize_verify.Lp_formulation.sense = Bufsize_verify.Lp.Le; value } |]

(* [Test_specs.three_bus] at budget 64 with 40 states per subsystem.  The
   dense tableau engine solves its joint LP, called directly: the loss
   bits and the pivot count are pinned, so any change to the dense
   engine's pivot path or to its exact finish shows up here.  The sizing
   path itself solves the same problem by price, with no LP at all: its
   allocation and loss bits are pinned too. *)
let test_sizing_dense_pinned () =
  let module Obs = Bufsize_obs.Obs in
  let module Lp_formulation = Bufsize_verify.Lp_formulation in
  let traffic = Test_specs.traffic Test_specs.three_bus in
  let config = { (Sizing.default_config ~budget:64) with Sizing.max_states = 40 } in
  let dense = Obs.counter "simplex.pivots" and revised = Obs.counter "simplex_revised.pivots" in
  let solves = Obs.counter "lp.solves" in
  (* Cold caches, so every solve really runs; metrics on to count. *)
  let counted f =
    Bufsize_numeric.Solve_cache.clear_all ();
    Obs.enable_metrics ();
    Fun.protect ~finally:Obs.disable f
  in
  let models, bound = sizing_blocks config traffic in
  let ctmdps = Array.map Bus_model.ctmdp models in
  let d0 = Obs.counter_value dense and r0 = Obs.counter_value revised in
  (match counted (fun () -> Lp_formulation.solve_joint_diag ~shared_bounds:(le bound) ctmdps) with
  | Some (Lp_formulation.Joint_optimal j), _ ->
      Alcotest.(check string) "joint LP loss bits" "0x1.583ef69bc4016p+0"
        (Printf.sprintf "%h" j.Lp_formulation.total_gain)
  | _ -> Alcotest.fail "joint LP not optimal");
  Alcotest.(check int) "dense pivots" 164 (Obs.counter_value dense - d0);
  Alcotest.(check int) "no revised pivots" 0 (Obs.counter_value revised - r0);
  let s0 = Obs.counter_value solves in
  let r = counted (fun () -> Sizing.run config traffic) in
  let entries = r.Sizing.allocation.Buffer_alloc.entries in
  let words = Array.to_list (Array.map (fun e -> e.Buffer_alloc.words) entries) in
  Alcotest.(check (list int)) "allocation" [ 6; 6; 6; 5; 1; 5; 5; 5; 5; 5; 5; 5; 5 ] words;
  Alcotest.(check string) "predicted loss bits" "0x1.583ef69bc400fp+0"
    (Printf.sprintf "%h" r.Sizing.predicted_loss_rate);
  Alcotest.(check int) "no LP solve on the sizing path" 0 (Obs.counter_value solves - s0)

(* Router g_r2c2 of a 3x3 mesh: its static model at 24 states and its
   DAMQ shared pool of equal capacity. *)
let g_r2c2 () =
  let spec =
    "mesh g rows 3 cols 3 rate 4.17\n"
    ^ String.concat ""
        (List.init 9 (fun i -> Printf.sprintf "proc ni%d on g_r%dc%d\n" i (i / 3) (i mod 3)))
    ^ String.concat ""
        (List.map (Printf.sprintf "shared_buffer g_%s\n")
           [ "r0c0"; "r0c1"; "r1c0"; "r1c1"; "r2c1"; "r2c2" ])
    ^ String.concat ""
        (List.map
           (fun (a, b, r) -> Printf.sprintf "flow ni%d -> ni%d rate %s\n" a b r)
           [
             (0, 1, "0.366"); (0, 3, "0.136"); (1, 8, "0.181"); (2, 1, "0.227");
             (2, 6, "0.164"); (3, 1, "0.11"); (4, 0, "0.363"); (5, 0, "0.282");
             (6, 8, "0.193"); (6, 8, "0.373"); (7, 8, "0.368"); (8, 4, "0.059");
           ])
  in
  let traffic = Test_specs.traffic spec in
  let sub =
    List.find
      (fun (s : Splitting.subsystem) -> s.Splitting.bus_name = "g_r2c2")
      (Array.to_list (Splitting.split traffic).Splitting.subsystems)
  in
  let levels = Bus_model.choose_levels ~max_states:24 sub.Splitting.clients in
  let model = Bus_model.build ~levels sub in
  let shared =
    Bus_model.Shared.build ~static_levels:levels ~max_states:512
      ~capacity:(Bus_model.total_levels model) sub
  in
  (model, Bus_model.Shared.ctmdp shared)

(* The g_r2c2 shared-pool LP (120 rows).  Its perturbed run reports
   infeasible, and the unperturbed retry drifts; the drifted tableau
   point violates a row at relative level 5.4, so the drifted retry must
   be rerun with tighter refactorization.  The dense tableau then answers
   in its first escalation step, with the reference engine's optimum. *)
let test_dense_unperturbed_drift_retry () =
  let module Obs = Bufsize_obs.Obs in
  let module Lp_formulation = Bufsize_verify.Lp_formulation in
  let module Resilience = Bufsize_resilience.Resilience in
  let _, ctmdp = g_r2c2 () in
  let retries = Obs.counter "simplex.retries" in
  Obs.enable_metrics ();
  let r0 = Obs.counter_value retries in
  let outcome, diag =
    Fun.protect ~finally:Obs.disable (fun () -> Lp_formulation.solve_diag ctmdp)
  in
  Alcotest.(check int) "rows" 120 (Bufsize_verify.Lp.num_constraints (Lp_formulation.model ctmdp));
  Alcotest.(check int) "unperturbed retry and its drift retry" 2 (Obs.counter_value retries - r0);
  Alcotest.(check bool) "first step answers" true (Resilience.is_ok diag);
  match (outcome, Bufsize_verify.Simplex_revised.solve_lp (Lp_formulation.model ctmdp)) with
  | Some (Lp_formulation.Optimal d), Bufsize_verify.Lp.Optimal r ->
      Alcotest.(check string) "reference optimum" "0.000118253849196"
        (Printf.sprintf "%.12g" r.Bufsize_verify.Lp.objective);
      Alcotest.(check bool) "dense gain = reference" true
        (Float.abs (d.Lp_formulation.gain -. r.Bufsize_verify.Lp.objective)
        <= 1e-9 *. r.Bufsize_verify.Lp.objective)
  | _ -> Alcotest.fail "shared-pool LP not optimal"

(* The g_r2c2 shared pool bounded at its static occupancy, as
   [Sizing.damq_reeval] bounds it: the bound binds, and the price path
   answers it with the joint LP's gain and dual, at most one randomized
   state and no fallback. *)
let test_damq_pool_price_vs_lp () =
  let module Lp_formulation = Bufsize_verify.Lp_formulation in
  let module Constrained = Bufsize_mdp.Constrained in
  let module Kswitching = Bufsize_verify.Kswitching in
  let static, shared = g_r2c2 () in
  let used =
    match Constrained.solve_price [| Bus_model.ctmdp static |] with
    | Some (Constrained.Optimal a), _, _ -> a.Constrained.total_usage
    | _ -> Alcotest.fail "static solve failed"
  in
  let bound = used +. (1e-6 *. (1. +. Float.abs used)) in
  let lp =
    match Lp_formulation.solve_joint ~shared_bounds:(le bound) [| shared |] with
    | Lp_formulation.Joint_optimal j -> j
    | _ -> Alcotest.fail "joint LP not optimal"
  in
  match Constrained.solve_price ~bound [| shared |] with
  | Some (Constrained.Optimal a), diag, _ ->
      Alcotest.(check bool) "no fallback" true (Bufsize_resilience.Resilience.is_ok diag);
      let price = a.Constrained.price in
      Alcotest.(check bool) "the bound binds" true (price > 0.);
      let gain = lp.Lp_formulation.total_gain in
      Alcotest.(check (float (1e-9 *. gain))) "gain = LP gain" gain a.Constrained.total_gain;
      Alcotest.(check (float 1e-8)) "price = LP dual" (-.lp.Lp_formulation.shared_duals.(0)) price;
      (match Kswitching.check_answer shared a.Constrained.components.(0) with
      | Ok _ -> ()
      | Error why -> Alcotest.fail why)
  | _ -> Alcotest.fail "price solve failed"

(* Fig. 1 sized per subsystem, with each subsystem LP called directly:
   the final perturbed bases of these LPs are slightly infeasible for the
   true data, so the dual cleanup pivots (26, 39 and 5 pivots).  The exact
   finish must then factorize the new basis, not reuse the pre-cleanup
   LU: a stale LU shows as a changed loss and as drift retries.  The
   sizing path prices each subsystem instead and runs no LP. *)
let test_sizing_finish_after_dual_cleanup () =
  let _, traffic = Fig1.create () in
  let module Obs = Bufsize_obs.Obs in
  let module Lp_formulation = Bufsize_verify.Lp_formulation in
  let retries = Obs.counter "simplex.retries" and solves = Obs.counter "lp.solves" in
  let config =
    { (Sizing.default_config ~budget:40) with Sizing.max_states = 64; solver = Sizing.Separate }
  in
  let models, bound = sizing_blocks config traffic in
  let total = Array.fold_left (fun acc m -> acc + Bus_model.total_levels m) 0 models in
  Bufsize_numeric.Solve_cache.clear_all ();
  Obs.enable_metrics ();
  let before = Obs.counter_value retries in
  let loss =
    Fun.protect ~finally:Obs.disable (fun () ->
        Array.fold_left ( +. ) 0.
          (Array.mapi
             (fun i m ->
               let levels = Bus_model.total_levels models.(i) in
               let share = bound *. float_of_int levels /. float_of_int total in
               match Lp_formulation.solve_diag ~extra_bounds:(le share) m with
               | Some (Lp_formulation.Optimal s), _ -> s.Lp_formulation.gain
               | _ -> Alcotest.fail "subsystem LP not optimal")
             (Array.map Bus_model.ctmdp models)))
  in
  Alcotest.(check string) "LP loss bits" "0x1.64d85888d78d2p-5" (Printf.sprintf "%h" loss);
  Alcotest.(check int) "no retries" 0 (Obs.counter_value retries - before);
  Bufsize_numeric.Solve_cache.clear_all ();
  Obs.enable_metrics ();
  let s0 = Obs.counter_value solves in
  let r = Fun.protect ~finally:Obs.disable (fun () -> Sizing.run config traffic) in
  let entries = r.Sizing.allocation.Buffer_alloc.entries in
  Alcotest.(check (list int)) "allocation" (List.init 10 (fun _ -> 4))
    (Array.to_list (Array.map (fun e -> e.Buffer_alloc.words) entries));
  Alcotest.(check string) "predicted loss bits" "0x1.64d85888d7914p-5"
    (Printf.sprintf "%h" r.Sizing.predicted_loss_rate);
  Alcotest.(check int) "no LP solve on the sizing path" 0 (Obs.counter_value solves - s0)

(* The 95% occupancy level of every loaded client under a stationary
   distribution. *)
let quantile_levels model pi =
  Array.map
    (fun dist ->
      let acc = ref 0. and level = ref (-1) in
      Array.iteri
        (fun l p ->
          acc := !acc +. p;
          if !level < 0 && !acc >= 0.95 then level := l)
        dist;
      !level)
    (Bus_model.occupancy_distribution model pi)

(* Netproc (Table 1's architecture, 64 states per subsystem) priced
   against the joint LP.  At the fig3 default kappa = 0.6 the bound is
   slack: price 0 and the unconstrained gain.  At kappa = 0.25 it binds:
   the price is the LP's dual, the answer randomizes in at most one state,
   and every client's quantile level — what the allocation is made of —
   is the LP's. *)
let test_netproc_price_vs_lp () =
  let module Lp_formulation = Bufsize_verify.Lp_formulation in
  let module Constrained = Bufsize_mdp.Constrained in
  let module Kswitching = Bufsize_verify.Kswitching in
  let _, traffic = Netproc.create () in
  List.iter
    (fun (kappa, expected_gain, expected_price) ->
      let name what = Printf.sprintf "kappa %g: %s" kappa what in
      let config =
        {
          (Sizing.default_config ~budget:160) with
          Sizing.max_states = 64;
          occupancy_fraction = kappa;
        }
      in
      let models, bound = sizing_blocks config traffic in
      let ctmdps = Array.map Bus_model.ctmdp models in
      let lp =
        match Lp_formulation.solve_joint ~shared_bounds:(le bound) ctmdps with
        | Lp_formulation.Joint_optimal j -> j
        | _ -> Alcotest.fail (name "joint LP not optimal")
      in
      let priced, diag =
        match Constrained.solve_price ~bound ctmdps with
        | Some (Constrained.Optimal a), diag, _ -> (a, diag)
        | _ -> Alcotest.fail (name "price solve failed")
      in
      Alcotest.(check bool) (name "no fallback") true (Bufsize_resilience.Resilience.is_ok diag);
      let gain = priced.Constrained.total_gain in
      Alcotest.(check (float 1e-10)) (name "gain") expected_gain gain;
      Alcotest.(check (float (1e-9 *. (1. +. gain)))) (name "gain = LP gain")
        lp.Lp_formulation.total_gain gain;
      let price = priced.Constrained.price in
      Alcotest.(check (float 1e-7)) (name "price") expected_price price;
      Alcotest.(check (float 1e-8)) (name "price = LP dual")
        (-.lp.Lp_formulation.shared_duals.(0)) price;
      let randomized =
        Array.fold_left ( + ) 0
          (Array.mapi
             (fun i m ->
               match Kswitching.check_answer m priced.Constrained.components.(i) with
               | Ok k -> k
               | Error why -> Alcotest.fail (name why))
             ctmdps)
      in
      Alcotest.(check bool) (name "at most one randomized state") true (randomized <= 1);
      Array.iteri
        (fun i model ->
          let lp_pi =
            Bufsize_verify.Dense_policy.evaluate ctmdps.(i)
              lp.Lp_formulation.components.(i).Lp_formulation.policy
          in
          Alcotest.(check (array int)) (name "quantile levels = LP's")
            (quantile_levels model lp_pi.Bufsize_verify.Dense_policy.state_distribution)
            (quantile_levels model priced.Constrained.components.(i).Constrained.stationary))
        models)
    [ (0.6, 7.1069936544, 0.); (0.25, 7.70995290312, 0.8639137) ]

(* An n x n mesh with a shared router buffer per cell and one NI per
   router, each sending to the next NI in row-major order. *)
let mesh_spec ?(rate = 0.2) n =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "mesh noc rows %d cols %d rate 2.0\n" n n;
  for r = 0 to n - 1 do
    for c = 0 to n - 1 do
      Printf.bprintf buf "shared_buffer noc_r%dc%d\nproc ni_r%dc%d on noc_r%dc%d\n" r c r c r c
    done
  done;
  for i = 0 to (n * n) - 1 do
    let j = (i + 1) mod (n * n) in
    Printf.bprintf buf "flow ni_r%dc%d -> ni_r%dc%d rate %g\n" (i / n) (i mod n) (j / n) (j mod n)
      rate
  done;
  Buffer.contents buf

(* DAMQ never loses more than the static partition at equal capacity: the
   static admission rule is one of the shared pool's actions.  Checked on
   the whole-mesh totals that [Sizing.compare_sharing] reports. *)
let test_compare_sharing_damq_le_static () =
  List.iter
    (fun n ->
      let traffic = Test_specs.traffic (mesh_spec n) in
      let config = { (Sizing.default_config ~budget:(8 * n * n)) with Sizing.max_states = 16 } in
      let _, report = Sizing.compare_sharing config traffic in
      let name what = Printf.sprintf "n=%d %s" n what in
      Alcotest.(check bool) (name "buses compared") true (report.Sizing.entries <> []);
      Alcotest.(check (list (pair string string))) (name "none skipped") [] report.Sizing.skipped;
      if report.Sizing.total_damq_loss > report.Sizing.total_static_loss +. 1e-9 then
        Alcotest.failf "n=%d: damq loss %g > static loss %g" n report.Sizing.total_damq_loss
          report.Sizing.total_static_loss)
    [ 2; 3 ]

(* [compare_sharing] reuses [run]'s solves: the static blocks' and the
   pools' price-0 lines, and [run]'s own answer where it is the line's
   policy.  With the sizing cache off, under [Damq] it adds no
   policy-iteration factorization to [run]'s, and under both sharing
   modes its report is bitwise the recipe it replaced, written out here:
   per router, a fresh unconstrained solve of the static block, and a
   fresh pool build with an unconstrained solve of its own, each with a
   fresh stationary solve.  On the busier 3x3 mesh at kappa 0.25 the
   joint bound binds (price 0.18): eight blocks answer with a
   deterministic policy other than their price-0 one, which must not be
   taken for it, and one with a mix. *)
let test_compare_sharing_reuses_run () =
  let module Obs = Bufsize_obs.Obs in
  let module Constrained = Bufsize_mdp.Constrained in
  let module Solve_cache = Bufsize_numeric.Solve_cache in
  let factorizations = Obs.counter "policy_iteration.factorizations" in
  let counted f =
    Obs.enable_metrics ();
    let f0 = Obs.counter_value factorizations in
    let r = Fun.protect ~finally:Obs.disable f in
    (r, Obs.counter_value factorizations - f0)
  in
  let unconstrained ctmdp =
    match Constrained.solve_price [| ctmdp |] with
    | Some (Constrained.Optimal a), _, _ -> a.Constrained.components.(0)
    | _ -> Alcotest.fail "unconstrained solve failed"
  in
  let delay ~expected ~offered ~loss = expected /. Float.max 1e-12 (offered -. loss) in
  let bits x = Printf.sprintf "%h" x in
  let old_entry config (s : Sizing.subsystem_solution) =
    let sub = Bus_model.subsystem s.Sizing.model in
    let offered =
      Array.fold_left
        (fun acc c -> acc +. c.Bus_model.arrival_rate)
        0.
        (Bus_model.loaded_clients s.Sizing.model)
    in
    let st = unconstrained (Bus_model.ctmdp s.Sizing.model) in
    let static_en =
      Array.fold_left
        (fun acc dist ->
          let e = ref 0. in
          Array.iteri (fun l p -> e := !e +. (float_of_int l *. p)) dist;
          acc +. !e)
        0.
        (Bus_model.occupancy_distribution s.Sizing.model
           (Policy.stationary (Bus_model.ctmdp s.Sizing.model) st.Constrained.policy))
    in
    let pool =
      Bus_model.Shared.build ~weights:config.Sizing.client_weight
        ~static_levels:
          (Array.map (fun c -> c.Bus_model.levels) (Bus_model.clients s.Sizing.model))
        ~max_states:(Int.max 512 (4 * config.Sizing.max_states))
        ~capacity:(Bus_model.total_levels s.Sizing.model) sub
    in
    let d = unconstrained (Bus_model.Shared.ctmdp pool) in
    let damq_en =
      Bus_model.Shared.expected_total pool
        (Policy.stationary (Bus_model.Shared.ctmdp pool) d.Constrained.policy)
    in
    let static_loss = st.Constrained.gain and damq_loss = d.Constrained.gain in
    ( sub.Splitting.bus,
      List.map bits
        [
          static_loss;
          Float.min damq_loss static_loss;
          delay ~expected:static_en ~offered ~loss:static_loss;
          delay ~expected:damq_en ~offered ~loss:damq_loss;
        ] )
  in
  let new_entry (e : Sizing.sharing_entry) =
    ( e.Sizing.cmp_bus,
      List.map bits
        [ e.Sizing.static_loss; e.Sizing.damq_loss; e.Sizing.static_delay; e.Sizing.damq_delay ]
    )
  in
  Solve_cache.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Solve_cache.set_enabled true)
    (fun () ->
      List.iter
        (fun (n, sharing, occupancy_fraction, rate) ->
          let name what =
            Printf.sprintf "%dx%d %s kappa %g rate %g %s" n n
              (match sharing with Sizing.Static -> "static" | Sizing.Damq -> "damq")
              occupancy_fraction rate what
          in
          let traffic = Test_specs.traffic (mesh_spec ~rate n) in
          let config =
            {
              (Sizing.default_config ~budget:(6 * n * n)) with
              Sizing.max_states = 24;
              sharing;
              occupancy_fraction;
            }
          in
          let _, run_cost = counted (fun () -> Sizing.run config traffic) in
          let (result, report), cost = counted (fun () -> Sizing.compare_sharing config traffic) in
          if sharing = Sizing.Damq then begin
            Alcotest.(check bool) (name "run factorizes") true (run_cost > 0);
            Alcotest.(check int) (name "no factorization beyond run's") run_cost cost
          end;
          Alcotest.(check (list (pair int (list string))))
            (name "report = fresh solves, bitwise")
            (List.map (old_entry config) (Array.to_list result.Sizing.solutions))
            (List.map new_entry report.Sizing.entries))
        [
          (2, Sizing.Damq, 0.6, 0.2);
          (2, Sizing.Static, 0.6, 0.2);
          (3, Sizing.Damq, 0.6, 0.2);
          (3, Sizing.Static, 0.6, 0.2);
          (3, Sizing.Static, 0.25, 0.6);
        ])

(* Every occupancy reads the π its answer carries: on the
   perfbench-shaped three-bus SoC, on netproc at kappa 0.6 (slack) and
   0.25 (binding), and on the 2x2 DAMQ mesh's static blocks (its
   [compare_sharing] entries are held to fresh solves by the test
   above).  A deterministic answer's π is bitwise the π a fresh
   [Ctmc.stationary] of its policy gives; the one block a binding answer
   mixes carries alpha pi_a + (1 - alpha) pi_b, within 1e-12 of a fresh
   solve of its randomized chain. *)
let test_carried_pi_is_fresh () =
  let module Constrained = Bufsize_mdp.Constrained in
  let module Ctmc = Bufsize_prob.Ctmc in
  let module Solve_cache = Bufsize_numeric.Solve_cache in
  let bits = Array.map Int64.bits_of_float in
  let check (name, config, traffic, expected_mixed) =
    Solve_cache.clear_all ();
    let r = Sizing.run config traffic in
    let mixed = ref 0 in
    Array.iteri
      (fun i (s : Sizing.subsystem_solution) ->
        let what w = Printf.sprintf "%s block %d: %s" name i w in
        let m = Bus_model.ctmdp s.Sizing.model and answer = s.Sizing.solved in
        let pi = answer.Constrained.stationary in
        let fresh = Ctmc.stationary (Policy.induced_ctmc m answer.Constrained.policy) in
        (match answer.Constrained.policy.Policy.mix with
        | None -> Alcotest.(check (array int64)) (what "carried π = fresh") (bits fresh) (bits pi)
        | Some _ ->
            incr mixed;
            Array.iteri
              (fun j p ->
                if Float.abs (p -. fresh.(j)) > 1e-12 then
                  Alcotest.failf "%s: carried π %.17g vs fresh %.17g at state %d"
                    (what "mixed") p fresh.(j) j)
              pi);
        Alcotest.(check (list (array int64)))
          (what "occupancy of the carried π")
          (Array.to_list (Array.map bits (Bus_model.occupancy_distribution s.Sizing.model pi)))
          (Array.to_list (Array.map bits s.Sizing.occupancy)))
      r.Sizing.solutions;
    Alcotest.(check int) (name ^ ": mixed blocks") expected_mixed !mixed
  in
  let _, netproc = Netproc.create () in
  let netproc_config kappa =
    { (Sizing.default_config ~budget:160) with Sizing.max_states = 64; occupancy_fraction = kappa }
  in
  List.iter check
    [
      ( "three-bus",
        { (Sizing.default_config ~budget:64) with Sizing.max_states = 40 },
        Test_specs.traffic Test_specs.three_bus,
        0 );
      ("netproc kappa 0.6", netproc_config 0.6, netproc, 0);
      ("netproc kappa 0.25", netproc_config 0.25, netproc, 1);
      ( "2x2 damq",
        { (Sizing.default_config ~budget:24) with Sizing.max_states = 24; sharing = Sizing.Damq },
        Test_specs.traffic (mesh_spec 2),
        0 );
    ]

(* The K-switching answer against the occupation-measure form it
   replaced ([Reference.Constrained]), at a bound where it binds: every
   block's gain and usage bitwise, a deterministic block's π bitwise,
   and the mixed block's mix probability bitwise.  The mixed block's
   reference is built at the reference's alpha, the bound's share of the
   usage step between the reference tuples around the switch (summed in
   block order, as the price path sums them); its carried π is within
   1e-12 of a fresh solve of its chain.  The number of mixed blocks. *)
let mixes_vs_reference ~what ~bound models =
  let module C = Bufsize_mdp.Constrained in
  let module R = Reference.Constrained in
  let same name x y =
    Alcotest.(check int64) (what ^ name) (Int64.bits_of_float x) (Int64.bits_of_float y)
  in
  let blocks =
    match C.solve_price ~bound models with
    | Some (C.Optimal a), _, _ -> a.C.components
    | _ -> Alcotest.failf "%s: price solve failed" what
  in
  let refs = Array.mapi (fun i c -> R.deterministic_solved models.(i) c.C.policy.Policy.choice) blocks in
  let usage = Array.fold_left (fun acc r -> acc +. r.R.usage) 0. in
  Array.iteri
    (fun i (c : C.solved) ->
      let r, pi, tol =
        match c.C.policy.Policy.mix with
        | None -> (refs.(i), Option.get refs.(i).R.stationary, 0.)
        | Some { Policy.state; action; weight } ->
            let sa = Array.copy refs in
            sa.(i) <-
              R.deterministic_solved models.(i)
                (Array.mapi (fun s a -> if s = state then action else a) c.C.policy.Policy.choice);
            let alpha = (bound -. usage refs) /. (usage sa -. usage refs) in
            let r = R.mixed_solved models.(i) ~alpha ~state sa.(i) refs.(i) in
            same ": mix probability"
              (Bufsize_verify.Dense_policy.action_probs r.R.policy state).(action)
              weight;
            (r, Policy.stationary models.(i) c.C.policy, 1e-12)
      in
      same ": gain" r.R.gain c.C.gain;
      same ": usage" r.R.usage c.C.usage;
      Array.iteri
        (fun j p ->
          if Float.abs (p -. pi.(j)) > tol then
            Alcotest.failf "%s block %d: π %.17g vs %.17g at state %d" what i p pi.(j) j)
        c.C.stationary)
    blocks;
  Array.fold_left (fun n c -> if c.C.policy.Policy.mix = None then n else n + 1) 0 blocks

(* A bound [at] of the way from the blocks' least usage to their
   unconstrained optimum's, where it binds. *)
let binding_bound models at =
  let module PI = Bufsize_mdp.Policy_iteration in
  let usage weights =
    Array.fold_left (fun acc m -> acc +. (PI.solve ~weights m).PI.line.PI.g_u) 0. models
  in
  let least = usage (0., 1.) in
  least +. (at *. (usage (1., 0.) -. least))

(* On random unichain blocks (one to three, half of the time copies of
   one block, whose bracketing tuples differ in several states), on
   netproc's and the three-bus SoC's subsystems and on the g_r2c2 DAMQ
   pool, the last also at the bound [Sizing] gives it. *)
let test_answer_vs_occupation_reference () =
  let module Gen_model = Bufsize_verify.Gen_model in
  let module Rng = Bufsize_prob.Rng in
  let rng = Rng.create 35 in
  let knobs = { Gen_model.default_ctmdp_knobs with Gen_model.max_states = 8 } in
  let random = ref 0 in
  for case = 1 to 150 do
    let nb = 1 + Rng.int rng 3 in
    let models =
      if Rng.bool rng then Array.init nb (fun _ -> Gen_model.ctmdp ~knobs rng)
      else Array.make nb (Gen_model.ctmdp ~knobs rng)
    in
    let bound = binding_bound models (0.05 +. (0.9 *. Rng.float rng)) in
    random := !random + mixes_vs_reference ~what:(Printf.sprintf "random %d" case) ~bound models
  done;
  Alcotest.(check bool) "random blocks mix" true (!random > 100);
  let blocks config traffic = Array.map Bus_model.ctmdp (fst (sizing_blocks config traffic)) in
  let netproc =
    blocks
      { (Sizing.default_config ~budget:160) with Sizing.max_states = 64 }
      (snd (Netproc.create ()))
  and three_bus =
    blocks
      { (Sizing.default_config ~budget:64) with Sizing.max_states = 40 }
      (Test_specs.traffic Test_specs.three_bus)
  and static, pool = g_r2c2 () in
  let used = (Bufsize_mdp.Policy_iteration.solve (Bus_model.ctmdp static)).line.g_u in
  let bus_mixes =
    mixes_vs_reference ~what:"g_r2c2 pool at its static usage"
      ~bound:(used +. (1e-6 *. (1. +. Float.abs used)))
      [| pool |]
    :: List.concat_map
         (fun at ->
           List.map
             (fun (name, models) ->
               mixes_vs_reference ~what:(Printf.sprintf "%s at %g" name at)
                 ~bound:(binding_bound models at) models)
             [ ("netproc", netproc); ("three-bus", three_bus); ("g_r2c2 pool", [| pool |]) ])
         [ 0.1; 0.35; 0.6; 0.85 ]
  in
  Alcotest.(check (list int)) "every bus and pool case mixes once" (List.init 13 (fun _ -> 1))
    bus_mixes

(* Under [Damq] the sizing cache holds the pool solves too: a hit replays
   the cold report bit for bit with no factorization at all, and a mesh
   that differs only in which routers are marked shared is a miss. *)
let test_damq_cache_replays () =
  let module Obs = Bufsize_obs.Obs in
  let module Solve_cache = Bufsize_numeric.Solve_cache in
  let factorizations = Obs.counter "policy_iteration.factorizations" in
  let full = mesh_spec 2 in
  let partial =
    String.concat "\n"
      (List.filter (fun l -> l <> "shared_buffer noc_r0c1") (String.split_on_char '\n' full))
  in
  let config =
    { (Sizing.default_config ~budget:24) with Sizing.max_states = 24; sharing = Sizing.Damq }
  in
  let answer spec =
    let result, report = Sizing.compare_sharing config (Test_specs.traffic spec) in
    ( Printf.sprintf "%h" result.Sizing.predicted_loss_rate,
      List.map fst result.Sizing.health,
      List.map
        (fun e ->
          Printf.sprintf "%d %h %h" e.Sizing.cmp_bus e.Sizing.static_loss e.Sizing.damq_loss)
        report.Sizing.entries )
  in
  let answer_t = Alcotest.(triple string (list string) (list string)) in
  Solve_cache.set_enabled false;
  let cold_full = answer full and cold_partial = answer partial in
  Alcotest.(check bool) "the marks change the answer" true (cold_full <> cold_partial);
  Solve_cache.set_enabled true;
  Solve_cache.clear_all ();
  Fun.protect
    ~finally:(fun () -> Solve_cache.clear_all ())
    (fun () ->
      Alcotest.check answer_t "first cached run = cold" cold_full (answer full);
      Obs.enable_metrics ();
      let f0 = Obs.counter_value factorizations in
      let hit = Fun.protect ~finally:Obs.disable (fun () -> answer full) in
      Alcotest.(check int) "a hit factorizes nothing" 0 (Obs.counter_value factorizations - f0);
      Alcotest.check answer_t "hit = cold" cold_full hit;
      Alcotest.check answer_t "other shared marks: a miss, = its cold run" cold_partial
        (answer partial))

let test_sizing_rejects_bad_config () =
  let _, traffic = Fig1.create () in
  Alcotest.check_raises "bad budget"
    (Invalid_argument "budget 0 words is below the 10 buffers to size (each needs at least one word)")
    (fun () -> ignore (Sizing.run (Sizing.default_config ~budget:0) traffic))

(* The paper's "small" two-bus example, as the CLI's [-a small] builds
   it. *)
let small_spec =
  "bus west rate 3.0\nbus east rate 3.0\nproc A on west\nproc B on west\nproc C on east\n\
   proc D on east\nbridge br west east\nflow A -> C rate 1.3\nflow B -> A rate 0.8\n\
   flow C -> D rate 1.1\nflow D -> B rate 0.7\n"

(* Both bus builders are work-conserving: every action of a non-empty
   state serves a client.  So the empty state is reached under every
   policy, and every policy of every built model is unichain — on the
   built-in architectures, the 2x2 DAMQ mesh and generated specs, static
   and shared-pool alike, at the state caps the CLI, the daemon and the
   benchmarks use.  Returns the number of models checked. *)
let check_bus_models_unichain what traffic =
  let checked = ref 0 in
  let check kind m empty =
    incr checked;
    if not (Bufsize_mdp.Ctmdp.reached_under_every_policy m empty) then
      Alcotest.failf "%s: %s model not reached from empty under every policy" what kind
  in
  List.iter
    (fun max_states ->
      Array.iter
        (fun (sub : Splitting.subsystem) ->
          match Bus_model.build ~max_states sub with
          | exception Invalid_argument _ -> ()
          | model -> (
              let loaded = Array.length (Bus_model.loaded_clients model) in
              check "static" (Bus_model.ctmdp model) (Bus_model.encode model (Array.make loaded 0));
              let static_levels =
                Array.map (fun c -> c.Bus_model.levels) (Bus_model.clients model)
              in
              match
                Bus_model.Shared.build ~static_levels ~max_states:(Int.max 512 (4 * max_states))
                  ~capacity:(Bus_model.total_levels model) sub
              with
              | exception Invalid_argument _ -> ()
              | pool ->
                  let n = Bus_model.Shared.num_states pool in
                  let empty =
                    List.find
                      (fun i -> Array.for_all (( = ) 0) (Bus_model.Shared.state pool i))
                      (List.init n Fun.id)
                  in
                  check "shared-pool" (Bus_model.Shared.ctmdp pool) empty))
        (Splitting.split traffic).Splitting.subsystems)
    [ 6; 24; 40; 64; 96 ];
  !checked

let test_bus_models_unichain () =
  List.iter
    (fun (what, traffic) ->
      Alcotest.(check bool) (what ^ ": models built") true (check_bus_models_unichain what traffic > 0))
    [
      ("fig1", snd (Fig1.create ()));
      ("amba", snd (Bufsize_soc.Amba.create ()));
      ("netproc", snd (Netproc.create ()));
      ("small", Test_specs.traffic small_spec);
      ("2x2 damq mesh", Test_specs.traffic (mesh_spec 2));
    ];
  let arb_check name arb =
    QCheck.Test.check_exn
      (QCheck.Test.make ~count:40 ~name arb (fun (seed, text) ->
           match Spec_parser.parse text with
           | Error e -> QCheck.Test.fail_reportf "generated spec does not parse: %s" e
           | Ok (_, traffic) ->
               ignore (check_bus_models_unichain (Printf.sprintf "%s seed %d" name seed) traffic);
               true))
  in
  arb_check "generated specs" Bufsize_verify_qcheck.Verify_arbitrary.spec_text;
  arb_check "generated grids" Bufsize_verify_qcheck.Verify_arbitrary.topo_spec_text

(* A bound no policy can meet: the bounded solve answers nothing, and
   [Sizing.run] answers through its unbounded retry — the unconstrained
   optimum, bit for bit what a slack bound gives, with the bound marked
   inactive at price 0 and the [unconstrained] fallback in the joint
   diagnostic. *)
let test_sizing_unbounded_retry () =
  let module Resilience = Bufsize_resilience.Resilience in
  let _, traffic = Fig1.create () in
  let config kappa =
    { (Sizing.default_config ~budget:32) with Sizing.max_states = 24; occupancy_fraction = kappa }
  in
  let r = Sizing.run (config 1e-6) traffic and slack = Sizing.run (config 1.) traffic in
  Alcotest.(check bool) "bound inactive" false r.Sizing.budget_bound_active;
  Alcotest.(check (float 0.)) "price 0" 0. r.Sizing.bound_price;
  Alcotest.(check string) "unconstrained optimum"
    (Printf.sprintf "%h" slack.Sizing.predicted_loss_rate)
    (Printf.sprintf "%h" r.Sizing.predicted_loss_rate);
  let joint = List.assoc "joint" r.Sizing.health in
  Alcotest.(check (list string)) "fallback named" [ "unconstrained" ] joint.Resilience.fallbacks;
  Alcotest.(check bool) "degraded" true
    (match joint.Resilience.status with Resilience.Degraded _ -> true | _ -> false)

let () =
  Alcotest.run "soc"
    [
      ( "topology",
        [
          Alcotest.test_case "accessors" `Quick test_topology_accessors;
          Alcotest.test_case "validation" `Quick test_topology_validation;
          Alcotest.test_case "routing" `Quick test_topology_routing;
          Alcotest.test_case "disconnected" `Quick test_topology_disconnected;
          Alcotest.test_case "shortest path" `Quick test_topology_shortest_path;
          Alcotest.test_case "mesh constructor" `Quick test_topology_mesh;
          Alcotest.test_case "torus wrap routing" `Quick test_topology_torus_wrap;
          Alcotest.test_case "torus 2x2 degenerates to mesh" `Quick
            test_topology_torus_2x2_no_wrap;
          Alcotest.test_case "shared buffer marks" `Quick test_topology_shared_buffer;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "cross-bus flow hops" `Quick test_traffic_local_flow;
          Alcotest.test_case "aggregation" `Quick test_traffic_aggregation;
          Alcotest.test_case "validation" `Quick test_traffic_validation;
          Alcotest.test_case "utilization" `Quick test_traffic_utilization;
        ] );
      ( "splitting",
        [
          Alcotest.test_case "fig1 subsystems" `Quick test_split_fig1;
          Alcotest.test_case "local-only trivial split" `Quick test_split_local_only;
          Alcotest.test_case "netproc coverage" `Quick test_split_netproc_covers_processors;
        ] );
      ( "bus-model",
        [
          Alcotest.test_case "level cap" `Quick test_choose_levels_respects_cap;
          Alcotest.test_case "zero-rate levels" `Quick test_choose_levels_zero_rate;
          Alcotest.test_case "single client = MM1K" `Quick test_bus_model_single_client_is_mm1k;
          Alcotest.test_case "encode/decode roundtrip" `Quick test_bus_model_encode_decode;
          Alcotest.test_case "occupancy distribution" `Quick test_bus_model_occupancy_distribution;
          Alcotest.test_case "shared model shape" `Quick test_shared_model_shape;
          Alcotest.test_case "shared never worse than static" `Quick
            test_shared_never_worse_than_static;
          Alcotest.test_case "shared capacity guard" `Quick test_shared_capacity_guard;
          Alcotest.test_case "empty state reached under every policy" `Quick
            test_bus_models_unichain;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "uniform" `Quick test_alloc_uniform;
          Alcotest.test_case "traffic proportional" `Quick test_alloc_traffic_proportional;
          Alcotest.test_case "missing lookup" `Quick test_alloc_lookup_missing;
          Alcotest.test_case "budget rescale" `Quick test_alloc_scale_budget;
          Alcotest.test_case "duplicate rejected" `Quick test_alloc_duplicate_rejected;
        ] );
      ( "monolithic",
        [
          Alcotest.test_case "residual shape" `Quick test_monolithic_residual_dimension;
          Alcotest.test_case "newton struggles" `Quick test_monolithic_newton_struggles;
          Alcotest.test_case "split always solves" `Quick test_monolithic_split_always_works;
          Alcotest.test_case "split X = MM1K" `Quick test_monolithic_split_matches_mm1k_on_x;
        ] );
      ( "properties",
        [
          Alcotest.test_case "chain routing (property)" `Quick test_route_length_on_random_chains;
          Alcotest.test_case "flow conservation (property)" `Quick
            test_traffic_flow_conservation_property;
          Alcotest.test_case "netproc stability" `Quick test_netproc_stable;
          Alcotest.test_case "fig1 validation" `Quick test_fig1_rate_scale_validation;
          Alcotest.test_case "amba shape" `Quick test_amba_shape;
          Alcotest.test_case "amba sizing favours the bridge" `Quick
            test_amba_sizing_favours_bridge;
        ] );
      ( "spec-parser",
        [
          Alcotest.test_case "parse ok" `Quick test_spec_parse_ok;
          Alcotest.test_case "parse errors" `Quick test_spec_parse_errors;
          Alcotest.test_case "roundtrip" `Quick test_spec_roundtrip;
          Alcotest.test_case "missing file" `Quick test_spec_parse_file_missing;
          Alcotest.test_case "file error paths" `Quick test_spec_parse_file_errors;
          Alcotest.test_case "roundtrip (property)" `Quick test_spec_roundtrip_property;
          Alcotest.test_case "parse grid stanzas" `Quick test_spec_parse_grid;
          Alcotest.test_case "grid stanza errors" `Quick test_spec_grid_errors;
          Alcotest.test_case "grid roundtrip (property)" `Quick
            test_spec_grid_roundtrip_property;
          Alcotest.test_case "adversarial caps" `Quick test_spec_parser_caps;
          Alcotest.test_case "tokenize = reference (property)" `Quick test_tokenize_identity;
          Alcotest.test_case "fuzz never crashes" `Quick test_spec_parser_fuzz;
          Alcotest.test_case "parse = reference parser (property)" `Quick
            test_spec_parse_matches_reference;
        ] );
      ( "dot",
        [
          Alcotest.test_case "topology render" `Quick test_dot_topology;
          Alcotest.test_case "allocation render" `Quick test_dot_with_allocation;
          Alcotest.test_case "route overlay render" `Quick test_dot_with_routes;
        ] );
      ( "sizing",
        [
          Alcotest.test_case "dense engine pinned (three buses, two bridges)" `Quick
            test_sizing_dense_pinned;
          Alcotest.test_case "dense drift retry after the unperturbed retry" `Quick
            test_dense_unperturbed_drift_retry;
          Alcotest.test_case "exact finish after dual-cleanup pivots" `Quick
            test_sizing_finish_after_dual_cleanup;
          Alcotest.test_case "netproc price = LP (kappa 0.6, 0.25)" `Slow test_netproc_price_vs_lp;
          Alcotest.test_case "fig1 end to end" `Quick test_sizing_fig1_end_to_end;
          Alcotest.test_case "separate solver" `Quick test_sizing_separate_solver;
          Alcotest.test_case "budget monotonicity" `Quick test_sizing_more_budget_less_loss;
          Alcotest.test_case "weighted losses" `Quick test_sizing_weighted_losses;
          Alcotest.test_case "config validation" `Quick test_sizing_rejects_bad_config;
          Alcotest.test_case "infeasible bound: unbounded retry" `Quick
            test_sizing_unbounded_retry;
          Alcotest.test_case "compare_sharing: damq <= static on meshes" `Quick
            test_compare_sharing_damq_le_static;
          Alcotest.test_case "compare_sharing: reuses run's solves, bitwise" `Quick
            test_compare_sharing_reuses_run;
          Alcotest.test_case "carried π = a fresh stationary solve" `Quick
            test_carried_pi_is_fresh;
          Alcotest.test_case "damq: the sizing cache replays pool solves" `Quick
            test_damq_cache_replays;
          Alcotest.test_case "damq pool price = LP (g_r2c2, binding)" `Quick
            test_damq_pool_price_vs_lp;
          Alcotest.test_case "K-switching answer = occupation-measure reference (property)"
            `Quick test_answer_vs_occupation_reference;
        ] );
    ]
