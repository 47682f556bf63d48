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
  match Bufsize_mdp.Lp_formulation.solve (Bus_model.ctmdp model) with
  | Bufsize_mdp.Lp_formulation.Optimal s ->
      check_close 1e-7 "gain = MM1K loss"
        (Birth_death.Mm1k.loss_rate ~lambda:2.0 ~mu:3.0 ~k:4)
        s.Bufsize_mdp.Lp_formulation.gain
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
  let policy = Policy.deterministic (Bus_model.ctmdp model) (Array.make 5 0) in
  let marginals = Bus_model.occupancy_distribution model policy in
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
    match Bufsize_mdp.Lp_formulation.solve ctmdp with
    | Bufsize_mdp.Lp_formulation.Optimal s -> s.Bufsize_mdp.Lp_formulation.gain
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
      Alcotest.(check bool) "switching bound" true
        sol.Sizing.switching.Bufsize_mdp.Kswitching.within_bound)
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

(* A three-bus SoC whose buses are joined by two bridges, sized at budget
   64 with 40 states per subsystem.  Its joint LP has ~110 rows, under the
   auto-selection cutoff, so the dense tableau engine solves it.  The
   allocation, the loss bits and the pivot count are pinned: any change to
   the dense engine's pivot path or to its exact finish shows up here. *)
let three_bus_spec =
  {|bus cpu rate 3.7
bus mem rate 4.5
bus io rate 3.6
proc cpu0 on cpu
proc cpu1 on cpu
proc cpu2 on cpu
proc mem0 on mem
proc mem1 on mem
proc mem2 on mem
proc io0 on io
proc io1 on io
proc io2 on io
bridge b01 cpu mem
bridge b12 mem io
flow cpu0 -> mem0 rate 0.6
flow cpu1 -> io1 rate 0.57
flow cpu2 -> cpu0 rate 0.58
flow mem1 -> cpu1 rate 0.63
flow mem2 -> io0 rate 0.61
flow io0 -> mem1 rate 0.62
flow io2 -> cpu2 rate 0.56
flow io1 -> io2 rate 0.56
|}

let test_sizing_dense_pinned () =
  let traffic =
    match Bufsize_soc.Spec_parser.parse three_bus_spec with
    | Ok (_, traffic) -> traffic
    | Error e -> Alcotest.fail e
  in
  let module Obs = Bufsize_obs.Obs in
  let dense = Obs.counter "simplex.pivots" and revised = Obs.counter "simplex_revised.pivots" in
  (* Cold caches, so the joint LP really runs; metrics on to count pivots. *)
  Bufsize_numeric.Solve_cache.clear_all ();
  Obs.enable_metrics ();
  let d0 = Obs.counter_value dense and r0 = Obs.counter_value revised in
  let r =
    Fun.protect ~finally:Obs.disable (fun () ->
        Sizing.run { (Sizing.default_config ~budget:64) with Sizing.max_states = 40 } traffic)
  in
  let entries = r.Sizing.allocation.Buffer_alloc.entries in
  let words = Array.to_list (Array.map (fun e -> e.Buffer_alloc.words) entries) in
  Alcotest.(check (list int)) "allocation" [ 6; 6; 6; 5; 1; 5; 5; 5; 5; 5; 5; 5; 5 ] words;
  Alcotest.(check string) "predicted loss bits" "0x1.583ef69bc4016p+0"
    (Printf.sprintf "%h" r.Sizing.predicted_loss_rate);
  Alcotest.(check int) "dense pivots" 164 (Obs.counter_value dense - d0);
  Alcotest.(check int) "no revised pivots" 0 (Obs.counter_value revised - r0)

(* Fig. 1 sized per subsystem: the final perturbed bases of these LPs are
   slightly infeasible for the true data, so the dual cleanup pivots (26,
   39 and 5 pivots).  The exact finish must then factorize the new basis,
   not reuse the pre-cleanup LU: a stale LU shows as a changed loss and as
   drift retries. *)
let test_sizing_finish_after_dual_cleanup () =
  let _, traffic = Fig1.create () in
  let module Obs = Bufsize_obs.Obs in
  let retries = Obs.counter "simplex.retries" in
  Bufsize_numeric.Solve_cache.clear_all ();
  Obs.enable_metrics ();
  let before = Obs.counter_value retries in
  let config =
    { (Sizing.default_config ~budget:40) with Sizing.max_states = 64; solver = Sizing.Separate }
  in
  let r = Fun.protect ~finally:Obs.disable (fun () -> Sizing.run config traffic) in
  Alcotest.(check string) "predicted loss bits" "0x1.64d85888d78d2p-5"
    (Printf.sprintf "%h" r.Sizing.predicted_loss_rate);
  Alcotest.(check int) "no retries" 0 (Obs.counter_value retries - before)

let test_sizing_rejects_bad_config () =
  let _, traffic = Fig1.create () in
  Alcotest.check_raises "bad budget" (Invalid_argument "Sizing.run: budget must be positive")
    (fun () -> ignore (Sizing.run (Sizing.default_config ~budget:0) traffic))

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
          Alcotest.test_case "fuzz never crashes" `Quick test_spec_parser_fuzz;
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
          Alcotest.test_case "exact finish after dual-cleanup pivots" `Quick
            test_sizing_finish_after_dual_cleanup;
          Alcotest.test_case "fig1 end to end" `Quick test_sizing_fig1_end_to_end;
          Alcotest.test_case "separate solver" `Quick test_sizing_separate_solver;
          Alcotest.test_case "budget monotonicity" `Quick test_sizing_more_budget_less_loss;
          Alcotest.test_case "weighted losses" `Quick test_sizing_weighted_losses;
          Alcotest.test_case "config validation" `Quick test_sizing_rejects_bad_config;
        ] );
    ]
