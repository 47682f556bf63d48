let small () =
  let b = Topology.builder () in
  let bus0 = Topology.add_bus b ~service_rate:3.0 "west" in
  let bus1 = Topology.add_bus b ~service_rate:3.0 "east" in
  let p0 = Topology.add_processor b ~bus:bus0 "A" in
  let p1 = Topology.add_processor b ~bus:bus0 "B" in
  let p2 = Topology.add_processor b ~bus:bus1 "C" in
  let p3 = Topology.add_processor b ~bus:bus1 "D" in
  ignore (Topology.add_bridge b ~between:(bus0, bus1) "br");
  let topo = Topology.finalize b in
  let traffic =
    Traffic.create topo
      [
        { Traffic.src = p0; dst = p2; rate = 1.3 };
        { Traffic.src = p1; dst = p0; rate = 0.8 };
        { Traffic.src = p2; dst = p3; rate = 1.1 };
        { Traffic.src = p3; dst = p1; rate = 0.7 };
      ]
  in
  (topo, traffic)

let table =
  [
    ("fig1", fun () -> Fig1.create ());
    ("netproc", fun () -> Netproc.create ());
    ("amba", fun () -> Amba.create ());
    ("small", small);
  ]

let names = List.map fst table

let find name =
  match List.assoc_opt name table with
  | Some create -> Ok (create ())
  | None ->
      Error (Printf.sprintf "unknown architecture %S (use %s)" name (String.concat ", " names))
