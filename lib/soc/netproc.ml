let num_processors = 17

(* The default scale calibrates bus utilizations to ~0.85-0.95, the regime
   where the paper's Figure 3 numbers live: per-processor baseline losses
   of tens-to-hundreds per 2000 time units at 160 buffer words, ~20-30%
   total-loss reduction from CTMDP resizing, and ~50-60% vs the timeout
   policy. *)
let create ?(rate_scale = 1.12) () =
  if rate_scale <= 0. then invalid_arg "Netproc.create: rate_scale must be positive";
  let b = Topology.builder () in
  let ing0 = Topology.add_bus b ~service_rate:6.0 "ing0" in
  let ing1 = Topology.add_bus b ~service_rate:6.0 "ing1" in
  let core = Topology.add_bus b ~service_rate:20.0 "core" in
  let acc = Topology.add_bus b ~service_rate:4.5 "acc" in
  let egr = Topology.add_bus b ~service_rate:5.5 "egr" in
  let proc bus name = Topology.add_processor b ~bus name in
  (* Paper processors 1..17. *)
  let p = Array.make 17 0 in
  p.(0) <- proc ing0 "P1";
  p.(1) <- proc ing0 "P2";
  p.(2) <- proc ing0 "P3";
  p.(3) <- proc ing0 "P4";
  p.(4) <- proc ing1 "P5";
  p.(5) <- proc ing1 "P6";
  p.(6) <- proc ing1 "P7";
  p.(7) <- proc ing1 "P8";
  p.(8) <- proc core "P9";
  p.(9) <- proc core "P10";
  p.(10) <- proc core "P11";
  p.(11) <- proc core "P12";
  p.(12) <- proc acc "P13";
  p.(13) <- proc acc "P14";
  p.(14) <- proc acc "P15";
  p.(15) <- proc egr "P16";
  p.(16) <- proc egr "P17";
  ignore (Topology.add_bridge b ~between:(ing0, core) "br-i0c");
  ignore (Topology.add_bridge b ~between:(ing1, core) "br-i1c");
  ignore (Topology.add_bridge b ~between:(core, acc) "br-ca");
  ignore (Topology.add_bridge b ~between:(core, egr) "br-ce");
  let topo = Topology.finalize b in
  let r x = x *. rate_scale in
  let flow src dst rate = { Traffic.src = p.(src - 1); dst = p.(dst - 1); rate = r rate } in
  let flows =
    [
      (* Ingress cluster 0 feeds the packet-processing engines. *)
      flow 1 9 1.4;
      flow 2 10 1.0;
      flow 3 11 0.8;
      flow 4 12 1.2;
      (* Ingress cluster 1. *)
      flow 5 9 1.1;
      flow 6 10 1.3;
      flow 7 11 0.7;
      flow 8 12 0.9;
      (* Core engines use accelerators and push to egress. *)
      flow 9 13 0.9;
      flow 9 16 0.8;
      flow 10 14 0.7;
      flow 10 17 0.9;
      flow 11 15 0.5;
      flow 11 16 0.6;
      flow 12 16 1.0;
      flow 12 17 0.5;
      (* Accelerators return results. *)
      flow 13 9 0.7;
      flow 14 10 0.6;
      flow 15 11 0.4;
      (* Egress feedback / flow control. *)
      flow 16 1 0.3;
      flow 17 5 0.3;
      (* Local chatter. *)
      flow 1 2 0.4;
      flow 5 6 0.4;
      flow 9 10 0.5;
    ]
  in
  (topo, Traffic.create topo flows)
