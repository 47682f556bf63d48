(* The paper's evaluation platform: a 17-processor network processor.

   Reproduces the Figure 3 experiment at reduced statistical effort (3
   replications instead of 10; run the bench harness for the full thing):
   per-processor losses before sizing, after CTMDP sizing, and under the
   timeout policy.

   Run with:  dune exec examples/network_processor.exe *)

module B = Bufsize

let () =
  let topo, traffic = B.Netproc.create () in
  Format.printf "network processor testbench: %d processors, %d buses, %d bridges@."
    (B.Topology.num_processors topo) (B.Topology.num_buses topo) (B.Topology.num_bridges topo);
  Array.iter
    (fun (bus : B.Topology.bus) ->
      Format.printf "  bus %-5s rho = %.2f@." bus.B.Topology.bus_name
        (B.Traffic.bus_utilization traffic bus.B.Topology.bus_id))
    (B.Topology.buses topo);
  Format.printf "@.";
  let outcome =
    B.size_and_evaluate
      (B.experiment ~budget:160 ~replications:3 ~horizon:1500.
         ~config:{ (B.Sizing.default_config ~budget:160) with B.Sizing.max_states = 128 }
         traffic)
  in
  Format.printf "%a@.@." B.pp_outcome outcome;
  Format.printf "K-switching summary per subsystem:@.";
  Array.iter
    (fun (sol : B.Sizing.subsystem_solution) ->
      let sub = B.Bus_model.subsystem sol.B.Sizing.model in
      Format.printf "  %-6s: %d randomized state(s) of %d@." sub.B.Splitting.bus_name
        (if Option.is_some (B.Mdp.Constrained.reported_mix sol.B.Sizing.solved) then 1 else 0)
        (B.Bus_model.num_states sol.B.Sizing.model))
    outcome.B.sizing.B.Sizing.solutions
