(* The paper's Figure 1 architecture, end to end.

   Demonstrates the paper's structural argument:
   - the monolithic model of bridged buses is a quadratic system that a
     generic Newton solver does not reliably crack (Section 2);
   - inserting buffers at bridges splits the architecture into linear
     subsystems (Figure 2), which the CTMDP/LP machinery solves jointly;
   - the resulting K-switching policies and allocation.

   Run with:  dune exec examples/bridged_soc.exe *)

module B = Bufsize

let () =
  let topo, traffic = B.Fig1.create () in
  Format.printf "== The paper's Figure 1 architecture ==@.%a@.@.%a@.@." B.Topology.pp topo
    B.Traffic.pp traffic;

  (* The split (the paper's Figure 2). *)
  let split = B.Splitting.split traffic in
  Format.printf "== Splitting at bridges ==@.%a@.@." (fun ppf -> B.Splitting.pp ppf topo) split;

  (* The monolithic quadratic system vs the split linear one. *)
  let spec =
    {
      B.Monolithic.kx = 4;
      ky = 4;
      lambda_x = 2.1;
      lambda_y = 1.8;
      cross_fraction = 0.6;
      mu_x = 2.4;
      mu_y = 2.2;
    }
  in
  Format.printf "== Monolithic (no buffer at the bridge): %d unknowns, %d nonlinear terms ==@."
    (B.Monolithic.dim spec)
    (B.Monolithic.quadratic_term_count spec);
  let report = B.Monolithic.attempt ~starts:25 spec in
  Format.printf "%a@." B.Monolithic.pp_attempt report;
  let split_sol = B.Monolithic.solve_split spec in
  Format.printf
    "split system (linear): always solvable; losses x=%.4g y=%.4g bridge=%.4g@.@."
    split_sol.B.Monolithic.x_loss split_sol.B.Monolithic.y_loss split_sol.B.Monolithic.bridge_loss;

  (* Full CTMDP sizing of the Figure 1 system. *)
  let config = { (B.Sizing.default_config ~budget:40) with B.Sizing.max_states = 64 } in
  let sizing = B.Sizing.run config traffic in
  Format.printf "== CTMDP sizing ==@.%a@.@.%a@.@." B.Sizing.pp_summary sizing
    (fun ppf -> B.Buffer_alloc.pp topo ppf)
    sizing.B.Sizing.allocation;

  (* The K-switching structure of each subsystem's optimal policy. *)
  Array.iter
    (fun (sol : B.Sizing.subsystem_solution) ->
      let sub = B.Bus_model.subsystem sol.B.Sizing.model in
      Format.printf "subsystem %s: %a@." sub.B.Splitting.bus_name
        (B.Mdp.Constrained.pp_switching (B.Bus_model.ctmdp sol.B.Sizing.model))
        sol.B.Sizing.solved)
    sizing.B.Sizing.solutions
