module Ctmdp = Bufsize_mdp.Ctmdp

type bound = { sense : Lp.sense; value : float }

type solved = {
  gain : float;
  occupation : float array array;
  policy : Dense_policy.t;
  extras : float array;
  extra_duals : float array;
  lp_iterations : int;
}

type outcome = Optimal of solved | Infeasible | Unbounded

(* Shared plumbing: add one CTMDP block (variables, balance rows minus one,
   normalization) to [lp].  Returns the variable handles as x.(s).(a) and a
   function accumulating the extra-resource terms of the block. *)
let add_block lp m ~prefix =
  let n = Ctmdp.num_states m in
  let x =
    Array.init n (fun s ->
        Array.init (Ctmdp.num_actions m s) (fun a ->
            Lp.add_var ~name:(Printf.sprintf "%sx_%d_%d" prefix s a) lp))
  in
  (* Balance rows: row s' collects q(s'|s,a) * x(s,a).  Emitted as flat
     term arrays (count pass, then fill pass) straight into the model's
     CSR store — no per-state term lists. *)
  let dummy = (0., x.(0).(0)) in
  let first = m.Ctmdp.first_transition in
  let counts = Array.make n 0 in
  for s = 0 to n - 1 do
    for i = m.Ctmdp.first_action.(s) to m.Ctmdp.first_action.(s + 1) - 1 do
      if m.Ctmdp.exit.(i) > 0. then counts.(s) <- counts.(s) + 1;
      for t = first.(i) to first.(i + 1) - 1 do
        let j = m.Ctmdp.dst.(t) in
        counts.(j) <- counts.(j) + 1
      done
    done
  done;
  let balance_terms = Array.map (fun c -> Array.make c dummy) counts in
  let fill = Array.make n 0 in
  let push r term =
    balance_terms.(r).(fill.(r)) <- term;
    fill.(r) <- fill.(r) + 1
  in
  for s = 0 to n - 1 do
    Array.iteri
      (fun a v ->
        let i = m.Ctmdp.first_action.(s) + a in
        let exit = m.Ctmdp.exit.(i) in
        if exit > 0. then push s (-.exit, v);
        for t = first.(i) to first.(i + 1) - 1 do
          push m.Ctmdp.dst.(t) (m.Ctmdp.rate.(t), v)
        done)
      x.(s)
  done;
  (* Drop the last balance row (linearly dependent on the others). *)
  for s = 0 to n - 2 do
    Lp.add_constraint_a ~name:(Printf.sprintf "%sbal_%d" prefix s) lp balance_terms.(s) Lp.Eq 0.
  done;
  let total_actions = Array.fold_left (fun acc row -> acc + Array.length row) 0 x in
  let normalization = Array.make total_actions dummy in
  let k = ref 0 in
  Array.iter
    (Array.iter (fun v ->
         normalization.(!k) <- (1., v);
         incr k))
    x;
  Lp.add_constraint_a ~name:(prefix ^ "norm") lp normalization Lp.Eq 1.;
  x

let objective_terms m x =
  let terms = ref [] in
  Array.iteri
    (fun s row ->
      Array.iteri
        (fun a v ->
          let c = m.Ctmdp.cost.(m.Ctmdp.first_action.(s) + a) in
          if c <> 0. then terms := (c, v) :: !terms)
        row)
    x;
  !terms

let extra_terms m x k =
  let terms = ref [] in
  Array.iteri
    (fun s row ->
      Array.iteri
        (fun a v ->
          let e = Ctmdp.extra m (m.Ctmdp.first_action.(s) + a) k in
          if e <> 0. then terms := (e, v) :: !terms)
        row)
    x;
  !terms

let check_bounds m extra_bounds =
  match extra_bounds with
  | None -> ()
  | Some bs ->
      if Array.length bs <> Ctmdp.num_extras m then
        invalid_arg "Lp_formulation: extra_bounds length mismatch"

(* Extract occupation / extras / policy from raw LP values laid out as one
   block's x.(s).(a) handles. *)
let harvest m x values =
  let occupation =
    Array.map (Array.map (fun (v : Lp.var) -> Float.max 0. values.((v :> int)))) x
  in
  let ne = Ctmdp.num_extras m in
  let extras = Array.make ne 0. in
  let gain = ref 0. in
  Array.iteri
    (fun s row ->
      Array.iteri
        (fun a mass ->
          let i = m.Ctmdp.first_action.(s) + a in
          gain := !gain +. (mass *. m.Ctmdp.cost.(i));
          for k = 0 to ne - 1 do
            extras.(k) <- extras.(k) +. (mass *. m.Ctmdp.extras.((i * ne) + k))
          done)
        row)
    occupation;
  (occupation, extras, !gain)

(* Assemble the single-model LP, returning the handles the harvest needs.
   [solve] and [solve_diag] share this so their models are identical. *)
let assemble ?extra_bounds m =
  check_bounds m extra_bounds;
  let lp = Lp.create ~name:"ctmdp-average-cost" Lp.Minimize in
  let x = add_block lp m ~prefix:"" in
  let n_structural_rows = Lp.num_constraints lp in
  (match extra_bounds with
  | None -> ()
  | Some bs ->
      Array.iteri
        (fun k b ->
          Lp.add_constraint ~name:(Printf.sprintf "extra_%d" k) lp (extra_terms m x k) b.sense
            b.value)
        bs);
  Lp.set_objective lp (objective_terms m x);
  (lp, x, n_structural_rows)

let outcome_of_lp ?extra_bounds m x n_structural_rows = function
  | Lp.Infeasible -> Infeasible
  | Lp.Unbounded -> Unbounded
  | Lp.Optimal sol ->
      let occupation, extras, gain = harvest m x sol.Lp.values in
      let num_bounds = match extra_bounds with None -> 0 | Some bs -> Array.length bs in
      let extra_duals =
        Array.init num_bounds (fun k -> sol.Lp.duals.(n_structural_rows + k))
      in
      Optimal
        {
          gain;
          occupation;
          policy = Dense_policy.of_occupation m occupation;
          extras;
          extra_duals;
          lp_iterations = sol.Lp.iterations;
        }

let model ?extra_bounds m =
  let lp, _, _ = assemble ?extra_bounds m in
  lp

let solve ?extra_bounds ?max_iter m =
  let lp, x, n_structural_rows = assemble ?extra_bounds m in
  outcome_of_lp ?extra_bounds m x n_structural_rows (Lp.solve ?max_iter lp)

let solve_diag ?extra_bounds ?max_iter ?budget m =
  let lp, x, n_structural_rows = assemble ?extra_bounds m in
  let o, diag = Lp.solve_diag ?max_iter ?budget lp in
  (Option.map (outcome_of_lp ?extra_bounds m x n_structural_rows) o, diag)

type joint_solved = {
  total_gain : float;
  components : solved array;
  shared_extras : float array;
  shared_duals : float array;
  joint_iterations : int;
}

type joint_outcome = Joint_optimal of joint_solved | Joint_infeasible | Joint_unbounded

let assemble_joint ?shared_bounds models =
  if Array.length models = 0 then invalid_arg "Lp_formulation.solve_joint: no components";
  let num_extras = Ctmdp.num_extras models.(0) in
  Array.iter
    (fun m ->
      if Ctmdp.num_extras m <> num_extras then
        invalid_arg "Lp_formulation.solve_joint: components disagree on extras")
    models;
  (match shared_bounds with
  | Some bs when Array.length bs <> num_extras ->
      invalid_arg "Lp_formulation.solve_joint: shared_bounds length mismatch"
  | _ -> ());
  let lp = Lp.create ~name:"ctmdp-joint" Lp.Minimize in
  let blocks =
    Array.mapi (fun i m -> add_block lp m ~prefix:(Printf.sprintf "b%d_" i)) models
  in
  let n_structural_rows = Lp.num_constraints lp in
  (match shared_bounds with
  | None -> ()
  | Some bs ->
      Array.iteri
        (fun k b ->
          let terms =
            Array.to_list (Array.mapi (fun i m -> extra_terms m blocks.(i) k) models)
            |> List.concat
          in
          Lp.add_constraint ~name:(Printf.sprintf "shared_%d" k) lp terms b.sense b.value)
        bs);
  let objective =
    Array.to_list (Array.mapi (fun i m -> objective_terms m blocks.(i)) models) |> List.concat
  in
  Lp.set_objective lp objective;
  (lp, blocks, n_structural_rows, num_extras)

let joint_outcome_of_lp ?shared_bounds models blocks n_structural_rows num_extras = function
  | Lp.Infeasible -> Joint_infeasible
  | Lp.Unbounded -> Joint_unbounded
  | Lp.Optimal sol ->
      let components =
        Array.mapi
          (fun i m ->
            let occupation, extras, gain = harvest m blocks.(i) sol.Lp.values in
            {
              gain;
              occupation;
              policy = Dense_policy.of_occupation m occupation;
              extras;
              extra_duals = [||];
              lp_iterations = sol.Lp.iterations;
            })
          models
      in
      let shared_extras = Array.make num_extras 0. in
      Array.iter
        (fun c -> Array.iteri (fun k e -> shared_extras.(k) <- shared_extras.(k) +. e) c.extras)
        components;
      let num_bounds = match shared_bounds with None -> 0 | Some bs -> Array.length bs in
      let shared_duals =
        Array.init num_bounds (fun k -> sol.Lp.duals.(n_structural_rows + k))
      in
      Joint_optimal
        {
          total_gain = Array.fold_left (fun acc c -> acc +. c.gain) 0. components;
          components;
          shared_extras;
          shared_duals;
          joint_iterations = sol.Lp.iterations;
        }

let solve_joint ?shared_bounds ?max_iter models =
  let lp, blocks, n_structural_rows, num_extras = assemble_joint ?shared_bounds models in
  joint_outcome_of_lp ?shared_bounds models blocks n_structural_rows num_extras
    (Lp.solve ?max_iter lp)

let solve_joint_diag ?shared_bounds ?max_iter ?budget models =
  let lp, blocks, n_structural_rows, num_extras = assemble_joint ?shared_bounds models in
  let o, diag = Lp.solve_diag ?max_iter ?budget lp in
  ( Option.map
      (joint_outcome_of_lp ?shared_bounds models blocks n_structural_rows num_extras)
      o,
    diag )
