module Rng = Bufsize_prob.Rng
module Newton = Bufsize_numeric.Newton
module Stats = Bufsize_numeric.Stats
module Birth_death = Bufsize_prob.Birth_death
module Ctmc = Bufsize_prob.Ctmc
module Policy_iteration = Bufsize_mdp.Policy_iteration
module Ctmdp = Bufsize_mdp.Ctmdp
module Constrained = Bufsize_mdp.Constrained
module Resilience = Bufsize_resilience.Resilience
module Topology = Bufsize_soc.Topology
module Traffic = Bufsize_soc.Traffic
module Spec_parser = Bufsize_soc.Spec_parser
module Splitting = Bufsize_soc.Splitting
module Buffer_alloc = Bufsize_soc.Buffer_alloc
module Sizing = Bufsize_soc.Sizing
module Monolithic = Bufsize_soc.Monolithic
module Sim_run = Bufsize_sim.Sim_run
module Replicate = Bufsize_sim.Replicate

open Oracle

let rel_close tol a b = Float.abs (a -. b) <= tol *. (1. +. Float.max (Float.abs a) (Float.abs b))

(* ----------------------------------------------------- 1. simplex-cross *)

(* The production engine (dense tableau) vs the reference engine (sparse
   revised simplex): independently engineered solvers for the same
   [Lp.to_standard] output must agree on the classification and (when
   optimal) on the objective. *)

let outcome_name = function
  | Lp.Optimal _ -> "optimal"
  | Lp.Infeasible -> "infeasible"
  | Lp.Unbounded -> "unbounded"

let check_lp_case (c : Gen_model.lp_case) =
  let lp = Gen_model.lp_of_case c in
  match (Lp.solve lp, Simplex_revised.solve_lp lp) with
  | Lp.Optimal d, Lp.Optimal r ->
      if rel_close 1e-6 d.Lp.objective r.Lp.objective then Pass
      else
        failf "optimal objectives differ: dense %.12g vs revised %.12g" d.Lp.objective
          r.Lp.objective
  | Lp.Infeasible, Lp.Infeasible | Lp.Unbounded, Lp.Unbounded -> Pass
  | d, r -> failf "outcome mismatch: dense %s vs revised %s" (outcome_name d) (outcome_name r)

let shrink_lp_case (c : Gen_model.lp_case) =
  let drop_row i =
    { c with Gen_model.rows = List.filteri (fun j _ -> j <> i) c.Gen_model.rows }
  in
  let drop_var j =
    let n = Array.length c.Gen_model.obj in
    if n <= 1 then None
    else
      let keep k = k <> j in
      let reindex k = if k > j then k - 1 else k in
      let filter_arr a = Array.of_list (List.filteri (fun k _ -> keep k) (Array.to_list a)) in
      Some
        {
          c with
          Gen_model.lbs = filter_arr c.Gen_model.lbs;
          obj = filter_arr c.Gen_model.obj;
          rows =
            List.filter_map
              (fun (terms, sense, rhs) ->
                match
                  List.filter_map
                    (fun (k, cf) -> if keep k then Some (reindex k, cf) else None)
                    terms
                with
                | [] -> None
                | terms -> Some (terms, sense, rhs))
              c.Gen_model.rows;
        }
  in
  let zero_obj j =
    if c.Gen_model.obj.(j) = 0. then None
    else
      let obj = Array.copy c.Gen_model.obj in
      obj.(j) <- 0.;
      Some { c with Gen_model.obj }
  in
  let n = Array.length c.Gen_model.obj in
  List.init (List.length c.Gen_model.rows) drop_row
  @ List.filter_map drop_var (List.init n Fun.id)
  @ List.filter_map zero_obj (List.init n Fun.id)

let rec lp_case_to_oracle_case (c : Gen_model.lp_case) =
  {
    label =
      Printf.sprintf "lp: %d vars, %d rows" (Array.length c.Gen_model.obj)
        (List.length c.Gen_model.rows);
    repro = Gen_model.lp_case_to_string c;
    check = (fun () -> check_lp_case c);
    shrink = (fun () -> List.map lp_case_to_oracle_case (shrink_lp_case c));
  }

let simplex_cross =
  {
    name = "simplex-cross";
    doc = "dense tableau vs the reference sparse revised simplex on random LPs";
    generate = (fun ~max_states:_ rng -> lp_case_to_oracle_case (Gen_model.lp_case rng));
  }

(* --------------------------------------------------------- 2. mdp-gain *)

(* Average-cost routes on random unichain CTMDPs: the occupation-measure
   LP (dense tableau and the reference revised simplex), policy iteration,
   and small-discount value iteration must tell one consistent story about
   the optimal gain. *)

let vi_alpha = 1e-3

let check_ctmdp_case (c : Gen_model.ctmdp_case) =
  let m = Gen_model.ctmdp_of_case c in
  match Lp_formulation.solve m with
  | Lp_formulation.Infeasible | Lp_formulation.Unbounded ->
      failf "occupation LP not optimal on a valid CTMDP"
  | Lp_formulation.Optimal s ->
      let g = s.Lp_formulation.gain in
      all_of
        [
          (fun () ->
            (* The occupation measure is a distribution over (state, action)
               pairs. *)
            let mass =
              Array.fold_left (Array.fold_left ( +. ) : float -> float array -> float) 0.
                s.Lp_formulation.occupation
            in
            if Float.abs (mass -. 1.) <= 1e-6 then Pass
            else failf "occupation mass %.12g instead of 1" mass);
          (fun () ->
            (* Reported extras must be the occupation-weighted resource
               rates. *)
            let acc = ref 0. in
            Array.iteri
              (fun st xs ->
                Array.iteri
                  (fun a x ->
                    let i = m.Bufsize_mdp.Ctmdp.first_action.(st) + a in
                    acc := !acc +. (x *. Bufsize_mdp.Ctmdp.extra m i 0))
                  xs)
              s.Lp_formulation.occupation;
            if rel_close 1e-6 !acc s.Lp_formulation.extras.(0) then Pass
            else
              failf "extras inconsistent with occupation: %.12g vs %.12g" !acc
                s.Lp_formulation.extras.(0));
          (fun () ->
            match Simplex_revised.solve_lp (Lp_formulation.model m) with
            | Lp.Optimal r ->
                if rel_close 1e-6 r.Lp.objective g then Pass
                else failf "revised-engine gain %.12g differs from dense %.12g" r.Lp.objective g
            | _ -> failf "revised engine failed where dense was optimal");
          (fun () ->
            let pi = Policy_iteration.solve m in
            if not pi.Policy_iteration.converged then failf "policy iteration diverged"
            else if rel_close 1e-6 pi.Policy_iteration.gain g then Pass
            else failf "policy-iteration gain %.12g vs LP gain %.12g" pi.Policy_iteration.gain g);
          (fun () ->
            let vi = Value_iteration.solve ~alpha:vi_alpha ~tol:1e-7 ~max_iter:1_000_000 m in
            if not vi.Value_iteration.converged then failf "value iteration diverged"
            else begin
              (* The greedy policy of a small-discount solve is average
                 optimal up to O(alpha): its exactly evaluated gain may
                 never beat the LP optimum, and must stay close to it. *)
              let gain_vi, _ = Policy_iteration.evaluate_deterministic m vi.Value_iteration.choice in
              if gain_vi < g -. (1e-6 *. (1. +. Float.abs g)) then
                failf "VI's policy gain %.12g beats the 'optimal' LP gain %.12g" gain_vi g
              else if gain_vi > g +. (0.05 *. (1. +. Float.abs g)) then
                failf "VI's policy gain %.12g far above the optimal gain %.12g" gain_vi g
              else Pass
            end);
        ]

let shrink_ctmdp_case (c : Gen_model.ctmdp_case) =
  let n = c.Gen_model.num_states in
  let drop_last_state () =
    if n <= 2 then None
    else
      let n' = n - 1 in
      Some
        {
          Gen_model.num_states = n';
          actions =
            Array.init n' (fun s ->
                List.map
                  (fun (label, transitions, cost, extra) ->
                    (* Remap transitions into the smaller state space; the
                       cycle edge survives as s -> (s + 1) mod n'. *)
                    let tbl = Hashtbl.create 4 in
                    List.iter
                      (fun (t, r) ->
                        let t = t mod n' in
                        if t <> s then
                          Hashtbl.replace tbl t
                            (r +. Option.value ~default:0. (Hashtbl.find_opt tbl t)))
                      transitions;
                    let transitions =
                      Hashtbl.fold (fun t r acc -> (t, r) :: acc) tbl []
                      |> List.sort (fun (a, _) (b, _) -> compare a b)
                    in
                    (label, transitions, cost, extra))
                  c.Gen_model.actions.(s));
        }
  in
  let drop_action s =
    match c.Gen_model.actions.(s) with
    | [] | [ _ ] -> []
    | acts ->
        List.init (List.length acts) (fun a ->
            let actions = Array.copy c.Gen_model.actions in
            actions.(s) <- List.filteri (fun i _ -> i <> a) acts;
            { c with Gen_model.actions })
  in
  (* Replace the [ai]-th action of state [s] in a fresh copy. *)
  let with_action s ai act =
    let actions = Array.copy c.Gen_model.actions in
    actions.(s) <- List.mapi (fun i a -> if i = ai then act else a) c.Gen_model.actions.(s);
    { c with Gen_model.actions }
  in
  let drop_noncycle_transition s =
    List.concat
      (List.mapi
         (fun ai (label, transitions, cost, extra) ->
           List.filter_map
             (fun (t, _) ->
               if t = (s + 1) mod n then None
               else
                 Some
                   (with_action s ai
                      (label, List.filter (fun (t', _) -> t' <> t) transitions, cost, extra)))
             transitions)
         c.Gen_model.actions.(s))
  in
  let zero_cost s =
    List.mapi
      (fun ai (label, transitions, cost, extra) ->
        if cost = 0. then None else Some (with_action s ai (label, transitions, 0., extra)))
      c.Gen_model.actions.(s)
    |> List.filter_map Fun.id
  in
  Option.to_list (drop_last_state ())
  @ List.concat (List.init n drop_action)
  @ List.concat (List.init n drop_noncycle_transition)
  @ List.concat (List.init n zero_cost)

let rec ctmdp_case_to_oracle_case (c : Gen_model.ctmdp_case) =
  {
    label = Printf.sprintf "ctmdp: %d states" c.Gen_model.num_states;
    repro = Gen_model.ctmdp_case_to_string c;
    check = (fun () -> check_ctmdp_case c);
    shrink = (fun () -> List.map ctmdp_case_to_oracle_case (shrink_ctmdp_case c));
  }

let mdp_gain =
  {
    name = "mdp-gain";
    doc = "occupation LP vs policy iteration vs small-discount value iteration";
    generate = (fun ~max_states rng ->
        let knobs =
          { Gen_model.default_ctmdp_knobs with Gen_model.max_states = Int.min 7 max_states }
        in
        ctmdp_case_to_oracle_case (Gen_model.ctmdp_case ~knobs rng));
  }

(* ------------------------------------------------------ 3. sim-analytic *)

(* The simulator's single-client bus is an M/M/1/(k+1) system (the request
   in service has left the buffer).  Product form, generator solve, closed
   forms and the discrete-event simulation must agree. *)

let sim_replications = 5
let sim_horizon = 2500.
let sim_warmup = 100.

let single_bus_arch (c : Gen_model.mm1k_case) =
  let b = Topology.builder () in
  let bus0 = Topology.add_bus b ~service_rate:c.Gen_model.mu "bus" in
  let p0 = Topology.add_processor b ~bus:bus0 "src" in
  let p1 = Topology.add_processor b ~bus:bus0 "dst" in
  let topo = Topology.finalize b in
  let traffic =
    Traffic.create topo [ { Traffic.src = p0; dst = p1; rate = c.Gen_model.lambda } ]
  in
  (topo, traffic, bus0, p0, p1)

let check_mm1k_case (c : Gen_model.mm1k_case) =
  let lambda = c.Gen_model.lambda and mu = c.Gen_model.mu in
  let ksys = c.Gen_model.k + 1 in
  let bd = Birth_death.mm1k ~lambda ~mu ~k:ksys in
  let pi = Birth_death.stationary bd in
  all_of
    [
      (fun () ->
        let s = Array.fold_left ( +. ) 0. pi in
        if Float.abs (s -. 1.) <= 1e-9 then Pass
        else failf "product-form distribution sums to %.12g" s);
      (fun () ->
        (* Product form vs the generic generator-based LU solve. *)
        let pi' = Ctmc.stationary (Birth_death.to_ctmc bd) in
        let err = ref 0. in
        Array.iteri (fun i p -> err := Float.max !err (Float.abs (p -. pi'.(i)))) pi;
        if !err <= 1e-8 then Pass
        else failf "product form vs CTMC stationary: max |diff| = %.3e" !err);
      (fun () ->
        let closed = Birth_death.Mm1k.blocking_probability ~lambda ~mu ~k:ksys in
        if Float.abs (closed -. pi.(ksys)) <= 1e-9 then Pass
        else failf "closed-form blocking %.12g vs stationary tail %.12g" closed pi.(ksys));
      (fun () ->
        (* Steady-state flow balance: accepted inflow = served outflow. *)
        let accepted = lambda *. (1. -. pi.(ksys)) in
        let served = mu *. (1. -. pi.(0)) in
        if rel_close 1e-8 accepted served then Pass
        else failf "flow balance violated: accepted %.12g vs served %.12g" accepted served);
      (fun () ->
        let expected = Birth_death.Mm1k.blocking_probability ~lambda ~mu ~k:ksys in
        let _, traffic, bus0, p0, p1 = single_bus_arch c in
        let allocation =
          Buffer_alloc.make
            [ (bus0, Traffic.Proc_client p0, c.Gen_model.k); (bus0, Traffic.Proc_client p1, 1) ]
        in
        let spec =
          {
            (Sim_run.default_spec ~traffic ~allocation) with
            Sim_run.horizon = sim_horizon;
            warmup = sim_warmup;
            seed = c.Gen_model.sim_seed;
          }
        in
        let agg = Replicate.run ~replications:sim_replications spec in
        let sim = Stats.mean agg.Replicate.loss_fraction in
        let lo, hi = Stats.confidence_interval95 agg.Replicate.loss_fraction in
        let half = (hi -. lo) /. 2. in
        let tol = (4. *. half) +. 0.01 in
        if Float.abs (sim -. expected) <= tol then Pass
        else
          failf "simulated loss fraction %.6g vs analytic %.6g (tolerance %.2g, %d replications)"
            sim expected tol sim_replications);
    ]

let shrink_mm1k_case (c : Gen_model.mm1k_case) =
  let round1 x = Float.round (x *. 10.) /. 10. in
  List.filter_map Fun.id
    [
      (if c.Gen_model.k > 1 then Some { c with Gen_model.k = c.Gen_model.k - 1 } else None);
      (let l = Float.max 0.1 (round1 c.Gen_model.lambda) in
       if l <> c.Gen_model.lambda then Some { c with Gen_model.lambda = l } else None);
      (let m = Float.max 0.1 (round1 c.Gen_model.mu) in
       if m <> c.Gen_model.mu then Some { c with Gen_model.mu = m } else None);
    ]

let mm1k_repro (c : Gen_model.mm1k_case) =
  let topo, traffic, _, _, _ = single_bus_arch c in
  Printf.sprintf "# M/M/1/K cross-check: src buffer capacity %d words, sim seed %d\n%s"
    c.Gen_model.k c.Gen_model.sim_seed
    (Spec_parser.to_string topo traffic)

let rec mm1k_case_to_oracle_case (c : Gen_model.mm1k_case) =
  {
    label =
      Printf.sprintf "mm1k: lambda %g, mu %g, k %d" c.Gen_model.lambda c.Gen_model.mu
        c.Gen_model.k;
    repro = mm1k_repro c;
    check = (fun () -> check_mm1k_case c);
    shrink = (fun () -> List.map mm1k_case_to_oracle_case (shrink_mm1k_case c));
  }

let sim_analytic =
  {
    name = "sim-analytic";
    doc = "M/M/1/K closed forms vs CTMC solve vs replicated simulation";
    generate = (fun ~max_states:_ rng -> mm1k_case_to_oracle_case (Gen_model.mm1k_case rng));
  }

(* ----------------------------------------------------- 4. sizing-bounds *)

type sizing_case = { text : string; budget : int; max_states : int }

(* A shrink candidate must stay solvable: parseable, and every subsystem
   keeping at least one loaded client (Bus_model.build's precondition) —
   otherwise the shrinker would chase unrelated construction errors. *)
let sizing_well_formed (c : sizing_case) =
  match Spec_parser.parse c.text with
  | Error _ -> false
  | Ok (_, traffic) ->
      let split = Splitting.split traffic in
      c.budget >= Splitting.total_clients split
      && Array.for_all
           (fun (s : Splitting.subsystem) ->
             List.exists (fun (_, r) -> r > 0.) s.Splitting.clients)
           split.Splitting.subsystems

let check_sizing_case (c : sizing_case) =
  match Spec_parser.parse c.text with
  | Error e -> failf "repro text no longer parses: %s" e
  | Ok (topo, traffic) ->
      let config solver =
        {
          (Sizing.default_config ~budget:c.budget) with
          Sizing.max_states = c.max_states;
          solver;
        }
      in
      let run solver =
        match Sizing.run (config solver) traffic with
        | r -> Ok r
        | exception Failure msg -> Error msg
      in
      let joint = run Sizing.Joint and separate = run Sizing.Separate in
      (match (joint, separate) with
      | Error msg, _ -> failf "joint sizing failed: %s" msg
      | _, Error msg -> failf "separate sizing failed: %s" msg
      | Ok j, Ok s ->
          all_of
            [
              (fun () ->
                if Buffer_alloc.total j.Sizing.allocation = c.budget then Pass
                else
                  failf "joint allocation spends %d of %d words"
                    (Buffer_alloc.total j.Sizing.allocation) c.budget);
              (fun () ->
                if Buffer_alloc.total s.Sizing.allocation = c.budget then Pass
                else
                  failf "separate allocation spends %d of %d words"
                    (Buffer_alloc.total s.Sizing.allocation) c.budget);
              (fun () ->
                if
                  Float.is_finite j.Sizing.predicted_loss_rate
                  && j.Sizing.predicted_loss_rate >= -1e-9
                  && Float.is_finite s.Sizing.predicted_loss_rate
                  && s.Sizing.predicted_loss_rate >= -1e-9
                then Pass
                else
                  failf "loss-rate predictions out of range: joint %g, separate %g"
                    j.Sizing.predicted_loss_rate s.Sizing.predicted_loss_rate);
              (fun () ->
                if
                  List.for_all
                    (fun (_, _, d) -> Float.is_finite d && d >= 0.)
                    (Sizing.requirements_of_solution j)
                then Pass
                else failf "joint requirements contain negatives or non-finites");
              (fun () ->
                (* The separate solution (per-subsystem occupancy shares)
                   is feasible for the joint LP, so the joint optimum can
                   only be at least as good — the paper's "in one go"
                   claim, checked when neither solve fell back to the
                   unconstrained LP. *)
                if (not j.Sizing.budget_bound_active) || not s.Sizing.budget_bound_active then
                  Pass
                else if
                  j.Sizing.predicted_loss_rate
                  <= s.Sizing.predicted_loss_rate
                     +. (1e-6 *. (1. +. Float.abs s.Sizing.predicted_loss_rate))
                then Pass
                else
                  failf "joint loss %.12g worse than separate %.12g"
                    j.Sizing.predicted_loss_rate s.Sizing.predicted_loss_rate);
              (fun () ->
                (* Repro dumps must round-trip through the parser. *)
                match Spec_parser.parse (Spec_parser.to_string topo traffic) with
                | Ok _ -> Pass
                | Error e -> failf "to_string output does not re-parse: %s" e);
            ])

let shrink_sizing_case (c : sizing_case) =
  let lines = String.split_on_char '\n' c.text in
  let drop_line i =
    let text =
      String.concat "\n" (List.filteri (fun j _ -> j <> i) lines)
    in
    { c with text }
  in
  let candidates =
    List.init (List.length lines) drop_line
    @ (if c.budget > 2 then [ { c with budget = c.budget / 2 } ] else [])
    @ if c.max_states > 8 then [ { c with max_states = c.max_states / 2 } ] else []
  in
  List.filter sizing_well_formed candidates

let rec sizing_case_to_oracle_case (c : sizing_case) =
  {
    label = Printf.sprintf "sizing: budget %d, max_states %d" c.budget c.max_states;
    repro =
      Printf.sprintf "# sizing cross-check: budget %d words, max_states %d\n%s" c.budget
        c.max_states c.text;
    check = (fun () -> check_sizing_case c);
    shrink = (fun () -> List.map sizing_case_to_oracle_case (shrink_sizing_case c));
  }

let sizing_bounds =
  {
    name = "sizing-bounds";
    doc = "joint vs separate sizing: bound ordering and budget conservation";
    generate =
      (fun ~max_states rng ->
        let topo, traffic = Gen_model.arch rng in
        let nclients = Splitting.total_clients (Splitting.split traffic) in
        let budget = nclients * (2 + Rng.int rng 3) in
        sizing_case_to_oracle_case
          {
            text = Spec_parser.to_string topo traffic;
            budget;
            max_states = Int.max 8 (Int.min max_states 64);
          });
  }

(* -------------------------------------------------- 5. split-monolithic *)

(* Two independent solvers of the monolithic quadratic closure — damped
   Newton on the balance residual, and a Picard fixed point built from
   Birth_death product forms — plus the split linear solution, which must
   agree exactly on the decoupled (cross_fraction = 0) boundary. *)

let bd_stationary ~birth ~death ~k =
  Birth_death.stationary
    (Birth_death.create ~births:(Array.make k birth) ~deaths:(Array.make k death))

(* Given (x_0, y_0), the closure's effective rates make both buses plain
   constant-rate birth-death chains; iterate to a fixed point. *)
let picard (s : Monolithic.spec) ~x0:px ~y0:py =
  let f = s.Monolithic.cross_fraction in
  let rec go px py iter =
    if iter > 500 then None
    else begin
      let mu_x_eff = s.Monolithic.mu_x *. (1. -. f +. (f *. py)) in
      let xd = bd_stationary ~birth:s.Monolithic.lambda_x ~death:mu_x_eff ~k:s.Monolithic.kx in
      let cross_in = f *. mu_x_eff *. (1. -. xd.(0)) in
      let mu_y_eff = s.Monolithic.mu_y *. (1. -. (f *. (1. -. xd.(0)))) in
      let yd =
        bd_stationary ~birth:(s.Monolithic.lambda_y +. cross_in) ~death:mu_y_eff
          ~k:s.Monolithic.ky
      in
      let delta = Float.abs (xd.(0) -. px) +. Float.abs (yd.(0) -. py) in
      if delta < 1e-13 then Some (Array.append xd yd) else go xd.(0) yd.(0) (iter + 1)
    end
  in
  go px py 0

let residual_inf s v =
  Array.fold_left (fun acc r -> Float.max acc (Float.abs r)) 0. (Monolithic.residual s v)

let check_monolithic_case (s : Monolithic.spec) =
  let split = Monolithic.solve_split s in
  let normalized name (d : float array) () =
    let sum = Array.fold_left ( +. ) 0. d in
    if Float.abs (sum -. 1.) <= 1e-7 && Array.for_all (fun p -> p >= -1e-9) d then Pass
    else failf "%s distribution invalid (sum %.12g)" name sum
  in
  all_of
    [
      normalized "bus X" split.Monolithic.x_dist;
      normalized "bus Y" split.Monolithic.y_dist;
      normalized "bridge" split.Monolithic.bridge_dist;
      (fun () ->
        (* After insertion, bus X is exactly M/M/1/K. *)
        let closed =
          Birth_death.Mm1k.loss_rate ~lambda:s.Monolithic.lambda_x ~mu:s.Monolithic.mu_x
            ~k:s.Monolithic.kx
        in
        if rel_close 1e-7 closed split.Monolithic.x_loss then Pass
        else failf "split bus-X loss %.12g vs closed form %.12g" split.Monolithic.x_loss closed);
      (fun () ->
        let start = Array.append split.Monolithic.x_dist split.Monolithic.y_dist in
        match picard s ~x0:split.Monolithic.x_dist.(0) ~y0:split.Monolithic.y_dist.(0) with
        | None -> Pass (* no attractive fixed point from this start: nothing to compare *)
        | Some fp ->
            all_of
              [
                (fun () ->
                  (* The Picard root is computed through Birth_death product
                     forms — an independent encoding of the same closure —
                     so it must satisfy Monolithic.residual. *)
                  let r = residual_inf s fp in
                  if r <= 1e-7 then Pass
                  else failf "picard fixed point violates the balance residual: %.3e" r);
                (fun () ->
                  let r =
                    Newton.solve ~damped:true ~tol:1e-11 ~f:(Monolithic.residual s) ~x0:start ()
                  in
                  if not r.Newton.converged then
                    failf "damped Newton diverged from the split warm start (residual %.3e)"
                      r.Newton.residual
                  else begin
                    let diff = ref 0. in
                    Array.iteri
                      (fun i v -> diff := Float.max !diff (Float.abs (v -. fp.(i))))
                      r.Newton.solution;
                    if !diff <= 1e-5 then Pass
                    else if
                      (* Two tiny residuals at different points = the
                         closure's known bistability, not a solver bug. *)
                      residual_inf s r.Newton.solution <= 1e-8 && residual_inf s fp <= 1e-8
                    then Pass
                    else
                      failf "Newton and Picard disagree (max |diff| %.3e) without both being roots"
                        !diff
                  end);
                (fun () ->
                  if s.Monolithic.cross_fraction <> 0. then Pass
                  else begin
                    (* Decoupled boundary: the monolithic root and the split
                       solution describe the same two independent queues. *)
                    let diff = ref 0. in
                    Array.iteri
                      (fun i p -> diff := Float.max !diff (Float.abs (p -. fp.(i))))
                      (Array.append split.Monolithic.x_dist split.Monolithic.y_dist);
                    if !diff <= 1e-7 then Pass
                    else
                      failf "cross_fraction = 0 but split and monolithic differ by %.3e" !diff
                  end);
              ])
    ]

let shrink_monolithic_case (s : Monolithic.spec) =
  let round1 x = Float.max 0.1 (Float.round (x *. 10.) /. 10.) in
  List.filter_map Fun.id
    [
      (if s.Monolithic.kx > 1 then Some { s with Monolithic.kx = s.Monolithic.kx - 1 } else None);
      (if s.Monolithic.ky > 1 then Some { s with Monolithic.ky = s.Monolithic.ky - 1 } else None);
      (if s.Monolithic.cross_fraction > 0. then Some { s with Monolithic.cross_fraction = 0. }
       else None);
      (let l = round1 s.Monolithic.lambda_x in
       if l <> s.Monolithic.lambda_x && l < s.Monolithic.mu_x then
         Some { s with Monolithic.lambda_x = l }
       else None);
      (let l = round1 s.Monolithic.lambda_y in
       if l <> s.Monolithic.lambda_y && l < s.Monolithic.mu_y then
         Some { s with Monolithic.lambda_y = l }
       else None);
    ]

let rec monolithic_case_to_oracle_case (s : Monolithic.spec) =
  {
    label =
      Printf.sprintf "monolithic: kx %d, ky %d, cross %g" s.Monolithic.kx s.Monolithic.ky
        s.Monolithic.cross_fraction;
    repro = Gen_model.monolithic_to_string s;
    check = (fun () -> check_monolithic_case s);
    shrink = (fun () -> List.map monolithic_case_to_oracle_case (shrink_monolithic_case s));
  }

let split_monolithic =
  {
    name = "split-monolithic";
    doc = "split linear solution vs Newton and Picard on the quadratic closure";
    generate =
      (fun ~max_states:_ rng -> monolithic_case_to_oracle_case (Gen_model.monolithic_spec rng));
  }

(* -------------------------------------------------------- 6. warm-cold *)

(* Seeded and cached solves must reproduce their cold baselines: a seeded
   stationary iteration must converge to the cold fixed point, and a
   cache-served sizing run must be bitwise the cache-off run. *)

(* The chain induced by each state's first action; the generated cycle
   edge makes it irreducible. *)
let first_choice_rates (c : Gen_model.ctmdp_case) =
  let triples = ref [] in
  Array.iteri
    (fun s acts ->
      match acts with
      | (_, transitions, _, _) :: _ ->
          List.iter (fun (t, r) -> if r > 0. then triples := (s, t, r) :: !triples) transitions
      | [] -> ())
    c.Gen_model.actions;
  List.rev !triples

(* The iterative stationary solve seeded with a nearby chain's stationary
   vector must land on the cold fixed point. *)
let check_warm_ctmdp (c : Gen_model.ctmdp_case) =
  let n = c.Gen_model.num_states in
  let rates = first_choice_rates c in
  let chain = Ctmc.of_rates n rates in
  let nearby = Ctmc.of_rates n (List.map (fun (i, j, r) -> (i, j, r *. 1.25)) rates) in
  let seed = Ctmc.stationary_iterative chain in
  let pi_cold = Ctmc.stationary_iterative nearby in
  let pi_seeded = Ctmc.stationary_iterative ~init:seed nearby in
  let diff = ref 0. in
  Array.iteri (fun i p -> diff := Float.max !diff (Float.abs (p -. pi_cold.(i)))) pi_seeded;
  let residual = Ctmc.stationary_residual nearby pi_seeded in
  if !diff <= 1e-8 && residual <= 1e-8 then Pass
  else failf "seeded stationary differs from cold by %.3e (residual %.3e)" !diff residual

let rec warm_ctmdp_to_oracle_case (c : Gen_model.ctmdp_case) =
  {
    label = Printf.sprintf "warm ctmdp: %d states" c.Gen_model.num_states;
    repro = "# warm-cold kind: ctmdp\n" ^ Gen_model.ctmdp_case_to_string c;
    check = (fun () -> check_warm_ctmdp c);
    shrink = (fun () -> List.map warm_ctmdp_to_oracle_case (shrink_ctmdp_case c));
  }

let bits = Int64.bits_of_float

let same_sizing a b =
  a.Sizing.allocation = b.Sizing.allocation
  && bits a.Sizing.predicted_loss_rate = bits b.Sizing.predicted_loss_rate
  && bits a.Sizing.words_per_level = bits b.Sizing.words_per_level
  && a.Sizing.budget_bound_active = b.Sizing.budget_bound_active

(* Runs [f], then restores the global cache switch and empties every
   cache. *)
let with_cache_state f =
  let module Solve_cache = Bufsize_numeric.Solve_cache in
  let was_cached = Solve_cache.enabled () in
  Fun.protect
    ~finally:(fun () ->
      Solve_cache.set_enabled was_cached;
      Solve_cache.clear_all ())
    f

let fresh_cache_on () =
  Bufsize_numeric.Solve_cache.set_enabled true;
  Bufsize_numeric.Solve_cache.clear_all ()

let warm_config (c : sizing_case) =
  { (Sizing.default_config ~budget:c.budget) with Sizing.max_states = c.max_states }

let check_warm_sizing (c : sizing_case) =
  match Spec_parser.parse c.text with
  | Error e -> failf "repro text no longer parses: %s" e
  | Ok (_, traffic) ->
      let config = warm_config c in
      with_cache_state (fun () ->
          (* Cold: no caching. *)
          Bufsize_numeric.Solve_cache.set_enabled false;
          let cold = Sizing.run config traffic in
          (* Caches on (empty): the first run populates, the second must
             be served verbatim. *)
          fresh_cache_on ();
          let w1 = Sizing.run config traffic in
          let w2 = Sizing.run config traffic in
          all_of
            [
              (fun () ->
                if same_sizing cold w1 then Pass
                else
                  failf "cached sizing differs from cold (loss %.17g vs %.17g)"
                    w1.Sizing.predicted_loss_rate cold.Sizing.predicted_loss_rate);
              (fun () ->
                if same_sizing w1 w2 then Pass
                else
                  failf "cache-served rerun differs from its own first run (loss %.17g vs %.17g)"
                    w2.Sizing.predicted_loss_rate w1.Sizing.predicted_loss_rate);
            ])

(* A near miss: spec A′ is spec A with one input moved by one ulp — a
   loaded client's arrival rate (through [measured_rates]), a client's
   loss weight, a bus's service rate (a rate line of the spec text), κ
   or the quantile.  Indices count in split order (rate lines in text
   order) and wrap, so a shrunk spec keeps a valid nudge. *)
type nudge =
  | Client_rate of int
  | Client_weight of int
  | Service_rate of int
  | Kappa
  | Quantile

type near_miss_case = { base : sizing_case; nudge : nudge }

let nudge_to_string = function
  | Client_rate i -> Printf.sprintf "client-rate %d" i
  | Client_weight i -> Printf.sprintf "client-weight %d" i
  | Service_rate i -> Printf.sprintf "service-rate %d" i
  | Kappa -> "kappa"
  | Quantile -> "quantile"

let nudge_of_string s =
  match String.split_on_char ' ' s with
  | [ "client-rate"; i ] -> Option.map (fun i -> Client_rate i) (int_of_string_opt i)
  | [ "client-weight"; i ] -> Option.map (fun i -> Client_weight i) (int_of_string_opt i)
  | [ "service-rate"; i ] -> Option.map (fun i -> Service_rate i) (int_of_string_opt i)
  | [ "kappa" ] -> Some Kappa
  | [ "quantile" ] -> Some Quantile
  | _ -> None

let loaded_clients traffic =
  Array.to_list (Splitting.split traffic).Splitting.subsystems
  |> List.concat_map (fun (s : Splitting.subsystem) ->
         List.filter_map
           (fun (c, r) -> if r > 0. then Some (s.Splitting.bus, c, r) else None)
           s.Splitting.clients)

(* The spec lines that carry a service rate ([bus], [mesh], [torus]):
   their last word is the rate. *)
let is_rate_line line =
  match String.split_on_char ' ' (String.trim line) with
  | ("bus" | "mesh" | "torus") :: rest -> List.mem "rate" rest
  | _ -> false

let nudge_service_rate text i =
  let lines = String.split_on_char '\n' text in
  let count = List.length (List.filter is_rate_line lines) in
  let target = i mod Int.max 1 count in
  let seen = ref (-1) in
  List.map
    (fun line ->
      if not (is_rate_line line) then line
      else begin
        incr seen;
        if !seen <> target then line
        else
          match List.rev (String.split_on_char ' ' (String.trim line)) with
          | rate :: rest ->
              let rate = Printf.sprintf "%.17g" (Float.succ (float_of_string rate)) in
              String.concat " " (List.rev (rate :: rest))
          | [] -> line
      end)
    lines
  |> String.concat "\n"

(* One ulp up, or down from 1 (κ and the quantile must stay in (0, 1]). *)
let up x = if x < 1. then Float.succ x else Float.pred x

(* A′ as (spec text, config, measured rates). *)
let near_miss_inputs (c : near_miss_case) traffic =
  let config = warm_config c.base in
  let pick i =
    let clients = loaded_clients traffic in
    List.nth clients (i mod List.length clients)
  in
  match c.nudge with
  | Client_rate i ->
      let bus, client, r = pick i in
      let rate_of b cl =
        if b = bus && Traffic.client_equal cl client then Some (Float.succ r) else None
      in
      (c.base.text, config, Some rate_of)
  | Client_weight i ->
      let _, client, _ = pick i in
      let weight cl =
        if Traffic.client_equal cl client then Float.succ (config.Sizing.client_weight cl)
        else config.Sizing.client_weight cl
      in
      (c.base.text, { config with Sizing.client_weight = weight }, None)
  | Service_rate i -> (nudge_service_rate c.base.text i, config, None)
  | Kappa ->
      (c.base.text, { config with occupancy_fraction = up config.Sizing.occupancy_fraction }, None)
  | Quantile -> (c.base.text, { config with quantile = up config.Sizing.quantile }, None)

(* Warm the cache with A, then size A′: the lookup must miss, and A′
   must come out bitwise as its own cache-off run.  A key that dropped
   or rounded the nudged input would serve A's answer. *)
let check_near_miss (c : near_miss_case) =
  match Spec_parser.parse c.base.text with
  | Error e -> failf "repro text no longer parses: %s" e
  | Ok (_, traffic) -> (
      let text', config', measured_rates = near_miss_inputs c traffic in
      match Spec_parser.parse text' with
      | Error e -> failf "nudged spec does not parse: %s" e
      | Ok (_, traffic') ->
          let config = warm_config c.base in
          with_cache_state (fun () ->
              Bufsize_numeric.Solve_cache.set_enabled false;
              let cold = Sizing.run ?measured_rates config' traffic' in
              fresh_cache_on ();
              ignore (Sizing.run config traffic);
              let _, misses0 = Sizing.cache_stats () in
              let warm = Sizing.run ?measured_rates config' traffic' in
              let _, misses1 = Sizing.cache_stats () in
              all_of
                [
                  (fun () ->
                    if misses1 = misses0 + 1 then Pass
                    else
                      failf "%s one ulp off hit the entry of the spec it was nudged from"
                        (nudge_to_string c.nudge));
                  (fun () ->
                    if same_sizing cold warm then Pass
                    else
                      failf "near miss (%s) differs from its cold run (loss %.17g vs %.17g)"
                        (nudge_to_string c.nudge) warm.Sizing.predicted_loss_rate
                        cold.Sizing.predicted_loss_rate);
                ]))

let near_miss_header (c : near_miss_case) =
  Printf.sprintf
    "# warm-cold kind: near-miss\n# warm-cold near-miss: budget %d words, max_states %d, nudge %s\n%s"
    c.base.budget c.base.max_states (nudge_to_string c.nudge) c.base.text

let rec near_miss_to_oracle_case (c : near_miss_case) =
  {
    label =
      Printf.sprintf "near miss: %s, budget %d, max_states %d" (nudge_to_string c.nudge)
        c.base.budget c.base.max_states;
    repro = near_miss_header c;
    check = (fun () -> check_near_miss c);
    shrink =
      (fun () ->
        List.map (fun base -> near_miss_to_oracle_case { c with base }) (shrink_sizing_case c.base));
  }

let warm_sizing_header (c : sizing_case) =
  Printf.sprintf "# warm-cold kind: sizing\n# warm-cold sizing: budget %d words, max_states %d\n%s"
    c.budget c.max_states c.text

let rec warm_sizing_to_oracle_case (c : sizing_case) =
  {
    label = Printf.sprintf "warm sizing: budget %d, max_states %d" c.budget c.max_states;
    repro = warm_sizing_header c;
    check = (fun () -> check_warm_sizing c);
    shrink = (fun () -> List.map warm_sizing_to_oracle_case (shrink_sizing_case c));
  }

let warm_cold =
  {
    name = "warm-cold";
    doc = "seeded and cached solves vs their cold baselines, and one-ulp near misses";
    generate =
      (fun ~max_states rng ->
        let sizing_case () =
          let topo, traffic = Gen_model.arch rng in
          let nclients = Splitting.total_clients (Splitting.split traffic) in
          let budget = nclients * (2 + Rng.int rng 3) in
          ( traffic,
            {
              text = Spec_parser.to_string topo traffic;
              budget;
              max_states = Int.max 8 (Int.min max_states 48);
            } )
        in
        match Rng.int rng 6 with
        | 0 | 1 | 2 ->
            let knobs =
              { Gen_model.default_ctmdp_knobs with Gen_model.max_states = Int.min 7 max_states }
            in
            warm_ctmdp_to_oracle_case (Gen_model.ctmdp_case ~knobs rng)
        | 3 -> warm_sizing_to_oracle_case (snd (sizing_case ()))
        | _ ->
            let traffic, base = sizing_case () in
            let clients = List.length (loaded_clients traffic) in
            let rate_lines =
              List.length (List.filter is_rate_line (String.split_on_char '\n' base.text))
            in
            let nudge =
              match Rng.int rng 5 with
              | 0 -> Client_rate (Rng.int rng clients)
              | 1 -> Client_weight (Rng.int rng clients)
              | 2 -> Service_rate (Rng.int rng rate_lines)
              | 3 -> Kappa
              | _ -> Quantile
            in
            near_miss_to_oracle_case { base; nudge });
  }

(* -------------------------------------------------------------- 7. kron *)

(* The Kronecker shuffle SpMV vs the materialized joint generator: on
   small random SANs the descriptor must agree with the explicit CSR
   matrix to near machine precision (SpMV, transposed SpMV, diagonal,
   adjointness) and the Kronecker-side GMRES solve must land on the
   same stationary vector as the dense-side GTH solve. *)

module San = Bufsize_prob.San
module Kronecker = Bufsize_numeric.Kronecker
module Sparse = Bufsize_numeric.Sparse

let max_abs_diff a b =
  let d = ref 0. in
  Array.iteri (fun i x -> d := Float.max !d (Float.abs (x -. b.(i)))) a;
  !d

let inf_norm v = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0. v

(* Deterministic dense probe vector — replayed repros re-run the exact
   same products without carrying an RNG in the repro file. *)
let probe n =
  Array.init n (fun i ->
      (if i mod 2 = 0 then 1. else -1.) *. (1. +. (float_of_int ((17 * i) mod 29) /. 7.)))

let check_san_case (c : Gen_model.san_case) =
  match Gen_model.san_of_case c with
  | exception Invalid_argument msg -> failf "san construction rejected: %s" msg
  | san ->
      let desc = San.descriptor san in
      let n = San.num_states san in
      let m = Kronecker.materialize desc in
      let x = probe n in
      all_of
        [
          (fun () ->
            (* Mixed-radix index codec round-trips over the whole space. *)
            let bad = ref None in
            for idx = 0 to n - 1 do
              let back = San.encode san (San.decode san idx) in
              if back <> idx && !bad = None then bad := Some (idx, back)
            done;
            match !bad with
            | None -> Pass
            | Some (idx, back) -> failf "encode/decode round trip: %d -> %d" idx back);
          (fun () ->
            (* Generator invariants of the materialized descriptor. *)
            let worst_row = inf_norm (Sparse.row_sums m) in
            if worst_row > 1e-9 then failf "generator row sums reach %.3e" worst_row
            else begin
              let neg = ref 0. in
              Sparse.iter m (fun i j v -> if i <> j && v < !neg then neg := v);
              if !neg < -1e-12 then failf "negative off-diagonal %.3e" !neg else Pass
            end);
          (fun () ->
            let shuffle = Kronecker.mul_vec desc x in
            let dense = Sparse.mul_vec m x in
            let diff = max_abs_diff shuffle dense in
            let tol = 1e-12 *. (1. +. inf_norm dense) in
            if diff <= tol then Pass
            else failf "SpMV: shuffle vs materialized differ by %.3e" diff);
          (fun () ->
            let shuffle = Kronecker.mul_vec_t desc x in
            let dense = Sparse.mul_vec_t m x in
            let diff = max_abs_diff shuffle dense in
            let tol = 1e-12 *. (1. +. inf_norm dense) in
            if diff <= tol then Pass
            else failf "transposed SpMV: shuffle vs materialized differ by %.3e" diff);
          (fun () ->
            (* <Ax, y> = <x, A'y> with independent shuffle passes. *)
            let y = Array.init n (fun i -> Float.cos (float_of_int (i + 1))) in
            let ax = Kronecker.mul_vec desc x and aty = Kronecker.mul_vec_t desc y in
            let dot a b =
              let acc = ref 0. in
              Array.iteri (fun i v -> acc := !acc +. (v *. b.(i))) a;
              !acc
            in
            let lhs = dot ax y and rhs = dot x aty in
            if rel_close 1e-11 lhs rhs then Pass
            else failf "adjointness: <Ax,y> %.12g vs <x,A'y> %.12g" lhs rhs);
          (fun () ->
            let kd = Kronecker.diagonal desc in
            let md = Array.init n (fun i -> Sparse.get m i i) in
            let diff = max_abs_diff kd md in
            if diff <= 1e-12 *. (1. +. inf_norm md) then Pass
            else failf "diagonal: Kronecker vs materialized differ by %.3e" diff);
          (fun () ->
            (* Stationary vector: Kronecker GMRES solve vs the dense
               GTH solve on the materialized chain, plus warm re-seeding
               staying on the fixed point. *)
            let pi_kron, _, converged = San.stationary_report san in
            if not converged then failf "Kronecker stationary solve did not converge"
            else begin
              let pi_dense = Ctmc.stationary (San.to_ctmc san) in
              let diff = max_abs_diff pi_kron pi_dense in
              if diff > 1e-8 then
                failf "stationary: Kronecker vs materialized differ by %.3e" diff
              else begin
                let reseeded = San.stationary ~init:pi_kron san in
                let drift = max_abs_diff reseeded pi_kron in
                if drift <= 1e-10 then Pass
                else failf "warm re-seed moved the fixed point by %.3e" drift
              end
            end);
        ]

let shrink_san_case (c : Gen_model.san_case) =
  let drop_event i =
    { c with Gen_model.events = List.filteri (fun j _ -> j <> i) c.Gen_model.events }
  in
  let drop_events = List.mapi (fun i _ -> drop_event i) c.Gen_model.events in
  let drop_scalings =
    List.concat
      (List.mapi
         (fun i (e : San.event) ->
           List.map
             (fun (a, _) ->
               {
                 c with
                 Gen_model.events =
                   List.mapi
                     (fun j ev ->
                       if j <> i then ev
                       else
                         {
                           ev with
                           San.scaling =
                             List.filter (fun (b, _) -> b <> a) ev.San.scaling;
                         })
                     c.Gen_model.events;
               })
             e.San.scaling)
         c.Gen_model.events)
  in
  let drop_participants =
    List.concat
      (List.mapi
         (fun i (e : San.event) ->
           if List.length e.San.routing < 2 then []
           else
             List.map
               (fun (a, _) ->
                 {
                   c with
                   Gen_model.events =
                     List.mapi
                       (fun j ev ->
                         if j <> i then ev
                         else
                           {
                             ev with
                             San.routing =
                               List.filter (fun (b, _) -> b <> a) ev.San.routing;
                           })
                       c.Gen_model.events;
                 })
               e.San.routing)
         c.Gen_model.events)
  in
  (* Drop local transitions that are not part of the irreducibility
     cycle, so shrunk chains keep a unique stationary vector. *)
  let drop_locals =
    List.concat
      (List.mapi
         (fun i (a : San.automaton) ->
           List.filteri
             (fun j _ ->
               match List.nth a.San.local j with
               | f, t, _ -> t <> (f + 1) mod a.San.size)
             (List.mapi (fun j _ -> j) a.San.local)
           |> List.map (fun j ->
                  {
                    c with
                    Gen_model.automata =
                      List.mapi
                        (fun k (b : San.automaton) ->
                          if k <> i then b
                          else
                            {
                              b with
                              San.local = List.filteri (fun l _ -> l <> j) b.San.local;
                            })
                        c.Gen_model.automata;
                  }))
         c.Gen_model.automata)
  in
  drop_events @ drop_participants @ drop_scalings @ drop_locals

let rec san_case_to_oracle_case (c : Gen_model.san_case) =
  {
    label =
      Printf.sprintf "san: %d automata, %d events, %d joint states"
        (List.length c.Gen_model.automata)
        (List.length c.Gen_model.events)
        (List.fold_left (fun acc (a : San.automaton) -> acc * a.San.size) 1 c.Gen_model.automata);
    repro = Gen_model.san_case_to_string c;
    check = (fun () -> check_san_case c);
    shrink = (fun () -> List.map san_case_to_oracle_case (shrink_san_case c));
  }

let kron =
  {
    name = "kron";
    doc = "Kronecker shuffle SpMV and stationary solve vs the materialized generator";
    generate = (fun ~max_states:_ rng -> san_case_to_oracle_case (Gen_model.san_case rng));
  }

(* --------------------------------------------------------------- 8. topo *)

(* Mesh/torus NoC instances through the whole pipeline: dimension-order
   route lengths must equal grid distances, the per-edge transit flows
   folded along routes must agree with the bridge clients the split
   derives, the shared-pool (DAMQ) optimum must never lose more than the
   static partition it can mimic at equal capacity, and the discrete-event
   simulation of the sized allocation must conserve the offered traffic
   and respond monotonically to extra buffer space. *)

module Bus_model = Bufsize_soc.Bus_model

type topo_case = {
  topo_text : string;
  topo_budget : int;
  topo_max_states : int;
  topo_sim_seed : int;
}

let topo_horizon = 800.
let topo_warmup = 100.
let topo_replications = 3

let topo_well_formed (c : topo_case) =
  match Spec_parser.parse c.topo_text with
  | Error _ -> false
  | Ok (_, traffic) ->
      Array.length (Traffic.flows traffic) > 0
      &&
      let split = Splitting.split traffic in
      c.topo_budget >= Splitting.total_clients split
      && Array.for_all
           (fun (s : Splitting.subsystem) ->
             List.exists (fun (_, r) -> r > 0.) s.Splitting.clients)
           split.Splitting.subsystems

let grid_hop_distance (g : Topology.grid) r1 c1 r2 c2 =
  let axis len a b =
    let d = abs (a - b) in
    if g.Topology.grid_kind = Topology.Torus && len > 2 then Int.min d (len - d) else d
  in
  axis g.Topology.cols c1 c2 + axis g.Topology.rows r1 r2

let check_topo_case (c : topo_case) =
  match Spec_parser.parse c.topo_text with
  | Error e -> failf "repro text no longer parses: %s" e
  | Ok (topo, traffic) ->
      let split = Splitting.split traffic in
      all_of
        [
          (fun () ->
            (* XY routing: within a grid, the routed hop count must equal
               the dimension-order distance (manhattan, with torus wrap on
               dimensions longer than 2). *)
            let grids = Topology.grids topo in
            let bad = ref None in
            Array.iter
              (fun (fl : Traffic.flow) ->
                let b1 = (Topology.processor topo fl.Traffic.src).Topology.home_bus in
                let b2 = (Topology.processor topo fl.Traffic.dst).Topology.home_bus in
                match (Topology.grid_cell topo b1, Topology.grid_cell topo b2) with
                | Some (g1, r1, c1), Some (g2, r2, c2) when g1 = g2 ->
                    let expected = grid_hop_distance grids.(g1) r1 c1 r2 c2 in
                    let got =
                      match Topology.route topo b1 b2 with
                      | Some route -> List.length route
                      | None -> -1
                    in
                    if got <> expected && !bad = None then
                      bad := Some (fl, expected, got)
                | _ -> ())
              (Traffic.flows traffic);
            match !bad with
            | None -> Pass
            | Some (fl, expected, got) ->
                failf "route of flow %d -> %d has %d hops, dimension-order distance is %d"
                  fl.Traffic.src fl.Traffic.dst got expected);
          (fun () ->
            (* Transit folding: the per-edge flows folded along routed hop
               sequences must match the bridge clients the split derives
               from Traffic.clients_of_bus — two independent computations
               of the same loads. *)
            let tbl = Hashtbl.create 16 in
            List.iter
              (fun (key, r) -> Hashtbl.replace tbl key r)
              (Splitting.edge_flows traffic);
            let err = ref None in
            Array.iter
              (fun (s : Splitting.subsystem) ->
                List.iter
                  (fun (cl, rate) ->
                    match cl with
                    | Traffic.Proc_client _ -> ()
                    | Traffic.Bridge_client { bridge; into_bus } -> (
                        let key = (bridge, into_bus) in
                        match Hashtbl.find_opt tbl key with
                        | Some r when rel_close 1e-9 r rate -> Hashtbl.remove tbl key
                        | Some r ->
                            if !err = None then
                              err :=
                                Some
                                  (Printf.sprintf
                                     "bridge %d into bus %d: split rate %.12g vs folded %.12g"
                                     bridge into_bus rate r)
                        | None ->
                            if !err = None then
                              err :=
                                Some
                                  (Printf.sprintf
                                     "bridge %d into bus %d carries %.12g but edge_flows has no entry"
                                     bridge into_bus rate)))
                  s.Splitting.clients)
              split.Splitting.subsystems;
            match !err with
            | Some e -> failf "%s" e
            | None ->
                if Hashtbl.length tbl = 0 then Pass
                else
                  failf "%d folded edge flows have no matching bridge client"
                    (Hashtbl.length tbl));
          (fun () ->
            (* Source conservation: proc-client rates across all subsystems
               must sum to the offered traffic (each flow loads exactly its
               source processor's buffer). *)
            let total = Traffic.total_offered traffic in
            let from_split =
              Array.fold_left
                (fun acc (s : Splitting.subsystem) ->
                  List.fold_left
                    (fun acc (cl, r) ->
                      match cl with Traffic.Proc_client _ -> acc +. r | _ -> acc)
                    acc s.Splitting.clients)
                0. split.Splitting.subsystems
            in
            if rel_close 1e-9 total from_split then Pass
            else failf "proc-client rates sum to %.12g but flows offer %.12g" from_split total);
          (fun () ->
            (* DAMQ never worse: at equal capacity the shared pool's
               unconstrained LP optimum cannot exceed the static
               partition's — the static admission rule is one of its
               actions.  Checked on the raw LP gains, per subsystem.  The
               same two LP gains are the reference for the report of
               [Sizing.compare_sharing] under DAMQ, whose answers are the
               price-0 lines of [Sizing.run]'s own solves: its static
               loss is the static gain, its DAMQ loss the smaller of
               the two. *)
            let report =
              lazy
                (snd
                   (Sizing.compare_sharing
                      {
                        (Sizing.default_config ~budget:c.topo_budget) with
                        Sizing.max_states = c.topo_max_states;
                        sharing = Sizing.Damq;
                      }
                      traffic))
            in
            let matches_report (sub : Splitting.subsystem) ~sg ~dg ~tol =
              match
                List.find_opt
                  (fun e -> e.Sizing.cmp_bus = sub.Splitting.bus)
                  (Lazy.force report).Sizing.entries
              with
              | exception Failure msg -> failf "compare_sharing failed: %s" msg
              | None ->
                  (* compared: the buses marked shared, or all when none is *)
                  let marked = Topology.shared_buses topo in
                  if marked <> [] && not (List.mem sub.Splitting.bus marked) then Pass
                  else failf "bus %s: no compare_sharing entry" sub.Splitting.bus_name
              | Some e ->
                  if Float.abs (e.Sizing.static_loss -. sg) > tol then
                    failf "bus %s: compare_sharing static loss %.12g, LP %.12g"
                      sub.Splitting.bus_name e.Sizing.static_loss sg
                  else if Float.abs (e.Sizing.damq_loss -. Float.min dg sg) > tol then
                    failf "bus %s: compare_sharing DAMQ loss %.12g, LP min %.12g"
                      sub.Splitting.bus_name e.Sizing.damq_loss (Float.min dg sg)
                  else Pass
            in
            all_of
              (Array.to_list split.Splitting.subsystems
              |> List.map (fun (sub : Splitting.subsystem) () ->
                     let nloaded =
                       List.length (List.filter (fun (_, r) -> r > 0.) sub.Splitting.clients)
                     in
                     if nloaded < 2 then Pass (* one client has nothing to share with *)
                     else begin
                       let levels =
                         Bus_model.choose_levels ~max_states:c.topo_max_states
                           sub.Splitting.clients
                       in
                       let model = Bus_model.build ~levels sub in
                       match Lp_formulation.solve_diag (Bus_model.ctmdp model) with
                       | Some (Lp_formulation.Optimal st), _ -> (
                           let guard = Int.max 512 (4 * c.topo_max_states) in
                           match
                             Bus_model.Shared.build ~static_levels:levels ~max_states:guard
                               ~capacity:(Bus_model.total_levels model) sub
                           with
                           | exception Invalid_argument _ ->
                               Pass (* pool state space over the guard *)
                           | shared -> (
                               match
                                 Lp_formulation.solve_diag (Bus_model.Shared.ctmdp shared)
                               with
                               | Some (Lp_formulation.Optimal sh), _ ->
                                   let sg = st.Lp_formulation.gain
                                   and dg = sh.Lp_formulation.gain in
                                   let tol = 1e-7 *. (1. +. Float.abs sg) in
                                   if dg < -.tol then
                                     failf "bus %s: negative shared-pool loss %.12g"
                                       sub.Splitting.bus_name dg
                                   else if dg <= sg +. tol then matches_report sub ~sg ~dg ~tol
                                   else
                                     failf
                                       "bus %s: shared pool loses %.12g, static partition %.12g"
                                       sub.Splitting.bus_name dg sg
                               | _ ->
                                   failf "bus %s: shared-pool LP failed"
                                     sub.Splitting.bus_name))
                       | _ -> failf "bus %s: static LP failed" sub.Splitting.bus_name
                     end)));
          (fun () ->
            (* DES cross-check: simulate the sized allocation. *)
            let config =
              {
                (Sizing.default_config ~budget:c.topo_budget) with
                Sizing.max_states = c.topo_max_states;
              }
            in
            match Sizing.run config traffic with
            | exception Failure msg -> failf "sizing failed on the grid: %s" msg
            | result ->
                let sim allocation =
                  let spec =
                    {
                      (Sim_run.default_spec ~traffic ~allocation) with
                      Sim_run.horizon = topo_horizon;
                      warmup = topo_warmup;
                      seed = c.topo_sim_seed;
                    }
                  in
                  Replicate.run ~replications:topo_replications spec
                in
                let agg = sim result.Sizing.allocation in
                let span = topo_horizon -. topo_warmup in
                all_of
                  [
                    (fun () ->
                      let lf = Stats.mean agg.Replicate.loss_fraction in
                      if Float.is_finite lf && lf >= -1e-9 && lf <= 1. +. 1e-9 then Pass
                      else failf "simulated loss fraction %.6g out of range" lf);
                    (fun () ->
                      (* Every source is a Poisson stream: measured offered
                         rates must match the spec within the replication
                         CI. *)
                      let bad = ref None in
                      Array.iteri
                        (fun p st ->
                          let expected = Traffic.offered_by_proc traffic p in
                          let measured = Stats.mean st /. span in
                          let lo, hi = Stats.confidence_interval95 st in
                          let half = (hi -. lo) /. 2. /. span in
                          let tol = (4. *. half) +. (0.05 *. expected) +. 0.02 in
                          if Float.abs (measured -. expected) > tol && !bad = None then
                            bad := Some (p, measured, expected, tol))
                        agg.Replicate.per_proc_offered;
                      match !bad with
                      | None -> Pass
                      | Some (p, m, e, tol) ->
                          failf
                            "proc %d offered %.6g requests per time unit, spec says %.6g (tolerance %.2g)"
                            p m e tol);
                    (fun () ->
                      (* Doubling every buffer must not increase the loss
                         (beyond replication noise). *)
                      let doubled =
                        Buffer_alloc.make
                          (Array.to_list
                             (Array.map
                                (fun (e : Buffer_alloc.entry) ->
                                  (e.Buffer_alloc.bus, e.Buffer_alloc.client,
                                   2 * e.Buffer_alloc.words))
                                result.Sizing.allocation.Buffer_alloc.entries))
                      in
                      let agg2 = sim doubled in
                      let lf1 = Stats.mean agg.Replicate.loss_fraction
                      and lf2 = Stats.mean agg2.Replicate.loss_fraction in
                      let lo, hi = Stats.confidence_interval95 agg.Replicate.loss_fraction in
                      let half = (hi -. lo) /. 2. in
                      if lf2 <= lf1 +. (4. *. half) +. 0.02 then Pass
                      else
                        failf
                          "doubling all buffers raised the simulated loss fraction from %.6g to %.6g"
                          lf1 lf2);
                  ]);
        ]

let shrink_topo_case (c : topo_case) =
  let lines = String.split_on_char '\n' c.topo_text in
  let drop_line i =
    { c with topo_text = String.concat "\n" (List.filteri (fun j _ -> j <> i) lines) }
  in
  let candidates =
    List.init (List.length lines) drop_line
    @ (if c.topo_budget > 2 then [ { c with topo_budget = c.topo_budget / 2 } ] else [])
    @
    if c.topo_max_states > 8 then [ { c with topo_max_states = c.topo_max_states / 2 } ]
    else []
  in
  List.filter topo_well_formed candidates

let topo_label (c : topo_case) =
  let head =
    match String.split_on_char '\n' c.topo_text |> List.filter (fun l -> l <> "" && l.[0] <> '#') with
    | first :: _ -> first
    | [] -> "empty"
  in
  Printf.sprintf "topo: %s, budget %d" head c.topo_budget

let rec topo_case_to_oracle_case (c : topo_case) =
  {
    label = topo_label c;
    repro =
      Printf.sprintf "# topo cross-check: budget %d words, max_states %d, sim seed %d\n%s"
        c.topo_budget c.topo_max_states c.topo_sim_seed c.topo_text;
    check = (fun () -> check_topo_case c);
    shrink = (fun () -> List.map topo_case_to_oracle_case (shrink_topo_case c));
  }

let topo =
  {
    name = "topo";
    doc = "mesh/torus routing, transit folding, DAMQ vs static, and DES conservation";
    generate =
      (fun ~max_states rng ->
        let topology, traffic = Gen_model.topo_arch rng in
        let nclients = Splitting.total_clients (Splitting.split traffic) in
        let budget = nclients * (2 + Rng.int rng 3) in
        topo_case_to_oracle_case
          {
            topo_text = Spec_parser.to_string topology traffic;
            topo_budget = budget;
            topo_max_states = Int.max 8 (Int.min max_states 24);
            topo_sim_seed = 1 + Rng.int rng 1_000_000;
          });
  }

let header_value ~prefix text =
  let plen = String.length prefix in
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         let line = String.trim line in
         if String.length line >= plen && String.sub line 0 plen = prefix then
           Some (String.trim (String.sub line plen (String.length line - plen)))
         else None)

(* ------------------------------------------------------------ 11. price *)

(* The price-directed solver against the joint LP it replaces on the
   sizing path: 1-3 random unichain blocks sharing one occupancy bound,
   placed a fraction [price_at] of the way from the least attainable
   usage to the unconstrained optimum's usage (both from the LP). *)

type price_case = { price_blocks : Gen_model.ctmdp_case list; price_at : float }

let lp_gain_usage m =
  match Lp_formulation.solve m with
  | Lp_formulation.Optimal s -> (s.Lp_formulation.gain, s.Lp_formulation.extras.(0))
  | Lp_formulation.Infeasible | Lp_formulation.Unbounded ->
      failwith "occupation LP not optimal on a valid CTMDP"

let price_bound (c : price_case) models =
  let sum f = Array.fold_left (fun acc m -> acc +. f m) 0. models in
  let least =
    sum (fun m -> fst (lp_gain_usage (Ctmdp.map_costs m (fun i -> Ctmdp.extra m i 0))))
  in
  let free = sum (fun m -> snd (lp_gain_usage m)) in
  least +. (c.price_at *. (free -. least))

let check_price_case (c : price_case) =
  let models = Array.of_list (List.map Gen_model.ctmdp_of_case c.price_blocks) in
  let bound = price_bound c models in
  match
    ( Lp_formulation.solve_joint
        ~shared_bounds:[| { Lp_formulation.sense = Lp.Le; value = bound } |]
        models,
      Constrained.solve_price ~bound models )
  with
  | Lp_formulation.Joint_optimal lp, (Some (Constrained.Optimal a), diag, _) ->
      let g = lp.Lp_formulation.total_gain in
      let price = a.Constrained.price in
      all_of
        [
          (fun () ->
            if Resilience.is_ok diag then Pass
            else failf "price path fell back: %s" (Format.asprintf "%a" Resilience.pp diag));
          (fun () ->
            if rel_close 1e-9 a.Constrained.total_gain g then Pass
            else failf "price-path gain %.15g vs LP gain %.15g" a.Constrained.total_gain g);
          (fun () ->
            (* D(price) = sum_i min_pi (g_i + price u_i) - price bound must
               reach the LP optimum: the price is a valid dual even where
               the LP's own dual is not unique. *)
            let dual =
              Array.fold_left
                (fun acc m ->
                  let priced =
                    Ctmdp.map_costs m (fun i -> m.Ctmdp.cost.(i) +. (price *. Ctmdp.extra m i 0))
                  in
                  acc +. (Policy_iteration.solve priced).Policy_iteration.gain)
                0. models
              -. (price *. bound)
            in
            if rel_close 1e-9 dual g then Pass
            else failf "dual value %.15g at price %.12g vs LP gain %.15g" dual price g);
          (fun () ->
            let used = a.Constrained.total_usage in
            if used <= bound +. (1e-9 *. (1. +. bound)) then Pass
            else failf "usage %.15g exceeds the bound %.15g" used bound);
          (fun () ->
            (* Each block's K-switching policy, spelled out densely and
               evaluated afresh, must give its gain and usage and
               randomize in at most one state of all the blocks. *)
            let checked =
              Array.mapi (fun i m -> Kswitching.check_answer m a.Constrained.components.(i)) models
            in
            match Array.find_map (function Error why -> Some why | Ok _ -> None) checked with
            | Some why -> failf "%s" why
            | None ->
                let randomized =
                  Array.fold_left (fun acc r -> acc + Result.value r ~default:0) 0 checked
                in
                if randomized <= 1 then Pass
                else failf "%d randomized states (at most 1)" randomized);
        ]
  | Lp_formulation.Joint_optimal _, (_, diag, _) ->
      failf "LP optimal, price path not: %s" (Format.asprintf "%a" Resilience.pp diag)
  | _ -> failf "joint LP not optimal at a bound above the least usage"

let shrink_price_case (c : price_case) =
  let blocks = c.price_blocks in
  let drop_block =
    if List.length blocks <= 1 then []
    else
      List.init (List.length blocks) (fun i ->
          { c with price_blocks = List.filteri (fun k _ -> k <> i) blocks })
  in
  let shrink_block =
    List.concat
      (List.mapi
         (fun i b ->
           List.map
             (fun b' ->
               { c with price_blocks = List.mapi (fun k x -> if k = i then b' else x) blocks })
             (shrink_ctmdp_case b))
         blocks)
  in
  drop_block @ shrink_block

let price_header = "# price cross-check: bound at"

let rec price_case_to_oracle_case (c : price_case) =
  {
    label =
      Printf.sprintf "price: %d block(s), bound at %g" (List.length c.price_blocks) c.price_at;
    repro =
      Printf.sprintf "%s %.17g\n%s" price_header c.price_at
        (String.concat "" (List.map Gen_model.ctmdp_case_to_string c.price_blocks));
    check = (fun () -> check_price_case c);
    shrink = (fun () -> List.map price_case_to_oracle_case (shrink_price_case c));
  }

(* The repro is the header line plus one [ctmdp states ...] dump per
   block. *)
let price_case_of_string text =
  let lines = String.split_on_char '\n' text in
  let chunks =
    List.fold_left
      (fun acc line ->
        let line = String.trim line in
        if String.length line >= 12 && String.sub line 0 12 = "ctmdp states" then [ line ] :: acc
        else match acc with chunk :: rest -> (line :: chunk) :: rest | [] -> [])
      [] lines
    |> List.rev_map (fun chunk -> String.concat "\n" (List.rev chunk))
  in
  match header_value ~prefix:price_header text with
  | None -> Error "price repro has no '# price cross-check:' header"
  | Some v -> (
      match Gen_model.float_token v with
      | None -> Error ("price: bad bound position " ^ v)
      | Some price_at ->
          if chunks = [] then Error "price: no blocks"
          else
            List.fold_right
              (fun chunk acc ->
                match (acc, Gen_model.ctmdp_case_of_string chunk) with
                | Ok bs, Ok b -> Ok (b :: bs)
                | (Error _ as e), _ -> e
                | _, Error e -> Error e)
              chunks (Ok [])
            |> Result.map (fun price_blocks -> { price_blocks; price_at }))

let price =
  {
    name = "price";
    doc = "price-directed solver vs the joint LP on blocks sharing one occupancy bound";
    generate =
      (fun ~max_states rng ->
        let knobs =
          { Gen_model.default_ctmdp_knobs with Gen_model.max_states = Int.min 7 max_states }
        in
        let nb = 1 + Rng.int rng 3 in
        (* Copies of one block break even at the same prices, so the two
           policy tuples bracketing the price differ in several states
           and the one-state mix has a real walk to make. *)
        let price_blocks =
          if Rng.bool rng then List.init nb (fun _ -> Gen_model.ctmdp_case ~knobs rng)
          else
            let b = Gen_model.ctmdp_case ~knobs rng in
            List.init nb (fun _ -> b)
        in
        let price_at = Float.round (Rng.float rng *. 1000.) /. 1000. in
        price_case_to_oracle_case { price_blocks; price_at });
  }

(* ----------------------------------------------------------- the matrix *)

let all =
  [
    simplex_cross;
    mdp_gain;
    sim_analytic;
    sizing_bounds;
    split_monolithic;
    warm_cold;
    kron;
    topo;
    Chaos.oracle;
    Serve_oracle.oracle;
    price;
  ]

let find name = List.find_opt (fun o -> o.name = name) all

let names () = List.map (fun o -> o.name) all

(* -------------------------------------------------------------- replay *)

let case_of_repro text =
  match header_value ~prefix:"# oracle:" text with
  | None -> Error "repro has no '# oracle:' header"
  | Some "simplex-cross" -> Result.map lp_case_to_oracle_case (Gen_model.lp_case_of_string text)
  | Some "mdp-gain" ->
      Result.map ctmdp_case_to_oracle_case (Gen_model.ctmdp_case_of_string text)
  | Some "split-monolithic" ->
      Result.map monolithic_case_to_oracle_case (Gen_model.monolithic_of_string text)
  | Some "kron" -> Result.map san_case_to_oracle_case (Gen_model.san_case_of_string text)
  | Some "price" -> Result.map price_case_to_oracle_case (price_case_of_string text)
  | Some "chaos" -> (
      match (header_value ~prefix:"# fault:" text, header_value ~prefix:"# seed:" text) with
      | None, _ -> Error "chaos repro has no '# fault:' header"
      | _, None -> Error "chaos repro has no '# seed:' header"
      | Some fname, Some sname -> (
          match (Chaos.fault_of_name fname, int_of_string_opt sname) with
          | None, _ -> Error ("chaos: unknown fault kind: " ^ fname)
          | _, None -> Error ("chaos: bad seed: " ^ sname)
          | Some fault, Some seed -> Ok (Chaos.case ~fault ~seed)))
  | Some "sim-analytic" -> (
      (* Buffer capacity and sim seed live in the mm1k header; lambda and
         mu are recovered from the embedded single-bus architecture. *)
      match header_value ~prefix:"# M/M/1/K cross-check:" text with
      | None -> Error "sim-analytic repro has no '# M/M/1/K cross-check:' header"
      | Some hdr -> (
          match
            Scanf.sscanf_opt hdr "src buffer capacity %d words, sim seed %d" (fun k s ->
                (k, s))
          with
          | None -> Error ("sim-analytic: bad cross-check header: " ^ hdr)
          | Some (k, sim_seed) -> (
              match Spec_parser.parse text with
              | Error e -> Error ("sim-analytic: " ^ e)
              | Ok (topo, traffic) ->
                  let flows = Traffic.flows traffic in
                  if Array.length flows <> 1 || Topology.num_buses topo <> 1 then
                    Error "sim-analytic: expected a single-bus single-flow architecture"
                  else
                    let lambda = flows.(0).Traffic.rate in
                    let mu = (Topology.buses topo).(0).Topology.service_rate in
                    Ok (mm1k_case_to_oracle_case { Gen_model.lambda; mu; k; sim_seed }))))
  | Some "sizing-bounds" -> (
      match header_value ~prefix:"# sizing cross-check:" text with
      | None -> Error "sizing-bounds repro has no '# sizing cross-check:' header"
      | Some hdr -> (
          match
            Scanf.sscanf_opt hdr "budget %d words, max_states %d" (fun b m -> (b, m))
          with
          | None -> Error ("sizing-bounds: bad cross-check header: " ^ hdr)
          | Some (budget, max_states) -> (
              (* The parser skips '#' lines, so the full repro text is a
                 valid sizing_case spec. *)
              match Spec_parser.parse text with
              | Error e -> Error ("sizing-bounds: " ^ e)
              | Ok _ -> Ok (sizing_case_to_oracle_case { text; budget; max_states }))))
  | Some "serve" -> (
      match header_value ~prefix:"# serve cross-check:" text with
      | None -> Error "serve repro has no '# serve cross-check:' header"
      | Some hdr -> (
          match
            Scanf.sscanf_opt hdr "budget %d words, max_states %d, seed %d" (fun b m s ->
                (b, m, s))
          with
          | None -> Error ("serve: bad cross-check header: " ^ hdr)
          | Some (budget, max_states, seed) -> (
              (* The parser skips '#' lines, so the full repro text is a
                 valid spec. *)
              match Spec_parser.parse text with
              | Error e -> Error ("serve: " ^ e)
              | Ok _ -> Ok (Serve_oracle.case ~text ~budget ~max_states ~seed))))
  | Some "topo" -> (
      match header_value ~prefix:"# topo cross-check:" text with
      | None -> Error "topo repro has no '# topo cross-check:' header"
      | Some hdr -> (
          match
            Scanf.sscanf_opt hdr "budget %d words, max_states %d, sim seed %d"
              (fun b m s -> (b, m, s))
          with
          | None -> Error ("topo: bad cross-check header: " ^ hdr)
          | Some (topo_budget, topo_max_states, topo_sim_seed) -> (
              (* The parser skips '#' lines, so the full repro text is a
                 valid spec. *)
              match Spec_parser.parse text with
              | Error e -> Error ("topo: " ^ e)
              | Ok _ ->
                  Ok
                    (topo_case_to_oracle_case
                       { topo_text = text; topo_budget; topo_max_states; topo_sim_seed }))))
  | Some "warm-cold" -> (
      match header_value ~prefix:"# warm-cold kind:" text with
      | None -> Error "warm-cold repro has no '# warm-cold kind:' header"
      | Some "ctmdp" ->
          Result.map warm_ctmdp_to_oracle_case (Gen_model.ctmdp_case_of_string text)
      | Some "sizing" -> (
          match header_value ~prefix:"# warm-cold sizing:" text with
          | None -> Error "warm-cold sizing repro has no '# warm-cold sizing:' header"
          | Some hdr -> (
              match
                Scanf.sscanf_opt hdr "budget %d words, max_states %d" (fun b m -> (b, m))
              with
              | None -> Error ("warm-cold: bad sizing header: " ^ hdr)
              | Some (budget, max_states) -> (
                  match Spec_parser.parse text with
                  | Error e -> Error ("warm-cold: " ^ e)
                  | Ok _ -> Ok (warm_sizing_to_oracle_case { text; budget; max_states }))))
      | Some "near-miss" -> (
          match header_value ~prefix:"# warm-cold near-miss:" text with
          | None -> Error "warm-cold near-miss repro has no '# warm-cold near-miss:' header"
          | Some hdr -> (
              match
                Scanf.sscanf_opt hdr "budget %d words, max_states %d, nudge %[^\n]"
                  (fun b m n -> (b, m, nudge_of_string n))
              with
              | None | Some (_, _, None) -> Error ("warm-cold: bad near-miss header: " ^ hdr)
              | Some (budget, max_states, Some nudge) -> (
                  match Spec_parser.parse text with
                  | Error e -> Error ("warm-cold: " ^ e)
                  | Ok _ ->
                      Ok (near_miss_to_oracle_case { base = { text; budget; max_states }; nudge }))))
      | Some other -> Error ("warm-cold: unknown sub-case kind " ^ other))
  | Some other -> Error (Printf.sprintf "unknown oracle %S in repro" other)
