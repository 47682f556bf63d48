(* Tests for the CTMDP machinery: model validation, policies, the
   occupation-measure LP, policy iteration, value iteration, K-switching,
   and the constrained wrapper.  The M/M/1/K queue provides analytic ground
   truth throughout. *)

module Vec = Bufsize_numeric.Vec
module Lp = Bufsize_verify.Lp
module Simplex_revised = Bufsize_verify.Simplex_revised
module Birth_death = Bufsize_prob.Birth_death
module Rng = Bufsize_prob.Rng
module Ctmdp = Bufsize_mdp.Ctmdp
module Policy = Bufsize_mdp.Policy
module Lp_formulation = Bufsize_verify.Lp_formulation
module Policy_iteration = Bufsize_mdp.Policy_iteration
module Value_iteration = Bufsize_verify.Value_iteration
module Kswitching = Bufsize_verify.Kswitching
module Dense_policy = Bufsize_verify.Dense_policy
module Constrained = Bufsize_mdp.Constrained
module Resilience = Bufsize_resilience.Resilience

let check_close tol = Alcotest.(check (float tol))

(* --------------------------------------------------------------- models *)

(* A model from per-state arrays of (label, transitions, cost, extras),
   through the one constructor. *)
let of_actions ~num_extras actions =
  Ctmdp.create ~num_extras (Array.length actions) (fun b s ->
      Array.iter
        (fun (label, transitions, cost, extras) ->
          Ctmdp.add_action b ~label ~cost ~extras;
          List.iter (fun (j, r) -> Ctmdp.add_transition b j r) transitions)
        actions.(s))

(* M/M/1/K as a one-action-per-state CTMDP with loss cost: in the full state
   the arrival stream (rate lambda) is lost, so cost rate lambda there.
   Extra resource 0 = number of customers (occupied buffer). *)
let mm1k_ctmdp ~lambda ~mu ~k =
  let actions =
    Array.init (k + 1) (fun s ->
        let transitions =
          (if s < k then [ (s + 1, lambda) ] else [])
          @ (if s > 0 then [ (s - 1, mu) ] else [])
        in
        let cost = if s = k then lambda else 0. in
        [| ("serve", transitions, cost, [| float_of_int s |]) |])
  in
  of_actions ~num_extras:1 actions

(* Admission control on an M/M/1/K: in states below K the controller may
   admit (arrivals flow) or reject (arrivals lost at cost lambda).  The full
   state always rejects.  One extra: occupancy. *)
let admission_ctmdp ~lambda ~mu ~k =
  let actions =
    Array.init (k + 1) (fun s ->
        let down = if s > 0 then [ (s - 1, mu) ] else [] in
        if s = k then
          [| ("reject", down, lambda, [| float_of_int s |]) |]
        else
          [|
            ("admit", (s + 1, lambda) :: down, 0., [| float_of_int s |]);
            ("reject", down, lambda, [| float_of_int s |]);
          |])
  in
  of_actions ~num_extras:1 actions

(* A two-client shared-server CTMDP used for policy-vs-LP cross checks:
   state = (k1, k2) with capacity 1 each, actions = which nonempty queue to
   serve.  Cost = loss rate of full queues. *)
let two_client_ctmdp ~l1 ~l2 ~m1 ~m2 =
  let encode k1 k2 = (k1 * 2) + k2 in
  let actions =
    Array.init 4 (fun s ->
        let k1 = s / 2 and k2 = s mod 2 in
        let arrivals k1' k2' =
          (if k1 = 0 then [ (encode 1 k2', l1) ] else [])
          @ if k2 = 0 then [ (encode k1' 1, l2) ] else []
        in
        let cost = (if k1 = 1 then l1 else 0.) +. if k2 = 1 then l2 else 0. in
        let extras = [| float_of_int (k1 + k2) |] in
        let serve1 = ("serve1", (encode 0 k2, m1) :: arrivals k1 k2, cost, extras) in
        let serve2 = ("serve2", (encode k1 0, m2) :: arrivals k1 k2, cost, extras) in
        match (k1, k2) with
        | 0, 0 -> [| ("idle", arrivals 0 0, cost, extras) |]
        | 1, 0 -> [| serve1 |]
        | 0, 1 -> [| serve2 |]
        | _, _ -> [| serve1; serve2 |])
  in
  of_actions ~num_extras:1 actions

(* ---------------------------------------------------------------- Ctmdp *)

let test_ctmdp_validation () =
  Alcotest.check_raises "no actions" (Invalid_argument "Ctmdp.create: state 0 has no action")
    (fun () -> ignore (of_actions ~num_extras:0 [| [||] |]));
  Alcotest.check_raises "self loop" (Invalid_argument "Ctmdp.create: self loop transition")
    (fun () -> ignore (of_actions ~num_extras:0 [| [| ("a", [ (0, 1.) ], 0., [||]) |] |]));
  let two_states transitions =
    of_actions ~num_extras:0 [| [| ("a", transitions, 0., [||]) |]; [| ("b", [], 0., [||]) |] |]
  in
  Alcotest.check_raises "unknown state"
    (Invalid_argument "Ctmdp.create: transition to unknown state 2") (fun () ->
      ignore (two_states [ (2, 1.) ]));
  Alcotest.check_raises "nonpositive rate" (Invalid_argument "Ctmdp.create: nonpositive rate")
    (fun () -> ignore (two_states [ (1, 0.) ]));
  Alcotest.check_raises "extras"
    (Invalid_argument "Ctmdp.create: state 0 action \"a\" has 0 extras, expected 1") (fun () ->
      ignore (of_actions ~num_extras:1 [| [| ("a", [], 0., [||]) |] |]));
  Alcotest.check_raises "transition before an action"
    (Invalid_argument "Ctmdp.add_transition: no action started") (fun () ->
      ignore
        (Ctmdp.create ~num_extras:0 2 (fun b s ->
             if s = 1 then Ctmdp.add_transition b 0 1.;
             Ctmdp.add_action b ~label:"a" ~cost:0. ~extras:[||])))

let test_ctmdp_accessors () =
  let m = mm1k_ctmdp ~lambda:1. ~mu:2. ~k:3 in
  Alcotest.(check int) "states" 4 (Ctmdp.num_states m);
  Alcotest.(check int) "extras" 1 (Ctmdp.num_extras m);
  Alcotest.(check int) "pairs" 4 (Ctmdp.total_state_actions m);
  check_close 1e-12 "max exit" 3. (Ctmdp.max_exit_rate m);
  let lo, hi = Ctmdp.cost_bounds m in
  check_close 1e-12 "cost lo" 0. lo;
  check_close 1e-12 "cost hi" 1. hi;
  Alcotest.(check bool) "empty state reached under every policy" true
    (Ctmdp.reached_under_every_policy m 0)

let test_ctmdp_map_costs () =
  let m = mm1k_ctmdp ~lambda:1. ~mu:2. ~k:2 in
  let m2 = Ctmdp.map_costs m (fun i -> m.Ctmdp.cost.(i) +. 10.) in
  let _, hi = Ctmdp.cost_bounds m2 in
  check_close 1e-12 "shifted" 11. hi

(* --------------------------------------------------------------- Policy *)

let test_policy_randomized_validation () =
  let m = admission_ctmdp ~lambda:1. ~mu:2. ~k:2 in
  (match Dense_policy.randomized m [| [| 0.5; 0.2 |]; [| 1.; 0. |]; [| 1. |] |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected normalization failure")

let test_policy_mm1k_evaluation () =
  (* The single-action M/M/1/K policy's gain must equal the closed-form
     loss rate, and the occupancy extra must equal the closed-form mean. *)
  let lambda = 2. and mu = 3. in
  let k = 4 in
  let m = mm1k_ctmdp ~lambda ~mu ~k in
  let p = Dense_policy.of_policy m { Policy.choice = Array.make (k + 1) 0; mix = None } in
  let e = Dense_policy.evaluate m p in
  check_close 1e-9 "gain = loss rate" (Birth_death.Mm1k.loss_rate ~lambda ~mu ~k)
    e.Dense_policy.gain;
  check_close 1e-9 "extra = mean customers"
    (Birth_death.Mm1k.mean_customers ~lambda ~mu ~k)
    e.Dense_policy.extras.(0)

let test_policy_of_occupation_roundtrip () =
  let m = admission_ctmdp ~lambda:1.5 ~mu:2. ~k:3 in
  let p =
    Dense_policy.randomized m
      (Array.init (Ctmdp.num_states m) (fun s ->
           let k = Ctmdp.num_actions m s in
           Array.make k (1. /. float_of_int k)))
  in
  let e = Dense_policy.evaluate m p in
  let p2 = Dense_policy.of_occupation m e.Dense_policy.occupation in
  for s = 0 to Ctmdp.num_states m - 1 do
    let a = Dense_policy.action_probs p s and b = Dense_policy.action_probs p2 s in
    Alcotest.(check bool) "recovered" true (Vec.approx_equal ~tol:1e-9 a b)
  done

(* One draw per decision, mapped as [Rng.discrete] maps it onto the
   dense row: the same actions from the same seed, in the mixed state
   whichever of its two actions is the lower one, and in the others. *)
let test_policy_sample_action () =
  List.iter
    (fun (choice, action) ->
      let p = { Policy.choice; mix = Some { Policy.state = 0; action; weight = 0.3 } } in
      let row = [| 0.7; 0.7 |] in
      row.(action) <- 0.3;
      let rng = Rng.create 11 and reference = Rng.create 11 and mixed = ref 0 in
      for i = 1 to 20_000 do
        let s = i mod 3 in
        let a = Policy.sample_action rng p s in
        let expected =
          if s = 0 then Rng.discrete reference row
          else begin
            ignore (Rng.float reference);
            choice.(s)
          end
        in
        Alcotest.(check int) "the draw Rng.discrete makes" expected a;
        if s = 0 && a = action then incr mixed
      done;
      check_close 0.02 "sampling matches mix" 0.3 (float_of_int !mixed /. 6_666.))
    [ ([| 1; 0; 0 |], 0); ([| 0; 1; 0 |], 1) ]

(* --------------------------------------------------------- LP vs theory *)

let test_lp_mm1k_gain () =
  (* With a single action everywhere the LP has a unique policy: its value
     must be the M/M/1/K loss rate. *)
  let lambda = 2. and mu = 3. in
  let k = 5 in
  let m = mm1k_ctmdp ~lambda ~mu ~k in
  match Lp_formulation.solve m with
  | Lp_formulation.Optimal s ->
      check_close 1e-7 "gain = closed form" (Birth_death.Mm1k.loss_rate ~lambda ~mu ~k)
        s.Lp_formulation.gain
  | _ -> Alcotest.fail "expected optimal"

let test_lp_occupation_is_distribution () =
  let m = admission_ctmdp ~lambda:2. ~mu:2. ~k:4 in
  match Lp_formulation.solve m with
  | Lp_formulation.Optimal s ->
      let total =
        Array.fold_left (fun acc row -> acc +. Array.fold_left ( +. ) 0. row) 0.
          s.Lp_formulation.occupation
      in
      check_close 1e-7 "sums to one" 1. total
  | _ -> Alcotest.fail "expected optimal"

let test_lp_unconstrained_admission () =
  (* Without constraints, admitting everywhere minimizes loss (served work
     reduces loss), so the optimal gain is the M/M/1/K loss rate. *)
  let lambda = 2. and mu = 3. in
  let k = 4 in
  let m = admission_ctmdp ~lambda ~mu ~k in
  match Lp_formulation.solve m with
  | Lp_formulation.Optimal s ->
      check_close 1e-7 "admit-all optimal" (Birth_death.Mm1k.loss_rate ~lambda ~mu ~k)
        s.Lp_formulation.gain
  | _ -> Alcotest.fail "expected optimal"

let test_lp_agrees_with_policy_iteration () =
  let m = two_client_ctmdp ~l1:1. ~l2:2. ~m1:3. ~m2:2.5 in
  let lp_gain =
    match Lp_formulation.solve m with
    | Lp_formulation.Optimal s -> s.Lp_formulation.gain
    | _ -> Alcotest.fail "LP failed"
  in
  let pi = Policy_iteration.solve m in
  Alcotest.(check bool) "PI converged" true pi.Policy_iteration.converged;
  check_close 1e-7 "same gain" pi.Policy_iteration.gain lp_gain

let test_lp_pi_agreement_property () =
  (* Property: random admission-control instances — LP and PI agree. *)
  let gen =
    QCheck.make
      QCheck.Gen.(
        let* lambda = float_range 0.5 4. in
        let* mu = float_range 0.5 4. in
        let* k = int_range 2 6 in
        return (lambda, mu, k))
  in
  let prop (lambda, mu, k) =
    let m = admission_ctmdp ~lambda ~mu ~k in
    match Lp_formulation.solve m with
    | Lp_formulation.Optimal s ->
        let pi = Policy_iteration.solve m in
        pi.Policy_iteration.converged
        && Float.abs (pi.Policy_iteration.gain -. s.Lp_formulation.gain) < 1e-6
    | _ -> false
  in
  QCheck.Test.check_exn (QCheck.Test.make ~count:60 ~name:"LP gain = PI gain" gen prop)

let test_lp_constrained_occupancy () =
  (* Bound the average occupancy below its unconstrained value: the gain can
     only get worse and the constraint must hold with near-equality when
     binding. *)
  let lambda = 3. and mu = 2. in
  let k = 5 in
  let m = admission_ctmdp ~lambda ~mu ~k in
  let unconstrained_extra, unconstrained_gain =
    match Lp_formulation.solve m with
    | Lp_formulation.Optimal s -> (s.Lp_formulation.extras.(0), s.Lp_formulation.gain)
    | _ -> Alcotest.fail "unconstrained failed"
  in
  let budget = unconstrained_extra /. 2. in
  match
    Lp_formulation.solve ~extra_bounds:[| { Lp_formulation.sense = Lp.Le; value = budget } |] m
  with
  | Lp_formulation.Optimal s ->
      Alcotest.(check bool) "budget respected" true (s.Lp_formulation.extras.(0) <= budget +. 1e-7);
      Alcotest.(check bool) "gain worsens" true (s.Lp_formulation.gain >= unconstrained_gain -. 1e-9)
  | _ -> Alcotest.fail "expected optimal"

let test_lp_infeasible_constraint () =
  (* Occupancy >= k+1 is impossible. *)
  let m = admission_ctmdp ~lambda:1. ~mu:1. ~k:3 in
  match
    Lp_formulation.solve ~extra_bounds:[| { Lp_formulation.sense = Lp.Ge; value = 10. } |] m
  with
  | Lp_formulation.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_lp_engines_agree () =
  (* The dense tableau and the reference sparse revised simplex must find
     the same optimal gain on CTMDP occupation LPs. *)
  let gen =
    QCheck.make
      QCheck.Gen.(
        let* lambda = float_range 0.5 4. in
        let* mu = float_range 0.5 4. in
        let* k = int_range 2 6 in
        let* frac = float_range 0.4 0.9 in
        return (lambda, mu, k, frac))
  in
  let prop (lambda, mu, k, frac) =
    let m = admission_ctmdp ~lambda ~mu ~k in
    match Lp_formulation.solve m with
    | Lp_formulation.Optimal d -> (
        let bounds =
          [| { Lp_formulation.sense = Lp.Le; value = d.Lp_formulation.extras.(0) *. frac } |]
        in
        match
          ( Lp_formulation.solve ~extra_bounds:bounds m,
            Simplex_revised.solve_lp (Lp_formulation.model ~extra_bounds:bounds m) )
        with
        | Lp_formulation.Optimal a, Lp.Optimal b ->
            Float.abs (a.Lp_formulation.gain -. b.Lp.objective) < 1e-6
        | Lp_formulation.Infeasible, Lp.Infeasible -> true
        | _, _ -> false)
    | _ -> false
  in
  QCheck.Test.check_exn (QCheck.Test.make ~count:60 ~name:"dense = revised on CTMDPs" gen prop)

let test_lp_joint_matches_separate () =
  (* Two independent copies without shared bounds: the joint solve must
     reproduce the separate gains. *)
  let m1 = mm1k_ctmdp ~lambda:2. ~mu:3. ~k:3 in
  let m2 = mm1k_ctmdp ~lambda:1. ~mu:4. ~k:4 in
  let g1 = Birth_death.Mm1k.loss_rate ~lambda:2. ~mu:3. ~k:3 in
  let g2 = Birth_death.Mm1k.loss_rate ~lambda:1. ~mu:4. ~k:4 in
  match Lp_formulation.solve_joint [| m1; m2 |] with
  | Lp_formulation.Joint_optimal j ->
      check_close 1e-7 "component 1" g1 j.Lp_formulation.components.(0).Lp_formulation.gain;
      check_close 1e-7 "component 2" g2 j.Lp_formulation.components.(1).Lp_formulation.gain;
      check_close 1e-7 "total" (g1 +. g2) j.Lp_formulation.total_gain
  | _ -> Alcotest.fail "expected joint optimal"

let test_lp_joint_shared_budget () =
  (* Two admission queues sharing a tight occupancy budget: the shared
     constraint must hold for the sum and the solution should allocate more
     to the queue where occupancy buys more loss reduction. *)
  let m1 = admission_ctmdp ~lambda:3. ~mu:2. ~k:4 in
  let m2 = admission_ctmdp ~lambda:1. ~mu:2. ~k:4 in
  match
    Lp_formulation.solve_joint
      ~shared_bounds:[| { Lp_formulation.sense = Lp.Le; value = 1.0 } |]
      [| m1; m2 |]
  with
  | Lp_formulation.Joint_optimal j ->
      Alcotest.(check bool) "shared budget" true (j.Lp_formulation.shared_extras.(0) <= 1.0 +. 1e-7);
      Alcotest.(check bool) "heavy queue gets more" true
        (j.Lp_formulation.components.(0).Lp_formulation.extras.(0)
        >= j.Lp_formulation.components.(1).Lp_formulation.extras.(0) -. 1e-7)
  | _ -> Alcotest.fail "expected joint optimal"

(* ----------------------------------------------------- Policy iteration *)

let test_pi_mm1k () =
  let lambda = 2. and mu = 3. in
  let k = 5 in
  let m = mm1k_ctmdp ~lambda ~mu ~k in
  let r = Policy_iteration.solve m in
  Alcotest.(check bool) "converged" true r.Policy_iteration.converged;
  check_close 1e-9 "gain" (Birth_death.Mm1k.loss_rate ~lambda ~mu ~k) r.Policy_iteration.gain

let test_pi_improves_over_initial () =
  let m = two_client_ctmdp ~l1:2. ~l2:0.5 ~m1:3. ~m2:3. in
  (* Evaluate the "always serve client 2 if possible" style initial policy. *)
  let initial = Array.make 4 0 in
  let g0, _ = Policy_iteration.evaluate_deterministic m initial in
  let r = Policy_iteration.solve ~warm:(Policy_iteration.evaluate_line m initial) m in
  Alcotest.(check bool) "no worse than initial" true (r.Policy_iteration.gain <= g0 +. 1e-9)

let test_pi_evaluation_satisfies_equations () =
  let m = admission_ctmdp ~lambda:2. ~mu:1.5 ~k:3 in
  let choice = [| 0; 0; 1; 0 |] in
  let g, h = Policy_iteration.evaluate_deterministic m choice in
  (* Check c - g + Q h = 0 row by row. *)
  for s = 0 to Ctmdp.num_states m - 1 do
    let i = m.Ctmdp.first_action.(s) + choice.(s) in
    let flow = ref 0. and exit = ref 0. in
    for t = m.Ctmdp.first_transition.(i) to m.Ctmdp.first_transition.(i + 1) - 1 do
      flow := !flow +. (m.Ctmdp.rate.(t) *. h.(m.Ctmdp.dst.(t)));
      exit := !exit +. m.Ctmdp.rate.(t)
    done;
    let residual = m.Ctmdp.cost.(i) -. g +. !flow -. (!exit *. h.(s)) in
    check_close 1e-9 "evaluation equation" 0. residual
  done;
  check_close 1e-12 "normalized" 0. h.(0)

(* A ring of [n] states, two actions each: the cycle edge keeps every
   policy's chain irreducible, the per-action chords make it mix fast. *)
let ring_ctmdp n =
  let act s k =
    let next = (s + 1) mod n and chord = ((s * (k + 3)) + 7) mod n in
    let chord = if chord = s || chord = next then [] else [ (chord, 0.5 +. float_of_int k) ] in
    ( Printf.sprintf "a%d" k,
      (next, 1. +. float_of_int k) :: chord,
      float_of_int (((s * 7) + (k * 3)) mod 11) /. 11.,
      [| float_of_int ((s + (k * 5)) mod 13) |] )
  in
  of_actions ~num_extras:1 (Array.init n (fun s -> [| act s 0; act s 1 |]))

(* A policy's line is its priced evaluation: g_c + p g_u and h_c + p h_u
   equal the dense evaluation of the model with cost c + p u.  On a dense
   block both agree within 1e-10 relative.  Above the dense threshold
   the line comes from the iterative path: its gain still agrees within
   1e-10, its bias to the Poisson sweep's own accuracy (residual target
   1e-10; 2.3e-10 relative measured here), so the bias bound is 1e-8. *)
let test_pi_line_is_priced_evaluation () =
  List.iter
    (fun (n, bias_tol) ->
      let m = ring_ctmdp n in
      let choice = Array.init n (fun s -> s mod 3 / 2) in
      let line = Policy_iteration.evaluate_line m choice in
      List.iter
        (fun price ->
          let priced =
            Ctmdp.map_costs m (fun i -> m.Ctmdp.cost.(i) +. (price *. Ctmdp.extra m i 0))
          in
          let g, h = Policy_iteration.evaluate_deterministic priced choice in
          let at_price c u = c +. (price *. u) in
          let name what = Printf.sprintf "n=%d price %g: %s" n price what in
          let g_line = at_price line.Policy_iteration.g_c line.Policy_iteration.g_u in
          if Float.abs (g_line -. g) > 1e-10 *. Float.abs g then
            Alcotest.failf "%s: %.17g vs %.17g" (name "gain") g_line g;
          let norm = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 1. h in
          Array.iteri
            (fun s hs ->
              let h_line = at_price line.Policy_iteration.h_c.(s) line.Policy_iteration.h_u.(s) in
              if Float.abs (h_line -. hs) > bias_tol *. norm then
                Alcotest.failf "%s: %.17g vs %.17g" (name (Printf.sprintf "bias %d" s)) h_line hs)
            h)
        [ 0.; 0.3; 5. ])
    [ (40, 1e-10); (600, 1e-8) ]

(* A warm start whose policy is already optimal at the new price costs an
   improvement sweep and no factorization. *)
let test_pi_warm_optimal_no_factorization () =
  let module Obs = Bufsize_obs.Obs in
  let factorizations = Obs.counter "policy_iteration.factorizations" in
  let m = ring_ctmdp 40 in
  let cold = Policy_iteration.solve ~weights:(1., 0.3) m in
  Obs.enable_metrics ();
  let f0 = Obs.counter_value factorizations in
  let warm =
    Fun.protect ~finally:Obs.disable (fun () ->
        Policy_iteration.solve ~weights:(1., 0.31) ~warm:cold.Policy_iteration.line m)
  in
  Alcotest.(check bool) "converged" true warm.Policy_iteration.converged;
  Alcotest.(check (array int)) "incumbent kept" cold.Policy_iteration.line.Policy_iteration.choice
    warm.Policy_iteration.line.Policy_iteration.choice;
  Alcotest.(check int) "no factorization" 0 (Obs.counter_value factorizations - f0);
  let line = cold.Policy_iteration.line in
  check_close 0. "gain at the new price"
    (line.Policy_iteration.g_c +. (0.31 *. line.Policy_iteration.g_u))
    warm.Policy_iteration.gain

(* ------------------------------------------------------ Value iteration *)

let test_vi_converges () =
  let m = admission_ctmdp ~lambda:2. ~mu:3. ~k:4 in
  let r = Value_iteration.solve ~alpha:0.5 m in
  Alcotest.(check bool) "converged" true r.Value_iteration.converged;
  Alcotest.(check bool) "values finite and nonnegative" true
    (Array.for_all (fun v -> Float.is_finite v && v >= -1e-9) r.Value_iteration.values)

let test_vi_discount_monotonicity () =
  (* Stronger discounting means smaller total discounted cost. *)
  let m = admission_ctmdp ~lambda:2. ~mu:3. ~k:4 in
  let v1 = Value_iteration.solve ~alpha:0.5 m in
  let v2 = Value_iteration.solve ~alpha:2.0 m in
  Alcotest.(check bool) "componentwise smaller" true
    (Array.for_all2 (fun a b -> b <= a +. 1e-9) v1.Value_iteration.values v2.Value_iteration.values)

let test_vi_rejects_bad_alpha () =
  let m = admission_ctmdp ~lambda:1. ~mu:1. ~k:2 in
  Alcotest.check_raises "alpha <= 0"
    (Invalid_argument "Value_iteration.solve: alpha must be positive") (fun () ->
      ignore (Value_iteration.solve ~alpha:0. m))

(* ---------------------------------------------------------- K-switching *)

let test_kswitching_unconstrained_deterministic () =
  (* Unconstrained LP basic optimum: no randomization (K = 0). *)
  let m = admission_ctmdp ~lambda:2. ~mu:3. ~k:4 in
  match Lp_formulation.solve m with
  | Lp_formulation.Optimal s ->
      Alcotest.(check int) "no switches" 0 (Kswitching.of_occupation s.Lp_formulation.occupation)
  | _ -> Alcotest.fail "LP failed"

let test_kswitching_constrained_bound () =
  (* One binding constraint: at most one randomized state (K = 1). *)
  let m = admission_ctmdp ~lambda:3. ~mu:2. ~k:5 in
  let unconstrained =
    match Lp_formulation.solve m with
    | Lp_formulation.Optimal s -> s.Lp_formulation.extras.(0)
    | _ -> Alcotest.fail "LP failed"
  in
  match
    Lp_formulation.solve
      ~extra_bounds:[| { Lp_formulation.sense = Lp.Le; value = unconstrained *. 0.6 } |]
      m
  with
  | Lp_formulation.Optimal s ->
      Alcotest.(check bool) "K-switching bound" true
        (Kswitching.analyze m s.Lp_formulation.policy <= 1)
  | _ -> Alcotest.fail "constrained LP failed"

let test_kswitching_property () =
  (* Property: random binding occupancy constraints keep randomization <= 1
     state on admission instances. *)
  let gen =
    QCheck.make
      QCheck.Gen.(
        let* lambda = float_range 1. 4. in
        let* mu = float_range 1. 4. in
        let* k = int_range 3 6 in
        let* frac = float_range 0.3 0.9 in
        return (lambda, mu, k, frac))
  in
  let prop (lambda, mu, k, frac) =
    let m = admission_ctmdp ~lambda ~mu ~k in
    match Lp_formulation.solve m with
    | Lp_formulation.Optimal s0 -> (
        let budget = s0.Lp_formulation.extras.(0) *. frac in
        match
          Lp_formulation.solve
            ~extra_bounds:[| { Lp_formulation.sense = Lp.Le; value = budget } |]
            m
        with
        | Lp_formulation.Optimal s ->
            Kswitching.analyze m s.Lp_formulation.policy <= 1
        | Lp_formulation.Infeasible -> true (* budget below the floor occupancy *)
        | Lp_formulation.Unbounded -> false)
    | _ -> false
  in
  QCheck.Test.check_exn (QCheck.Test.make ~count:50 ~name:"1-switching" gen prop)

let test_pi_not_worse_than_random_policies () =
  (* Optimality spot check: the PI gain is no worse than any of a sample of
     random deterministic policies. *)
  let gen =
    QCheck.make
      QCheck.Gen.(
        let* l1 = float_range 0.5 3. in
        let* l2 = float_range 0.5 3. in
        let* m1 = float_range 1. 4. in
        let* m2 = float_range 1. 4. in
        let* choices = array_size (return 4) (int_range 0 1) in
        return (l1, l2, m1, m2, choices))
  in
  let prop (l1, l2, m1, m2, choices) =
    let m = two_client_ctmdp ~l1 ~l2 ~m1 ~m2 in
    let clamped =
      Array.mapi (fun s a -> if a < Ctmdp.num_actions m s then a else 0) choices
    in
    let random_gain, _ = Policy_iteration.evaluate_deterministic m clamped in
    let opt = Policy_iteration.solve m in
    opt.Policy_iteration.converged && opt.Policy_iteration.gain <= random_gain +. 1e-9
  in
  QCheck.Test.check_exn (QCheck.Test.make ~count:100 ~name:"PI optimality" gen prop)

let test_lp_budget_monotonicity_property () =
  (* Tighter occupancy budgets can only worsen the optimal loss. *)
  let gen =
    QCheck.make
      QCheck.Gen.(
        let* lambda = float_range 1. 4. in
        let* mu = float_range 1. 4. in
        let* frac1 = float_range 0.3 0.6 in
        let* frac2 = float_range 0.6 0.95 in
        return (lambda, mu, frac1, frac2))
  in
  let prop (lambda, mu, frac1, frac2) =
    let m = admission_ctmdp ~lambda ~mu ~k:4 in
    match Lp_formulation.solve m with
    | Lp_formulation.Optimal s0 -> (
        let base = s0.Lp_formulation.extras.(0) in
        let solve_at frac =
          Lp_formulation.solve
            ~extra_bounds:[| { Lp_formulation.sense = Lp.Le; value = base *. frac } |]
            m
        in
        match (solve_at frac1, solve_at frac2) with
        | Lp_formulation.Optimal tight, Lp_formulation.Optimal loose ->
            tight.Lp_formulation.gain >= loose.Lp_formulation.gain -. 1e-7
        | Lp_formulation.Infeasible, _ -> true (* tight budget below floor *)
        | _, _ -> false)
    | _ -> false
  in
  QCheck.Test.check_exn (QCheck.Test.make ~count:60 ~name:"budget monotonicity" gen prop)

let test_vi_value_bounded_by_cost_over_alpha () =
  (* Discounted value of a cost-rate process is bounded by c_max / alpha. *)
  let m = admission_ctmdp ~lambda:3. ~mu:2. ~k:4 in
  let alpha = 0.7 in
  let r = Value_iteration.solve ~alpha m in
  let _, c_max = Ctmdp.cost_bounds m in
  Alcotest.(check bool) "bounded" true
    (Array.for_all (fun v -> v <= (c_max /. alpha) +. 1e-6) r.Value_iteration.values)

(* ---------------------------------------------------------- Constrained *)

(* The answer's policy, spelled out densely and re-evaluated through its
   own CTMC, has the reported gain and usage, and randomizes within the
   K-switching bound. *)
let test_constrained_wrapper () =
  let m = admission_ctmdp ~lambda:3. ~mu:2. ~k:5 in
  match Constrained.solve_price ~bound:1.2 [| m |] with
  | Some (Constrained.Optimal a), diag, _ ->
      Alcotest.(check bool) "diagnostic ok" true (Resilience.is_ok diag);
      let c = a.Constrained.components.(0) in
      (match Kswitching.check_answer m c with
      | Ok _ -> ()
      | Error why -> Alcotest.fail why);
      Alcotest.(check bool) "switching within bound" true
        (Kswitching.analyze m (Dense_policy.of_policy m c.Constrained.policy) <= 1)
  | _ -> Alcotest.fail "expected feasible"

(* The price-directed solver is a Lagrangian decomposition: one price on
   the occupancy, policy iteration per block.  At half the unconstrained
   occupancy the bound binds; the answer must match the LP's. *)
let test_constrained_lagrangian () =
  let m = admission_ctmdp ~lambda:3. ~mu:2. ~k:5 in
  let lp_free =
    match Lp_formulation.solve m with
    | Lp_formulation.Optimal s -> s
    | _ -> Alcotest.fail "LP failed"
  in
  let bound = lp_free.Lp_formulation.extras.(0) *. 0.5 in
  let lp =
    match
      Lp_formulation.solve_joint
        ~shared_bounds:[| { Lp_formulation.sense = Lp.Le; value = bound } |]
        [| m |]
    with
    | Lp_formulation.Joint_optimal j -> j
    | _ -> Alcotest.fail "constrained LP failed"
  in
  match Constrained.solve_price ~bound [| m |] with
  | Some (Constrained.Optimal a), diag, _ ->
      Alcotest.(check bool) "price path, no fallback" true (Resilience.is_ok diag);
      let price = a.Constrained.price in
      Alcotest.(check bool) "positive price" true (price > 0.);
      check_close 1e-8 "price = LP dual" (-.lp.Lp_formulation.shared_duals.(0)) price;
      check_close 1e-9 "gain = LP gain" lp.Lp_formulation.total_gain a.Constrained.total_gain;
      Alcotest.(check bool) "budget met" true
        (a.Constrained.total_usage <= bound +. (1e-9 *. (1. +. bound)));
      (match Kswitching.check_answer m a.Constrained.components.(0) with
      | Ok _ -> ()
      | Error why -> Alcotest.fail why)
  | _ -> Alcotest.fail "price solve failed"

let test_constrained_lagrangian_slack () =
  (* A generous budget: price 0 and the unconstrained optimum. *)
  let m = admission_ctmdp ~lambda:1. ~mu:3. ~k:4 in
  match Constrained.solve_price ~bound:100. [| m |] with
  | Some (Constrained.Optimal a), diag, _ ->
      Alcotest.(check bool) "price path, no fallback" true (Resilience.is_ok diag);
      check_close 1e-12 "zero price" 0. a.Constrained.price;
      let pi = Policy_iteration.solve m in
      check_close 1e-12 "unconstrained gain" pi.Policy_iteration.gain a.Constrained.total_gain
  | _ -> Alcotest.fail "expected result"

(* Two closed classes under the first-action policy ({0,1} and {2,3});
   "cross" joins them.  Occupancy is used only in the second class. *)
let two_class_ctmdp () =
  let act label transitions cost extra = (label, transitions, cost, [| extra |]) in
  of_actions ~num_extras:1
    [|
      [| act "stay" [ (1, 1.) ] 1. 0. |];
      [| act "stay" [ (0, 1.) ] 1. 0.; act "cross" [ (2, 1.) ] 1. 0. |];
      [| act "stay" [ (3, 1.) ] 0. 1. |];
      [| act "stay" [ (2, 1.) ] 0. 1.; act "cross" [ (0, 1.) ] 0. 1. |];
    |]

(* The sound unichain check: the empty state of an M/M/1/K or of
   admission control is reached under every policy; admission control's
   full state is not (rejecting everywhere makes it transient), though
   the model is unichain; and the two-class model, whose union graph is
   strongly connected, fails from every state because its all-[stay]
   policy has two closed classes. *)
let test_ctmdp_reached_under_every_policy () =
  let mm1k = mm1k_ctmdp ~lambda:1. ~mu:2. ~k:3 in
  Alcotest.(check bool) "M/M/1/K from empty" true (Ctmdp.reached_under_every_policy mm1k 0);
  Alcotest.(check bool) "M/M/1/K from full" true (Ctmdp.reached_under_every_policy mm1k 3);
  let admission = admission_ctmdp ~lambda:3. ~mu:2. ~k:5 in
  Alcotest.(check bool) "admission from empty" true
    (Ctmdp.reached_under_every_policy admission 0);
  Alcotest.(check bool) "admission from full" false
    (Ctmdp.reached_under_every_policy admission 5);
  let two_class = two_class_ctmdp () in
  for s0 = 0 to 3 do
    Alcotest.(check bool) (Printf.sprintf "two classes from %d" s0) false
      (Ctmdp.reached_under_every_policy two_class s0)
  done;
  Alcotest.check_raises "no such state"
    (Invalid_argument "Ctmdp.reached_under_every_policy: no such state") (fun () ->
      ignore (Ctmdp.reached_under_every_policy mm1k 4))

(* Where the price path cannot answer — a multichain block (a singular
   dense evaluation), or policy iteration capped by [max_iter] — the
   solve gives up: no answer, a [Failed] diagnostic whose reason says
   why, and no fallback step. *)
let test_price_gives_up_with_reason () =
  List.iter
    (fun (what, m, bound, max_iter, reason) ->
      match Constrained.solve_price ?max_iter ~bound [| m |] with
      | Some _, _, _ -> Alcotest.fail (what ^ ": an answer")
      | None, diag, _ ->
          let why =
            match diag.Resilience.status with
            | Resilience.Failed why -> why
            | _ -> Alcotest.fail (what ^ ": diagnostic not Failed")
          in
          let mentions sub =
            let n = String.length sub in
            let rec go i = i + n <= String.length why && (String.sub why i n = sub || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool) (what ^ ": reason " ^ reason) true (mentions reason);
          Alcotest.(check (list string)) (what ^ ": no fallback") [] diag.Resilience.fallbacks)
    [
      ("multichain", two_class_ctmdp (), 0.5, None, "multichain");
      ( "capped",
        admission_ctmdp ~lambda:3. ~mu:2. ~k:5,
        1.2,
        Some 1,
        "max_iter" );
    ]

let () =
  Alcotest.run "mdp"
    [
      ( "ctmdp",
        [
          Alcotest.test_case "validation" `Quick test_ctmdp_validation;
          Alcotest.test_case "accessors" `Quick test_ctmdp_accessors;
          Alcotest.test_case "map_costs" `Quick test_ctmdp_map_costs;
          Alcotest.test_case "reached under every policy" `Quick
            test_ctmdp_reached_under_every_policy;
        ] );
      ( "policy",
        [
          Alcotest.test_case "randomized validation" `Quick test_policy_randomized_validation;
          Alcotest.test_case "MM1K evaluation = closed form" `Quick test_policy_mm1k_evaluation;
          Alcotest.test_case "occupation roundtrip" `Quick test_policy_of_occupation_roundtrip;
          Alcotest.test_case "action sampling" `Quick test_policy_sample_action;
        ] );
      ( "lp-formulation",
        [
          Alcotest.test_case "MM1K gain" `Quick test_lp_mm1k_gain;
          Alcotest.test_case "occupation is a distribution" `Quick test_lp_occupation_is_distribution;
          Alcotest.test_case "unconstrained admission" `Quick test_lp_unconstrained_admission;
          Alcotest.test_case "LP = PI on two-client model" `Quick test_lp_agrees_with_policy_iteration;
          Alcotest.test_case "LP = PI (property)" `Quick test_lp_pi_agreement_property;
          Alcotest.test_case "constrained occupancy" `Quick test_lp_constrained_occupancy;
          Alcotest.test_case "infeasible constraint" `Quick test_lp_infeasible_constraint;
          Alcotest.test_case "joint = separate" `Quick test_lp_joint_matches_separate;
          Alcotest.test_case "joint shared budget" `Quick test_lp_joint_shared_budget;
          Alcotest.test_case "dense = revised engines (property)" `Quick test_lp_engines_agree;
        ] );
      ( "policy-iteration",
        [
          Alcotest.test_case "MM1K gain" `Quick test_pi_mm1k;
          Alcotest.test_case "improves over initial" `Quick test_pi_improves_over_initial;
          Alcotest.test_case "evaluation equations" `Quick test_pi_evaluation_satisfies_equations;
          Alcotest.test_case "line = priced evaluation" `Quick test_pi_line_is_priced_evaluation;
          Alcotest.test_case "warm optimal: no factorization" `Quick
            test_pi_warm_optimal_no_factorization;
        ] );
      ( "value-iteration",
        [
          Alcotest.test_case "converges" `Quick test_vi_converges;
          Alcotest.test_case "discount monotonicity" `Quick test_vi_discount_monotonicity;
          Alcotest.test_case "rejects bad alpha" `Quick test_vi_rejects_bad_alpha;
          Alcotest.test_case "value bound c/alpha" `Quick test_vi_value_bounded_by_cost_over_alpha;
        ] );
      ( "optimality-properties",
        [
          Alcotest.test_case "PI beats random policies (property)" `Quick
            test_pi_not_worse_than_random_policies;
          Alcotest.test_case "budget monotonicity (property)" `Quick
            test_lp_budget_monotonicity_property;
        ] );
      ( "k-switching",
        [
          Alcotest.test_case "unconstrained deterministic" `Quick
            test_kswitching_unconstrained_deterministic;
          Alcotest.test_case "constrained bound" `Quick test_kswitching_constrained_bound;
          Alcotest.test_case "1-switching (property)" `Quick test_kswitching_property;
        ] );
      ( "constrained",
        [
          Alcotest.test_case "wrapper diagnostics" `Quick test_constrained_wrapper;
          Alcotest.test_case "lagrangian decomposition" `Quick test_constrained_lagrangian;
          Alcotest.test_case "lagrangian slack budget" `Quick test_constrained_lagrangian_slack;
          Alcotest.test_case "price path gives up with a reason" `Quick
            test_price_gives_up_with_reason;
        ] );
    ]
