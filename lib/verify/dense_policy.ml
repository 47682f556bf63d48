module Vec = Bufsize_numeric.Vec
module Ctmc = Bufsize_prob.Ctmc
module Ctmdp = Bufsize_mdp.Ctmdp
module Policy = Bufsize_mdp.Policy

type t = { probs : float array array }

let randomized m probs =
  if Array.length probs <> Ctmdp.num_states m then
    invalid_arg "Dense_policy.randomized: row count mismatch";
  let probs =
    Array.mapi
      (fun s row ->
        if Array.length row <> Ctmdp.num_actions m s then
          invalid_arg (Printf.sprintf "Dense_policy.randomized: row %d length mismatch" s);
        Array.iter
          (fun p -> if p < -1e-12 then invalid_arg "Dense_policy.randomized: negative probability")
          row;
        let total = Array.fold_left ( +. ) 0. row in
        if Float.abs (total -. 1.) > 1e-6 then
          invalid_arg (Printf.sprintf "Dense_policy.randomized: row %d sums to %g" s total);
        Array.map (fun p -> Float.max 0. p /. total) row)
      probs
  in
  { probs }

let of_policy m (p : Policy.t) =
  let probs =
    Array.mapi
      (fun s c ->
        let row = Array.make (Ctmdp.num_actions m s) 0. in
        row.(c) <- 1.;
        row)
      p.Policy.choice
  in
  Option.iter
    (fun { Policy.state; action; weight } ->
      probs.(state).(p.Policy.choice.(state)) <- 1. -. weight;
      probs.(state).(action) <- weight)
    p.Policy.mix;
  { probs }

let of_occupation m x =
  if Array.length x <> Ctmdp.num_states m then
    invalid_arg "Dense_policy.of_occupation: row count mismatch";
  let probs =
    Array.mapi
      (fun s row ->
        let k = Ctmdp.num_actions m s in
        if Array.length row <> k then
          invalid_arg (Printf.sprintf "Dense_policy.of_occupation: row %d length mismatch" s);
        let mass = Array.fold_left ( +. ) 0. row in
        if mass > 1e-12 then Array.map (fun v -> Float.max 0. v /. mass) row
        else Array.init k (fun i -> if i = 0 then 1. else 0.))
      x
  in
  { probs }

let action_probs p s = Array.copy p.probs.(s)

(* The chain of a policy: the transitions of each action with positive
   probability, scaled by it.  The list ends up in reverse (state,
   action, transition) order, the order in which [Policy.induced_ctmc]
   accumulates duplicate targets, so a deterministic policy's chain is
   bitwise the production one. *)
let induced_ctmc m p =
  let rates = ref [] in
  Array.iteri
    (fun s row ->
      Array.iteri
        (fun a pa ->
          let i = m.Ctmdp.first_action.(s) + a in
          if pa > 0. then
            for t = m.Ctmdp.first_transition.(i) to m.Ctmdp.first_transition.(i + 1) - 1 do
              rates := (s, m.Ctmdp.dst.(t), pa *. m.Ctmdp.rate.(t)) :: !rates
            done)
        row)
    p.probs;
  Ctmc.of_rates (Ctmdp.num_states m) !rates

type evaluation = {
  gain : float;
  extras : float array;
  occupation : float array array;
  state_distribution : Vec.t;
}

let evaluate m p =
  let pi = Ctmc.stationary (induced_ctmc m p) in
  let k = Ctmdp.num_extras m in
  let gain = ref 0. in
  let extras = Array.make k 0. in
  let occupation =
    Array.mapi
      (fun s row ->
        Array.mapi
          (fun a pa ->
            let x = pi.(s) *. pa in
            let i = m.Ctmdp.first_action.(s) + a in
            gain := !gain +. (x *. m.Ctmdp.cost.(i));
            for e = 0 to k - 1 do
              extras.(e) <- extras.(e) +. (x *. m.Ctmdp.extras.((i * k) + e))
            done;
            x)
          row)
      p.probs
  in
  { gain = !gain; extras; occupation; state_distribution = pi }
