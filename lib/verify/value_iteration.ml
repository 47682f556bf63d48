module Vec = Bufsize_numeric.Vec
module Ctmdp = Bufsize_mdp.Ctmdp
module Obs = Bufsize_obs.Obs

let m_sweeps = Obs.counter "value_iteration.sweeps"

type result = {
  values : Vec.t;
  choice : int array;
  iterations : int;
  converged : bool;
  span : float;
}

let solve ?(max_iter = 100_000) ?(tol = 1e-9) ~alpha m =
  if alpha <= 0. then invalid_arg "Value_iteration.solve: alpha must be positive";
  let n = Ctmdp.num_states m in
  let big_lambda = Float.max 1e-9 (Ctmdp.max_exit_rate m) in
  let denom = alpha +. big_lambda in
  let beta = big_lambda /. denom in
  (* Uniformized Bellman operator.  For action a in state s:
     T_a(v) = c/denom + beta * sum_j P(j|s,a) v(j), where the uniformized
     kernel is P(j|s,a) = rate/big_lambda off-diagonal and the leftover
     mass (1 - exit/big_lambda) stays in s.  The scaled kernel is
     precomputed once over the model's flat transition arrays. *)
  let weights = Array.map (fun r -> r /. big_lambda) m.Ctmdp.rate in
  let scaled_cost = Array.map (fun c -> c /. denom) m.Ctmdp.cost in
  let stay_coef = Array.map (fun e -> 1. -. (e /. big_lambda)) m.Ctmdp.exit in
  let q_value v s a =
    let i = m.Ctmdp.first_action.(s) + a in
    let flow = ref 0. in
    for t = m.Ctmdp.first_transition.(i) to m.Ctmdp.first_transition.(i + 1) - 1 do
      flow := !flow +. (weights.(t) *. v.(m.Ctmdp.dst.(t)))
    done;
    let scaled_cost = scaled_cost.(i) and stay_coef = stay_coef.(i) in
    let stay = stay_coef *. v.(s) in
    scaled_cost +. (beta *. (!flow +. stay))
  in
  let bellman v =
    let next = Array.make n 0. in
    let choice = Array.make n 0 in
    for s = 0 to n - 1 do
      let k = Ctmdp.num_actions m s in
      let best = ref (q_value v s 0) and best_a = ref 0 in
      for a = 1 to k - 1 do
        let q = q_value v s a in
        if q < !best then begin
          best := q;
          best_a := a
        end
      done;
      next.(s) <- !best;
      choice.(s) <- !best_a
    done;
    (next, choice)
  in
  let span u v =
    let lo = ref infinity and hi = ref neg_infinity in
    for s = 0 to n - 1 do
      let d = u.(s) -. v.(s) in
      if d < !lo then lo := d;
      if d > !hi then hi := d
    done;
    !hi -. !lo
  in
  let rec loop v iters =
    Obs.incr m_sweeps;
    let next, choice = bellman v in
    let sp = span next v in
    if sp <= tol || iters >= max_iter then
      {
        values = next;
        choice;
        iterations = iters;
        converged = sp <= tol;
        span = sp;
      }
    else loop next (iters + 1)
  in
  loop (Vec.zeros n) 0
