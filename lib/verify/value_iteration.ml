module Vec = Bufsize_numeric.Vec
module Ctmdp = Bufsize_mdp.Ctmdp
module Policy = Bufsize_mdp.Policy
module Obs = Bufsize_obs.Obs

let m_sweeps = Obs.counter "value_iteration.sweeps"

type result = {
  values : Vec.t;
  choice : int array;
  policy : Policy.t;
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
     mass (1 - exit/big_lambda) stays in s.  The kernel is precomputed
     into flat arrays once — the transition lists would otherwise be
     walked (boxed, pointer-chasing) on every sweep. *)
  let precomputed =
    Array.init n (fun s ->
        Array.init (Ctmdp.num_actions m s) (fun a ->
            let act = Ctmdp.action m s a in
            let exit = Ctmdp.exit_rate act in
            let nt = List.length act.Ctmdp.transitions in
            let targets = Array.make nt 0 in
            let weights = Array.make nt 0. in
            List.iteri
              (fun k (j, r) ->
                targets.(k) <- j;
                weights.(k) <- r /. big_lambda)
              act.Ctmdp.transitions;
            (act.Ctmdp.cost /. denom, 1. -. (exit /. big_lambda), targets, weights)))
  in
  let q_value v s a =
    let scaled_cost, stay_coef, targets, weights = precomputed.(s).(a) in
    let flow = ref 0. in
    for k = 0 to Array.length targets - 1 do
      flow := !flow +. (weights.(k) *. v.(targets.(k)))
    done;
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
        policy = Policy.deterministic m choice;
        iterations = iters;
        converged = sp <= tol;
        span = sp;
      }
    else loop next (iters + 1)
  in
  loop (Vec.zeros n) 0
