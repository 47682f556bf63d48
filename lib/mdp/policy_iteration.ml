module Mat = Bufsize_numeric.Mat
module Vec = Bufsize_numeric.Vec
module Lu = Bufsize_numeric.Lu
module Sparse = Bufsize_numeric.Sparse
module Ctmc = Bufsize_prob.Ctmc
module Obs = Bufsize_obs.Obs

(* Evaluation telemetry: Poisson-equation sweeps of the iterative policy
   evaluation and improvement rounds of the outer policy iteration. *)
let m_poisson_sweeps = Obs.counter "policy_iteration.poisson_sweeps"
let m_improvements = Obs.counter "policy_iteration.improvements"

type result = {
  policy : Policy.t;
  choice : int array;
  gain : float;
  bias : Vec.t;
  iterations : int;
  converged : bool;
}

(* Unknowns: h(0..n-1) and g.  Equations: for each state s,
   sum_j Q_sj h(j) - g = -c_s; plus h(0) = 0. *)
let evaluate_deterministic m choice =
  let n = Ctmdp.num_states m in
  let a = Mat.zeros (n + 1) (n + 1) in
  let b = Array.make (n + 1) 0. in
  for s = 0 to n - 1 do
    let act = Ctmdp.action m s choice.(s) in
    let exit = Ctmdp.exit_rate act in
    Mat.update a s s (fun x -> x -. exit);
    List.iter (fun (j, r) -> Mat.update a s j (fun x -> x +. r)) act.Ctmdp.transitions;
    Mat.set a s n (-1.);
    b.(s) <- -.act.Ctmdp.cost
  done;
  Mat.set a n 0 1.;
  (* b.(n) = 0: bias normalized at state 0 *)
  let sol = Lu.solve a b in
  let bias = Array.sub sol 0 n in
  (sol.(n), bias)

(* Large-n evaluation without the dense (n+1)^2 system: gain from the
   induced chain's stationary distribution (itself iterative at this
   size), bias from the uniformized Poisson-equation sweep
   h <- h + (Q h + c - g)/Lambda pinned at h(0) = 0 — each sweep is one
   transposed-free SpMV. *)
let evaluate_deterministic_iterative_report ?(tol = 1e-10) ?(max_iter = 200_000) ?init_bias m
    choice =
  let n = Ctmdp.num_states m in
  let costs = Array.init n (fun s -> (Ctmdp.action m s choice.(s)).Ctmdp.cost) in
  let rates = ref [] in
  for s = n - 1 downto 0 do
    List.iter
      (fun (j, r) -> rates := (s, j, r) :: !rates)
      (Ctmdp.action m s choice.(s)).Ctmdp.transitions
  done;
  let chain = Ctmc.of_rates n !rates in
  let pi = Ctmc.stationary chain in
  let gain = ref 0. in
  for s = 0 to n - 1 do
    gain := !gain +. (pi.(s) *. costs.(s))
  done;
  let g = !gain in
  let q = Ctmc.sparse_generator chain in
  let lambda =
    let m = ref 0. in
    for s = 0 to n - 1 do
      m := Float.max !m (Ctmc.exit_rate chain s)
    done;
    Float.max (2. *. !m) 1e-300
  in
  let scale = 1. +. Float.abs g in
  (* A previous policy's bias (sweep warm start) is accepted as the
     starting point when finite and of the right size — re-pinned at
     h(0) = 0, since the sweep maintains that normalization.  The fixed
     point is unchanged, only the sweep count shrinks. *)
  let h =
    match init_bias with
    | Some h0
      when Array.length h0 = n && Array.for_all Float.is_finite h0 ->
        Array.init n (fun i -> h0.(i) -. h0.(0))
    | _ -> Array.make n 0.
  in
  let qh = Array.make n 0. in
  let continue = ref true in
  let iters = ref 0 in
  while !continue && !iters < max_iter do
    Sparse.mul_vec_into q h qh;
    let residual = ref 0. in
    for i = 0 to n - 1 do
      let r = qh.(i) +. costs.(i) -. g in
      residual := Float.max !residual (Float.abs r);
      h.(i) <- h.(i) +. (r /. lambda)
    done;
    let h0 = h.(0) in
    for i = 0 to n - 1 do
      h.(i) <- h.(i) -. h0
    done;
    incr iters;
    if !residual <= tol *. scale then continue := false
  done;
  Obs.add m_poisson_sweeps !iters;
  (g, h, !iters, not !continue)

let evaluate_deterministic_iterative ?tol ?max_iter ?init_bias m choice =
  let g, h, _, _ = evaluate_deterministic_iterative_report ?tol ?max_iter ?init_bias m choice in
  (g, h)

(* Dense elimination up to this many states; beyond it policy evaluation
   goes through the sparse iterative path and never allocates O(n^2). *)
let dense_threshold = 512

let evaluate m choice =
  if Ctmdp.num_states m > dense_threshold then evaluate_deterministic_iterative m choice
  else
    (* A multichain policy makes the dense evaluation system singular;
       rather than unwind, degrade to the iterative evaluation (whose
       stationary solve has its own reducible fallbacks). *)
    match evaluate_deterministic m choice with
    | r -> r
    | exception Lu.Singular _ -> evaluate_deterministic_iterative m choice

let improvement m bias =
  Array.init (Ctmdp.num_states m) (fun s ->
      let value a =
        let act = Ctmdp.action m s a in
        let exit = Ctmdp.exit_rate act in
        let flow =
          List.fold_left (fun acc (j, r) -> acc +. (r *. bias.(j))) 0. act.Ctmdp.transitions
        in
        act.Ctmdp.cost +. flow -. (exit *. bias.(s))
      in
      let k = Ctmdp.num_actions m s in
      let best = ref 0 and best_val = ref (value 0) in
      for a = 1 to k - 1 do
        let v = value a in
        if v < !best_val then begin
          best := a;
          best_val := v
        end
      done;
      (!best, !best_val))

let solve ?(max_iter = 1000) ?(tol = 1e-9) ?(strict = false) ?initial m =
  let n = Ctmdp.num_states m in
  let evaluate =
    if strict && n <= dense_threshold then evaluate_deterministic else evaluate
  in
  let choice =
    match initial with
    | Some c ->
        if Array.length c <> n then invalid_arg "Policy_iteration.solve: initial length mismatch";
        Array.copy c
    | None -> Array.make n 0
  in
  let rec loop choice iters =
    Obs.incr m_improvements;
    let gain, bias = Obs.span ~name:"policy_iteration.evaluate" (fun () -> evaluate m choice) in
    if iters >= max_iter then
      { policy = Policy.deterministic m choice; choice; gain; bias; iterations = iters; converged = false }
    else begin
      let improved = improvement m bias in
      (* Keep the incumbent action unless a strictly better one exists:
         the standard tie-breaking that guarantees termination. *)
      let next = Array.copy choice in
      let changed = ref false in
      Array.iteri
        (fun s (best, best_val) ->
          let incumbent =
            let act = Ctmdp.action m s choice.(s) in
            let exit = Ctmdp.exit_rate act in
            let flow =
              List.fold_left (fun acc (j, r) -> acc +. (r *. bias.(j))) 0. act.Ctmdp.transitions
            in
            act.Ctmdp.cost +. flow -. (exit *. bias.(s))
          in
          if best_val < incumbent -. tol then begin
            next.(s) <- best;
            changed := true
          end)
        improved;
      if !changed then loop next (iters + 1)
      else
        { policy = Policy.deterministic m choice; choice; gain; bias; iterations = iters; converged = true }
    end
  in
  loop choice 0
