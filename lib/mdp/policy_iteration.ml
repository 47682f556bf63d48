module Mat = Bufsize_numeric.Mat
module Vec = Bufsize_numeric.Vec
module Lu = Bufsize_numeric.Lu
module Sparse = Bufsize_numeric.Sparse
module Ctmc = Bufsize_prob.Ctmc
module Obs = Bufsize_obs.Obs

(* Evaluation telemetry: Poisson-equation sweeps of the iterative policy
   evaluation, LU factorizations of the dense one, and improvement sweeps
   of the outer policy iteration. *)
let m_poisson_sweeps = Obs.counter "policy_iteration.poisson_sweeps"
let m_factorizations = Obs.counter "policy_iteration.factorizations"
let m_improvements = Obs.counter "policy_iteration.improvements"

type line = { choice : int array; g_c : float; g_u : float; h_c : Vec.t; h_u : Vec.t }

type result = { line : line; gain : float; iterations : int; converged : bool }

(* The second right-hand side: extra 0, or nothing on a model without
   extras. *)
let usage act = if Array.length act.Ctmdp.extras = 0 then 0. else act.Ctmdp.extras.(0)
let cost act = act.Ctmdp.cost

(* The dense evaluation's storage, reused by every evaluation of one
   policy iteration: the (n+1)^2 system, its factorization (rebuilt in
   place, bitwise equal to a fresh one) and the solve vectors. *)
type workspace = { a : Mat.t; lu : Lu.factorization; idx : int array; rhs : Vec.t; sol : Vec.t }

let workspace n =
  let a = Mat.identity (n + 1) in
  {
    a;
    lu = Lu.factorize a;
    idx = Array.make (n + 1) 0;
    rhs = Array.make (n + 1) 0.;
    sol = Array.make (n + 1) 0.;
  }

(* Unknowns: h(0..n-1) and g.  Equations: for each state s,
   sum_j Q_sj h(j) - g = -r_s; plus h(0) = 0.  One factorization serves
   both right-hand sides r, the cost and the usage. *)
let evaluate_dense ws m choice =
  let n = Ctmdp.num_states m in
  let a = ws.a in
  Array.fill a.Mat.data 0 (Array.length a.Mat.data) 0.;
  for s = 0 to n - 1 do
    let act = Ctmdp.action m s choice.(s) in
    let exit = Ctmdp.exit_rate act in
    Mat.update a s s (fun x -> x -. exit);
    List.iter (fun (j, r) -> Mat.update a s j (fun x -> x +. r)) act.Ctmdp.transitions;
    Mat.set a s n (-1.)
  done;
  Mat.set a n 0 1.;
  (match Lu.refactorize ws.lu a with Ok () -> () | Error k -> raise (Lu.Singular k));
  Obs.incr m_factorizations;
  let solve rate =
    for s = 0 to n - 1 do
      ws.rhs.(s) <- -.rate (Ctmdp.action m s choice.(s))
    done;
    (* rhs.(n) = 0: bias normalized at state 0 *)
    Lu.solve_into ws.lu ~idx:ws.idx ws.rhs ws.sol;
    (ws.sol.(n), Array.sub ws.sol 0 n)
  in
  let g_c, h_c = solve cost in
  let g_u, h_u = solve usage in
  { choice; g_c; g_u; h_c; h_u }

let evaluate_deterministic m choice =
  let l = evaluate_dense (workspace (Ctmdp.num_states m)) m choice in
  (l.g_c, l.h_c)

(* Large-n evaluation without the dense (n+1)^2 system: one stationary
   solve of the induced chain (itself iterative at this size), then for
   each rate r its gain, and its bias by the uniformized Poisson-equation
   sweep h <- h + (Q h + r - g)/Lambda pinned at h(0) = 0 — each sweep is
   one transposed-free SpMV. *)
let evaluate_iterative ?(tol = 1e-10) ?(max_iter = 200_000) m choice =
  let n = Ctmdp.num_states m in
  let transitions = ref [] in
  for s = n - 1 downto 0 do
    List.iter
      (fun (j, r) -> transitions := (s, j, r) :: !transitions)
      (Ctmdp.action m s choice.(s)).Ctmdp.transitions
  done;
  let chain = Ctmc.of_rates n !transitions in
  let pi = Ctmc.stationary chain in
  let q = Ctmc.sparse_generator chain in
  let lambda =
    let m = ref 0. in
    for s = 0 to n - 1 do
      m := Float.max !m (Ctmc.exit_rate chain s)
    done;
    Float.max (2. *. !m) 1e-300
  in
  fun rate ->
    let r = Array.init n (fun s -> rate (Ctmdp.action m s choice.(s))) in
    let gain = ref 0. in
    for s = 0 to n - 1 do
      gain := !gain +. (pi.(s) *. r.(s))
    done;
    let g = !gain in
    let scale = 1. +. Float.abs g in
    let h = Array.make n 0. in
    let qh = Array.make n 0. in
    let continue = ref true in
    let iters = ref 0 in
    while !continue && !iters < max_iter do
      Sparse.mul_vec_into q h qh;
      let residual = ref 0. in
      for i = 0 to n - 1 do
        let d = qh.(i) +. r.(i) -. g in
        residual := Float.max !residual (Float.abs d);
        h.(i) <- h.(i) +. (d /. lambda)
      done;
      let h0 = h.(0) in
      for i = 0 to n - 1 do
        h.(i) <- h.(i) -. h0
      done;
      incr iters;
      if !residual <= tol *. scale then continue := false
    done;
    Obs.add m_poisson_sweeps !iters;
    (g, h)

(* Dense elimination up to this many states; beyond it policy evaluation
   goes through the sparse iterative path and never allocates O(n^2). *)
let dense_threshold = 512

let evaluate_with ws m choice =
  if Ctmdp.num_states m > dense_threshold then begin
    let poisson = evaluate_iterative m choice in
    let g_c, h_c = poisson cost in
    let g_u, h_u = poisson usage in
    { choice; g_c; g_u; h_c; h_u }
  end
  else evaluate_dense (Lazy.force ws) m choice

let evaluate_line m choice =
  evaluate_with (lazy (workspace (Ctmdp.num_states m))) m choice

(* One improvement sweep at the weights: in each state, the action
   minimizing w_c c + w_u u + sum_j q(j) h(j) with h = w_c h_c + w_u h_u.
   The incumbent stays unless an action is better by more than [tol] —
   the standard tie-breaking that guarantees termination.  [None] when no
   state changes. *)
let improve ~tol (w_c, w_u) m line =
  let h = Array.mapi (fun j hc -> (w_c *. hc) +. (w_u *. line.h_u.(j))) line.h_c in
  let value s a =
    let act = Ctmdp.action m s a in
    let flow = List.fold_left (fun acc (j, r) -> acc +. (r *. h.(j))) 0. act.Ctmdp.transitions in
    (w_c *. cost act) +. (w_u *. usage act) +. flow -. (Ctmdp.exit_rate act *. h.(s))
  in
  let next = Array.copy line.choice and changed = ref false in
  for s = 0 to Ctmdp.num_states m - 1 do
    let best = ref 0 and best_val = ref (value s 0) in
    for a = 1 to Ctmdp.num_actions m s - 1 do
      let v = value s a in
      if v < !best_val then begin
        best := a;
        best_val := v
      end
    done;
    if !best_val < value s line.choice.(s) -. tol then begin
      next.(s) <- !best;
      changed := true
    end
  done;
  if !changed then Some next else None

let solve ?(max_iter = 1000) ?(tol = 1e-9) ?(weights = (1., 0.)) ?warm m =
  let n = Ctmdp.num_states m in
  let ws = lazy (workspace n) in
  let evaluate choice =
    Obs.span ~name:"policy_iteration.evaluate" (fun () -> evaluate_with ws m choice)
  in
  let first =
    match warm with
    | Some l ->
        if Array.length l.choice <> n then
          invalid_arg "Policy_iteration.solve: warm line length mismatch";
        l
    | None -> evaluate (Array.make n 0)
  in
  let finish line iterations converged =
    let w_c, w_u = weights in
    { line; gain = (w_c *. line.g_c) +. (w_u *. line.g_u); iterations; converged }
  in
  let rec loop line iters =
    Obs.incr m_improvements;
    if iters >= max_iter then finish line iters false
    else
      match improve ~tol weights m line with
      | Some next -> loop (evaluate next) (iters + 1)
      | None -> finish line iters true
  in
  loop first 0
