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

(* The two right-hand sides of global action [i]: its cost, and extra 0
   (nothing on a model without extras). *)
let cost m i = m.Ctmdp.cost.(i)
let usage = Ctmdp.usage

(* The dense evaluation's storage: the factorization of the (n+1)^2
   system, rebuilt in place by each evaluation (bitwise equal to a fresh
   one), and the solve vectors.  None above [dense_threshold], where
   evaluation is iterative and allocates no O(n^2) storage. *)
type dense = { lu : Lu.factorization; idx : int array; rhs : Vec.t; sol : Vec.t }
type workspace = dense option

(* Dense elimination up to this many states; beyond it policy evaluation
   goes through the sparse iterative path and never allocates O(n^2). *)
let dense_threshold = 512

let dense_workspace n =
  {
    lu = Lu.create (n + 1);
    idx = Array.make (n + 1) 0;
    rhs = Array.make (n + 1) 0.;
    sol = Array.make (n + 1) 0.;
  }

let workspace m =
  let n = Ctmdp.num_states m in
  if n > dense_threshold then None else Some (dense_workspace n)

(* Unknowns: h(0..n-1) and g.  Equations: for each state s,
   sum_j Q_sj h(j) - g = -r_s; plus h(0) = 0.  The system is written
   column-major straight into the factorization's zeroed storage, entry
   (i, j) at j (n+1) + i; its entries are 0 - exit, sums of positive
   rates, -1 and 1, never -0.  One factorization serves both right-hand
   sides r, the cost and the usage. *)
let evaluate_dense ws m choice =
  let n = Ctmdp.num_states m in
  let dim = n + 1 in
  let fill a =
    for s = 0 to n - 1 do
      let i = m.Ctmdp.first_action.(s) + choice.(s) in
      a.((s * dim) + s) <- 0. -. m.Ctmdp.exit.(i);
      for t = m.Ctmdp.first_transition.(i) to m.Ctmdp.first_transition.(i + 1) - 1 do
        let p = (m.Ctmdp.dst.(t) * dim) + s in
        a.(p) <- a.(p) +. m.Ctmdp.rate.(t)
      done;
      a.((n * dim) + s) <- -1.
    done;
    a.(n) <- 1.
  in
  (match Lu.refactorize_columns ws.lu fill with Ok () -> () | Error k -> raise (Lu.Singular k));
  Obs.incr m_factorizations;
  let solve rate =
    for s = 0 to n - 1 do
      ws.rhs.(s) <- -.rate m (m.Ctmdp.first_action.(s) + choice.(s))
    done;
    (* rhs.(n) = 0: bias normalized at state 0 *)
    Lu.solve_into ws.lu ~idx:ws.idx ws.rhs ws.sol;
    (ws.sol.(n), Array.sub ws.sol 0 n)
  in
  let g_c, h_c = solve cost in
  let g_u, h_u = solve usage in
  { choice; g_c; g_u; h_c; h_u }

let evaluate_deterministic m choice =
  let l = evaluate_dense (dense_workspace (Ctmdp.num_states m)) m choice in
  (l.g_c, l.h_c)

(* Large-n evaluation without the dense (n+1)^2 system: one stationary
   solve of the induced chain (itself iterative at this size), then for
   each rate r its gain, and its bias by the uniformized Poisson-equation
   sweep h <- h + (Q h + r - g)/Lambda pinned at h(0) = 0 — each sweep is
   one transposed-free SpMV. *)
let evaluate_iterative ?(tol = 1e-10) ?(max_iter = 200_000) m choice =
  let n = Ctmdp.num_states m in
  let chain = Policy.induced_ctmc m { Policy.choice; mix = None } in
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
    let r = Array.init n (fun s -> rate m (m.Ctmdp.first_action.(s) + choice.(s))) in
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

let evaluate_with ws m choice =
  match ws with
  | Some ws -> evaluate_dense ws m choice
  | None ->
      let poisson = evaluate_iterative m choice in
      let g_c, h_c = poisson cost in
      let g_u, h_u = poisson usage in
      { choice; g_c; g_u; h_c; h_u }

(* The caller's workspace, which must be one for [m]'s state count, or a
   fresh one. *)
let workspace_for fn ws m =
  match ws with
  | None -> workspace m
  | Some ws ->
      let n = Ctmdp.num_states m in
      let fits = match ws with Some d -> Lu.dim d.lu = n + 1 | None -> n > dense_threshold in
      if not fits then invalid_arg (fn ^ ": workspace made for another state count");
      ws

let evaluate_line ?workspace m choice =
  evaluate_with (workspace_for "Policy_iteration.evaluate_line" workspace m) m choice

(* One improvement sweep at the weights: in each state, the action
   minimizing w_c c + w_u u + sum_j q(j) h(j) with h = w_c h_c + w_u h_u.
   The incumbent stays unless an action is better by more than [tol] —
   the standard tie-breaking that guarantees termination.  Each action,
   the incumbent included, is valued once, with the exit rate summed by
   [Ctmdp.create].  [None] when no state changes. *)
let improve ~tol (w_c, w_u) m line =
  let h = Array.mapi (fun j hc -> (w_c *. hc) +. (w_u *. line.h_u.(j))) line.h_c in
  let next = Array.copy line.choice and changed = ref false in
  for s = 0 to Ctmdp.num_states m - 1 do
    let base = m.Ctmdp.first_action.(s) in
    let hs = h.(s) and incumbent = line.choice.(s) in
    let best = ref 0 and best_val = ref 0. and incumbent_val = ref 0. in
    for a = 0 to Ctmdp.num_actions m s - 1 do
      let i = base + a in
      let flow = ref 0. in
      for t = m.Ctmdp.first_transition.(i) to m.Ctmdp.first_transition.(i + 1) - 1 do
        flow := !flow +. (m.Ctmdp.rate.(t) *. h.(m.Ctmdp.dst.(t)))
      done;
      let v = (w_c *. cost m i) +. (w_u *. usage m i) +. !flow -. (m.Ctmdp.exit.(i) *. hs) in
      if a = 0 || v < !best_val then begin
        best := a;
        best_val := v
      end;
      if a = incumbent then incumbent_val := v
    done;
    if !best_val < !incumbent_val -. tol then begin
      next.(s) <- !best;
      changed := true
    end
  done;
  if !changed then Some next else None

let solve ?(max_iter = 1000) ?(tol = 1e-9) ?(weights = (1., 0.)) ?warm ?workspace m =
  let n = Ctmdp.num_states m in
  let ws = workspace_for "Policy_iteration.solve" workspace m in
  let evaluate choice =
    Obs.span ~name:"policy_iteration.evaluate" (fun () -> evaluate_with ws m choice)
  in
  let first =
    match warm with
    | Some l ->
        if Array.length l.choice <> n then
          invalid_arg "Policy_iteration.solve: warm line length mismatch";
        Array.iteri
          (fun s c ->
            if c < 0 || c >= Ctmdp.num_actions m s then
              invalid_arg "Policy_iteration.solve: warm line chooses an unknown action")
          l.choice;
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
