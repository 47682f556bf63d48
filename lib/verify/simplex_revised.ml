(* Sparse revised simplex.  See the interface for the design overview; the
   moving parts are:
   - [ftran] computes B^-1 v through the LU factorization of the basis at
     the last refactorization followed by the eta updates (oldest first);
   - [btran] computes B^-T v by applying the transposed eta inverses
     (newest first) and then the transposed LU solve;
   - each pivot appends one eta; every [refactor_every] pivots the basis is
     refactorized from scratch and the eta file cleared.

   The engine itself only ever sees sparse structural columns; the dense
   [Simplex.standard] entry point converts once up front, so both [solve]
   and [solve_sparse] share one pivot path (and produce bitwise-identical
   trajectories on the same problem). *)

module Obs = Bufsize_obs.Obs
module Lu = Bufsize_numeric.Lu
module Mat = Bufsize_numeric.Mat

(* Same pivot/refactorization/retry telemetry as the dense engine: pivots
   and refactorizations under their own metric names so the two engines
   stay distinguishable, reruns (unperturbed or short eta file) on the
   shared [simplex.retries] counter. *)
let m_pivots = Obs.counter "simplex_revised.pivots"
let m_refactorizations = Obs.counter "simplex_revised.refactorizations"
let m_retries = Obs.counter "simplex.retries"

type sparse_standard = {
  snrows : int;
  sncols : int;
  scols : (int * float) array array;
  sb : float array;
  sc : float array;
}

type eta = { er : int; ew : float array }

type engine = {
  m : int;
  n : int;
  cols : (int * float) array array;  (* flipped sparse structural columns *)
  flip : float array;  (* row sign flips making the rhs nonnegative *)
  b_true : float array;  (* flipped true rhs *)
  b_work : float array;  (* flipped perturbed rhs *)
  c : float array;
  basis : int array;
  in_basis : bool array;  (* length n + m *)
  mutable lu : Lu.factorization option;  (* None = identity (artificial basis) *)
  mutable etas : eta list;  (* newest first *)
  mutable neta : int;
  mutable xb : float array;
}

let perturb_b b =
  let scale =
    1e-4 *. Float.max 1. (Array.fold_left (fun a x -> Float.max a (Float.abs x)) 0. b)
  in
  let m = float_of_int (Int.max 1 (Array.length b)) in
  Array.mapi (fun i bi -> bi +. (scale *. float_of_int (i + 1) /. m)) b

let create ~perturbed sp =
  let m = sp.snrows and n = sp.sncols in
  let flip = Array.init m (fun i -> if sp.sb.(i) < 0. then -1. else 1.) in
  let cols =
    Array.map (fun col -> Array.map (fun (i, v) -> (i, flip.(i) *. v)) col) sp.scols
  in
  let b_true = Array.init m (fun i -> flip.(i) *. sp.sb.(i)) in
  let b_work = if perturbed then perturb_b b_true else Array.copy b_true in
  {
    m;
    n;
    cols;
    flip;
    b_true;
    b_work;
    c = sp.sc;
    basis = Array.init m (fun i -> n + i);
    in_basis = Array.init (n + m) (fun j -> j >= n);
    lu = None;
    etas = [];
    neta = 0;
    xb = Array.copy b_work;
  }

(* Apply E^-1 in place: u_r <- u_r / w_r; u_i <- u_i - w_i * u_r'. *)
let apply_eta_inv { er; ew } u =
  let t = u.(er) /. ew.(er) in
  for i = 0 to Array.length u - 1 do
    if i <> er then u.(i) <- u.(i) -. (ew.(i) *. t)
  done;
  u.(er) <- t

(* Apply E^-T in place: only u_r changes. *)
let apply_eta_inv_t { er; ew } u =
  let acc = ref u.(er) in
  for i = 0 to Array.length u - 1 do
    if i <> er then acc := !acc -. (ew.(i) *. u.(i))
  done;
  u.(er) <- !acc /. ew.(er)

let ftran eng v =
  let x = match eng.lu with None -> Array.copy v | Some f -> Lu.solve_factorized f v in
  (* Oldest eta first. *)
  List.iter (fun e -> apply_eta_inv e x) (List.rev eng.etas);
  x

let btran eng v =
  let u = Array.copy v in
  List.iter (fun e -> apply_eta_inv_t e u) eng.etas;
  match eng.lu with None -> u | Some f -> Lu.solve_transposed f u

let dense_column eng j =
  let col = Array.make eng.m 0. in
  if j < eng.n then Array.iter (fun (i, v) -> col.(i) <- v) eng.cols.(j)
  else col.(j - eng.n) <- 1.;
  col

(* Rebuild the basis factorization; returns false on a (numerically)
   singular basis.  The factorization storage of the previous rebuild is
   reused in place (Lu.refactorize is bitwise-identical to a fresh
   Lu.factorize), so the hundreds of refactorizations in a long solve share
   one allocation.  After a [false] return the reused storage holds a
   partial elimination — every caller treats [false] as terminal for the
   current pivot path, and a later call rewrites the storage from scratch. *)
let refactorize eng =
  Obs.incr m_refactorizations;
  let bmat =
    Mat.init eng.m eng.m (fun i j ->
        let col = eng.basis.(j) in
        if col < eng.n then (
          let acc = ref 0. in
          Array.iter (fun (r, v) -> if r = i then acc := !acc +. v) eng.cols.(col);
          !acc)
        else if col - eng.n = i then 1.
        else 0.)
  in
  let factorized =
    match eng.lu with
    | Some f when Lu.dim f = eng.m -> (
        match Lu.refactorize f bmat with Ok () -> Some f | Error _ -> None)
    | _ -> ( match Lu.factorize bmat with f -> Some f | exception Lu.Singular _ -> None)
  in
  match factorized with
  | None -> false
  | Some f ->
      eng.lu <- Some f;
      eng.etas <- [];
      eng.neta <- 0;
      eng.xb <- ftran eng eng.b_work;
      true

(* Reduced costs under the given basic-cost assignment; Dantzig choice. *)
let entering eng ~eps ~allow ~cost_of =
  let cb = Array.init eng.m (fun i -> cost_of eng.basis.(i)) in
  let y = btran eng cb in
  let best = ref (-1) in
  let best_val = ref (-.eps) in
  for j = 0 to eng.n + eng.m - 1 do
    if allow j && not eng.in_basis.(j) then begin
      let dot =
        if j < eng.n then
          Array.fold_left (fun acc (i, v) -> acc +. (v *. y.(i))) 0. eng.cols.(j)
        else y.(j - eng.n)
      in
      let r = cost_of j -. dot in
      if r < !best_val then begin
        best := j;
        best_val := r
      end
    end
  done;
  !best

(* Harris-flavoured two-pass ratio test on w = B^-1 a_q. *)
let leaving eng ~tol w =
  let min_ratio = ref infinity in
  for i = 0 to eng.m - 1 do
    if w.(i) > tol then begin
      let ratio = Float.max 0. eng.xb.(i) /. w.(i) in
      if ratio < !min_ratio then min_ratio := ratio
    end
  done;
  if !min_ratio = infinity then -1
  else begin
    let cutoff = !min_ratio +. (1e-7 *. !min_ratio) +. 1e-12 in
    let best = ref (-1) in
    let best_pivot = ref 0. in
    for i = 0 to eng.m - 1 do
      if w.(i) > tol then begin
        let ratio = Float.max 0. eng.xb.(i) /. w.(i) in
        if ratio <= cutoff && w.(i) > !best_pivot then begin
          best := i;
          best_pivot := w.(i)
        end
      end
    done;
    !best
  end

type phase_outcome = Optimal_phase | Unbounded_phase | Iteration_limit | Singular_basis

let run_phase eng ~eps ~max_iter ~refactor_every ~allow ~cost_of iterations =
  let iters = ref iterations in
  let outcome = ref None in
  while !outcome = None do
    let q = entering eng ~eps ~allow ~cost_of in
    if q < 0 then outcome := Some Optimal_phase
    else if !iters >= max_iter then outcome := Some Iteration_limit
    else begin
      let w = ftran eng (dense_column eng q) in
      let r =
        let r = leaving eng ~tol:1e-6 w in
        if r >= 0 then r else leaving eng ~tol:eps w
      in
      if r < 0 then outcome := Some Unbounded_phase
      else begin
        let t = Float.max 0. eng.xb.(r) /. w.(r) in
        for i = 0 to eng.m - 1 do
          if i <> r then eng.xb.(i) <- eng.xb.(i) -. (t *. w.(i))
        done;
        eng.xb.(r) <- t;
        eng.in_basis.(eng.basis.(r)) <- false;
        eng.in_basis.(q) <- true;
        eng.basis.(r) <- q;
        eng.etas <- { er = r; ew = w } :: eng.etas;
        eng.neta <- eng.neta + 1;
        Obs.incr m_pivots;
        incr iters;
        if eng.neta >= refactor_every then
          if not (refactorize eng) then outcome := Some Singular_basis
      end
    end
  done;
  (Option.get !outcome, !iters)

(* Dual-simplex cleanup: after the pivot path ran on the perturbed
   right-hand side, restore the true one and drive the slightly negative
   basic values out with dual pivots (leave on the most negative basic,
   enter on the dual ratio test over the B^-1 row).  Reduced costs stay
   nonnegative, so the final basis is optimal for the true problem. *)
let dual_cleanup eng ~refactor_every ~allow ~cost_of =
  Array.blit eng.b_true 0 eng.b_work 0 eng.m;
  if refactorize eng then begin
    let max_pivots = eng.m + 16 in
    let continue = ref true in
    let pivots = ref 0 in
    while !continue && !pivots < max_pivots do
      let r = ref (-1) in
      let worst = ref (-1e-9) in
      for i = 0 to eng.m - 1 do
        if eng.xb.(i) < !worst then begin
          worst := eng.xb.(i);
          r := i
        end
      done;
      if !r < 0 then continue := false
      else begin
        (* Row r of B^-1 A via rho = B^-T e_r; reduced costs via y. *)
        let e_r = Array.make eng.m 0. in
        e_r.(!r) <- 1.;
        let rho = btran eng e_r in
        let cb = Array.init eng.m (fun i -> cost_of eng.basis.(i)) in
        let y = btran eng cb in
        let best = ref (-1) in
        let best_ratio = ref infinity in
        for j = 0 to eng.n + eng.m - 1 do
          if allow j && not eng.in_basis.(j) then begin
            let alpha, dot =
              if j < eng.n then
                Array.fold_left
                  (fun (a, d) (i, v) -> (a +. (v *. rho.(i)), d +. (v *. y.(i))))
                  (0., 0.) eng.cols.(j)
              else (rho.(j - eng.n), y.(j - eng.n))
            in
            if alpha < -1e-7 then begin
              let rc = Float.max 0. (cost_of j -. dot) in
              let ratio = rc /. -.alpha in
              if ratio < !best_ratio then begin
                best_ratio := ratio;
                best := j
              end
            end
          end
        done;
        if !best < 0 then continue := false
        else begin
          let q = !best in
          let w = ftran eng (dense_column eng q) in
          if Float.abs w.(!r) < 1e-9 then continue := false
          else begin
            let t = eng.xb.(!r) /. w.(!r) in
            for i = 0 to eng.m - 1 do
              if i <> !r then eng.xb.(i) <- eng.xb.(i) -. (t *. w.(i))
            done;
            eng.xb.(!r) <- t;
            eng.in_basis.(eng.basis.(!r)) <- false;
            eng.in_basis.(q) <- true;
            eng.basis.(!r) <- q;
            eng.etas <- { er = !r; ew = w } :: eng.etas;
            eng.neta <- eng.neta + 1;
            Obs.incr m_pivots;
            incr pivots;
            if eng.neta >= refactor_every then
              if not (refactorize eng) then continue := false
          end
        end
      end
    done
  end

(* Exact answer from the final basis against the TRUE data. *)
let refined eng iterations =
  let bmat =
    Mat.init eng.m eng.m (fun i j ->
        let col = eng.basis.(j) in
        if col < eng.n then (
          let acc = ref 0. in
          Array.iter (fun (r, v) -> if r = i then acc := !acc +. v) eng.cols.(col);
          !acc)
        else if col - eng.n = i then 1.
        else 0.)
  in
  match Lu.factorize bmat with
  | exception Lu.Singular _ -> None
  | f ->
      let xbstar = Lu.solve_factorized f eng.b_true in
      let ok = ref true in
      Array.iteri
        (fun j v ->
          if v < -1e-5 then ok := false;
          if eng.basis.(j) >= eng.n && Float.abs v > 1e-5 then ok := false)
        xbstar;
      if not !ok then None
      else begin
        let x = Array.make eng.n 0. in
        Array.iteri
          (fun j v -> if eng.basis.(j) < eng.n then x.(eng.basis.(j)) <- Float.max 0. v)
          xbstar;
        let objective = ref 0. in
        for j = 0 to eng.n - 1 do
          objective := !objective +. (eng.c.(j) *. x.(j))
        done;
        let cb = Array.init eng.m (fun i -> if eng.basis.(i) < eng.n then eng.c.(eng.basis.(i)) else 0.) in
        let y = Lu.solve_transposed f cb in
        let duals = Array.init eng.m (fun i -> eng.flip.(i) *. y.(i)) in
        Some { Simplex.x; objective = !objective; duals; iterations }
      end

let best_effort eng iterations =
  let x = Array.make eng.n 0. in
  Array.iteri (fun j v -> if eng.basis.(j) < eng.n then x.(eng.basis.(j)) <- Float.max 0. v) eng.xb;
  let objective = ref 0. in
  for j = 0 to eng.n - 1 do
    objective := !objective +. (eng.c.(j) *. x.(j))
  done;
  { Simplex.x; objective = !objective; duals = Array.make eng.m Float.nan; iterations }

let solve_once ~eps ~max_iter ~refactor_every ~perturbed sp =
  Obs.span ~name:"simplex.revised"
    ~attrs:(fun () ->
      [ ("rows", string_of_int sp.snrows); ("cols", string_of_int sp.sncols) ])
  @@ fun () ->
  let eng = create ~perturbed sp in
  let allow_all j = j < eng.n + eng.m in
  let phase1_cost j = if j < eng.n then 0. else 1. in
  let outcome1, iters1 =
    run_phase eng ~eps ~max_iter ~refactor_every ~allow:allow_all ~cost_of:phase1_cost 0
  in
  (* Recompute the phase-1 objective from a clean refactorization. *)
  if not (refactorize eng) then `Drifted (best_effort eng iters1)
  else begin
    let phase1_obj =
      let acc = ref 0. in
      Array.iteri (fun i bj -> if bj >= eng.n then acc := !acc +. Float.max 0. eng.xb.(i)) eng.basis;
      !acc
    in
    match outcome1 with
    | Iteration_limit -> raise (Simplex.Pivot_cap max_iter)
    | Singular_basis -> `Stalled
    | Unbounded_phase -> `Infeasible (* phase 1 is bounded below; cannot happen *)
    | Optimal_phase when phase1_obj > 1e-6 -> `Infeasible
    | Optimal_phase -> (
        let structural j = j < eng.n in
        let phase2_cost j = if j < eng.n then eng.c.(j) else 0. in
        let outcome2, iters2 =
          run_phase eng ~eps ~max_iter ~refactor_every ~allow:structural ~cost_of:phase2_cost
            iters1
        in
        match outcome2 with
        | Unbounded_phase -> `Unbounded
        | Singular_basis -> `Drifted (best_effort eng iters2)
        | Iteration_limit -> raise (Simplex.Pivot_cap max_iter)
        | Optimal_phase -> (
            (* Remove the perturbation exactly before reading the answer. *)
            if perturbed then dual_cleanup eng ~refactor_every ~allow:structural ~cost_of:phase2_cost;
            match refined eng iters2 with
            | Some sol -> `Optimal sol
            | None -> `Drifted (best_effort eng iters2)))
  end

let solve_sparse ?(eps = 1e-9) ?(max_iter = 200_000) ?(refactor_every = 64) sp =
  if Array.length sp.scols <> sp.sncols then
    invalid_arg "Simplex_revised.solve_sparse: column count mismatch";
  if Array.length sp.sb <> sp.snrows then
    invalid_arg "Simplex_revised.solve_sparse: rhs size mismatch";
  if Array.length sp.sc <> sp.sncols then
    invalid_arg "Simplex_revised.solve_sparse: cost size mismatch";
  Array.iter
    (fun col ->
      let prev = ref (-1) in
      Array.iter
        (fun (i, _) ->
          if i <= !prev || i < 0 || i >= sp.snrows then
            invalid_arg "Simplex_revised.solve_sparse: column rows not strictly increasing";
          prev := i)
        col)
    sp.scols;
  let unperturbed_retry () =
    Obs.incr m_retries;
    match solve_once ~eps ~max_iter ~refactor_every ~perturbed:false sp with
    | `Optimal sol -> Simplex.Optimal sol
    | `Unbounded -> Simplex.Unbounded
    | `Infeasible | `Stalled -> Simplex.Infeasible
    | `Drifted fallback -> Simplex.Optimal fallback
  in
  match solve_once ~eps ~max_iter ~refactor_every ~perturbed:true sp with
  | `Optimal sol -> Simplex.Optimal sol
  | `Unbounded -> Simplex.Unbounded
  | `Infeasible | `Stalled -> unperturbed_retry ()
  | `Drifted _ -> (
      (* Retry with a much shorter eta file before settling for less. *)
      Obs.incr m_retries;
      match
        solve_once ~eps ~max_iter ~refactor_every:(Int.max 8 (refactor_every / 8))
          ~perturbed:true sp
      with
      | `Optimal sol -> Simplex.Optimal sol
      | `Unbounded -> Simplex.Unbounded
      | `Infeasible | `Stalled -> unperturbed_retry ()
      | `Drifted fallback -> Simplex.Optimal fallback)

let sparse_of_standard std =
  let m = std.Simplex.nrows and n = std.Simplex.ncols in
  let scols =
    Array.init n (fun j ->
        let entries = ref [] in
        for i = m - 1 downto 0 do
          let v = std.Simplex.a.((i * n) + j) in
          if v <> 0. then entries := (i, v) :: !entries
        done;
        Array.of_list !entries)
  in
  { snrows = m; sncols = n; scols; sb = std.Simplex.b; sc = std.Simplex.c }

let solve ?eps ?max_iter ?refactor_every std =
  if Array.length std.Simplex.a <> std.Simplex.nrows * std.Simplex.ncols then
    invalid_arg "Simplex_revised.solve: matrix size mismatch";
  if Array.length std.Simplex.b <> std.Simplex.nrows then
    invalid_arg "Simplex_revised.solve: rhs size mismatch";
  if Array.length std.Simplex.c <> std.Simplex.ncols then
    invalid_arg "Simplex_revised.solve: cost size mismatch";
  solve_sparse ?eps ?max_iter ?refactor_every (sparse_of_standard std)

let solve_lp lp = Lp.outcome_of_standard lp (solve (Lp.to_standard lp))
