module Obs = Bufsize_obs.Obs
module Mat = Bufsize_numeric.Mat
module Lu = Bufsize_numeric.Lu

(* Pivot-level telemetry: one guarded atomic add per pivot (a pivot is
   already O(width) work), per tableau refactorization and per retry run
   (unperturbed or drift).  Disabled: one atomic load and branch. *)
let m_pivots = Obs.counter "simplex.pivots"
let m_refactorizations = Obs.counter "simplex.refactorizations"
let m_retries = Obs.counter "simplex.retries"

type standard = {
  nrows : int;
  ncols : int;
  a : float array;
  b : float array;
  c : float array;
}

type solution = {
  x : float array;
  objective : float;
  duals : float array;
  iterations : int;
}

type result = Optimal of solution | Infeasible | Unbounded

exception Pivot_cap of int

(* The tableau is stored row-major with width [width = ncols + nrows + 1]:
   columns 0..ncols-1 are the structural variables, ncols..ncols+nrows-1 the
   artificials, and the last column the right-hand side.  Row [nrows] is the
   reduced-cost row; its last entry holds minus the current objective. *)

type tableau = {
  m : int;  (* constraint rows *)
  n : int;  (* structural columns *)
  width : int;
  t : float array;  (* (m + 1) * width *)
  basis : int array;  (* length m *)
  nz : int array;  (* scratch: nonzero column indices of the pivot row *)
}

let tget tab i j = Array.unsafe_get tab.t ((i * tab.width) + j)
let tset tab i j x = Array.unsafe_set tab.t ((i * tab.width) + j) x

let check_dims std =
  if Array.length std.a <> std.nrows * std.ncols then
    invalid_arg "Simplex.solve: matrix size mismatch";
  if Array.length std.b <> std.nrows then invalid_arg "Simplex.solve: rhs size mismatch";
  if Array.length std.c <> std.ncols then invalid_arg "Simplex.solve: cost size mismatch"

let build_tableau std =
  let m = std.nrows and n = std.ncols in
  let width = n + m + 1 in
  let t = Array.make ((m + 1) * width) 0. in
  let tab =
    { m; n; width; t; basis = Array.init m (fun i -> n + i); nz = Array.make width 0 }
  in
  for i = 0 to m - 1 do
    let flip = if std.b.(i) < 0. then -1. else 1. in
    for j = 0 to n - 1 do
      tset tab i j (flip *. std.a.((i * n) + j))
    done;
    tset tab i (n + i) 1.;
    tset tab i (width - 1) (flip *. std.b.(i))
  done;
  tab

(* Pivot on (row, col): normalize the pivot row and eliminate the column from
   every other row including the cost row.  The elimination only visits the
   pivot row's nonzero columns (their indices are gathered into the [nz]
   scratch during normalization) and skips rows with a zero factor —
   subtracting [factor *. 0.] is an identity, and on the sparse early
   tableaus of the occupation-measure LPs most entries are exactly zero, so
   the skipped work dominates. *)
let pivot tab row col =
  Obs.incr m_pivots;
  let { width; t; nz; _ } = tab in
  let pbase = row * width in
  let pval = Array.unsafe_get t (pbase + col) in
  let inv = 1. /. pval in
  let nnz = ref 0 in
  for j = 0 to width - 1 do
    let v = Array.unsafe_get t (pbase + j) in
    if v <> 0. then begin
      Array.unsafe_set t (pbase + j) (v *. inv);
      Array.unsafe_set nz !nnz j;
      incr nnz
    end
  done;
  let nnz = !nnz in
  for i = 0 to tab.m do
    if i <> row then begin
      let base = i * width in
      let factor = Array.unsafe_get t (base + col) in
      if factor <> 0. then
        for k = 0 to nnz - 1 do
          let j = Array.unsafe_get nz k in
          Array.unsafe_set t (base + j)
            (Array.unsafe_get t (base + j) -. (factor *. Array.unsafe_get t (pbase + j)))
        done
    end
  done;
  tab.basis.(row) <- col

(* Entering column.  Bland mode scans for the first negative reduced cost
   from column 0 (the anti-cycling rule needs that fixed order); the
   normal mode is Dantzig's full scan for the most negative one.  Once
   [pivot] exploits row sparsity the full scan is cheap, and on these
   degenerate LPs partial pricing's weaker picks were measured to inflate
   the pivot count (DESIGN.md §3.1). *)
let entering tab ~eps ~bland ~allow =
  let cost_row = tab.m in
  let total = tab.n + tab.m in
  let best = ref (-1) in
  if bland then begin
    try
      for j = 0 to total - 1 do
        if allow j && tget tab cost_row j < -.eps then begin
          best := j;
          raise Exit
        end
      done
    with Exit -> ()
  end
  else begin
    let best_val = ref (-.eps) in
    for j = 0 to total - 1 do
      if allow j then begin
        let r = tget tab cost_row j in
        if r < !best_val then begin
          best := j;
          best_val := r
        end
      end
    done
  end;
  !best

(* Ratio test: row minimizing b_i / a_ij over a_ij > eps; ties broken on the
   smallest basic-variable index (part of Bland's anti-cycling guarantee).
   Tiny negative b_i are roundoff on degenerate vertices and treated as 0,
   which keeps noise from steering the pivot path. *)
(* Harris-flavoured two-pass ratio test.  Pass 1 finds the minimum ratio;
   pass 2 picks, among rows whose ratio sits within a tiny relative window
   of the minimum, the one with the LARGEST pivot element — the standard
   defence against pivoting on near-zero entries, whose reciprocals amplify
   roundoff catastrophically.  The right-hand side carries a deliberate
   perturbation (see [perturb]) much larger than the window, so the
   anti-degeneracy ordering survives. *)
let leaving_scan tab ~tol col =
  let min_ratio = ref infinity in
  for i = 0 to tab.m - 1 do
    let aij = tget tab i col in
    if aij > tol then begin
      let ratio = Float.max 0. (tget tab i (tab.width - 1)) /. aij in
      if ratio < !min_ratio then min_ratio := ratio
    end
  done;
  if !min_ratio = infinity then -1
  else begin
    let cutoff = !min_ratio +. (1e-7 *. !min_ratio) +. 1e-12 in
    let best = ref (-1) in
    let best_pivot = ref 0. in
    for i = 0 to tab.m - 1 do
      let aij = tget tab i col in
      if aij > tol then begin
        let ratio = Float.max 0. (tget tab i (tab.width - 1)) /. aij in
        if ratio <= cutoff && aij > !best_pivot then begin
          best := i;
          best_pivot := aij
        end
      end
    done;
    !best
  end

(* Prefer healthy pivot elements (> 1e-6); only fall back to the loose
   tolerance before declaring unboundedness. *)
let leaving tab ~eps col =
  let row = leaving_scan tab ~tol:1e-6 col in
  if row >= 0 then row else leaving_scan tab ~tol:eps col

type phase_outcome = Phase_optimal | Phase_unbounded | Phase_iterations

(* [max_iter] caps the pivots of a whole run (both phases): the cap is
   checked only when another pivot is due, so a phase that is optimal
   after exactly [max_iter] pivots still reports optimal. *)
let run_phase tab ~eps ~max_iter ~bland_after ~refactor_every ~refactor ~allow iterations =
  let rec loop iters since_refactor =
    let since_refactor =
      if since_refactor >= refactor_every then begin
        refactor ();
        0
      end
      else since_refactor
    in
    let bland = iters >= bland_after in
    let col = entering tab ~eps ~bland ~allow in
    if col < 0 then (Phase_optimal, iters)
    else if iters >= max_iter then (Phase_iterations, iters)
    else begin
      let row = leaving tab ~eps col in
      if row < 0 then (Phase_unbounded, iters)
      else begin
        pivot tab row col;
        loop (iters + 1) (since_refactor + 1)
      end
    end
  in
  loop iterations 0

(* Install a cost vector (length n over structural columns; artificials cost
   [art_cost]) into the reduced-cost row, pricing out the current basis. *)
let install_costs tab ~art_cost c =
  let cost_row = tab.m in
  for j = 0 to tab.width - 1 do
    tset tab cost_row j 0.
  done;
  for j = 0 to tab.n - 1 do
    tset tab cost_row j c.(j)
  done;
  for j = tab.n to tab.n + tab.m - 1 do
    tset tab cost_row j art_cost
  done;
  for i = 0 to tab.m - 1 do
    let cb = if tab.basis.(i) < tab.n then c.(tab.basis.(i)) else art_cost in
    if cb <> 0. then begin
      let base = i * tab.width in
      let cbase = cost_row * tab.width in
      for j = 0 to tab.width - 1 do
        Array.unsafe_set tab.t (cbase + j)
          (Array.unsafe_get tab.t (cbase + j) -. (cb *. Array.unsafe_get tab.t (base + j)))
      done
    end
  done

(* After phase 1, pivot basic artificials out on any structural column with a
   nonzero entry; rows where that is impossible are redundant and harmless
   (their artificial stays basic at value zero and can never re-enter). *)
let drive_out_artificials tab ~eps =
  ignore eps;
  for i = 0 to tab.m - 1 do
    if tab.basis.(i) >= tab.n then begin
      let j = ref 0 in
      let found = ref (-1) in
      while !found < 0 && !j < tab.n do
        if Float.abs (tget tab i !j) > 1e-7 then found := !j;
        incr j
      done;
      if !found >= 0 then pivot tab i !found
    end
  done

(* Extract the solution directly from the tableau (subject to accumulated
   floating-point drift after long pivot runs). *)
let tableau_solution std tab iterations =
  let x = Array.make tab.n 0. in
  for i = 0 to tab.m - 1 do
    if tab.basis.(i) < tab.n then x.(tab.basis.(i)) <- Float.max 0. (tget tab i (tab.width - 1))
  done;
  let objective = ref 0. in
  for j = 0 to tab.n - 1 do
    objective := !objective +. (std.c.(j) *. x.(j))
  done;
  (* Duals: y_i = -reduced cost of artificial column i (cost 0 in phase 2),
     adjusted for rows flipped at tableau construction. *)
  let duals =
    Array.init tab.m (fun i ->
        let y = -.tget tab tab.m (tab.n + i) in
        if std.b.(i) < 0. then -.y else y)
  in
  { x; objective = !objective; duals; iterations }

(* Row signs of the tableau: rows with a negative right-hand side were
   flipped by [build_tableau]. *)
let flips std = Array.map (fun bi -> if bi < 0. then -1. else 1.) std.b

(* The basis matrix B of the current basis in the flipped row space,
   written straight into its storage, and its LU; None if B is singular. *)
let factored_basis std tab flip =
  let m = tab.m in
  let bmat = Mat.zeros m m in
  let d = bmat.Mat.data in
  for j = 0 to m - 1 do
    let col = tab.basis.(j) in
    if col < tab.n then
      for i = 0 to m - 1 do
        d.((i * m) + j) <- flip.(i) *. std.a.((i * std.ncols) + col)
      done
    else d.(((col - tab.n) * m) + j) <- 1.
  done;
  match Lu.factorize bmat with f -> Some (bmat, f) | exception Lu.Singular _ -> None

(* Recompute the basic solution and duals exactly from the original data
   given the final basis: solve B x_B = b and B' y = c_B by LU.  This wipes
   out tableau drift.  [factors] is B and its LU when the caller already
   holds them for this very basis and data.  Returns None when the
   recomputed point is infeasible (the pivot path went numerically astray)
   so the caller can fall back. *)
let refined_solution ?factors std tab iterations =
  let m = tab.m in
  let flip = flips std in
  let factors = if Option.is_none factors then factored_basis std tab flip else factors in
  match factors with
  | None -> None
  | Some (bmat, f) ->
      let b_flipped = Array.mapi (fun i bi -> flip.(i) *. bi) std.b in
      let xb = Lu.solve_factorized f b_flipped in
      (* The pivot path ran on a perturbed right-hand side (amplitude up to
         ~1e-7, see [perturb]), so the final basis may be infeasible for the
         true data by that same order; accept it and clamp, reject only
         genuine infeasibility. *)
      let feasible = ref true in
      Array.iteri
        (fun j v ->
          if v < -1e-5 then feasible := false;
          (* A basic artificial must sit at (perturbation-) zero. *)
          if tab.basis.(j) >= tab.n && Float.abs v > 1e-5 then feasible := false)
        xb;
      if not !feasible then None
      else begin
        let x = Array.make tab.n 0. in
        Array.iteri (fun j v -> if tab.basis.(j) < tab.n then x.(tab.basis.(j)) <- Float.max 0. v) xb;
        let objective = ref 0. in
        for j = 0 to tab.n - 1 do
          objective := !objective +. (std.c.(j) *. x.(j))
        done;
        let cb = Array.init m (fun j -> if tab.basis.(j) < tab.n then std.c.(tab.basis.(j)) else 0.) in
        let bt = Mat.transpose bmat in
        (* A singular transposed basis means the dual solve cannot be
           trusted; historically this claimed Optimal with NaN duals.  Now
           the refinement is rejected instead, so the caller falls back to
           the tableau solution (finite duals, drift-retry path) and the
           claimed-feasible result never carries NaN/Inf. *)
        match Lu.try_solve bt cb with
        | Stdlib.Error _ -> None
        | Stdlib.Ok y ->
            let duals = Array.init m (fun i -> flip.(i) *. y.(i)) in
            Some { x; objective = !objective; duals; iterations }
      end

(* Rebuild the whole tableau from the original data given the current basis
   (solve B z = col for every column by LU), then re-install the phase's
   cost row.  This is the textbook defence against floating-point drift in
   long pivot runs; without it the heavily degenerate CTMDP occupation LPs
   corrupt their right-hand sides after a few thousand pivots.  Every
   column goes through the sparse-aware [Lu.solve_into] with one set of
   scratch buffers; entries below 1e-12, both signs of zero among them,
   are stored as 0, so the tableau is bitwise the dense solve's.  Returns
   B and its LU, or None when B is singular (the tableau is then left as
   it was). *)
let refactorize std tab ~art_cost ~costs =
  Obs.incr m_refactorizations;
  Obs.span ~name:"simplex.refactorize" @@ fun () ->
  let m = tab.m in
  let flip = flips std in
  match factored_basis std tab flip with
  | None -> None
  | Some (_, f) as factors ->
      let col = Array.make m 0. and z = Array.make m 0. and idx = Array.make m 0 in
      for j = 0 to tab.width - 1 do
        if j < tab.n then
          for i = 0 to m - 1 do
            col.(i) <- flip.(i) *. std.a.((i * std.ncols) + j)
          done
        else if j < tab.n + m then begin
          Array.fill col 0 m 0.;
          col.(j - tab.n) <- 1.
        end
        else
          for i = 0 to m - 1 do
            col.(i) <- flip.(i) *. std.b.(i)
          done;
        Lu.solve_into f ~idx col z;
        for i = 0 to m - 1 do
          let v = Array.unsafe_get z i in
          tset tab i j (if Float.abs v < 1e-12 then 0. else v)
        done
      done;
      install_costs tab ~art_cost costs;
      factors

(* Dual-simplex cleanup: after the pivot path ran on perturbed data, the
   final basis can be slightly primal-infeasible for the true right-hand
   side while remaining dual-feasible (reduced costs >= 0).  Standard dual
   pivots restore primal feasibility in a handful of steps: leave on the
   most negative basic value, enter on the dual ratio test.  Returns the
   number of pivots made. *)
let dual_cleanup tab ~allow ~max_pivots =
  let rec loop k =
    if k >= max_pivots then k
    else begin
      let r = ref (-1) in
      let worst = ref (-1e-9) in
      for i = 0 to tab.m - 1 do
        let b = tget tab i (tab.width - 1) in
        if b < !worst then begin
          worst := b;
          r := i
        end
      done;
      if !r >= 0 then begin
        let best = ref (-1) in
        let best_ratio = ref infinity in
        for j = 0 to tab.n + tab.m - 1 do
          if allow j then begin
            let arj = tget tab !r j in
            if arj < -1e-7 then begin
              let rc = Float.max 0. (tget tab tab.m j) in
              let ratio = rc /. -.arj in
              if ratio < !best_ratio then begin
                best_ratio := ratio;
                best := j
              end
            end
          end
        done;
        if !best < 0 then k
        else begin
          pivot tab !r !best;
          loop (k + 1)
        end
      end
      else k
    end
  in
  loop 0

(* Occupation-measure LPs are extremely degenerate (the right-hand side is
   almost entirely zero), which stalls Dantzig pivoting for tens of
   thousands of ties.  The classic cure: perturb the right-hand side by a
   tiny strictly increasing amount, making every basic feasible solution
   nondegenerate, then restore the true right-hand side (refactorization +
   dual-simplex cleanup) and read the exact answer off the final basis
   ([refined_solution] solves B x_B = b by LU). *)
let perturb std =
  let scale =
    1e-4 *. Float.max 1. (Array.fold_left (fun a b -> Float.max a (Float.abs b)) 0. std.b)
  in
  let m = float_of_int (Int.max 1 std.nrows) in
  let b =
    Array.mapi
      (fun i bi ->
        let delta = scale *. float_of_int (i + 1) /. m in
        if bi < 0. then bi -. delta else bi +. delta)
      std.b
  in
  { std with b }

(* Geometric right-hand-side perturbation — the numerical stand-in for the
   lexicographic anti-cycling rule.  The deltas decay geometrically (with a
   floor against underflow), so ties between rows are broken in a strict
   priority order no matter how the linear [perturb] profile interacted
   with the data; used as the last step of the LP escalation chain. *)
let perturb_lex std =
  let scale =
    1e-4 *. Float.max 1. (Array.fold_left (fun a b -> Float.max a (Float.abs b)) 0. std.b)
  in
  let b =
    Array.mapi
      (fun i bi ->
        let delta = scale *. Float.max (0.618 ** float_of_int (i + 1)) 1e-9 in
        if bi < 0. then bi -. delta else bi +. delta)
      std.b
  in
  { std with b }

(* No NaN/Inf anywhere in a claimed-feasible solution: the invariant the
   resilience layer asserts on every public LP result. *)
let solution_finite (s : solution) =
  Float.is_finite s.objective
  && Array.for_all Float.is_finite s.x
  && Array.for_all Float.is_finite s.duals

let solve ?(eps = 1e-9) ?(max_iter = 200_000) ?(bland_after = 20_000) ?(lex = false) std =
  check_dims std;
  (* Pivot on the perturbed problem; refine and report against the true
     one.  [refined_solution] and the result records must see [std]. *)
  let run ~work ~bland_after ~refactor_every =
    let tab = build_tableau work in
    install_costs tab ~art_cost:1. (Array.make tab.n 0.);
    let allow_all j = j < tab.n + tab.m in
    let zero_costs = Array.make tab.n 0. in
    let refactor1 () = ignore (refactorize work tab ~art_cost:1. ~costs:zero_costs) in
    let outcome1, iters1 =
      Obs.span ~name:"simplex.phase1"
        ~attrs:(fun () -> [ ("rows", string_of_int tab.m); ("cols", string_of_int tab.n) ])
        (fun () ->
          run_phase tab ~eps ~max_iter ~bland_after ~refactor_every ~refactor:refactor1
            ~allow:allow_all 0)
    in
    refactor1 ();
    let phase1_obj = -.tget tab tab.m (tab.width - 1) in
    match outcome1 with
    | Phase_iterations -> raise (Pivot_cap max_iter)
    | Phase_unbounded -> `Infeasible
    | Phase_optimal when phase1_obj > 1e-6 -> `Infeasible
    | Phase_optimal -> (
        drive_out_artificials tab ~eps;
        install_costs tab ~art_cost:0. work.c;
        let structural j = j < tab.n in
        let refactor2 () = ignore (refactorize work tab ~art_cost:0. ~costs:work.c) in
        let outcome2, iters2 =
          Obs.span ~name:"simplex.phase2"
            ~attrs:(fun () -> [ ("rows", string_of_int tab.m); ("cols", string_of_int tab.n) ])
            (fun () ->
              run_phase tab ~eps ~max_iter ~bland_after ~refactor_every ~refactor:refactor2
                ~allow:structural iters1)
        in
        match outcome2 with
        | Phase_unbounded -> `Unbounded
        | Phase_iterations -> raise (Pivot_cap max_iter)
        | Phase_optimal -> (
            (* Swap the true data back in (removing the perturbation) and
               restore primal feasibility with a few dual pivots.  Without
               a dual pivot the basis, hence B, is the one just factorized,
               and the exact finish reuses its LU. *)
            Obs.span ~name:"simplex.finish" @@ fun () ->
            let factors = refactorize std tab ~art_cost:0. ~costs:std.c in
            let factors =
              if dual_cleanup tab ~allow:structural ~max_pivots:(tab.m + 16) = 0 then factors
              else None
            in
            match refined_solution ?factors std tab iters2 with
            | Some sol -> `Optimal sol
            | None -> `Drifted (tableau_solution std tab iters2)))
  in
  let timed label f =
    Obs.span ~name:"simplex.dense"
      ~attrs:(fun () ->
        [ ("run", label); ("rows", string_of_int std.nrows); ("cols", string_of_int std.ncols) ])
      f
  in
  let drift_retry ~work fallback =
    (* The pivot path drifted numerically despite refactorization; retry
       with much tighter refactorization (still Dantzig — Bland is far
       too slow on these LPs and no more accurate). *)
    Obs.incr m_retries;
    match timed "drift retry" (fun () -> run ~work ~bland_after ~refactor_every:100) with
    | `Optimal sol -> Optimal sol
    | `Infeasible -> Infeasible
    | `Unbounded -> Unbounded
    | `Drifted _ -> Optimal fallback
  in
  let unperturbed_retry () =
    (* The perturbation turns redundant-but-consistent rows (rank-deficient
       systems like balanced transportation problems) into inconsistent
       ones; a perturbed "infeasible" verdict must be confirmed on the true
       data before being believed.  The degenerate true data drift more
       easily, so a drifted retry gets its own drift retry. *)
    Obs.incr m_retries;
    match timed "unperturbed retry" (fun () -> run ~work:std ~bland_after ~refactor_every:200)
    with
    | `Optimal sol -> Optimal sol
    | `Unbounded -> Unbounded
    | `Infeasible -> Infeasible
    | `Drifted fallback -> drift_retry ~work:std fallback
  in
  let work = if lex then perturb_lex std else perturb std in
  match timed "first run" (fun () -> run ~work ~bland_after ~refactor_every:400) with
  | `Infeasible -> unperturbed_retry ()
  | `Unbounded -> Unbounded
  | `Optimal sol -> Optimal sol
  | `Drifted fallback -> drift_retry ~work fallback

let feasibility_error std x =
  let err = ref 0. in
  for i = 0 to std.nrows - 1 do
    let acc = ref 0. in
    for j = 0 to std.ncols - 1 do
      acc := !acc +. (std.a.((i * std.ncols) + j) *. x.(j))
    done;
    err := Float.max !err (Float.abs (!acc -. std.b.(i)))
  done;
  !err
