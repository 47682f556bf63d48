type var = int

type sense = Le | Eq | Ge

type direction = Minimize | Maximize

(* Growable-array backing store.  Variables and rows are append-only, so
   everything is held in capacity-doubling arrays: [add_var], [var_name]
   and [num_constraints] are O(1), and the constraint matrix is stored
   CSR-style ([row_start] into flat [term_coef]/[term_var] arrays) so the
   lowering never walks linked lists. *)

type t = {
  lp_name : string;
  dir : direction;
  (* variables *)
  mutable vars : int;
  mutable var_names : string array;
  mutable lower_bounds : float array;
  (* objective *)
  mutable objective : (float * var) list;
  (* rows, CSR-style *)
  mutable nrows : int;
  mutable row_start : int array;  (* length >= nrows + 1 *)
  mutable row_rhs : float array;
  mutable row_sense : sense array;
  mutable row_names : string array;
  mutable nterms : int;
  mutable term_coef : float array;
  mutable term_var : int array;
}

let grow_float a len = Array.append a (Array.make (Int.max 4 len) 0.)
let grow_int a len = Array.append a (Array.make (Int.max 4 len) 0)
let grow_str a len = Array.append a (Array.make (Int.max 4 len) "")
let grow_sense a len = Array.append a (Array.make (Int.max 4 len) Eq)

let create ?(name = "lp") dir =
  {
    lp_name = name;
    dir;
    vars = 0;
    var_names = Array.make 8 "";
    lower_bounds = Array.make 8 0.;
    objective = [];
    nrows = 0;
    row_start = Array.make 9 0;
    row_rhs = Array.make 8 0.;
    row_sense = Array.make 8 Eq;
    row_names = Array.make 8 "";
    nterms = 0;
    term_coef = Array.make 16 0.;
    term_var = Array.make 16 0;
  }

let name t = t.lp_name
let direction t = t.dir

let add_var ?name ?(lb = 0.) t =
  let v = t.vars in
  if v = Array.length t.var_names then begin
    t.var_names <- grow_str t.var_names v;
    t.lower_bounds <- grow_float t.lower_bounds v
  end;
  let vname = match name with Some n -> n | None -> Printf.sprintf "x%d" v in
  t.var_names.(v) <- vname;
  t.lower_bounds.(v) <- lb;
  t.vars <- v + 1;
  v

let add_vars ?(prefix = "x") t k =
  Array.init k (fun i -> add_var ~name:(Printf.sprintf "%s%d" prefix i) t)

let var_name t v = t.var_names.(v)
let num_vars t = t.vars
let num_constraints t = t.nrows
let num_terms t = t.nterms

let check_var t v fn =
  if v < 0 || v >= t.vars then invalid_arg (Printf.sprintf "Lp.%s: unknown variable %d" fn v)

let set_objective t terms =
  List.iter (fun (_, v) -> check_var t v "set_objective") terms;
  t.objective <- terms

let ensure_row_capacity t extra_terms =
  let r = t.nrows in
  if r + 1 = Array.length t.row_start then begin
    t.row_start <- grow_int t.row_start r;
    t.row_rhs <- grow_float t.row_rhs r;
    t.row_sense <- grow_sense t.row_sense r;
    t.row_names <- grow_str t.row_names r
  end;
  let need = t.nterms + extra_terms in
  if need > Array.length t.term_coef then begin
    let cap = Int.max need (2 * Array.length t.term_coef) in
    t.term_coef <- Array.append t.term_coef (Array.make (cap - Array.length t.term_coef) 0.);
    t.term_var <- Array.append t.term_var (Array.make (cap - Array.length t.term_var) 0)
  end

let finish_row ?name t sense rhs =
  let r = t.nrows in
  t.row_rhs.(r) <- rhs;
  t.row_sense.(r) <- sense;
  t.row_names.(r) <- (match name with Some n -> n | None -> Printf.sprintf "c%d" r);
  t.nrows <- r + 1;
  t.row_start.(r + 1) <- t.nterms

let add_constraint ?name t terms sense rhs =
  List.iter (fun (_, v) -> check_var t v "add_constraint") terms;
  ensure_row_capacity t (List.length terms);
  List.iter
    (fun (coef, v) ->
      t.term_coef.(t.nterms) <- coef;
      t.term_var.(t.nterms) <- v;
      t.nterms <- t.nterms + 1)
    terms;
  finish_row ?name t sense rhs

let add_constraint_a ?name t terms sense rhs =
  Array.iter (fun (_, v) -> check_var t v "add_constraint_a") terms;
  ensure_row_capacity t (Array.length terms);
  Array.iter
    (fun (coef, v) ->
      t.term_coef.(t.nterms) <- coef;
      t.term_var.(t.nterms) <- v;
      t.nterms <- t.nterms + 1)
    terms;
  finish_row ?name t sense rhs

let iter_row_terms t r f =
  for k = t.row_start.(r) to t.row_start.(r + 1) - 1 do
    f t.term_coef.(k) t.term_var.(k)
  done

type solution = {
  objective : float;
  values : float array;
  duals : float array;
  iterations : int;
}

type outcome = Optimal of solution | Infeasible | Unbounded

let value sol (v : var) = sol.values.(v)

(* Lowering.  Structural layout of standard-form columns:
   - for each user variable: one column (shifted by its finite lower bound),
     or two columns (positive/negative parts) when the variable is free;
   - then one slack (Le) or surplus (Ge) column per inequality row.
   The same layout drives the lowering and the solution mapping. *)

type col_map = Single of int * float (* column, shift *) | Split of int * int

type layout = {
  cols : col_map array;  (* per user variable *)
  slack_cols : (int * float) option array;  (* per row: column, sign *)
  lncols : int;
}

let layout t =
  let next_col = ref 0 in
  let fresh () =
    let c = !next_col in
    incr next_col;
    c
  in
  let cols =
    Array.init t.vars (fun v ->
        let lb = t.lower_bounds.(v) in
        if lb = Float.neg_infinity then
          let p = fresh () in
          let m = fresh () in
          Split (p, m)
        else Single (fresh (), lb))
  in
  let slack_cols =
    Array.init t.nrows (fun r ->
        match t.row_sense.(r) with
        | Le -> Some (fresh (), 1.)
        | Ge -> Some (fresh (), -1.)
        | Eq -> None)
  in
  { cols; slack_cols; lncols = !next_col }

let standard_cost t lay =
  let c = Array.make lay.lncols 0. in
  let obj_sign = match t.dir with Minimize -> 1. | Maximize -> -1. in
  List.iter
    (fun (coef, v) ->
      match lay.cols.(v) with
      | Single (col, _) -> c.(col) <- c.(col) +. (obj_sign *. coef)
      | Split (p, m) ->
          c.(p) <- c.(p) +. (obj_sign *. coef);
          c.(m) <- c.(m) -. (obj_sign *. coef))
    t.objective;
  c

let to_standard t =
  let lay = layout t in
  let ncols = lay.lncols in
  let nrows = t.nrows in
  let a = Array.make (nrows * ncols) 0. in
  let b = Array.make nrows 0. in
  let add_entry i col x = a.((i * ncols) + col) <- a.((i * ncols) + col) +. x in
  for i = 0 to nrows - 1 do
    let rhs = ref t.row_rhs.(i) in
    iter_row_terms t i (fun coef v ->
        match lay.cols.(v) with
        | Single (col, shift) ->
            add_entry i col coef;
            if shift <> 0. then rhs := !rhs -. (coef *. shift)
        | Split (p, m) ->
            add_entry i p coef;
            add_entry i m (-.coef));
    (match lay.slack_cols.(i) with
    | Some (col, sign) -> add_entry i col sign
    | None -> ());
    b.(i) <- !rhs
  done;
  { Simplex.nrows; ncols; a; b; c = standard_cost t lay }

(* Map a standard-form result of [to_standard t] back onto the user's
   variables. *)
let outcome_of_standard t = function
  | Simplex.Infeasible -> Infeasible
  | Simplex.Unbounded -> Unbounded
  | Simplex.Optimal sol ->
      let lay = layout t in
      let values =
        Array.init t.vars (fun v ->
            match lay.cols.(v) with
            | Split (p, m) -> sol.Simplex.x.(p) -. sol.Simplex.x.(m)
            | Single (col, lb) -> sol.Simplex.x.(col) +. lb)
      in
      let obj_sign = match t.dir with Minimize -> 1. | Maximize -> -1. in
      (* Objective constant from lower-bound shifts is reconstructed by
         re-evaluating the user objective on the mapped values. *)
      let objective =
        List.fold_left (fun acc (coef, v) -> acc +. (coef *. values.(v))) 0. t.objective
      in
      let duals = Array.map (fun y -> obj_sign *. y) sol.Simplex.duals in
      Optimal { objective; values; duals; iterations = sol.Simplex.iterations }

let solve ?eps ?max_iter ?bland_after ?lex t =
  outcome_of_standard t (Simplex.solve ?eps ?max_iter ?bland_after ?lex (to_standard t))

let pp_outcome ppf = function
  | Infeasible -> Format.fprintf ppf "infeasible"
  | Unbounded -> Format.fprintf ppf "unbounded"
  | Optimal s ->
      Format.fprintf ppf "optimal: %.6g (%d iterations)" s.objective s.iterations

(* ------------------------------------------------------- resilient solve *)

module Resilience = Bufsize_resilience.Resilience
module Obs = Bufsize_obs.Obs

(* Worst constraint violation of [values] in user (pre-lowering) space,
   reported as the diagnostic residual. *)
let feasibility_residual t values =
  let worst = ref 0. in
  for r = 0 to t.nrows - 1 do
    let lhs = ref 0. in
    iter_row_terms t r (fun coef v -> lhs := !lhs +. (coef *. values.(v)));
    let gap =
      match t.row_sense.(r) with
      | Eq -> Float.abs (!lhs -. t.row_rhs.(r))
      | Le -> Float.max 0. (!lhs -. t.row_rhs.(r))
      | Ge -> Float.max 0. (t.row_rhs.(r) -. !lhs)
    in
    worst := Float.max !worst gap
  done;
  !worst

(* Worst violation with each row's gap divided by the row's coefficient
   magnitude.  The absolute measure calls a row "satisfied" whenever its
   gap is below the solver tolerance — which a row scaled down towards
   that tolerance achieves at points violating the original constraint
   badly.  Dividing by the row scale restores the comparison, so badly
   scaled rows are detectable a posteriori. *)
let relative_feasibility_residual t values =
  let worst = ref 0. in
  for r = 0 to t.nrows - 1 do
    let lhs = ref 0. in
    let scale = ref 0. in
    iter_row_terms t r (fun coef v ->
        lhs := !lhs +. (coef *. values.(v));
        scale := Float.max !scale (Float.abs coef));
    let gap =
      match t.row_sense.(r) with
      | Eq -> Float.abs (!lhs -. t.row_rhs.(r))
      | Le -> Float.max 0. (!lhs -. t.row_rhs.(r))
      | Ge -> Float.max 0. (t.row_rhs.(r) -. !lhs)
    in
    if !scale > 0. then worst := Float.max !worst (gap /. !scale)
  done;
  !worst

let outcome_finite = function
  | Infeasible | Unbounded -> true
  | Optimal s ->
      Float.is_finite s.objective
      && Resilience.all_finite s.values
      && Resilience.all_finite s.duals

(* Escalation chain over pivot rules of the dense tableau: Dantzig's rule
   first (identical to [solve] on the clean path), then Bland's
   anti-cycling rule from the first pivot, then the geometric
   (lexicographic-style) right-hand-side perturbation.  A step is
   rejected when it raises, when it reaches the pivot cap (a capped run
   has no verdict), or when it claims optimality with NaN/Inf anywhere in
   the solution, so a usable result is always finite.  [budget] (default:
   the ambient request deadline, else unlimited) bounds the whole chain
   in wall-clock time; on exhaustion the best-known answer is returned as
   [Degraded] rather than spinning through further fallbacks.

   Returns [None] (with a [Failed] diagnostic) only when every step
   rejected. *)
let m_lp_solves = Obs.counter "lp.solves"

let solve_diag ?eps ?max_iter ?budget t =
  Obs.incr m_lp_solves;
  let attempt ?bland_after ?lex () _budget =
    match solve ?eps ?max_iter ?bland_after ?lex t with
    | exception Simplex.Pivot_cap cap ->
        Resilience.Reject (Printf.sprintf "pivot cap reached (max_iter %d)" cap)
    | o when not (outcome_finite o) ->
        Resilience.Reject "claimed-optimal solution contains NaN/Inf"
    | Optimal s as o ->
        let m =
          Resilience.meta ~iterations:s.iterations ~residual:(feasibility_residual t s.values) ()
        in
        let rel = relative_feasibility_residual t s.values in
        if rel > 1e-6 then
          Resilience.Partial
            ( o,
              m,
              Printf.sprintf
                "claimed optimum violates a constraint at relative level %.3e (badly scaled row?)"
                rel )
        else Resilience.Accept (o, m)
    | (Infeasible | Unbounded) as o -> Resilience.Accept (o, Resilience.meta ())
  in
  let steps =
    [
      Resilience.step "dense-tableau" (attempt ());
      Resilience.step "bland" (attempt ~bland_after:0 ());
      Resilience.step "lex-perturbation" (attempt ~lex:true ());
    ]
  in
  let budget = match budget with Some b -> b | None -> Resilience.current_budget () in
  Resilience.escalate ~solver:(Printf.sprintf "lp.solve(%s)" t.lp_name) ~budget steps
