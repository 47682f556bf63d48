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

let constraint_matrix t =
  let triplets = ref [] in
  for r = t.nrows - 1 downto 0 do
    for k = t.row_start.(r + 1) - 1 downto t.row_start.(r) do
      triplets := (r, t.term_var.(k), t.term_coef.(k)) :: !triplets
    done
  done;
  Sparse.of_triplets ~rows:t.nrows ~cols:t.vars !triplets

type solution = {
  objective : float;
  values : float array;
  duals : float array;
  iterations : int;
  basis : int array;
      (* optimal standard-form basis, for warm-starting related solves *)
}

type outcome = Optimal of solution | Infeasible | Unbounded

let value sol (v : var) = sol.values.(v)

(* Lowering.  Structural layout of standard-form columns:
   - for each user variable: one column (shifted by its finite lower bound),
     or two columns (positive/negative parts) when the variable is free;
   - then one slack (Le) or surplus (Ge) column per inequality row.
   The same layout drives the dense lowering, the sparse lowering and the
   solution mapping, so the two engines see the exact same problem. *)

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

(* Sparse lowering: the same accumulation order as [to_standard] (a dense
   scratch row reused across rows), so the standard-form coefficients are
   bitwise identical to the dense path's — only the storage differs. *)
let to_standard_sparse t =
  let lay = layout t in
  let ncols = lay.lncols in
  let nrows = t.nrows in
  let b = Array.make nrows 0. in
  let scratch = Array.make ncols 0. in
  let touched = Array.make ncols false in
  let col_count = Array.make ncols 0 in
  (* Pass 1: per-row sorted nonzero columns with accumulated values. *)
  let row_entries =
    Array.init nrows (fun i ->
        let used = ref [] in
        let touch col x =
          if not touched.(col) then begin
            touched.(col) <- true;
            used := col :: !used
          end;
          scratch.(col) <- scratch.(col) +. x
        in
        let rhs = ref t.row_rhs.(i) in
        iter_row_terms t i (fun coef v ->
            match lay.cols.(v) with
            | Single (col, shift) ->
                touch col coef;
                if shift <> 0. then rhs := !rhs -. (coef *. shift)
            | Split (p, m) ->
                touch p coef;
                touch m (-.coef));
        (match lay.slack_cols.(i) with
        | Some (col, sign) -> touch col sign
        | None -> ());
        b.(i) <- !rhs;
        let cols_used = List.sort compare !used in
        let entries =
          List.filter_map
            (fun col ->
              let v = scratch.(col) in
              if v = 0. then None else Some (col, v))
            cols_used
        in
        List.iter
          (fun col ->
            scratch.(col) <- 0.;
            touched.(col) <- false)
          !used;
        List.iter (fun (col, _) -> col_count.(col) <- col_count.(col) + 1) entries;
        entries)
  in
  (* Pass 2: transpose row entries into per-column arrays; scanning rows in
     order yields strictly increasing row indices within each column. *)
  let scols = Array.map (fun c -> Array.make c (0, 0.)) col_count in
  let fill = Array.make ncols 0 in
  Array.iteri
    (fun i entries ->
      List.iter
        (fun (col, v) ->
          scols.(col).(fill.(col)) <- (i, v);
          fill.(col) <- fill.(col) + 1)
        entries)
    row_entries;
  { Simplex_revised.snrows = nrows; sncols = ncols; scols; sb = b; sc = standard_cost t lay }

type engine = Dense | Revised

(* With no explicit engine the model picks for itself: the dense tableau
   for small instances (battle-tested, and what all published artifacts
   were produced with), the sparse revised engine once the tableau would
   be large enough to dominate memory and time. *)
let auto_engine_threshold = 400

let choose_engine t = function
  | Some e -> e
  | None -> if t.nrows > auto_engine_threshold then Revised else Dense

let solve ?eps ?max_iter ?engine ?bland_after ?lex ?warm_basis t =
  (* A warm basis is only meaningful to the revised engine; when the caller
     did not pin an engine, its presence selects Revised so the warm attempt
     actually engages (sizing LPs sit below the auto threshold). *)
  let chosen =
    match (engine, warm_basis) with
    | None, Some _ -> Revised
    | _ -> choose_engine t engine
  in
  let result =
    match chosen with
    | Dense -> Simplex.solve ?eps ?max_iter ?bland_after ?lex (to_standard t)
    | Revised ->
        Simplex_revised.solve_sparse ?eps ?max_iter ?warm_basis (to_standard_sparse t)
  in
  match result with
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
      Optimal
        {
          objective;
          values;
          duals;
          iterations = sol.Simplex.iterations;
          basis = sol.Simplex.basis;
        }

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

(* Escalation chain over the LP engines: the auto-chosen engine first
   (identical to [solve] on the clean path), then the other engine, then
   the dense tableau under Bland's anti-cycling rule from the first pivot,
   then the dense tableau under the geometric (lexicographic-style)
   right-hand-side perturbation.  A step is rejected when it raises or
   when it claims optimality with NaN/Inf anywhere in the solution, so a
   usable result is always finite.  [budget] (default: the
   BUFSIZE_SOLVE_BUDGET_MS environment budget) bounds the whole chain in
   wall-clock time; on exhaustion the best-known answer is returned as
   [Degraded] rather than spinning through further fallbacks.

   Returns [None] (with a [Failed] diagnostic) only when every step
   rejected. *)
let m_lp_solves = Obs.counter "lp.solves"
let g_lp_rows = Obs.gauge "lp.rows"
let g_lp_nnz = Obs.gauge "lp.nnz"

(* ------------------------------------------- canonical printing & caching *)

(* Lossless canonical key of the full model (direction, bounds, objective
   in insertion order, rows with CSR-order terms), in binary.  Every float
   is its raw IEEE bits, so a 1-ulp or signed-zero difference changes the
   key, and the name, the tag, the nonzero lower bounds, the objective and
   every row carry their lengths, so no two models' terms can run
   together.  Two
   models with equal keys lower to bitwise-identical standard forms and
   therefore solve to bitwise-identical answers, which is what makes
   exact-key result caching transparent to every artifact.  Variable/row
   names are excluded — they never reach the solver.  A one-shot process
   builds the key and never reuses it, so it must be cheap: raw bits, not
   a printf and parse round trip per term. *)
let canonical ?(tag = "") t =
  let names = String.length t.lp_name + String.length tag in
  let buf = Buffer.create (32 + names + (t.nrows * 13) + (t.nterms * 12)) in
  let int i = Buffer.add_int32_le buf (Int32.of_int i) in
  let float x = Buffer.add_int64_le buf (Int64.bits_of_float x) in
  let string s =
    int (String.length s);
    Buffer.add_string buf s
  in
  Buffer.add_string buf "lp2";
  Buffer.add_char buf (match t.dir with Minimize -> '-' | Maximize -> '+');
  string t.lp_name;
  string tag;
  int t.vars;
  int t.nrows;
  let terms l =
    int (List.length l);
    List.iter
      (fun (c, v) ->
        int v;
        float c)
      l
  in
  let bounded v = Int64.bits_of_float t.lower_bounds.(v) <> 0L in
  let bounds = List.filter bounded (List.init t.vars Fun.id) in
  terms (List.map (fun v -> (t.lower_bounds.(v), v)) bounds);
  terms t.objective;
  for r = 0 to t.nrows - 1 do
    Buffer.add_char buf (match t.row_sense.(r) with Le -> '<' | Eq -> '=' | Ge -> '>');
    float t.row_rhs.(r);
    int (t.row_start.(r + 1) - t.row_start.(r));
    for k = t.row_start.(r) to t.row_start.(r + 1) - 1 do
      int t.term_var.(k);
      float t.term_coef.(k)
    done
  done;
  Buffer.contents buf

(* Structure-only key (dimensions, senses, sparsity pattern, free-variable
   pattern) — everything that determines the standard-form column layout but
   not the numbers.  Two models with equal signatures accept each other's
   optimal bases as warm starts; whether a basis actually helps is then
   decided numerically by the engine. *)
let signature t =
  let buf = Buffer.create (128 + (t.nterms * 4)) in
  Printf.bprintf buf "lpsig1 %s %s vars %d rows %d terms %d\n"
    (match t.dir with Minimize -> "min" | Maximize -> "max")
    t.lp_name t.vars t.nrows t.nterms;
  for v = 0 to t.vars - 1 do
    if t.lower_bounds.(v) = Float.neg_infinity then Printf.bprintf buf "free %d\n" v
  done;
  Buffer.add_string buf "o";
  List.iter (fun (_, v) -> Printf.bprintf buf " %d" v) t.objective;
  Buffer.add_char buf '\n';
  for r = 0 to t.nrows - 1 do
    Buffer.add_string buf
      (match t.row_sense.(r) with Le -> "l" | Eq -> "e" | Ge -> "g");
    iter_row_terms t r (fun _ v -> Printf.bprintf buf " %d" v);
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

(* Exact-key result cache for [solve_diag], plus a structural registry of
   last good bases so escalation chains and sweep loops inherit a warm
   start without explicit threading.  The registry is consulted only when
   warm starting is switched on: its hand-offs can land on a different
   optimal vertex of a degenerate LP, so the default keeps published
   artifacts bitwise-reproducible; callers opt in per process
   ([BUFSIZE_WARM_START=1] or {!set_warm_start}).  Explicit [?warm_basis]
   arguments are always honored. *)
let result_cache : (outcome option * Resilience.diagnostic) Solve_cache.t =
  Solve_cache.create "lp"

let warm_registry : int array Solve_cache.t =
  (* [always]: the registry is gated by the warm-start flag below, not by
     the result-cache switch — disabling result caching to time a cold
     path must not silently turn warm starts off too. *)
  Solve_cache.create ~capacity:32 ~always:true "lp.warm-basis"

let warm_env_var = "BUFSIZE_WARM_START"

let warm_flag =
  ref
    (match Sys.getenv_opt warm_env_var with
    | Some ("1" | "on" | "true" | "yes") -> true
    | _ -> false)

let set_warm_start b = warm_flag := b
let warm_start_enabled () = !warm_flag

let cache_stats () =
  (Solve_cache.hits result_cache, Solve_cache.misses result_cache)

let solve_diag ?eps ?max_iter ?engine ?budget ?warm_basis t =
  Obs.incr m_lp_solves;
  Obs.set_gauge g_lp_rows (float_of_int t.nrows);
  Obs.set_gauge g_lp_nnz (float_of_int t.nterms);
  let cache_key =
    (* Budgeted calls are excluded from caching entirely: the caller asked
       for wall-clock semantics (an expired budget must surface as a
       budget failure, a tight one as Degraded), and a cached Ok from an
       unbudgeted solve would silently override that contract. *)
    if budget = None && Solve_cache.enabled () then
      Some
        (canonical
           ~tag:
             (Printf.sprintf "eps=%s;it=%s;eng=%s"
                (match eps with Some e -> Solve_cache.float_repr e | None -> "-")
                (match max_iter with Some i -> string_of_int i | None -> "-")
                (match engine with
                | Some Dense -> "dense"
                | Some Revised -> "revised"
                | None -> "auto"))
           t)
    else None
  in
  match Option.bind cache_key (Solve_cache.find result_cache) with
  | Some cached -> cached
  | None ->
  let warm =
    match warm_basis with
    | Some _ as w -> w
    | None ->
        if warm_start_enabled () then Solve_cache.find warm_registry (signature t)
        else None
  in
  let primary =
    match (engine, warm) with None, Some _ -> Revised | _ -> choose_engine t engine
  in
  let attempt ?bland_after ?lex engine _budget =
    let o = solve ?eps ?max_iter ~engine ?bland_after ?lex ?warm_basis:warm t in
    if not (outcome_finite o) then
      Resilience.Reject "claimed-optimal solution contains NaN/Inf"
    else
      match o with
      | Optimal s ->
          let m =
            Resilience.meta ~iterations:s.iterations ~residual:(feasibility_residual t s.values)
              ()
          in
          let rel = relative_feasibility_residual t s.values in
          if rel > 1e-6 then
            Resilience.Partial
              ( o,
                m,
                Printf.sprintf
                  "claimed optimum violates a constraint at relative level %.3e (badly scaled \
                   row?)"
                  rel )
          else Resilience.Accept (o, m)
      | Infeasible | Unbounded -> Resilience.Accept (o, Resilience.meta ())
  in
  let dense_steps =
    [
      Resilience.step "bland" (attempt ~bland_after:0 Dense);
      Resilience.step "lex-perturbation" (attempt ~lex:true Dense);
    ]
  in
  let steps =
    match primary with
    | Revised ->
        Resilience.step "revised-simplex" (attempt Revised)
        :: Resilience.step "dense-tableau" (attempt Dense)
        :: dense_steps
    | Dense ->
        Resilience.step "dense-tableau" (attempt Dense)
        :: Resilience.step "revised-simplex" (attempt Revised)
        :: dense_steps
  in
  let budget = match budget with Some b -> b | None -> Resilience.of_env () in
  let ((outcome_opt, diag) as result) =
    Resilience.escalate ~solver:(Printf.sprintf "lp.solve(%s)" t.lp_name) ~budget steps
  in
  (match outcome_opt with
  | Some (Optimal s) ->
      if warm_start_enabled () then Solve_cache.add warm_registry (signature t) s.basis;
      (* Only clean first-step answers are cached: Degraded/Failed outcomes
         can depend on the wall-clock budget and deserve a retry. *)
      (match (cache_key, diag.Resilience.status) with
      | Some key, Resilience.Ok -> Solve_cache.add result_cache key result
      | _ -> ())
  | Some (Infeasible | Unbounded) | None -> ());
  result
