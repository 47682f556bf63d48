module Mat = Bufsize_numeric.Mat
module Vec = Bufsize_numeric.Vec
module Lu = Bufsize_numeric.Lu
module Sparse = Bufsize_numeric.Sparse
module Krylov = Bufsize_numeric.Krylov
module Obs = Bufsize_obs.Obs

(* Stationary-solve telemetry: total operator applications, how many solves
   took the iterative path, and the balance residuals of accepted
   distributions. *)
let m_iterations = Obs.counter "ctmc.iterations"
let m_iterative_solves = Obs.counter "ctmc.iterative_solves"
let h_residual = Obs.histogram "ctmc.residual"

(* The generator is held sparse (CSR, diagonal included): buffer-occupancy
   CTMDPs have a handful of arrival/service neighbours per state, so the
   O(n^2) dense matrix was the memory wall for everything downstream.
   Dense matrices only appear in the small-n direct solves and in the
   explicitly dense accessor [generator]. *)

type t = {
  n : int;
  q : Sparse.t;  (* full generator, diagonal included *)
  exit : float array;  (* exit.(i) = -Q_ii *)
}

(* Largest n solved by direct dense elimination; beyond it the stationary
   distribution comes from restarted GMRES (sparse, O(nnz) per operator
   application) and no dense n x n matrix is ever allocated. *)
let dense_threshold = 512

let of_rate_matrix off =
  let n = off.Sparse.rows in
  if n <= 0 || off.Sparse.cols <> n then invalid_arg "Ctmc.of_rate_matrix: not square";
  (* Diagonal = minus the (column-ascending) off-diagonal row sum — the
     same accumulation order the dense representation used — inserted in
     its column's place. *)
  let exit = Array.make n 0. in
  let diagonals = ref 0 in
  for i = 0 to n - 1 do
    let out = ref 0. in
    Sparse.iter_row off i (fun j v ->
        if j = i then invalid_arg "Ctmc.of_rate_matrix: self loop";
        if v < 0. then invalid_arg "Ctmc.of_rate_matrix: negative rate";
        out := !out +. v);
    exit.(i) <- !out;
    if !out <> 0. then incr diagonals
  done;
  let nnz = Sparse.nnz off + !diagonals in
  let row_ptr = Array.make (n + 1) 0 in
  let col_idx = Array.make nnz 0 and values = Array.make nnz 0. in
  let k = ref 0 in
  let put j v =
    col_idx.(!k) <- j;
    values.(!k) <- v;
    incr k
  in
  for i = 0 to n - 1 do
    let placed = ref (exit.(i) = 0.) in
    Sparse.iter_row off i (fun j v ->
        if (not !placed) && j > i then begin
          put i (-.exit.(i));
          placed := true
        end;
        put j v);
    if not !placed then put i (-.exit.(i));
    row_ptr.(i + 1) <- !k
  done;
  { n; q = Sparse.of_row_entries ~rows:n ~cols:n ~row_ptr ~col_idx ~values; exit }

let of_rates n rates =
  if n <= 0 then invalid_arg "Ctmc.of_rates: need at least one state";
  List.iter
    (fun (i, j, r) ->
      if i < 0 || i >= n || j < 0 || j >= n then invalid_arg "Ctmc.of_rates: state out of range";
      if i = j then invalid_arg "Ctmc.of_rates: self loop";
      if r < 0. then invalid_arg "Ctmc.of_rates: negative rate")
    rates;
  of_rate_matrix (Sparse.of_triplets ~rows:n ~cols:n rates)

let of_generator m =
  if m.Mat.rows <> m.Mat.cols then invalid_arg "Ctmc.of_generator: not square";
  let n = m.Mat.rows in
  for i = 0 to n - 1 do
    let sum = ref 0. in
    for j = 0 to n - 1 do
      let x = Mat.get m i j in
      if i <> j && x < 0. then invalid_arg "Ctmc.of_generator: negative off-diagonal";
      sum := !sum +. x
    done;
    if Float.abs !sum > 1e-8 then invalid_arg "Ctmc.of_generator: row does not sum to zero"
  done;
  let q = Sparse.of_dense m in
  let exit = Array.init n (fun i -> -.Mat.get m i i) in
  { n; q; exit }

let of_sparse_generator q =
  if q.Sparse.rows <> q.Sparse.cols then invalid_arg "Ctmc.of_sparse_generator: not square";
  let n = q.Sparse.rows in
  let exit = Array.make n 0. in
  for i = 0 to n - 1 do
    let sum = ref 0. in
    Sparse.iter_row q i (fun j v ->
        if i <> j && v < 0. then
          invalid_arg "Ctmc.of_sparse_generator: negative off-diagonal";
        if i = j then exit.(i) <- -.v;
        sum := !sum +. v);
    if Float.abs !sum > 1e-8 then
      invalid_arg "Ctmc.of_sparse_generator: row does not sum to zero"
  done;
  { n; q; exit }

let dim t = t.n
let generator t = Sparse.to_dense t.q
let sparse_generator t = t.q
let rate t i j = Sparse.get t.q i j
let exit_rate t i = t.exit.(i)

let stationary_dense t =
  (* Solve pi Q = 0 with the last balance equation replaced by sum pi = 1:
     transpose to Q' pi' = 0 and overwrite the final row with ones. *)
  let n = t.n in
  if n = 1 then [| 1. |]
  else begin
    let a = Mat.transpose (Sparse.to_dense t.q) in
    for j = 0 to n - 1 do
      Mat.set a (n - 1) j 1.
    done;
    let b = Array.make n 0. in
    b.(n - 1) <- 1.;
    let pi = Lu.solve a b in
    (* Clamp the tiny negatives produced by roundoff and renormalize. *)
    let pi = Array.map (fun p -> Float.max 0. p) pi in
    let total = Vec.sum pi in
    Array.map (fun p -> p /. total) pi
  end

(* States that communicate with [k] in the original chain (forward- and
   backward-reachable through positive rates).  Used to name the closed
   class blocking a direct stationary solve. *)
let communicating_class t k =
  let n = t.n in
  let forward = Array.make n false in
  let rec dfs i =
    if not forward.(i) then begin
      forward.(i) <- true;
      Sparse.iter_row t.q i (fun j v -> if j <> i && v > 0. then dfs j)
    end
  in
  dfs k;
  let rev = Array.make n [] in
  Sparse.iter t.q (fun i j v -> if i <> j && v > 0. then rev.(j) <- i :: rev.(j));
  let backward = Array.make n false in
  let rec bdfs i =
    if not backward.(i) then begin
      backward.(i) <- true;
      List.iter bdfs rev.(i)
    end
  in
  bdfs k;
  List.filter (fun i -> forward.(i) && backward.(i)) (List.init n Fun.id)

(* Grassmann–Taksar–Heyman: subtraction-free state elimination, the
   numerically preferred direct method.  Works on the off-diagonal rate
   matrix (GTH is row-scale invariant, so rates need no normalization).
   Returns [Error (`Reducible_class states)] when an eliminated state has
   no transition into the remaining block (chain not irreducible), naming
   the communicating class of the offending state — callers fall back to
   the LU path, which picks one closed class like the historical
   behavior, or report the class in a diagnostic.

   Buffer chains are sparse and stay fairly sparse under elimination, so
   each step reads row k and column k once for their nonzeros and then
   sums, divides, updates and accumulates π over those alone.  Skipping
   a zero term is exact: x +. 0. = x for every x these loops can hold
   (each sum starts at +0. over nonnegative terms), and a product with a
   zero factor is a zero when the other factor is finite.  So wherever
   the other factor — the row sum, a multiplier [w.(i).(k)], an entry of
   π — is not finite, that loop runs dense, as the plain elimination
   would, and the result is the same bits either way. *)
let stationary_gth t =
  let n = t.n in
  if n = 1 then Ok [| 1. |]
  else begin
    let w = Array.make_matrix n n 0. in
    Sparse.iter t.q (fun i j v -> if i <> j then w.(i).(j) <- v);
    (* [cols]: the nonzero columns of row k below k; [below.(k)]: the
       nonzero rows of column k after its division, which later steps no
       longer touch and the π pass reads.  Both ascend. *)
    let cols = Array.make n 0 in
    let rows = Array.make n 0 in
    let below = Array.make n [||] in
    let exception Reducible of int in
    try
      for k = n - 1 downto 1 do
        let wk = w.(k) in
        let ncols = ref 0 in
        let s = ref 0. in
        for j = 0 to k - 1 do
          let v = wk.(j) in
          if v <> 0. then begin
            s := !s +. v;
            cols.(!ncols) <- j;
            incr ncols
          end
        done;
        if !s <= 0. then raise (Reducible k);
        let s = !s in
        let nrows = ref 0 in
        for i = 0 to k - 1 do
          let wi = w.(i) in
          let v = wi.(k) in
          if v <> 0. || not (Float.is_finite s) then begin
            let q = v /. s in
            wi.(k) <- q;
            if q <> 0. then begin
              rows.(!nrows) <- i;
              incr nrows
            end
          end
        done;
        let ncols = !ncols and nrows = !nrows in
        below.(k) <- Array.sub rows 0 nrows;
        for r = 0 to nrows - 1 do
          let i = rows.(r) in
          let wi = w.(i) in
          let wik = wi.(k) in
          if Float.is_finite wik then
            for c = 0 to ncols - 1 do
              let j = cols.(c) in
              if j <> i then wi.(j) <- wi.(j) +. (wik *. wk.(j))
            done
          else
            for j = 0 to k - 1 do
              if j <> i then wi.(j) <- wi.(j) +. (wik *. wk.(j))
            done
        done
      done;
      let pi = Array.make n 0. in
      pi.(0) <- 1.;
      let finite = ref true in
      for k = 1 to n - 1 do
        let acc = ref 0. in
        if !finite then begin
          let b = below.(k) in
          for r = 0 to Array.length b - 1 do
            let i = b.(r) in
            acc := !acc +. (pi.(i) *. w.(i).(k))
          done
        end
        else
          for i = 0 to k - 1 do
            acc := !acc +. (pi.(i) *. w.(i).(k))
          done;
        pi.(k) <- !acc;
        if not (Float.is_finite !acc) then finite := false
      done;
      let total = Vec.sum pi in
      Ok (Array.map (fun p -> p /. total) pi)
    with Reducible k -> Error (`Reducible_class (communicating_class t k))
  end

let max_exit_rate t = Array.fold_left Float.max 0. t.exit

(* Restarted GMRES on Q' pi = 0 through the transposed SpMV, so no
   matrix beyond the generator is ever formed.  Lambda = 2 max_i exit_i
   scales the stop rule and drives the uniformized-sweep fallback, whose
   P = I + Q/Lambda keeps every diagonal at >= 1/2 (strong aperiodicity)
   — the near-minimal [uniformization_rate] would make P almost
   periodic on symmetric chains and stall it. *)
let stationary_iterative_report ?(tol = 1e-13) ?(max_iter = 200_000) ?init t =
  let n = t.n in
  if n = 1 then ([| 1. |], 0, true)
  else begin
    let report = ref None in
    Obs.span ~name:"ctmc.stationary_iterative"
      ~attrs:(fun () -> ("states", string_of_int n) :: Krylov.attrs !report)
      (fun () ->
        Obs.incr m_iterative_solves;
        (* A previous stationary vector (sweep warm start) is accepted as
           the starting point when it is a plausible distribution of the
           right size; anything else falls back to uniform. *)
        let pi, r =
          Krylov.stationary
            ~apply:(fun x y -> Sparse.mul_vec_t_into t.q x y)
            ~lambda:(Float.max (2. *. max_exit_rate t) 1e-300)
            ~tol ~max_iter ?init n
        in
        report := Some r;
        Obs.add m_iterations r.Krylov.iterations;
        (pi, r.Krylov.iterations, r.Krylov.converged))
  end

let stationary_iterative ?tol ?max_iter ?init t =
  let pi, _, _ = stationary_iterative_report ?tol ?max_iter ?init t in
  pi

module Resilience = Bufsize_resilience.Resilience

(* A usable stationary distribution: finite, nonnegative, normalized. *)
let distribution_valid pi =
  Resilience.all_finite pi
  && Array.for_all (fun p -> p >= 0.) pi
  && Float.abs (Vec.sum pi -. 1.) <= 1e-6

(* ||pi Q||_inf — the balance residual reported in diagnostics. *)
let stationary_residual t pi =
  let qt_pi = Array.make t.n 0. in
  Sparse.mul_vec_t_into t.q pi qt_pi;
  Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0. qt_pi

(* The stationary solve: an escalation chain whose steps are each
   validated for finiteness/normalization before being trusted.  Up to
   the dense threshold: GTH, then dense LU (which picks one closed class
   of a reducible chain), then GMRES; a reducible chain surfaces its
   closed class in the rejection reason rather than as an exception.
   Above it: GMRES alone, so no step ever allocates an n x n matrix
   there.  The chain runs under the ambient budget. *)
let stationary_diag t =
  let fmt_class cls =
    let shown = List.filteri (fun i _ -> i < 8) cls in
    Printf.sprintf "reducible: closed class [%s%s] (%d states)"
      (String.concat ";" (List.map string_of_int shown))
      (if List.length cls > 8 then ";..." else "")
      (List.length cls)
  in
  let invalid = "invalid distribution (NaN/Inf, negative, or unnormalized)" in
  let accept pi iterations =
    if distribution_valid pi then begin
      let residual = stationary_residual t pi in
      Obs.observe h_residual residual;
      Resilience.Accept (pi, Resilience.meta ~iterations ~residual ())
    end
    else Resilience.Reject invalid
  in
  let gth _ =
    match stationary_gth t with
    | Ok pi -> accept pi 0
    | Error (`Reducible_class cls) -> Resilience.Reject (fmt_class cls)
  in
  let lu _ = accept (stationary_dense t) 0 in
  let iterative _ =
    let pi, iters, converged = stationary_iterative_report t in
    if converged then accept pi iters
    else if not (distribution_valid pi) then Resilience.Reject invalid
    else
      Resilience.Partial
        ( pi,
          Resilience.meta ~iterations:iters ~residual:(stationary_residual t pi) (),
          Printf.sprintf "GMRES iteration unconverged after %d iterations" iters )
  in
  let gmres = Resilience.step "gmres-iterative" iterative in
  let steps =
    if t.n <= dense_threshold then
      [ Resilience.step "gth" gth; Resilience.step "lu-dense" lu; gmres ]
    else [ gmres ]
  in
  Resilience.escalate
    ~solver:(Printf.sprintf "ctmc.stationary(n=%d)" t.n)
    ~budget:(Resilience.current_budget ()) steps

let stationary t =
  match stationary_diag t with
  | Some pi, _ -> pi
  | None, d ->
      failwith
        (Printf.sprintf "%s: %s" d.Resilience.solver
           (Option.value ~default:"no answer" (Resilience.status_reason d.Resilience.status)))

let is_irreducible t =
  let n = t.n in
  let reaches from =
    let seen = Array.make n false in
    let rec dfs i =
      if not seen.(i) then begin
        seen.(i) <- true;
        Sparse.iter_row t.q i (fun j v -> if j <> i && v > 0. then dfs j)
      end
    in
    dfs from;
    Array.for_all (fun b -> b) seen
  in
  let rec check i = i >= n || (reaches i && check (i + 1)) in
  check 0

let uniformization_rate t = (max_exit_rate t *. 1.0000001) +. 1e-12
