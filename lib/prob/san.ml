module Sparse = Bufsize_numeric.Sparse
module Kronecker = Bufsize_numeric.Kronecker
module Krylov = Bufsize_numeric.Krylov
module Obs = Bufsize_obs.Obs

(* Solver telemetry, mirroring ctmc.ml: solve count, operator
   applications, and the balance residuals of returned vectors. *)
let m_solves = Obs.counter "san.solves"
let m_sweeps = Obs.counter "san.sweeps"
let h_residual = Obs.histogram "san.residual"

type automaton = {
  name : string;
  size : int;
  local : (int * int * float) list;
}

type event = {
  label : string;
  rate : float;
  routing : (int * (int * int * float) list) list;
  scaling : (int * float array) list;
}

type t = {
  automata : automaton array;
  events : event list;
  desc : Kronecker.t;
  exit : float array;  (* exit.(s) = -Q_ss, from the descriptor diagonal *)
}

let validate_automaton i a =
  if a.size <= 0 then
    invalid_arg (Printf.sprintf "San.create: automaton %d has non-positive size" i);
  List.iter
    (fun (f, t, r) ->
      if f < 0 || f >= a.size || t < 0 || t >= a.size then
        invalid_arg (Printf.sprintf "San.create: automaton %d local transition out of range" i);
      if f = t then
        invalid_arg (Printf.sprintf "San.create: automaton %d local self loop" i);
      if not (Float.is_finite r) || r < 0. then
        invalid_arg (Printf.sprintf "San.create: automaton %d negative local rate" i))
    a.local

let validate_event automata e =
  let n_aut = Array.length automata in
  if not (Float.is_finite e.rate) || e.rate < 0. then
    invalid_arg (Printf.sprintf "San.create: event %s has negative rate" e.label);
  let seen = Hashtbl.create 8 in
  let claim a =
    if a < 0 || a >= n_aut then
      invalid_arg (Printf.sprintf "San.create: event %s references automaton %d" e.label a);
    if Hashtbl.mem seen a then
      invalid_arg
        (Printf.sprintf "San.create: event %s mentions automaton %d twice" e.label a);
    Hashtbl.add seen a ()
  in
  List.iter
    (fun (a, rows) ->
      claim a;
      let d = automata.(a).size in
      List.iter
        (fun (f, t, w) ->
          if f < 0 || f >= d || t < 0 || t >= d then
            invalid_arg
              (Printf.sprintf "San.create: event %s routing out of range on automaton %d"
                 e.label a);
          if not (Float.is_finite w) || w < 0. then
            invalid_arg
              (Printf.sprintf "San.create: event %s negative routing weight" e.label))
        rows)
    e.routing;
  List.iter
    (fun (a, mult) ->
      claim a;
      if Array.length mult <> automata.(a).size then
        invalid_arg
          (Printf.sprintf "San.create: event %s scaling length mismatch on automaton %d"
             e.label a);
      Array.iter
        (fun m ->
          if not (Float.is_finite m) || m < 0. then
            invalid_arg
              (Printf.sprintf "San.create: event %s negative scaling multiplier" e.label))
        mult)
    e.scaling

(* Local generator of one automaton as CSR, diagonal included
   (off-diagonal row sums accumulated in list order, like Ctmc.of_rates). *)
let local_generator a =
  let d = a.size in
  let exit = Array.make d 0. in
  List.iter (fun (f, _, r) -> exit.(f) <- exit.(f) +. r) a.local;
  let diag = ref [] in
  for s = d - 1 downto 0 do
    if exit.(s) <> 0. then diag := (s, s, -.exit.(s)) :: !diag
  done;
  Sparse.of_triplets ~rows:d ~cols:d (a.local @ !diag)

let compile automata events =
  let n_aut = Array.length automata in
  let dims = Array.map (fun a -> a.size) automata in
  let identity_row () = Array.make n_aut Kronecker.Identity in
  let local_terms =
    Array.to_list automata
    |> List.mapi (fun i a ->
           if a.local = [] then None
           else begin
             let factors = identity_row () in
             factors.(i) <- Kronecker.Factor (local_generator a);
             Some { Kronecker.coeff = 1.; factors }
           end)
    |> List.filter_map Fun.id
  in
  let event_terms =
    List.concat_map
      (fun e ->
        (* Positive term: (x) routing matrices, scaled modes as diagonal
           multiplier factors.  Negative term: same scaling, routing
           replaced by diag of its row sums — keeps row sums exactly
           zero and is fully diagonal, so off-diagonals stay >= 0. *)
        let pos = identity_row () and neg = identity_row () in
        List.iter
          (fun (a, rows) ->
            let d = automata.(a).size in
            let sums = Array.make d 0. in
            List.iter (fun (f, _, w) -> sums.(f) <- sums.(f) +. w) rows;
            let diag = ref [] in
            for s = d - 1 downto 0 do
              if sums.(s) <> 0. then diag := (s, s, sums.(s)) :: !diag
            done;
            pos.(a) <- Kronecker.Factor (Sparse.of_triplets ~rows:d ~cols:d rows);
            neg.(a) <- Kronecker.Factor (Sparse.of_triplets ~rows:d ~cols:d !diag))
          e.routing;
        List.iter
          (fun (a, mult) ->
            let d = automata.(a).size in
            let diag = ref [] in
            for s = d - 1 downto 0 do
              if mult.(s) <> 0. then diag := (s, s, mult.(s)) :: !diag
            done;
            let f = Kronecker.Factor (Sparse.of_triplets ~rows:d ~cols:d !diag) in
            pos.(a) <- f;
            neg.(a) <- f)
          e.scaling;
        if e.rate = 0. || e.routing = [] then []
        else
          [
            { Kronecker.coeff = e.rate; factors = pos };
            { Kronecker.coeff = -.e.rate; factors = neg };
          ])
      events
  in
  Kronecker.create ~dims (local_terms @ event_terms)

let create automata events =
  if automata = [] then invalid_arg "San.create: no automata";
  let automata = Array.of_list automata in
  Array.iteri validate_automaton automata;
  List.iter (validate_event automata) events;
  let desc = compile automata events in
  let exit = Array.map (fun d -> -.d) (Kronecker.diagonal desc) in
  { automata; events; desc; exit }

let automata t = Array.copy t.automata
let events t = t.events
let num_states t = Kronecker.num_states t.desc
let descriptor t = t.desc
let encode t state = Kronecker.encode t.desc state
let decode t idx = Kronecker.decode t.desc idx

let max_exit_rate t = Array.fold_left Float.max 0. t.exit
let uniformization_rate t = Float.max (2. *. max_exit_rate t) 1e-300

let stationary_residual t pi =
  let qt_pi = Kronecker.mul_vec_t t.desc pi in
  Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0. qt_pi

(* Restarted GMRES through the shuffle transposed SpMV, one scratch
   reused across every product. *)
let stationary_report ?(tol = 1e-13) ?(max_iter = 200_000) ?init t =
  if not (Float.is_finite tol && tol > 0.) then
    invalid_arg (Printf.sprintf "San.stationary_report: tol must be finite and positive (got %g)" tol);
  if max_iter < 1 then
    invalid_arg (Printf.sprintf "San.stationary_report: max_iter must be at least 1 (got %d)" max_iter);
  let n = num_states t in
  if n = 1 then ([| 1. |], 0, true)
  else begin
    let report = ref None in
    Obs.span ~name:"san.stationary"
      ~attrs:(fun () -> ("states", string_of_int n) :: Krylov.attrs !report)
      (fun () ->
        Obs.incr m_solves;
        let scratch = Kronecker.scratch t.desc in
        let pi, r =
          Krylov.stationary
            ~apply:(fun x y -> Kronecker.mul_vec_t_into ~scratch t.desc x y)
            ~lambda:(uniformization_rate t) ~tol ~max_iter ?init n
        in
        report := Some r;
        Obs.add m_sweeps r.Krylov.iterations;
        Obs.observe h_residual (stationary_residual t pi);
        (pi, r.Krylov.iterations, r.Krylov.converged))
  end

let stationary ?tol ?max_iter ?init t =
  let pi, _, _ = stationary_report ?tol ?max_iter ?init t in
  pi

let marginal t ~automaton pi =
  let n_aut = Array.length t.automata in
  if automaton < 0 || automaton >= n_aut then invalid_arg "San.marginal: automaton out of range";
  let n = num_states t in
  if Array.length pi <> n then invalid_arg "San.marginal: vector size mismatch";
  let d = t.automata.(automaton).size in
  (* stride of this mode in the mixed-radix joint index *)
  let stride = ref 1 in
  for m = n_aut - 1 downto automaton + 1 do
    stride := !stride * t.automata.(m).size
  done;
  let stride = !stride in
  let out = Array.make d 0. in
  for idx = 0 to n - 1 do
    let s = idx / stride mod d in
    out.(s) <- out.(s) +. pi.(idx)
  done;
  out

let expected t f pi =
  let n = num_states t in
  if Array.length pi <> n then invalid_arg "San.expected: vector size mismatch";
  let state = Array.make (Array.length t.automata) 0 in
  let acc = ref 0. in
  for idx = 0 to n - 1 do
    if pi.(idx) <> 0. then begin
      Kronecker.decode_into t.desc idx state;
      acc := !acc +. (pi.(idx) *. f state)
    end
  done;
  !acc

let to_ctmc t = Ctmc.of_sparse_generator (Kronecker.materialize t.desc)
