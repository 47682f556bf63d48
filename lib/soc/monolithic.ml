module Vec = Bufsize_numeric.Vec
module Newton = Bufsize_numeric.Newton
module Rng = Bufsize_prob.Rng
module Ctmc = Bufsize_prob.Ctmc
module Birth_death = Bufsize_prob.Birth_death

type spec = {
  kx : int;
  ky : int;
  lambda_x : float;
  lambda_y : float;
  cross_fraction : float;
  mu_x : float;
  mu_y : float;
}

let validate s =
  if s.kx < 1 || s.ky < 1 then invalid_arg "Monolithic: capacities must be >= 1";
  List.iter
    (fun (field, rate) ->
      if not (Float.is_finite rate && rate > 0.) then
        invalid_arg (Printf.sprintf "Monolithic: %s must be finite and positive (got %g)" field rate))
    [ ("lambda_x", s.lambda_x); ("lambda_y", s.lambda_y); ("mu_x", s.mu_x); ("mu_y", s.mu_y) ];
  if not (s.cross_fraction >= 0. && s.cross_fraction <= 1.) then
    invalid_arg
      (Printf.sprintf "Monolithic: cross_fraction must be in [0, 1] (got %g)" s.cross_fraction)

let dim s = s.kx + 1 + (s.ky + 1)

(* Distinct nonlinear monomial occurrences in the balance system: the
   effective X service rate couples every X death term to y_0 (kx terms),
   the throttled Y service rate couples every Y death term to x_0 (ky
   terms), and the cross input to Y couples every Y balance row to x-y
   products (two occurrences per row). *)
let quadratic_term_count s = s.kx + s.ky + (2 * (s.ky + 1))

(* Unknowns v = [x_0..x_kx; y_0..y_ky].  Marginal-independence closure of a
   BUFFERLESS bridge, which holds both buses for the duration of a cross
   transfer:
   - X dies at rate mu_x * ((1-f) + f * y_0): a cross transfer at the head
     of X's queue also needs bus Y free;
   - symmetrically, Y's service capacity shrinks while X pushes cross
     traffic: mu_y * (1 - f * (1 - x_0));
   - Y's arrival stream adds the cross throughput f * mu_x_eff * (1 - x_0).
   The bidirectional products (x_i * y_0, y_j * x_0, and the cross-input
   composites) are the paper's quadratic terms; they also make the closure
   bistable under heavy coupling — light-traffic and congestion-collapse
   roots coexist — which is precisely what defeats a generic root finder.
   Rows: X balance 0..kx-1, X normalization, Y balance 0..ky-1,
   Y normalization. *)
let residual s v =
  validate s;
  if Vec.dim v <> dim s then invalid_arg "Monolithic.residual: dimension mismatch";
  let x i = v.(i) in
  let y j = v.(s.kx + 1 + j) in
  let f = s.cross_fraction in
  let mu_x_eff = s.mu_x *. (1. -. f +. (f *. y 0)) in
  let mu_y_eff = s.mu_y *. (1. -. (f *. (1. -. x 0))) in
  let cross_in = f *. mu_x_eff *. (1. -. x 0) in
  let lambda_y_total = s.lambda_y +. cross_in in
  let out = Array.make (dim s) 0. in
  (* X birth-death balance (global balance rows 0..kx-1). *)
  for i = 0 to s.kx - 1 do
    let inflow =
      (if i > 0 then s.lambda_x *. x (i - 1) else 0.) +. (mu_x_eff *. x (i + 1))
    in
    let outflow =
      ((if i < s.kx then s.lambda_x else 0.) +. if i > 0 then mu_x_eff else 0.) *. x i
    in
    out.(i) <- inflow -. outflow
  done;
  let sum_x = ref 0. in
  for i = 0 to s.kx do
    sum_x := !sum_x +. x i
  done;
  out.(s.kx) <- !sum_x -. 1.;
  (* Y birth-death balance with the quadratic cross input and the
     bridge-throttled service rate. *)
  for j = 0 to s.ky - 1 do
    let inflow =
      (if j > 0 then lambda_y_total *. y (j - 1) else 0.) +. (mu_y_eff *. y (j + 1))
    in
    let outflow =
      ((if j < s.ky then lambda_y_total else 0.) +. if j > 0 then mu_y_eff else 0.) *. y j
    in
    out.(s.kx + 1 + j) <- inflow -. outflow
  done;
  let sum_y = ref 0. in
  for j = 0 to s.ky do
    sum_y := !sum_y +. y j
  done;
  out.(dim s - 1) <- !sum_y -. 1.;
  out

type attempt_report = {
  starts : int;
  converged_valid : int;
  converged_invalid : int;
  failed : int;
  best_residual : float;
}

let attempt ?(starts = 20) ?(seed = 7) ?(max_iter = 60) ?(damped = false) s =
  validate s;
  let n = dim s in
  let rng = Rng.create seed in
  let uniform_start =
    Array.init n (fun i ->
        if i <= s.kx then 1. /. float_of_int (s.kx + 1) else 1. /. float_of_int (s.ky + 1))
  in
  let random_start () = Array.init n (fun _ -> Rng.float_range rng (-0.5) 1.5) in
  let valid sol = Array.for_all (fun c -> c >= -1e-7) sol in
  let cv = ref 0 and ci = ref 0 and fl = ref 0 in
  let best = ref infinity in
  for k = 0 to starts - 1 do
    let x0 = if k = 0 then uniform_start else random_start () in
    let r = Newton.solve ~max_iter ~tol:1e-10 ~damped ~f:(residual s) ~x0 () in
    if r.Newton.residual < !best then best := r.Newton.residual;
    if r.Newton.converged then
      if valid r.Newton.solution then incr cv else incr ci
    else incr fl
  done;
  {
    starts;
    converged_valid = !cv;
    converged_invalid = !ci;
    failed = !fl;
    best_residual = !best;
  }

type split_solution = {
  x_dist : Vec.t;
  y_dist : Vec.t;
  bridge_dist : Vec.t;
  x_loss : float;
  y_loss : float;
  bridge_loss : float;
}

let solve_split ?bridge_capacity s =
  validate s;
  let bcap = Option.value ~default:s.ky bridge_capacity in
  (* Bus X with a buffer inserted at the bridge serves at full rate. *)
  let x_bd = Birth_death.mm1k ~lambda:s.lambda_x ~mu:s.mu_x ~k:s.kx in
  let x_dist = Birth_death.stationary x_bd in
  let x_loss = s.lambda_x *. x_dist.(s.kx) in
  (* Cross throughput out of X feeds the inserted bridge buffer. *)
  let cross_in = s.cross_fraction *. s.mu_x *. (1. -. x_dist.(0)) in
  (* Bus Y: two buffered clients (local traffic and the bridge buffer)
     sharing the server — a plain linear CTMC on the product space. *)
  let ny = s.ky + 1 and nb = bcap + 1 in
  let encode i j = (i * nb) + j in
  let rates = ref [] in
  for i = 0 to s.ky do
    for j = 0 to bcap do
      let st = encode i j in
      if i < s.ky then rates := (st, encode (i + 1) j, s.lambda_y) :: !rates;
      if j < bcap && cross_in > 0. then rates := (st, encode i (j + 1), cross_in) :: !rates;
      (* Processor-sharing service: both nonempty queues drain at mu/2,
         a lone nonempty queue at full mu. *)
      if i > 0 && j > 0 then begin
        rates := (st, encode (i - 1) j, s.mu_y /. 2.) :: !rates;
        rates := (st, encode i (j - 1), s.mu_y /. 2.) :: !rates
      end
      else if i > 0 then rates := (st, encode (i - 1) j, s.mu_y) :: !rates
      else if j > 0 then rates := (st, encode i (j - 1), s.mu_y) :: !rates
    done
  done;
  let ctmc = Ctmc.of_rates (ny * nb) !rates in
  let pi = Ctmc.stationary ctmc in
  let y_dist = Array.make ny 0. and bridge_dist = Array.make nb 0. in
  Array.iteri
    (fun st p ->
      let i = st / nb and j = st mod nb in
      y_dist.(i) <- y_dist.(i) +. p;
      bridge_dist.(j) <- bridge_dist.(j) +. p)
    pi;
  {
    x_dist;
    y_dist;
    bridge_dist;
    x_loss;
    y_loss = s.lambda_y *. y_dist.(s.ky);
    bridge_loss = cross_in *. bridge_dist.(bcap);
  }

let pp_attempt ppf r =
  Format.fprintf ppf
    "newton on the monolithic quadratic system: %d starts -> %d valid, %d invalid, %d failed \
     (best residual %.2e)"
    r.starts r.converged_valid r.converged_invalid r.failed r.best_residual
