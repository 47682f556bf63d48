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
  if s.lambda_x <= 0. || s.lambda_y <= 0. || s.mu_x <= 0. || s.mu_y <= 0. then
    invalid_arg "Monolithic: rates must be positive";
  if s.cross_fraction < 0. || s.cross_fraction > 1. then
    invalid_arg "Monolithic: cross_fraction must be in [0, 1]"

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

(* ------------------------------------------------ resilient closure solve *)

module Resilience = Bufsize_resilience.Resilience
module Obs = Bufsize_obs.Obs

(* Closure-solve telemetry: Newton iterations (plain and damped) and
   Picard fixed-point sweeps, summed across escalation attempts. *)
let m_newton_iters = Obs.counter "monolithic.newton_iterations"
let m_picard_iters = Obs.counter "monolithic.picard_iterations"

let residual_norm s v =
  Array.fold_left (fun acc r -> Float.max acc (Float.abs r)) 0. (residual s v)

(* A usable closure root: finite, (numerically) nonnegative, both blocks
   normalized. *)
let closure_valid s v =
  Resilience.all_finite v
  && Array.for_all (fun c -> c >= -1e-7) v
  && begin
       let sum_x = ref 0. and sum_y = ref 0. in
       for i = 0 to s.kx do
         sum_x := !sum_x +. v.(i)
       done;
       for j = 0 to s.ky do
         sum_y := !sum_y +. v.(s.kx + 1 + j)
       done;
       Float.abs (!sum_x -. 1.) <= 1e-6 && Float.abs (!sum_y -. 1.) <= 1e-6
     end

let bd_stationary ~birth ~death ~k =
  Birth_death.stationary
    (Birth_death.create ~births:(Array.make k birth) ~deaths:(Array.make k death))

(* Picard iteration on the closure: given (x_0, y_0) the effective rates
   freeze, making both buses constant-rate birth-death chains whose
   product-form marginals refresh (x_0, y_0).  Slower than Newton but
   immune to the Jacobian pathologies that defeat it on stiff instances —
   the last resort of the escalation chain. *)
let picard ?(tol = 1e-13) ?(max_iter = 500) ?x0 ?y0 s =
  validate s;
  let f = s.cross_fraction in
  let px0 = Option.value ~default:(1. /. float_of_int (s.kx + 1)) x0 in
  let py0 = Option.value ~default:(1. /. float_of_int (s.ky + 1)) y0 in
  let rec go px py iter =
    if iter > max_iter then None
    else begin
      let mu_x_eff = s.mu_x *. (1. -. f +. (f *. py)) in
      let xd = bd_stationary ~birth:s.lambda_x ~death:mu_x_eff ~k:s.kx in
      let cross_in = f *. mu_x_eff *. (1. -. xd.(0)) in
      let mu_y_eff = s.mu_y *. (1. -. (f *. (1. -. xd.(0)))) in
      let yd = bd_stationary ~birth:(s.lambda_y +. cross_in) ~death:mu_y_eff ~k:s.ky in
      let delta = Float.abs (xd.(0) -. px) +. Float.abs (yd.(0) -. py) in
      if delta < tol then Some (Array.append xd yd, iter) else go xd.(0) yd.(0) (iter + 1)
    end
  in
  go px0 py0 0

let solve_closure ?budget ?(tol = 1e-9) s =
  validate s;
  let uniform_start =
    Array.init (dim s) (fun i ->
        if i <= s.kx then 1. /. float_of_int (s.kx + 1) else 1. /. float_of_int (s.ky + 1))
  in
  let newton_step name ~damped =
    Resilience.step name (fun _ ->
        let r = Newton.solve ~max_iter:200 ~tol ~damped ~f:(residual s) ~x0:uniform_start () in
        Obs.add m_newton_iters r.Newton.iterations;
        let meta = Resilience.meta ~iterations:r.Newton.iterations ~residual:r.Newton.residual () in
        if not r.Newton.converged then
          Resilience.Reject
            (if r.Newton.singular_jacobian then
               Printf.sprintf "singular Jacobian after %d iterations (residual %.3e)"
                 r.Newton.iterations r.Newton.residual
             else
               Printf.sprintf "did not converge in %d iterations (residual %.3e)"
                 r.Newton.iterations r.Newton.residual)
        else if not (closure_valid s r.Newton.solution) then
          Resilience.Reject "converged outside the probability simplex"
        else Resilience.Accept (r.Newton.solution, meta))
  in
  let picard_step =
    Resilience.step "picard" (fun _ ->
        match picard s with
        | None -> Resilience.Reject "no attractive fixed point from the uniform start"
        | Some (v, iters) ->
            Obs.add m_picard_iters iters;
            let res = residual_norm s v in
            let meta = Resilience.meta ~iterations:iters ~residual:res () in
            if not (closure_valid s v) then
              Resilience.Reject "fixed point outside the probability simplex"
            else if res <= Float.max 1e-7 tol then Resilience.Accept (v, meta)
            else
              Resilience.Partial
                (v, meta, Printf.sprintf "fixed point residual %.3e above target" res))
  in
  let budget = match budget with Some b -> b | None -> Resilience.current_budget () in
  Resilience.escalate
    ~solver:(Printf.sprintf "monolithic.closure(kx=%d,ky=%d)" s.kx s.ky)
    ~budget
    [ newton_step "newton" ~damped:false; newton_step "damped-newton" ~damped:true; picard_step ]
