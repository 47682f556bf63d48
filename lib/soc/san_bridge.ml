module Vec = Bufsize_numeric.Vec
module San = Bufsize_prob.San

type solution = {
  spec : Monolithic.spec;
  bridge_capacity : int;
  states : int;
  sweeps : int;
  converged : bool;
  residual : float;
  x_dist : Vec.t;
  bridge_dist : Vec.t;
  y_dist : Vec.t;
  x_loss : float;
  bridge_loss : float;
  y_loss : float;
  x_delay : float;
  bridge_delay : float;
  y_delay : float;
}

let capacity ?bridge_capacity (s : Monolithic.spec) =
  let bcap = Option.value ~default:s.Monolithic.ky bridge_capacity in
  if bcap < 0 then invalid_arg "San_bridge: negative bridge capacity";
  bcap

(* Automaton order: X producer queue (mode 0), bridge buffer (mode 1),
   Y local queue (mode 2).  X serves at full rate mu_x; a completion is
   a cross transfer with probability f, so the local drain runs at
   (1-f) mu_x and the synchronized cross event at f mu_x — the X
   marginal is exactly the split's M/M/1/K. *)
let model ?bridge_capacity (s : Monolithic.spec) =
  Monolithic.validate s;
  let bcap = capacity ?bridge_capacity s in
  let range_routing d = List.init d (fun i -> (i + 1, i, 1.)) in
  let x =
    {
      San.name = "x";
      size = s.kx + 1;
      local =
        List.init s.kx (fun i -> (i, i + 1, s.lambda_x))
        @ List.init s.kx (fun i -> (i + 1, i, (1. -. s.cross_fraction) *. s.mu_x));
    }
  in
  let bridge = { San.name = "bridge"; size = bcap + 1; local = [] } in
  let y =
    {
      San.name = "y";
      size = s.ky + 1;
      local = List.init s.ky (fun l -> (l, l + 1, s.lambda_y));
    }
  in
  (* Processor sharing on bus Y: full rate alone, half rate while the
     other queue is busy — a functional rate on the opposite automaton. *)
  let shared_with d = Array.init d (fun st -> if st = 0 then 1. else 0.5) in
  let cross =
    {
      San.label = "cross";
      rate = s.cross_fraction *. s.mu_x;
      routing =
        [
          (0, range_routing s.kx);
          (* bridge admits, or drops on the full self-loop *)
          (1, List.init bcap (fun j -> (j, j + 1, 1.)) @ [ (bcap, bcap, 1.) ]);
        ];
      scaling = [];
    }
  in
  let bridge_serve =
    {
      San.label = "bridge-serve";
      rate = s.mu_y;
      routing = [ (1, range_routing bcap) ];
      scaling = [ (2, shared_with (s.ky + 1)) ];
    }
  in
  let y_serve =
    {
      San.label = "y-serve";
      rate = s.mu_y;
      routing = [ (2, range_routing s.ky) ];
      scaling = [ (1, shared_with (bcap + 1)) ];
    }
  in
  San.create [ x; bridge; y ] [ cross; bridge_serve; y_serve ]

(* The product seed of an already solved split. *)
let product_seed bcap (s : Monolithic.spec) (split : Monolithic.split_solution) =
  let nb = bcap + 1 and ny = s.ky + 1 in
  let n = (s.kx + 1) * nb * ny in
  let pi0 = Array.make n 0. in
  for i = 0 to s.kx do
    for j = 0 to bcap do
      for l = 0 to s.ky do
        pi0.(((i * nb) + j) * ny + l) <-
          split.Monolithic.x_dist.(i)
          *. split.Monolithic.bridge_dist.(j)
          *. split.Monolithic.y_dist.(l)
      done
    done
  done;
  (* Renormalize the triple product's rounding so the seed passes the
     iteration's distribution check exactly. *)
  let total = Vec.sum pi0 in
  if total > 0. then Array.map (fun p -> p /. total) pi0 else pi0

let split_seed ?bridge_capacity (s : Monolithic.spec) =
  let bcap = capacity ?bridge_capacity s in
  product_seed bcap s (Monolithic.solve_split ~bridge_capacity:bcap s)

let mean dist =
  let acc = ref 0. in
  Array.iteri (fun i p -> acc := !acc +. (float_of_int i *. p)) dist;
  !acc

let solve_with ?tol ?max_sweeps ?init bcap (s : Monolithic.spec) =
  let san = model ~bridge_capacity:bcap s in
  let pi, sweeps, converged =
    San.stationary_report ?tol ?max_iter:max_sweeps ?init san
  in
  let x_dist = San.marginal san ~automaton:0 pi in
  let bridge_dist = San.marginal san ~automaton:1 pi in
  let y_dist = San.marginal san ~automaton:2 pi in
  (* Joint probabilities of the cross event's fate: it fires whenever X
     is busy and drops exactly when the bridge is full at that moment. *)
  let p_cross_drop =
    San.expected san (fun st -> if st.(0) > 0 && st.(1) = bcap then 1. else 0.) pi
  in
  let p_cross_accept =
    San.expected san (fun st -> if st.(0) > 0 && st.(1) < bcap then 1. else 0.) pi
  in
  let cross_rate = s.cross_fraction *. s.mu_x in
  let safe_div a b = if b > 0. then a /. b else 0. in
  {
    spec = s;
    bridge_capacity = bcap;
    states = San.num_states san;
    sweeps;
    converged;
    residual = San.stationary_residual san pi;
    x_dist;
    bridge_dist;
    y_dist;
    x_loss = s.lambda_x *. x_dist.(s.kx);
    bridge_loss = cross_rate *. p_cross_drop;
    y_loss = s.lambda_y *. y_dist.(s.ky);
    x_delay = safe_div (mean x_dist) (s.lambda_x *. (1. -. x_dist.(s.kx)));
    bridge_delay = safe_div (mean bridge_dist) (cross_rate *. p_cross_accept);
    y_delay = safe_div (mean y_dist) (s.lambda_y *. (1. -. y_dist.(s.ky)));
  }

let solve ?tol ?max_sweeps ?(warm_start = true) ?bridge_capacity (s : Monolithic.spec) =
  let bcap = capacity ?bridge_capacity s in
  let init = if warm_start then Some (split_seed ~bridge_capacity:bcap s) else None in
  solve_with ?tol ?max_sweeps ?init bcap s

type gap_report = {
  joint : solution;
  split : Monolithic.split_solution;
  split_bridge_delay : float;
  split_y_delay : float;
  x_loss_gap_pct : float;
  bridge_loss_gap_pct : float;
  y_loss_gap_pct : float;
  bridge_delay_gap_pct : float;
  y_delay_gap_pct : float;
}

let gap_pct ~joint ~split =
  if Float.abs joint > 1e-12 then 100. *. (split -. joint) /. joint
  else if Float.abs split <= 1e-12 then 0.
  else Float.infinity

let compare_split ?tol ?max_sweeps ?(warm_start = true) ?bridge_capacity
    (s : Monolithic.spec) =
  let bcap = capacity ?bridge_capacity s in
  let split = Monolithic.solve_split ~bridge_capacity:bcap s in
  (* The warm start comes from this split answer, not a second solve. *)
  let init = if warm_start then Some (product_seed bcap s split) else None in
  let joint = solve_with ?tol ?max_sweeps ?init bcap s in
  let cross_in =
    s.cross_fraction *. s.mu_x *. (1. -. split.Monolithic.x_dist.(0))
  in
  let safe_div a b = if b > 0. then a /. b else 0. in
  let split_bridge_delay =
    safe_div (mean split.Monolithic.bridge_dist)
      (cross_in *. (1. -. split.Monolithic.bridge_dist.(bcap)))
  in
  let split_y_delay =
    safe_div (mean split.Monolithic.y_dist)
      (s.lambda_y *. (1. -. split.Monolithic.y_dist.(s.ky)))
  in
  {
    joint;
    split;
    split_bridge_delay;
    split_y_delay;
    x_loss_gap_pct = gap_pct ~joint:joint.x_loss ~split:split.Monolithic.x_loss;
    bridge_loss_gap_pct = gap_pct ~joint:joint.bridge_loss ~split:split.Monolithic.bridge_loss;
    y_loss_gap_pct = gap_pct ~joint:joint.y_loss ~split:split.Monolithic.y_loss;
    bridge_delay_gap_pct = gap_pct ~joint:joint.bridge_delay ~split:split_bridge_delay;
    y_delay_gap_pct = gap_pct ~joint:joint.y_delay ~split:split_y_delay;
  }

let pp_solution ppf r =
  Format.fprintf ppf
    "@[<v>joint SAN solve: %d states, %d sweeps%s, residual %.2e@,\
     loss   x %.6g  bridge %.6g  y %.6g@,\
     delay  x %.6g  bridge %.6g  y %.6g@]"
    r.states r.sweeps
    (if r.converged then "" else " (NOT converged)")
    r.residual r.x_loss r.bridge_loss r.y_loss r.x_delay r.bridge_delay r.y_delay

let pp_gap ppf g =
  let j = g.joint and s = g.split in
  Format.fprintf ppf
    "@[<v>%a@,\
     split approximation vs joint:@,\
     \  metric         split        joint        gap@,\
     \  x_loss         %-12.6g %-12.6g %+.2f%%@,\
     \  bridge_loss    %-12.6g %-12.6g %+.2f%%@,\
     \  y_loss         %-12.6g %-12.6g %+.2f%%@,\
     \  bridge_delay   %-12.6g %-12.6g %+.2f%%@,\
     \  y_delay        %-12.6g %-12.6g %+.2f%%@]"
    pp_solution j
    s.Monolithic.x_loss j.x_loss g.x_loss_gap_pct
    s.Monolithic.bridge_loss j.bridge_loss g.bridge_loss_gap_pct
    s.Monolithic.y_loss j.y_loss g.y_loss_gap_pct
    g.split_bridge_delay j.bridge_delay g.bridge_delay_gap_pct
    g.split_y_delay j.y_delay g.y_delay_gap_pct
