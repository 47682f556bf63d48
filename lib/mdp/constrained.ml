module Lu = Bufsize_numeric.Lu
module Vec = Bufsize_numeric.Vec
module Resilience = Bufsize_resilience.Resilience
module Obs = Bufsize_obs.Obs

type solved = { gain : float; usage : float; policy : Policy.t; stationary : Vec.t }

type answer = {
  total_gain : float;
  components : solved array;
  total_usage : float;
  price : float;
  rounds : int;
}

type outcome = Optimal of answer | Infeasible

(* Price-path telemetry: cutting-plane rounds of the breakpoint search. *)
let m_price_rounds = Obs.counter "constrained.price_rounds"

(* A reason the price path cannot answer, and a bound that even the
   least-usage policies exceed. *)
exception Give_up of string
exception Infeasible_bound

(* The breakpoint search ends when the new policy's priced gain meets
   the cutting-plane model within [search_rel_tol] relative, or gives up
   after [max_rounds]; the one-state mix accepts its two end tuples when
   they price within [mix_rel_tol] of the dual value; a least usage
   within [feasibility_tol] of the bound counts as feasible, like the
   reference LP's feasibility tolerance. *)
let search_rel_tol = 1e-12
let mix_rel_tol = 1e-9
let feasibility_tol = 1e-9
let max_rounds = 64

(* Policy iteration on one block at the weights on (cost, extra 0),
   warm-started from a line of the block: the line it stops at.  A
   singular dense evaluation (a multichain policy) leaves the price path
   instead of being patched over. *)
let solve_block ?max_iter ~weights ?warm ~workspace m =
  match Policy_iteration.solve ?max_iter ~weights ?warm ~workspace m with
  | exception Lu.Singular k ->
      Error (Printf.sprintf "multichain policy (singular evaluation at pivot %d)" k)
  | r when not r.Policy_iteration.converged ->
      Error (Printf.sprintf "policy iteration hit max_iter (%d)" r.Policy_iteration.iterations)
  | r -> Ok r.Policy_iteration.line

let total_gain = Array.fold_left (fun acc l -> acc +. l.Policy_iteration.g_c) 0.
let total_usage = Array.fold_left (fun acc l -> acc +. l.Policy_iteration.g_u) 0.

(* The dual line of a policy tuple: its priced gain minus the priced
   bound, G + price (U - bound). *)
let line_value ~bound lines price =
  total_gain lines +. (price *. (total_usage lines -. bound))

(* A returned deterministic policy: the induced chain's stationary
   distribution, and the two functionals summed over the chosen actions
   in state order. *)
let deterministic_solved m choice =
  let policy = { Policy.choice; mix = None } in
  let pi = Policy.stationary m policy in
  let gain = ref 0. and usage = ref 0. in
  Array.iteri
    (fun s a ->
      let i = m.Ctmdp.first_action.(s) + a in
      gain := !gain +. (pi.(s) *. m.Ctmdp.cost.(i));
      usage := !usage +. (pi.(s) *. Ctmdp.extra m i 0))
    choice;
  { gain = !gain; usage = !usage; policy; stationary = pi }

(* Mix two deterministic answers of one block that differ in state
   [state] only, with weight [alpha] on [a]: their occupation measures
   mix linearly, so the mix's π is alpha pi_a + (1 - alpha) pi_b and it
   randomizes in [state] alone, where each action's occupation is its own
   policy's share.  Gain and usage are summed over the played actions in
   (state, action) order.  The weight of [a]'s action is its share of
   the state's occupation, the two shares renormalized to sum to one as
   the dense probability rows of former answers were, so that it is
   bitwise theirs; in a state of occupation at most 1e-12 the policy
   plays [b]'s action. *)
let mixed_solved m ~alpha ~state a b =
  let beta = 1. -. alpha in
  let stationary =
    Array.map2 (fun x y -> (alpha *. x) +. (beta *. y)) a.stationary b.stationary
  in
  let ca = a.policy.Policy.choice.(state) and cb = b.policy.Policy.choice.(state) in
  let xa = alpha *. a.stationary.(state) and xb = beta *. b.stationary.(state) in
  let gain = ref 0. and usage = ref 0. in
  let add x i =
    gain := !gain +. (x *. m.Ctmdp.cost.(i));
    usage := !usage +. (x *. Ctmdp.extra m i 0)
  in
  Array.iteri
    (fun s c ->
      let base = m.Ctmdp.first_action.(s) in
      if s <> state then add stationary.(s) (base + c)
      else if ca < cb then begin
        add xa (base + ca);
        add xb (base + cb)
      end
      else begin
        add xb (base + cb);
        add xa (base + ca)
      end)
    b.policy.Policy.choice;
  let mass = stationary.(state) in
  let mix =
    if mass > 1e-12 then
      let pa = xa /. mass and pb = xb /. mass in
      Some { Policy.state; action = ca; weight = pa /. (pa +. pb) }
    else None
  in
  { gain = !gain; usage = !usage; policy = { b.policy with Policy.mix }; stationary }

(* The price step proper: the answer, or raises [Give_up] or
   [Infeasible_bound].  The price-0 lines of the slack test
   go to [free] as soon as they exist.  Every evaluation of block [i],
   on any round or on the mix's walk, refactorizes its one workspace. *)
let price_search ?max_iter ~budget ~bound ~free models =
  let nb = Array.length models in
  let workspaces = Array.map Policy_iteration.workspace models in
  let solve_all weights warm =
    let results =
      Array.init nb (fun i ->
          solve_block ?max_iter ~weights ?warm:(warm i) ~workspace:workspaces.(i) models.(i))
    in
    Array.map (function Ok b -> b | Error why -> raise (Give_up why)) results
  in
  let record ~price ~rounds components =
    let sum f = Array.fold_left (fun acc c -> acc +. f c) 0. components in
    {
      total_gain = sum (fun c -> c.gain);
      components;
      total_usage = sum (fun c -> c.usage);
      price;
      rounds;
    }
  in
  let deterministic ~price ~rounds lines =
    record ~price ~rounds
      (Array.mapi (fun i l -> deterministic_solved models.(i) l.Policy_iteration.choice) lines)
  in
  (* 1. Slack test: the unconstrained optimum, block by block. *)
  let free =
    let lines = solve_all (1., 0.) (fun _ -> None) in
    free := Some lines;
    lines
  in
  match bound with
  | None -> deterministic ~price:0. ~rounds:0 free
  | Some bound when total_usage free <= bound -> deterministic ~price:0. ~rounds:0 free
  | Some bound ->
      let least = solve_all (0., 1.) (fun _ -> None) in
      (* A least usage within the feasibility tolerance of the bound
         is feasible: the bound is moved up to it, so that [least] stays
         a line of non-positive slope. *)
      let least_usage = total_usage least in
      if least_usage > bound +. (feasibility_tol *. (1. +. Float.abs bound)) then
        raise Infeasible_bound;
      let bound = Float.max bound least_usage in
      if total_usage free <= bound then deterministic ~price:0. ~rounds:0 free
      else
      (* 2. Breakpoint search on the concave dual D(price) = min over
         tuples of G + price (U - bound).  [hi] has U > bound, [lo] has
         U <= bound; the cutting-plane model is min of their two lines,
         maximized where they cross. *)
      let rec search ~hi ~lo ~warm rounds =
        if rounds >= max_rounds then raise (Give_up "price search hit its round cap");
        if Resilience.exhausted budget then
          raise (Give_up "budget exhausted during the price search");
        let price =
          Float.max 0. ((total_gain lo -. total_gain hi) /. (total_usage hi -. total_usage lo))
        in
        let model = line_value ~bound hi price in
        let next = solve_all (1., price) (fun i -> Some warm.(i)) in
        Obs.incr m_price_rounds;
        let rounds = rounds + 1 in
        let slope = total_usage next -. bound in
        if line_value ~bound next price >= model -. (search_rel_tol *. (1. +. Float.abs model))
        then `Bracket (price, hi, lo, rounds)
        else if slope > 0. then search ~hi:next ~lo ~warm:next rounds
        else if slope < 0. then search ~hi ~lo:next ~warm:next rounds
        else `Exact (price, next, rounds)
      in
      match search ~hi:free ~lo:least ~warm:free 0 with
      | `Exact (price, blocks, rounds) -> deterministic ~price ~rounds blocks
      | `Bracket (price, hi, lo, rounds) ->
          (* 3. One-state mix.  Walk from [hi] to [lo] one (block, state)
             switch at a time, in block-then-state order; bisect for a
             switch where the usage crosses the bound and mix the two
             tuples on either side of it. *)
          let switches = ref [] in
          Array.iteri
            (fun i h ->
              Array.iteri
                (fun s a ->
                  if a <> lo.(i).Policy_iteration.choice.(s) then switches := (i, s) :: !switches)
                h.Policy_iteration.choice)
            hi;
          let switches = Array.of_list (List.rev !switches) in
          let k = Array.length switches in
          (* The tuple after the first [j] switches: blocks before the last
             switched one are lo's, blocks after it hi's, and only that
             block, when part-way, needs a fresh evaluation.  A multichain
             part-way policy leaves the price path like any other. *)
          let tuple j =
            let b, _ = switches.(j - 1) in
            Array.init nb (fun i ->
                if i < b || (i = b && (j = k || fst switches.(j) <> b)) then lo.(i)
                else if i > b then hi.(i)
                else begin
                  let choice = Array.copy hi.(b).Policy_iteration.choice in
                  for l = 0 to j - 1 do
                    let bl, s = switches.(l) in
                    if bl = b then choice.(s) <- lo.(b).Policy_iteration.choice.(s)
                  done;
                  match
                    Policy_iteration.evaluate_line ~workspace:workspaces.(b) models.(b) choice
                  with
                  | line -> line
                  | exception Lu.Singular _ -> raise (Give_up "one-state mix: multichain policy")
                end)
          in
          let rec bisect (a, ta) (z, tz) =
            if z - a <= 1 then (a, ta, tz)
            else
              let mid = (a + z) / 2 in
              let tm = tuple mid in
              if total_usage tm > bound then bisect (mid, tm) (z, tz) else bisect (a, ta) (mid, tm)
          in
          let a, ta, tz = bisect (0, hi) (k, lo) in
          let dual = Float.max (line_value ~bound hi price) (line_value ~bound lo price) in
          let worst = Float.max (line_value ~bound ta price) (line_value ~bound tz price) in
          if worst > dual +. (mix_rel_tol *. (1. +. Float.abs dual)) then
            raise (Give_up "one-state mix: the tuples around the crossing are not optimal");
          (* Only the returned policies are solved for their π: tz's, and
             ta's in the one block where the two differ. *)
          let block, state = switches.(a) in
          let usage = Array.fold_left (fun acc c -> acc +. c.usage) 0. in
          let sz =
            Array.mapi (fun i m -> deterministic_solved m tz.(i).Policy_iteration.choice) models
          in
          let sa = Array.copy sz in
          sa.(block) <- deterministic_solved models.(block) ta.(block).Policy_iteration.choice;
          let alpha = (bound -. usage sz) /. (usage sa -. usage sz) in
          if alpha > 0. then
            sz.(block) <- mixed_solved models.(block) ~alpha ~state sa.(block) sz.(block);
          record ~price ~rounds sz

(* The price step as an escalation chain of one step: a give-up is a
   [Failed] diagnostic with its reason and no answer. *)
let price_chain ?max_iter ?bound ~free models =
  let nb = Array.length models in
  let budget = Resilience.current_budget () in
  let price = ref Float.nan and rounds = ref 0 in
  Obs.span ~name:"ctmdp.price"
    ~attrs:(fun () ->
      [
        ("blocks", string_of_int nb);
        ("rounds", string_of_int !rounds);
        ("price", Printf.sprintf "%.6g" !price);
      ])
  @@ fun () ->
  let price_step =
    Resilience.step "price" (fun budget ->
        match price_search ?max_iter ~budget ~bound ~free models with
        | a ->
            price := a.price;
            rounds := a.rounds;
            Resilience.Accept (Optimal a, Resilience.meta ~iterations:a.rounds ())
        | exception Infeasible_bound -> Resilience.Accept (Infeasible, Resilience.meta ())
        | exception Give_up why -> Resilience.Reject why)
  in
  Resilience.escalate ~solver:(Printf.sprintf "ctmdp.price(blocks=%d)" nb) ~budget [ price_step ]

let solve_price ?max_iter ?bound models =
  if Array.length models = 0 then invalid_arg "Constrained.solve_price: no blocks";
  Array.iter
    (fun m ->
      if Ctmdp.num_extras m <> 1 then
        invalid_arg "Constrained.solve_price: every block needs exactly one extra")
    models;
  let free = ref None in
  let outcome, diag = price_chain ?max_iter ?bound ~free models in
  (outcome, diag, !free)

(* The K-switching report reads a mix in a state of stationary mass at
   most 1e-7, or with an action of probability at most 1e-6, as
   deterministic: it moves no time average by more than that. *)
let reported_mix s =
  match s.policy.Policy.mix with
  | Some ({ Policy.state; weight; _ } as mix)
    when s.stationary.(state) > 1e-7 && weight > 1e-6 && 1. -. weight > 1e-6 ->
      Some mix
  | _ -> None

let pp_switching m ppf s =
  let mix = reported_mix s in
  Format.fprintf ppf "@[<v>K-switching: %d randomized state(s), bound K = 1 (within bound)"
    (if Option.is_some mix then 1 else 0);
  Option.iter
    (fun { Policy.state; action; weight } ->
      let c = s.policy.Policy.choice.(state) in
      let pr a p = Format.fprintf ppf " %s@%.3f" (Ctmdp.action_label m state a) p in
      Format.fprintf ppf "@,  state %s:" (m.Ctmdp.state_label state);
      if action < c then begin
        pr action weight;
        pr c (1. -. weight)
      end
      else begin
        pr c (1. -. weight);
        pr action weight
      end)
    mix;
  Format.fprintf ppf "@]"
